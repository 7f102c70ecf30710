"""Matched bases, strong matchings, and scaling maps between subspaces.

An ordered basis (a_1..a_n) of A is matched to an ordered basis (b_1..b_n)
of B when for each i every x in B with a_i*x in A already lies in the span
of the b_j with j != i.

A strong matching is a linear isomorphism f: A -> B that matches every
ordered basis of A to its image.  One exists exactly when no nonzero
product a*b with a in A, b in B lands back in A.  Deciding that product
condition exactly is a rational-point problem; the procedure here layers
exact certificates (disjoint product span, explicit witnesses, a complete
pencil analysis whenever one side has dimension at most two) over a
best-effort search, and reports when its positive answer is not backed by
a decisive certificate.

Both questions read one residual tensor R[i][j] = reduce_A(a_i*y_j), y_j the
canonical basis of B, with each product computed once per call.  Row i has
kernel U_i = {x in B : a_i*x in A}: (b_j) is matched when the i-th coordinate
functional of (b_j) vanishes on U_i for every i, Hall violators stack rows,
and the strong-matching pencils read one index as a moving vector.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (AlgebraElement, AmbientError, LaurentAmbient, Subspace,
                      divide, echelonize, integer_determinant, invert_matrix,
                      kernel_basis, rref, solve_linear, _frame, _primitive)

HALL_SUBSET_CAP = 12
DEFAULT_RETRIES = 200
_FALLBACK_GRID = (0, 1, -1, 2, -2, 3, -3)
_FALLBACK_STEP_CAP = 500_000


class UnityInTargetError(ValueError):
    """Matched bases into B require the unity to lie outside B."""


class StrongMatchingRequiredError(ValueError):
    """The operation needs strong_matching_exists(A, B) to hold."""


class InvariantViolationError(RuntimeError):
    """A verified statement failed on concrete data; indicates a defect."""


class MatchBasisInconclusiveError(RuntimeError):
    """Randomized construction exhausted retries beyond the certificate cap."""


def _combination(coeffs: Sequence[Fraction], elements: Sequence[AlgebraElement],
                 ambient) -> AlgebraElement:
    """sum(c_k * elements[k]), accumulated from zero in the given ambient."""
    acc = AlgebraElement(ambient, {})
    for c, el in zip(coeffs, elements):
        if c != 0:
            acc = acc + el.scale(c)
    return acc


class OrderedBasis:
    """An explicitly ordered basis of a subspace."""

    def __init__(self, subspace: Subspace, elements: Sequence[AlgebraElement]):
        self.subspace = subspace
        self.elements = tuple(elements)
        if len(self.elements) != subspace.dim:
            raise AmbientError(
                f"expected {subspace.dim} basis elements, got {len(self.elements)}")
        for el in self.elements:
            if not subspace.contains(el):
                raise AmbientError(f"{el.format()} is not a member of the subspace")
        if echelonize(subspace.ambient, self.elements).dim != len(self.elements):
            raise AmbientError("ordered basis elements are linearly dependent")
        self._solve_frame = _frame(self.elements)
        self._solve_rows = None

    @classmethod
    def canonical(cls, subspace: Subspace) -> "OrderedBasis":
        return cls(subspace, subspace.basis)

    @property
    def n(self) -> int:
        return len(self.elements)

    def coords(self, x: AlgebraElement) -> Optional[list[Fraction]]:
        """Coefficients of x over this ordered basis, or None when outside."""
        if x.is_zero:
            return [Fraction(0)] * self.n
        frame = self._solve_frame
        frame_set = set(frame)
        if any(k not in frame_set for k in x.support()):
            return None
        if self._solve_rows is None:
            dense = [el.to_dense(frame) for el in self.elements]
            self._solve_rows = [[dense[j][i] for j in range(self.n)]
                                for i in range(len(frame))]
        rhs = x.to_dense(frame)
        return solve_linear(self._solve_rows, rhs)

    def element_from_coords(self, coords: Sequence[Fraction]) -> AlgebraElement:
        return _combination(coords, self.elements, self.subspace.ambient)

    def omit(self, index: int) -> Subspace:
        """Span of the basis with one element left out."""
        rest = [el for k, el in enumerate(self.elements) if k != index]
        return echelonize(self.subspace.ambient, rest)

    def __repr__(self) -> str:
        inside = ", ".join(el.format() for el in self.elements)
        return f"OrderedBasis({inside})"


class LinearIso:
    """Invertible linear map between equal-dimension subspaces.

    Column j of the matrix holds the codomain-basis coordinates of the image
    of the j-th domain basis element.
    """

    def __init__(self, domain: OrderedBasis, codomain: OrderedBasis,
                 matrix: Sequence[Sequence[Fraction]]):
        if domain.n != codomain.n:
            raise AmbientError("domain and codomain dimensions differ")
        self.domain = domain
        self.codomain = codomain
        self.matrix = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        n = domain.n
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise AmbientError("iso matrix must be square of the basis dimension")
        self._inverse_matrix = invert_matrix([list(row) for row in self.matrix])
        if self._inverse_matrix is None:
            raise AmbientError("iso matrix is singular")

    @property
    def n(self) -> int:
        return self.domain.n

    @classmethod
    def from_images(cls, domain: OrderedBasis, codomain: OrderedBasis,
                    images: Sequence[AlgebraElement]) -> "LinearIso":
        cols = []
        for im in images:
            c = codomain.coords(im)
            if c is None:
                raise AmbientError(f"image {im.format()} lies outside the codomain")
            cols.append(c)
        n = len(cols)
        matrix = [[cols[j][i] for j in range(n)] for i in range(domain.n)]
        return cls(domain, codomain, matrix)

    @classmethod
    def multiplication_by(cls, alpha: AlgebraElement, a: Subspace,
                          b: Subspace) -> "LinearIso":
        domain = OrderedBasis.canonical(a)
        codomain = OrderedBasis.canonical(b)
        return cls.from_images(domain, codomain,
                               [alpha * el for el in domain.elements])

    @classmethod
    def canonical_identity(cls, a: Subspace, b: Subspace) -> "LinearIso":
        n = a.dim
        eye = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return cls(OrderedBasis.canonical(a), OrderedBasis.canonical(b), eye)

    @classmethod
    def random(cls, a: Subspace, b: Subspace, rng: random.Random,
               max_tries: int = 200) -> "LinearIso":
        n = a.dim
        for _ in range(max_tries):
            matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            if invert_matrix([list(r) for r in matrix]) is not None:
                return cls(OrderedBasis.canonical(a), OrderedBasis.canonical(b), matrix)
        raise AmbientError("failed to draw an invertible matrix")

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        coords = self.domain.coords(x)
        if coords is None:
            raise AmbientError(f"{x.format()} lies outside the domain")
        out = [sum((row[j] * coords[j] for j in range(self.n)), Fraction(0))
               for row in self.matrix]
        return self.codomain.element_from_coords(out)

    def image_basis(self) -> tuple[AlgebraElement, ...]:
        return tuple(self.apply(el) for el in self.domain.elements)

    def compose(self, other: "LinearIso") -> "LinearIso":
        """self after other."""
        if other.codomain.subspace != self.domain.subspace:
            raise AmbientError("composition domains do not line up")
        images = [self.apply(other.apply(x)) for x in other.domain.elements]
        return LinearIso.from_images(other.domain, self.codomain, images)

    def inverse(self) -> "LinearIso":
        return LinearIso(self.codomain, self.domain, self._inverse_matrix)

    def to_json(self) -> dict:
        return {"matrix": [[str(v) for v in row] for row in self.matrix]}

    def __repr__(self) -> str:
        return f"LinearIso(n={self.n})"


def random_ordered_basis(subspace: Subspace, rng: random.Random,
                         max_tries: int = 200) -> OrderedBasis:
    """A random ordered basis drawn by an invertible integer change of basis."""
    n = subspace.dim
    canonical = OrderedBasis.canonical(subspace)
    for _ in range(max_tries):
        matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        if invert_matrix([list(r) for r in matrix]) is None:
            continue
        elements = [canonical.element_from_coords([matrix[i][j] for i in range(n)])
                    for j in range(n)]
        return OrderedBasis(subspace, elements)
    raise AmbientError("failed to draw an invertible change of basis")


def members_with_products_in(space: Subspace,
                             constraints: Sequence[tuple[AlgebraElement, Subspace]]) -> Subspace:
    """The subspace {x in space : a*x in target for every (a, target)}.

    Each constraint is linear in x: reduce a*s_k against the target for every
    basis vector s_k of the space and take the kernel of the residual system.
    """
    if space.is_zero or not constraints:
        return space
    rows: list[list[Fraction]] = []
    for a, target in constraints:
        residuals = [target.reduce(a * s) for s in space.basis]
        frame = _frame(residuals)
        for key in frame:
            rows.append([r.coefficient(key) for r in residuals])
    if not rows:
        return space
    vecs = []
    for combo in kernel_basis(rows, space.dim):
        acc = AlgebraElement(space.ambient, {})
        for c, el in zip(combo, space.basis):
            if c != 0:
                acc = acc + el.scale(c)
        vecs.append(acc)
    return echelonize(space.ambient, vecs)


class _Residual:
    """The residual tensor R[i][j] = reduce_A(x_i * y_j), for x_1..x_n an
    ordered basis of A and y_1..y_m the canonical basis of B.

    Rows are built on first use, each product once, kept beside its residual.
    ``reduce`` is a projection with kernel A (Subspace is in RREF), so row i
    has kernel U_i = {y in B : x_i*y in A}, in canonical coordinates of B.
    """

    def __init__(self, a_elements: Sequence[AlgebraElement], a_space: Subspace,
                 b_space: Subspace):
        self.a_elements = tuple(a_elements)
        self.a_space, self.b_space = a_space, b_space
        self._rows, self._kernels, self._pencils = {}, {}, {}
        self.frame: list[int] = []

    def row(self, i: int) -> tuple[list[AlgebraElement], list[AlgebraElement]]:
        """The products x_i*y_j and their residuals modulo A."""
        if i not in self._rows:
            products = [self.a_elements[i] * y for y in self.b_space.basis]
            self._rows[i] = (products, [self.a_space.reduce(p) for p in products])
        return self._rows[i]

    def equations(self, i: int) -> list[list[Fraction]]:
        """Row i as equations on canonical coordinates of B, one per key."""
        residuals = self.row(i)[1]
        return [[r.coefficient(key) for r in residuals] for key in _frame(residuals)]

    def kernel(self, i: int) -> list[list[Fraction]]:
        """A basis of U_i in canonical coordinates of B."""
        if i not in self._kernels:
            self._kernels[i] = kernel_basis(self.equations(i), self.b_space.dim)
        return self._kernels[i]

    def matched_by(self, bbasis: OrderedBasis) -> bool:
        """Whether each U_i lies in the span of the b_j with j != i, that is,
        whether the i-th coordinate functional of bbasis vanishes on U_i."""
        # In RREF, coordinates over the canonical basis are the pivot coefficients.
        pivots = [row.items[0][0] for row in self.b_space.basis]
        functionals = invert_matrix([[b.coefficient(p) for b in bbasis.elements]
                                     for p in pivots])
        return all(not any(sum(map(operator.mul, phi, u)) for u in self.kernel(i))
                   for i, phi in enumerate(functionals))

    def hall_violator(self) -> Optional[tuple[int, ...]]:
        """The first 1-based index set I, smallest first and then
        lexicographic, whose rows have a common kernel of dimension above
        n - |I| (that is, stacked rank below |I|); or None."""
        n = len(self.a_elements)
        equations = [self.equations(i) for i in range(n)]
        stacked: dict[tuple[int, ...], list[list[Fraction]]] = {(): []}
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                reduced, pivots = rref(stacked[subset[:-1]] + equations[subset[-1]])
                stacked[subset] = reduced
                if len(pivots) < size:
                    return tuple(i + 1 for i in subset)
        return None

    def pencil(self, side: str) -> list[list[list[int]]]:
        """The residuals over ``frame`` as a pencil, indexed [column][variable]:
        side "b" varies b over B with columns indexed by the basis of A, side
        "a" is the transpose.  One common denominator is cleared, so entries
        are integers; scaling changes neither a kernel nor the rank-drop locus."""
        if not self._pencils:
            rows = [self.row(i)[1] for i in range(len(self.a_elements))]
            self.frame = _frame(r for row in rows for r in row)
            dense = [[r.to_dense(self.frame) for r in row] for row in rows]
            den = math.lcm(*(v.denominator for row in dense for vec in row for v in vec))
            dense = [[[v.numerator * (den // v.denominator) for v in vec] for vec in row]
                     for row in dense]
            self._pencils = {"b": dense, "a": [list(col) for col in zip(*dense)]}
        return self._pencils[side]

    def disjoint_product_span(self) -> bool:
        """Whether the span of all products meets A only in zero: reduce_A
        has kernel A, so exactly when the residuals span as much."""
        rows = [self.row(i) for i in range(len(self.a_elements))]
        ambient = self.a_space.ambient
        products = echelonize(ambient, [p for ps, _ in rows for p in ps])
        return echelonize(ambient, [r for _, rs in rows for r in rs]).dim == products.dim


def is_matched_basis(abasis: OrderedBasis, bbasis: OrderedBasis) -> bool:
    """Check the matched-basis condition for the two ordered bases."""
    if abasis.n != bbasis.n:
        raise AmbientError("bases must have equal length")
    a_space = abasis.subspace
    b_space = bbasis.subspace
    if not a_space.ambient.compatible(b_space.ambient):
        raise AmbientError("subspaces live in incompatible ambients")
    return _Residual(abasis.elements, a_space, b_space).matched_by(bbasis)


def linear_hall_violator(abasis: OrderedBasis, b_space: Subspace) -> Optional[tuple[int, ...]]:
    """A 1-based index set I with dim{x in B : a_i*x in A for all i in I}
    exceeding n - |I|, or None.  Subsets are tried smallest first, then
    lexicographically."""
    n = abasis.n
    if n > HALL_SUBSET_CAP:
        raise AmbientError(f"violator search supports n <= {HALL_SUBSET_CAP}")
    if b_space.dim != n:
        raise AmbientError("B must have the same dimension as the basis of A")
    return _Residual(abasis.elements, abasis.subspace, b_space).hall_violator()


@dataclass
class MatchBasisResult:
    """Outcome of a matched-basis construction."""
    basis: Optional[OrderedBasis]
    violator: Optional[tuple[int, ...]]
    attempts: int

    @property
    def found(self) -> bool:
        return self.basis is not None


def _dual_basis(b_space: Subspace, functional_rows: list[list[Fraction]]) -> Optional[OrderedBasis]:
    inv = invert_matrix([list(r) for r in functional_rows])
    if inv is None:
        return None
    # Column j of the inverse holds the canonical coordinates of b_j.
    return OrderedBasis(b_space, [_combination(col, b_space.basis, b_space.ambient)
                                  for col in zip(*inv)])


def match_basis(abasis: OrderedBasis, b_space: Subspace, *,
                retries: int = DEFAULT_RETRIES, seed: int = 0) -> MatchBasisResult:
    """Construct an ordered basis of B matched to the given basis of A.

    Dual-transversal method: pick functionals phi_i vanishing on
    U_i = {x in B : a_i*x in A} that are jointly independent, then take the
    dual basis.  Functionals are drawn with random integer coefficients and
    retried; for n <= 6 a deterministic grid search backs the random phase.
    When a Hall-type violator exists the result reports it instead.
    """
    n = abasis.n
    if b_space.dim != n:
        raise AmbientError("B must have the same dimension as the basis of A")
    if b_space.contains(b_space.ambient.unity()):
        raise UnityInTargetError("B contains the unity; no matched basis can exist")
    residual = _Residual(abasis.elements, abasis.subspace, b_space)
    if n <= HALL_SUBSET_CAP:
        violator = residual.hall_violator()
        if violator is not None:
            return MatchBasisResult(None, violator, 0)
    # Functionals on B vanishing on U_i, over the canonical basis of B.
    annihilators = [kernel_basis(residual.kernel(i), n) for i in range(n)]
    rng = random.Random(seed)
    attempts = 0
    for _ in range(retries):
        attempts += 1
        functional_rows = [_mix([rng.randint(-9, 9) for _ in ann], ann, n)
                           for ann in annihilators]
        candidate = _dual_basis(b_space, functional_rows)
        if candidate is None:
            continue
        if residual.matched_by(candidate):
            return MatchBasisResult(candidate, None, attempts)
    if n <= 6:
        candidate = _deterministic_transversal(b_space, annihilators)
        if candidate is not None and residual.matched_by(candidate):
            return MatchBasisResult(candidate, None, attempts + 1)
    raise MatchBasisInconclusiveError(
        "matched-basis construction exhausted its retries without a certificate")


def _mix(coeffs: Sequence[int], vectors: list[list[Fraction]], n: int) -> list[Fraction]:
    """The linear combination of the length-n vectors."""
    row = [Fraction(0)] * n
    for c, vec in zip(coeffs, vectors):
        if c:
            row = [r + c * v for r, v in zip(row, vec)]
    return row


def _deterministic_transversal(b_space: Subspace,
                               annihilators: list[list[list[Fraction]]]) -> Optional[OrderedBasis]:
    """Complete grid-backed search for independent functionals, n <= 6.

    Coefficient tuples over each annihilator basis are tried in a fixed
    order; a grid of more than n+1 values per coordinate suffices to find an
    independent transversal whenever one exists.
    """
    n = b_space.dim
    chosen: list[list[Fraction]] = []
    steps = 0

    def independent(rows: list[list[Fraction]]) -> bool:
        reduced, pivots = rref([list(r) for r in rows])
        return len(pivots) == len(rows)

    def rec(i: int) -> bool:
        nonlocal steps
        if i == n:
            return True
        for combo in itertools.product(_FALLBACK_GRID, repeat=len(annihilators[i])):
            steps += 1
            if steps > _FALLBACK_STEP_CAP:
                return False
            if not any(combo):
                continue
            row = _mix(combo, annihilators[i], n)
            if all(v == 0 for v in row):
                continue
            chosen.append(row)
            if independent(chosen) and rec(i + 1):
                return True
            chosen.pop()
        return False

    if not rec(0):
        return None
    return _dual_basis(b_space, chosen)


@dataclass
class TranslateWitness:
    """A nonzero l with l*M inside A, for a unital subalgebra M."""
    subalgebra: Subspace
    translate: AlgebraElement

    def to_json(self) -> dict:
        return {"subalgebra": self.subalgebra.to_json(),
                "translate": self.translate.to_json()}


def contains_translate(a_space: Subspace, m_space: Subspace) -> Optional[TranslateWitness]:
    """A witness translate l with l*M contained in A, or None.

    M must be a unital subalgebra (contains the unity, closed under
    products).  Over the Laurent ambient the only finite-dimensional unital
    subalgebra is the scalar line, and scalar translates of it never hide in
    a proper subspace pattern of interest, so the answer there is None.
    """
    ambient = a_space.ambient
    if not ambient.compatible(m_space.ambient):
        raise AmbientError("subspaces live in incompatible ambients")
    if not m_space.contains(ambient.unity()):
        raise AmbientError("M must contain the unity")
    for x in m_space.basis:
        for y in m_space.basis:
            if not m_space.contains(x * y):
                raise AmbientError("M is not closed under multiplication")
    if isinstance(ambient, LaurentAmbient):
        return None
    full = echelonize(ambient, [ambient.basis_element(k) for k in range(ambient.dim)])
    solutions = members_with_products_in(
        full, [(m, a_space) for m in m_space.basis])
    if solutions.is_zero:
        return None
    translate = solutions.basis[0]
    for m in m_space.basis:
        if not a_space.contains(translate * m):
            raise AssertionError("translate solve produced an invalid witness")
    return TranslateWitness(m_space, translate)


# --- strong matchings -----------------------------------------------------


@dataclass
class ProductWitness:
    """Concrete elements with a*b a nonzero member of A."""
    a: AlgebraElement
    b: AlgebraElement
    product: AlgebraElement


@dataclass
class StrongMatchingReport:
    exists: bool
    certificate: str
    witness: Optional[ProductWitness]
    decisive: bool


def _kernel_witness(residual: _Residual, side: str,
                    beta: Sequence[Fraction]) -> Optional[ProductWitness]:
    """A genuine witness at this value of the moving vector, if the pencil
    drops rank there and some kernel vector gives a nonzero product."""
    if all(c == 0 for c in beta):
        return None
    dense = residual.pencil(side)
    scale = math.lcm(*(c.denominator for c in beta))
    ints = [c.numerator * (scale // c.denominator) for c in beta]
    matrix = [[sum(c * part[r] for c, part in zip(ints, col) if c) for col in dense]
              for r in range(len(residual.frame))]
    kernel = kernel_basis(matrix, len(dense))
    if not kernel:
        return None
    a_space = residual.a_space
    a_basis, b_basis = a_space.basis, residual.b_space.basis
    moving_basis, fixed_basis = (b_basis, a_basis) if side == "b" else (a_basis, b_basis)
    moving = _combination(beta, moving_basis, a_space.ambient)
    for combo in kernel:
        partner = _combination(combo, fixed_basis, a_space.ambient)
        if partner.is_zero:
            continue
        a, b = (partner, moving) if side == "b" else (moving, partner)
        product = a * b
        if not product.is_zero:
            if not a_space.contains(product):
                raise AssertionError("pencil kernel produced a product outside A")
            return ProductWitness(a, b, product)
    return None


def _poly_trim(poly: Sequence[int | Fraction]) -> list[int | Fraction]:
    out = list(poly)
    while out and out[-1] == 0:
        out.pop()
    return out


def _pseudo_remainder(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """The remainder of |lc(den)|^(deg num - deg den + 1) * num by den: a
    positive multiple of the rational remainder, divided by its content."""
    if den[-1] < 0:
        den = [-c for c in den]
    lead, rem = den[-1], list(num)
    for top in range(len(num) - 1, len(den) - 2, -1):
        factor, shift = rem[top], top - len(den) + 1
        rem = [lead * c for c in rem[:top]]
        for j, d in enumerate(den[:-1]):
            rem[shift + j] -= factor * d
    return _primitive(_poly_trim(rem))


def _remainder_chain(poly: Sequence[int]) -> list[list[int]]:
    """The Sturm chain of an integer polynomial: poly, poly', then negated
    pseudo-remainders.  Every member is a positive multiple of its rational
    counterpart, so signs are kept; the last is gcd(poly, poly') times a constant."""
    chain = [list(poly), _primitive([i * c for i, c in enumerate(poly)][1:])]
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _exact_quotient(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / den for primitive integer polynomials with den dividing num over
    Q; by Gauss's lemma the quotient is integral, so each step divides exactly."""
    rem, quot = list(num), [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + len(den) - 1] // den[-1]
        for j, d in enumerate(den):
            rem[k + j] -= quot[k] * d
    return quot


def _scaled_value(poly: Sequence[int], x: Fraction) -> int:
    """d^deg * poly(n/d) for x = n/d with d > 0, by homogeneous Horner:
    the sum of c_i n^i d^(deg - i), an integer with the sign of poly(x)."""
    acc, power = 0, 1
    for c in reversed(poly):
        acc = acc * x.numerator + c * power
        power *= x.denominator
    return acc


def _sign_variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    signs = [v > 0 for v in (_scaled_value(p, x) for p in chain) if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _rational_roots(poly: Sequence[int | Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial, exactly.

    Int or Fraction coefficients are cleared once to a primitive integer
    polynomial, and gcd(p, p') is divided out to leave the square-free part.
    Its Sturm chain of integer pseudo-remainders, signed as the rational one
    (see ``_remainder_chain``), is evaluated by homogeneous integer Horner.
    Sturm isolation plus bisection narrows each isolating interval far enough
    that a rational root with admissible denominator is recovered by
    best-approximation and confirmed by exact evaluation.  Divisor sweeps of
    the constant and leading coefficients are avoided on purpose: pencil
    polynomials routinely carry huge coefficients.
    """
    coeffs = _poly_trim(poly)
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    roots = set()
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return sorted(roots)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = _primitive([c.numerator * (den // c.denominator) for c in coeffs])
    chain = _remainder_chain(ints)
    if len(chain[-1]) > 1:
        ints = _exact_quotient(ints, chain[-1])
        chain = _remainder_chain(ints)
    if len(ints) == 2:
        roots.add(Fraction(-ints[0], ints[1]))
        return sorted(roots)
    lead = abs(ints[-1])
    bound = 1 + Fraction(max(map(abs, ints)), lead)
    width = Fraction(1, 2 * lead * lead)
    intervals = [(-bound, bound,
                  _sign_variations(chain, -bound), _sign_variations(chain, bound))]
    isolated = []
    while intervals:
        lo, hi, vlo, vhi = intervals.pop()
        count = vlo - vhi
        if count <= 0:
            continue
        if count == 1:
            isolated.append((lo, hi, vlo, vhi))
            continue
        mid = (lo + hi) / 2
        if _scaled_value(ints, mid) == 0:
            roots.add(mid)
        vmid = _sign_variations(chain, mid)
        intervals.append((lo, mid, vlo, vmid))
        intervals.append((mid, hi, vmid, vhi))
    for lo, hi, vlo, vhi in isolated:
        while hi - lo >= width:
            mid = (lo + hi) / 2
            if _scaled_value(ints, mid) == 0:
                break
            vmid = _sign_variations(chain, mid)
            if vlo - vmid == 1:
                hi, vhi = mid, vmid
            else:
                lo, vlo = mid, vmid
        candidate = ((lo + hi) / 2).limit_denominator(lead)
        if _scaled_value(ints, candidate) == 0:
            roots.add(candidate)
    return sorted(roots)


def _gram_determinant(residual: _Residual, side: str, axis: int) -> list[int]:
    """det(M^T M) for beta = e_other + s*e_axis as a polynomial in s, where
    M is the integer pencil of the given side at beta.

    Only meaningful for two-variable pencils; axis selects which of the two
    variables carries s.  The degree <= 2m polynomial is sampled at s = 0..2m
    by integer determinants and recovered by exact Newton interpolation.
    """
    dense = residual.pencil(side)
    other = 1 - axis
    degree = 2 * len(dense)
    values = []
    for s in range(degree + 1):
        cols = [[c + s * d for c, d in zip(col[other], col[axis])] for col in dense]
        gram = [[sum(map(operator.mul, ci, cj)) for cj in cols] for ci in cols]
        values.append(integer_determinant(gram))
    # Newton form at the nodes 0..2m: the k-th forward difference over k!
    # multiplies s(s-1)..(s-k+1).  Horner over that basis, with everything
    # scaled by (2m)! so each coefficient stays an integer.
    for k in range(1, degree + 1):
        for i in range(degree, k - 1, -1):
            values[i] -= values[i - 1]
    scale = math.factorial(degree)
    coeffs = [values[degree]]
    for k in range(degree - 1, -1, -1):
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= k * coeffs[i + 1]
        coeffs[0] += values[k] * (scale // math.factorial(k))
    return [c // scale for c in coeffs]


def _two_variable_decision(residual: _Residual,
                           side: str) -> tuple[bool, Optional[ProductWitness]]:
    """Exact witness decision for the two-variable pencil of the given side.

    Returns (decisive, witness).  The rank-drop locus of a two-variable
    pencil is cut out by one univariate polynomial per affine patch, whose
    rational roots are enumerable, so the decision is complete except in one
    corner: when the polynomial vanishes identically over an ambient with
    zero divisors, only finitely many of the everywhere-degenerate
    directions can be probed for a nonzero product.
    """
    candidates: list[list[Fraction]] = []
    poly = _gram_determinant(residual, side, axis=1)
    vanishes = not any(c != 0 for c in poly)
    if vanishes:
        # Every direction (1, s) drops rank; probe small values of s.
        candidates.extend([Fraction(1), Fraction(s)] for s in range(0, 8))
    else:
        candidates.extend([Fraction(1), root] for root in _rational_roots(poly))
    candidates += [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    for beta in candidates:
        witness = _kernel_witness(residual, side, beta)
        if witness is not None:
            return True, witness
    if vanishes and not isinstance(residual.a_space.ambient, LaurentAmbient):
        return False, None
    return True, None


_GRID_BY_VARS = {3: 2, 4: 1, 5: 1}


def strong_matching_report(a_space: Subspace, b_space: Subspace,
                           probe_seed: int = 0) -> StrongMatchingReport:
    """Decide whether some (equivalently, every) linear isomorphism A -> B
    is a strong matching: no nonzero product a*b may land in A.

    Layered decision: a disjoint product span certifies yes; an explicit
    product witness certifies no; a pencil analysis is complete whenever one
    side has dimension at most two.  Beyond that a randomized and small-grid
    search runs, and a positive answer is flagged as not decisive.
    """
    if not a_space.ambient.compatible(b_space.ambient):
        raise AmbientError("subspaces live in incompatible ambients")
    if a_space.is_zero or b_space.is_zero:
        raise AmbientError("strong matchings need nonzero subspaces")
    residual = _Residual(a_space.basis, a_space, b_space)
    if residual.disjoint_product_span():
        return StrongMatchingReport(True, "disjoint-product-span", None, True)
    nvars = {"b": b_space.dim, "a": a_space.dim}
    # Unit directions: products of one basis vector with the opposite space.
    for side in ("b", "a"):
        for j in range(nvars[side]):
            beta = [Fraction(1 if k == j else 0) for k in range(nvars[side])]
            witness = _kernel_witness(residual, side, beta)
            if witness is not None:
                return StrongMatchingReport(False, "basis-witness", witness, True)
    # Random probes catch identically degenerate pencils.
    rng = random.Random(probe_seed)
    for side in ("b", "a"):
        for _ in range(6):
            beta = [Fraction(rng.randint(-19, 19)) for _ in range(nvars[side])]
            witness = _kernel_witness(residual, side, beta)
            if witness is not None:
                return StrongMatchingReport(False, "probe-witness", witness, True)
    for side in ("b", "a"):
        if nvars[side] == 1:
            # Scaling the only direction rescales the same kernel condition,
            # and the unit sweep above already checked it.
            return StrongMatchingReport(True, "single-direction", None, True)
        if nvars[side] == 2:
            decisive, witness = _two_variable_decision(residual, side)
            if witness is not None:
                return StrongMatchingReport(False, "pencil-witness", witness, True)
            if decisive:
                return StrongMatchingReport(True, "no-rational-witness", None, True)
    smaller = min(nvars, key=nvars.get)
    radius = _GRID_BY_VARS.get(nvars[smaller], 1)
    for combo in itertools.product(range(-radius, radius + 1), repeat=nvars[smaller]):
        if not any(combo):
            continue
        witness = _kernel_witness(residual, smaller, [Fraction(c) for c in combo])
        if witness is not None:
            return StrongMatchingReport(False, "grid-witness", witness, True)
    return StrongMatchingReport(True, "no-witness-found", None, False)


def strong_matching_exists(a_space: Subspace, b_space: Subspace) -> bool:
    return strong_matching_report(a_space, b_space).exists


def violating_basis_pair(a_space: Subspace, b_space: Subspace,
                         witness: ProductWitness) -> tuple[OrderedBasis, OrderedBasis]:
    """Ordered bases that fail the matched-basis condition, built from a
    product witness: put a and b first and complete both independently."""

    def extend(space: Subspace, first: AlgebraElement) -> OrderedBasis:
        chosen = [first]
        for el in space.basis:
            if echelonize(space.ambient, chosen + [el]).dim == len(chosen) + 1:
                chosen.append(el)
            if len(chosen) == space.dim:
                break
        return OrderedBasis(space, chosen)

    abasis = extend(a_space, witness.a)
    bbasis = extend(b_space, witness.b)
    if is_matched_basis(abasis, bbasis):
        raise InvariantViolationError(
            "witness-directed construction failed to violate the matched-basis condition")
    return abasis, bbasis


# --- scalings, equivalence, acyclicity ------------------------------------


def find_scaling(a_space: Subspace, b_space: Subspace) -> Optional[AlgebraElement]:
    """An ambient element alpha with alpha*A = B, when one is representable.

    The candidate space {l : l*a in B for all basis a of A} is solved over a
    degree window that any solution must occupy (Laurent) or over the whole
    ambient (structure-constant kind)."""
    ambient = a_space.ambient
    if not ambient.compatible(b_space.ambient):
        raise AmbientError("subspaces live in incompatible ambients")
    if a_space.dim != b_space.dim or a_space.is_zero:
        return None
    if isinstance(ambient, LaurentAmbient):
        a_bot = min(el.items[0][0] for el in a_space.basis)
        a_top = max(el.items[-1][0] for el in a_space.basis)
        b_keys = _frame(b_space.basis)
        lo = b_keys[0] - a_bot
        hi = b_keys[-1] - a_top
        if lo > hi:
            return None
        window = echelonize(ambient, [AlgebraElement(ambient, {k: Fraction(1)})
                                      for k in range(lo, hi + 1)])
    else:
        window = echelonize(ambient, [ambient.basis_element(k)
                                      for k in range(ambient.dim)])
    solutions = members_with_products_in(window, [(a, b_space) for a in a_space.basis])
    for candidate in solutions.basis:
        if candidate.is_zero:
            continue
        image = echelonize(ambient, [candidate * a for a in a_space.basis])
        if image == b_space:
            return candidate
    return None


def is_equivalent(f: LinearIso, g: LinearIso, phi: LinearIso) -> bool:
    """Check a*f(a) = phi(a)*g(phi(a)) for all a, via the polarized identity
    on all basis pairs (valid over the rationals)."""
    if f.domain.subspace != g.domain.subspace or f.codomain.subspace != g.codomain.subspace:
        raise AmbientError("f and g must share domain and codomain")
    if (phi.domain.subspace != f.domain.subspace
            or phi.codomain.subspace != f.domain.subspace):
        raise AmbientError("phi must be an automorphism of the domain")
    basis = f.domain.elements
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            a_i, a_j = basis[i], basis[j]
            lhs = a_i * f.apply(a_j) + a_j * f.apply(a_i)
            pi, pj = phi.apply(a_i), phi.apply(a_j)
            rhs = pi * g.apply(pj) + pj * g.apply(pi)
            if lhs != rhs:
                return False
    return True


@dataclass
class LinearAcyclicResult:
    """A strong matching plus the dichotomy certificate for its acyclicity."""
    iso: LinearIso
    certificate: str
    alpha: Optional[AlgebraElement]
    acyclicity_claimed: bool


def find_acyclic_linear_matching(a_space: Subspace, b_space: Subspace) -> LinearAcyclicResult:
    """A strong matching that is acyclic up to scalar: multiplication by
    alpha when B = alpha*A (certificate "scaling"), otherwise the canonical
    identity-matrix iso (certificate "rigid").

    The acyclicity claim is made for the Laurent ambient only; for
    structure-constant ambients the construction still runs but the result
    is flagged.
    """
    report = strong_matching_report(a_space, b_space)
    if not report.exists:
        raise StrongMatchingRequiredError(
            "no strong matching exists between these subspaces")
    alpha = find_scaling(a_space, b_space)
    if alpha is not None:
        iso = LinearIso.multiplication_by(alpha, a_space, b_space)
        certificate = "scaling"
    else:
        iso = LinearIso.canonical_identity(a_space, b_space)
        certificate = "rigid"
    claimed = isinstance(a_space.ambient, LaurentAmbient)
    return LinearAcyclicResult(iso, certificate, alpha, claimed)


@dataclass
class DichotomyVerdict:
    """Which branch of the scalar-or-scaling dichotomy held."""
    branch: str
    scalar: Optional[Fraction] = None
    alpha: Optional[AlgebraElement] = None


def lemma_4_3_check(f: LinearIso, g: LinearIso, phi: LinearIso) -> DichotomyVerdict:
    """For equivalent strong matchings f, g with change of variables phi,
    verify the dichotomy: either f is a scalar multiple of g, or B is a
    scaling alpha*A of A and g o phi is multiplication by alpha.

    Failure of both branches on verified-equivalent inputs contradicts the
    dichotomy and raises InvariantViolationError.
    """
    if not isinstance(f.domain.subspace.ambient, LaurentAmbient):
        raise AmbientError("the dichotomy check applies to the Laurent ambient")
    if not is_equivalent(f, g, phi):
        raise AmbientError("f and g are not equivalent under phi")
    n = f.n
    g_matrix = []
    for j, el in enumerate(f.domain.elements):
        coords = f.codomain.coords(g.apply(el))
        if coords is None:
            raise AmbientError("g image left the shared codomain")
        g_matrix.append(coords)
    g_cols = [[g_matrix[j][i] for j in range(n)] for i in range(n)]
    ratio = None
    consistent = True
    for i in range(n):
        for j in range(n):
            gv = g_cols[i][j]
            fv = f.matrix[i][j]
            if gv == 0 and fv == 0:
                continue
            if gv == 0:
                consistent = False
                break
            candidate = fv / gv
            if ratio is None:
                ratio = candidate
            elif ratio != candidate:
                consistent = False
                break
        if not consistent:
            break
    if consistent and ratio not in (None, 0):
        return DichotomyVerdict("scalar", scalar=ratio)
    a_space = f.domain.subspace
    b_space = f.codomain.subspace
    h = g.compose(phi)
    first = f.domain.elements[0]
    mu = divide(h.apply(first), first)
    if mu is not None and not mu.is_zero:
        if all(h.apply(el) == mu * el for el in f.domain.elements):
            image = echelonize(a_space.ambient, [mu * el for el in a_space.basis])
            if image == b_space and find_scaling(a_space, b_space) is not None:
                return DichotomyVerdict("scaling", alpha=mu)
    raise InvariantViolationError(
        "equivalent strong matchings satisfied neither dichotomy branch")
