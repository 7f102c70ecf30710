"""Exact rational linear algebra over two ambient algebra kinds.

Ambients are commutative Q-algebras presented either as Laurent polynomial
windows in one variable t (finitely supported vectors indexed by integer
degree) or as finite-dimensional structure-constant algebras.  All
arithmetic is exact: over Fraction, and over integers inside row reduction
and determinants; there are no floats anywhere.  Subspaces
are kept in reduced row echelon form over an ascending key frame, so equal
subspaces compare equal structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Key = int
Rational = Union[int, str, Fraction]


class AmbientError(ValueError):
    """An ambient definition or element failed validation."""


class NotInvertibleError(ZeroDivisionError):
    """Inversion was requested for a non-invertible element."""


def parse_rational(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise AmbientError(f"{value!r} is not a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise AmbientError(f"cannot parse rational {value!r}") from exc
    raise AmbientError(f"{value!r} is not a rational number")


def format_rational(value: Fraction) -> str:
    return str(value)


class Ambient:
    """Common interface of the ambient algebra kinds."""

    kind: str = ""

    def basis_product(self, k1: Key, k2: Key) -> dict[Key, Fraction]:
        raise NotImplementedError

    def unity(self) -> "AlgebraElement":
        raise NotImplementedError

    def format_key(self, key: Key) -> str:
        raise NotImplementedError

    def compatible(self, other: "Ambient") -> bool:
        raise NotImplementedError

    def io_keys(self) -> list[Key]:
        """Keys that dense JSON vectors are indexed by."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class LaurentAmbient(Ambient):
    """Laurent polynomials in t with a degree window for io and generation.

    The window is metadata, not a quotient: multiplication auto-enlarges it,
    carrying the summed window on the product.
    """

    kind = "laurent"

    def __init__(self, dmin: int = 0, dmax: int = 8):
        if dmin > dmax:
            raise AmbientError(f"empty degree window [{dmin},{dmax}]")
        self.dmin = dmin
        self.dmax = dmax

    def basis_product(self, k1: Key, k2: Key) -> dict[Key, Fraction]:
        return {k1 + k2: Fraction(1)}

    def unity(self) -> "AlgebraElement":
        return AlgebraElement(self, {0: Fraction(1)})

    def format_key(self, key: Key) -> str:
        if key == 0:
            return "1"
        if key == 1:
            return "t"
        return f"t^{key}"

    def compatible(self, other: Ambient) -> bool:
        return isinstance(other, LaurentAmbient)

    def io_keys(self) -> list[Key]:
        return list(range(self.dmin, self.dmax + 1))

    def product_window(self, other: "LaurentAmbient") -> "LaurentAmbient":
        return LaurentAmbient(self.dmin + other.dmin, self.dmax + other.dmax)

    def t_power(self, k: int, coeff: Rational = 1) -> "AlgebraElement":
        return AlgebraElement(self, {k: parse_rational(coeff)})

    def from_coeffs(self, coeffs: dict) -> "AlgebraElement":
        return AlgebraElement(self, {int(k): parse_rational(v) for k, v in coeffs.items()})

    def to_json(self) -> dict:
        return {"kind": "laurent", "dmin": self.dmin, "dmax": self.dmax}

    def __repr__(self) -> str:
        return f"LaurentAmbient([{self.dmin},{self.dmax}])"


class StructureConstantAmbient(Ambient):
    """Finite-dimensional commutative Q-algebra given by structure constants.

    e_i * e_j = sum_k tensor[i][j][k] e_k.  Commutativity, associativity on
    all basis triples, and a two-sided unity are validated at construction.
    """

    kind = "algebra"

    def __init__(self, tensor: Sequence[Sequence[Sequence[Rational]]],
                 unity: Sequence[Rational], labels: Optional[Sequence[str]] = None):
        self.dim = len(tensor)
        if self.dim == 0:
            raise AmbientError("algebra dimension must be positive")
        self.tensor = tuple(
            tuple(tuple(parse_rational(v) for v in row) for row in plane)
            for plane in tensor)
        for plane in self.tensor:
            if len(plane) != self.dim or any(len(row) != self.dim for row in plane):
                raise AmbientError("structure tensor must be dim x dim x dim")
        unity = tuple(parse_rational(v) for v in unity)
        if len(unity) != self.dim:
            raise AmbientError("unity vector length must equal the dimension")
        self.unity_vector = unity
        if labels is None:
            labels = [f"e{i}" for i in range(self.dim)]
        self.labels = tuple(labels)
        if len(self.labels) != self.dim:
            raise AmbientError("label count must equal the dimension")
        self._validate()

    def _validate(self) -> None:
        d = self.dim
        for i in range(d):
            for j in range(i):
                if self.tensor[i][j] != self.tensor[j][i]:
                    raise AmbientError(f"structure constants are not commutative at ({i},{j})")
        basis = [AlgebraElement(self, {k: Fraction(1)}, _validated=True) for k in range(d)]
        one = AlgebraElement(self, {k: v for k, v in enumerate(self.unity_vector)},
                             _validated=True)
        for i in range(d):
            if one * basis[i] != basis[i] or basis[i] * one != basis[i]:
                raise AmbientError(f"unity vector fails at basis element {i}")
        for i in range(d):
            for j in range(d):
                ij = basis[i] * basis[j]
                for k in range(d):
                    if (ij * basis[k]) != (basis[i] * (basis[j] * basis[k])):
                        raise AmbientError(
                            f"structure constants are not associative at ({i},{j},{k})")

    def basis_product(self, k1: Key, k2: Key) -> dict[Key, Fraction]:
        return {k: v for k, v in enumerate(self.tensor[k1][k2]) if v != 0}

    def unity(self) -> "AlgebraElement":
        return AlgebraElement(self, {k: v for k, v in enumerate(self.unity_vector)})

    def format_key(self, key: Key) -> str:
        return self.labels[key]

    def compatible(self, other: Ambient) -> bool:
        return (isinstance(other, StructureConstantAmbient)
                and other.tensor == self.tensor)

    def io_keys(self) -> list[Key]:
        return list(range(self.dim))

    def basis_element(self, k: int) -> "AlgebraElement":
        if not 0 <= k < self.dim:
            raise AmbientError(f"basis index {k} out of range")
        return AlgebraElement(self, {k: Fraction(1)})

    @classmethod
    def power_basis(cls, reduction: Sequence[Rational],
                    labels: Optional[Sequence[str]] = None) -> "StructureConstantAmbient":
        """Algebra Q[x]/(x^d - r(x)) in the power basis 1, x, .., x^(d-1).

        ``reduction`` lists the coefficients of r, so x^d = sum reduction[i] x^i.
        """
        d = len(reduction)
        red = [parse_rational(v) for v in reduction]

        def reduce_power(vec: list[Fraction]) -> list[Fraction]:
            # vec has length d+1; fold the x^d coefficient down.
            head, top = vec[:d], vec[d]
            return [c + top * r for c, r in zip(head, red)]

        powers = []
        current = [Fraction(0)] * d
        current[0] = Fraction(1)
        for _ in range(2 * d):
            powers.append(list(current))
            shifted = [Fraction(0)] + current
            current = reduce_power(shifted)
        tensor = [[powers[i + j] for j in range(d)] for i in range(d)]
        unity = [Fraction(1)] + [Fraction(0)] * (d - 1)
        if labels is None:
            labels = ["1", "x"] + [f"x^{k}" for k in range(2, d)]
        return cls(tensor, unity, labels)

    def to_json(self) -> dict:
        return {"kind": "algebra", "dim": self.dim,
                "tensor": [[[format_rational(v) for v in row] for row in plane]
                           for plane in self.tensor],
                "unity": [format_rational(v) for v in self.unity_vector]}

    def __repr__(self) -> str:
        return f"StructureConstantAmbient(dim={self.dim})"


def ambient_from_json(doc: dict) -> Ambient:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise AmbientError(f"ambient description must be an object with a 'kind': {doc!r}")
    if doc["kind"] == "laurent":
        return LaurentAmbient(int(doc.get("dmin", 0)), int(doc.get("dmax", 8)))
    if doc["kind"] == "algebra":
        return StructureConstantAmbient(doc.get("tensor", ()), doc.get("unity", ()))
    raise AmbientError(f"unknown ambient kind {doc['kind']!r}")


class AlgebraElement:
    """A finitely supported rational vector over an ambient's basis keys."""

    __slots__ = ("ambient", "items")

    def __init__(self, ambient: Ambient, coeffs: dict, *, _validated: bool = False):
        self.ambient = ambient
        if _validated:
            self.items = tuple(sorted(coeffs.items()))
        else:
            cleaned = {}
            for k, v in coeffs.items():
                v = parse_rational(v)
                if v != 0:
                    cleaned[int(k)] = v
            if isinstance(ambient, StructureConstantAmbient):
                for k in cleaned:
                    if not 0 <= k < ambient.dim:
                        raise AmbientError(f"coordinate index {k} out of range")
            self.items = tuple(sorted(cleaned.items()))

    @property
    def coeffs(self) -> dict[Key, Fraction]:
        return dict(self.items)

    @property
    def is_zero(self) -> bool:
        return not self.items

    def support(self) -> tuple[Key, ...]:
        return tuple(k for k, _ in self.items)

    def coefficient(self, key: Key) -> Fraction:
        for k, v in self.items:
            if k == key:
                return v
        return Fraction(0)

    def _require_compatible(self, other: "AlgebraElement") -> None:
        if not self.ambient.compatible(other.ambient):
            raise AmbientError("elements live in incompatible ambients")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_compatible(other)
        out = dict(self.items)
        for k, v in other.items:
            out[k] = out.get(k, Fraction(0)) + v
        return AlgebraElement(self.ambient, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_compatible(other)
        out = dict(self.items)
        for k, v in other.items:
            out[k] = out.get(k, Fraction(0)) - v
        return AlgebraElement(self.ambient, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.ambient, {k: -v for k, v in self.items})

    def scale(self, c: Rational) -> "AlgebraElement":
        c = parse_rational(c)
        return AlgebraElement(self.ambient, {k: c * v for k, v in self.items})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_compatible(other)
        out: dict[Key, Fraction] = {}
        for k1, c1 in self.items:
            for k2, c2 in other.items:
                for k, v in self.ambient.basis_product(k1, k2).items():
                    out[k] = out.get(k, Fraction(0)) + c1 * c2 * v
        ambient = self.ambient
        if isinstance(ambient, LaurentAmbient) and isinstance(other.ambient, LaurentAmbient):
            ambient = ambient.product_window(other.ambient)
        return AlgebraElement(ambient, out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.ambient.compatible(other.ambient)
                and self.items == other.items)

    def __hash__(self) -> int:
        return hash(self.items)

    def format(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, v in self.items:
            key = self.ambient.format_key(k)
            if key == "1":
                parts.append(format_rational(v))
            elif v == 1:
                parts.append(key)
            elif v == -1:
                parts.append(f"-{key}")
            else:
                parts.append(f"{format_rational(v)}*{key}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_dense(self, keys: Sequence[Key]) -> list[Fraction]:
        lookup = dict(self.items)
        missing = set(lookup) - set(keys)
        if missing:
            raise AmbientError(f"element has support {sorted(missing)} outside the io window")
        return [lookup.get(k, Fraction(0)) for k in keys]

    def to_json(self, keys: Optional[Sequence[Key]] = None) -> list[str]:
        if keys is None:
            keys = self.ambient.io_keys()
        return [format_rational(v) for v in self.to_dense(keys)]

    def __repr__(self) -> str:
        return f"AlgebraElement({self.format()})"


def element_from_dense(ambient: Ambient, values: Sequence[Rational],
                       keys: Optional[Sequence[Key]] = None) -> AlgebraElement:
    if keys is None:
        keys = ambient.io_keys()
    values = list(values)
    if len(values) != len(keys):
        raise AmbientError(f"expected {len(keys)} coordinates, got {len(values)}")
    return AlgebraElement(ambient, {k: parse_rational(v) for k, v in zip(keys, values)})


# --- exact dense linear algebra helpers ---------------------------------


_ZERO = Fraction(0)


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Every intermediate entry is a minor of the input, so each division is
    exact and no entry grows beyond the size of the determinant itself.
    """
    n = len(matrix)
    mat = [list(r) for r in matrix]
    sign, prev = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if mat[r][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot_row = mat[k]
        pivot = pivot_row[k]
        for r in range(k + 1, n):
            row = mat[r]
            factor = row[k]
            row[k + 1:] = [(pivot * row[c] - factor * pivot_row[c]) // prev
                           for c in range(k + 1, n)]
        prev = pivot
    return sign * mat[n - 1][n - 1] if n else 1


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot cols).

    Each row is scaled to a primitive integer row and eliminated
    fraction-free, dividing every updated row by the gcd of its entries; only
    the final rows are divided by their pivots.  The RREF of a row space is
    unique, so this equals rational Gauss-Jordan elimination exactly.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = []
    for r in rows:
        den = math.lcm(*(v.denominator for v in r))
        mat.append(_primitive([v.numerator * (den // v.denominator) for v in r]))
    pivots = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        pivot_row = mat[row]
        pivot = pivot_row[col]
        for r in range(len(mat)):
            factor = mat[r][col]
            if r != row and factor != 0:
                mat[r] = _primitive([pivot * a - factor * b
                                     for a, b in zip(mat[r], pivot_row)])
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return [[Fraction(v, r[c]) if v else _ZERO for v in r]
            for r, c in zip(mat, pivots)], pivots


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Deterministic basis of {x : rows @ x = 0}, one vector per free column."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in zip(reduced, pivots):
            vec[pc] = -r[free]
        basis.append(vec)
    return basis


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """One solution of rows @ x = rhs, or None when inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    augmented = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented)
    for r, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
    solution = [Fraction(0)] * ncols
    for r, pc in zip(reduced, pivots):
        solution[pc] = r[ncols]
    return solution


def invert_matrix(matrix: list[list[Fraction]]) -> Optional[list[list[Fraction]]]:
    n = len(matrix)
    augmented = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
                 for i, row in enumerate(matrix)]
    reduced, pivots = rref(augmented)
    if pivots[:n] != list(range(n)) or len(reduced) < n:
        return None
    return [row[n:] for row in reduced]


def _frame(elements: Iterable[AlgebraElement]) -> list[Key]:
    keys: set[Key] = set()
    for el in elements:
        keys.update(el.support())
    return sorted(keys)


def _window_json(ambient: Ambient, elements: Sequence[AlgebraElement], key: str) -> dict:
    """The ambient and, under key, the elements' dense coefficient rows; a
    Laurent ambient is narrowed to the tightest degree window holding them."""
    if isinstance(ambient, LaurentAmbient):
        keys = _frame(elements) or [0]
        ambient = LaurentAmbient(keys[0], keys[-1])
    keys = ambient.io_keys()
    return {"ambient": ambient.to_json(), key: [el.to_json(keys) for el in elements]}


class Subspace:
    """A finite-dimensional subspace held as a canonical echelonized basis.

    The basis must be in RREF over ascending keys, as ``echelonize`` builds
    it; only then is ``reduce`` a projection with kernel this subspace.
    """

    def __init__(self, ambient: Ambient, basis: Sequence[AlgebraElement]):
        self.ambient = ambient
        self.basis = tuple(basis)
        for el in self.basis:
            if not ambient.compatible(el.ambient):
                raise AmbientError("basis element lives in an incompatible ambient")
        # Each row leads with its pivot at coefficient 1, pivots increase, and
        # no row holds another row's pivot.
        pivots = [el.items[0][0] if el.items and el.items[0][1] == 1 else None
                  for el in self.basis]
        pivot_set = set(pivots)
        if (None in pivots or any(p >= q for p, q in zip(pivots, pivots[1:]))
                or any(sum(k in pivot_set for k, _ in el.items) != 1 for el in self.basis)):
            raise AmbientError("subspace basis is not in reduced row echelon form")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def reduce(self, x: AlgebraElement) -> AlgebraElement:
        """Residual of x after elimination against the echelon basis."""
        r = x
        for row in self.basis:
            pivot = row.items[0][0]
            c = r.coefficient(pivot)
            if c != 0:
                r = r - row.scale(c)
        return r

    def contains(self, x: AlgebraElement) -> bool:
        return self.reduce(x).is_zero

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, x: AlgebraElement) -> Optional[list[Fraction]]:
        """Coefficients of x over the canonical basis, or None if outside."""
        r = x
        coords = []
        for row in self.basis:
            pivot = row.items[0][0]
            c = r.coefficient(pivot)
            coords.append(c)
            if c != 0:
                r = r - row.scale(c)
        return coords if r.is_zero else None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace) and self.ambient.compatible(other.ambient)
                and len(self.basis) == len(other.basis)
                and all(a == b for a, b in zip(self.basis, other.basis)))

    def __hash__(self) -> int:
        return hash(tuple(el.items for el in self.basis))

    def to_json(self) -> dict:
        return _window_json(self.ambient, self.basis, "basis")

    def __repr__(self) -> str:
        inside = ", ".join(el.format() for el in self.basis)
        return f"Subspace<{inside}>"


def echelonize(ambient: Ambient, vectors: Sequence[AlgebraElement]) -> Subspace:
    """Canonical subspace spanned by the vectors (RREF over ascending keys)."""
    vectors = [v for v in vectors if not v.is_zero]
    if not vectors:
        return Subspace(ambient, ())
    frame = _frame(vectors)
    rows = [v.to_dense(frame) for v in vectors]
    reduced, _ = rref(rows)
    basis = [AlgebraElement(ambient, {k: c for k, c in zip(frame, row) if c != 0})
             for row in reduced]
    return Subspace(ambient, basis)


def subspace_from_json(doc: dict) -> Subspace:
    ambient = ambient_from_json(doc.get("ambient", {}))
    rows = doc.get("basis", ())
    keys = ambient.io_keys()
    return echelonize(ambient, [element_from_dense(ambient, row, keys) for row in rows])


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if not u.ambient.compatible(v.ambient):
        raise AmbientError("subspaces live in incompatible ambients")
    return echelonize(u.ambient, list(u.basis) + list(v.basis))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient system."""
    if not u.ambient.compatible(v.ambient):
        raise AmbientError("subspaces live in incompatible ambients")
    if u.is_zero or v.is_zero:
        return Subspace(u.ambient, ())
    frame = _frame(list(u.basis) + list(v.basis))
    # Solve sum(lam_i u_i) - sum(mu_j v_j) = 0: one equation per frame key.
    nu, nv = u.dim, v.dim
    rows = []
    u_dense = [el.to_dense(frame) for el in u.basis]
    v_dense = [el.to_dense(frame) for el in v.basis]
    for idx in range(len(frame)):
        rows.append([u_dense[i][idx] for i in range(nu)]
                    + [-v_dense[j][idx] for j in range(nv)])
    vecs = []
    for combo in kernel_basis(rows, nu + nv):
        acc = AlgebraElement(u.ambient, {})
        for lam, el in zip(combo[:nu], u.basis):
            if lam != 0:
                acc = acc + el.scale(lam)
        vecs.append(acc)
    return echelonize(u.ambient, vecs)


def minkowski_span(a: Subspace, b: Subspace) -> Subspace:
    """Span of all pairwise products of the two bases."""
    if not a.ambient.compatible(b.ambient):
        raise AmbientError("subspaces live in incompatible ambients")
    products = [x * y for x in a.basis for y in b.basis]
    return echelonize(a.ambient, products)


def invert(x: AlgebraElement) -> AlgebraElement:
    """Multiplicative inverse where representable.

    Laurent inverses exist in-ambient only for monomials; structure-constant
    inverses come from solving x*y = 1.
    """
    if x.is_zero:
        raise NotInvertibleError("zero is not invertible")
    ambient = x.ambient
    if isinstance(ambient, LaurentAmbient):
        if len(x.items) != 1:
            raise NotInvertibleError(
                f"{x.format()} is not a monomial; its inverse is not a Laurent polynomial")
        k, c = x.items[0]
        return AlgebraElement(LaurentAmbient(-k, -k), {-k: Fraction(1) / c})
    d = ambient.dim
    # Columns of the multiplication-by-x matrix in the structure basis.
    cols = []
    for j in range(d):
        col = [Fraction(0)] * d
        for k1, c in x.items:
            for k, v in ambient.basis_product(k1, j).items():
                col[k] += c * v
        cols.append(col)
    rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    target = list(ambient.unity_vector)
    solution = solve_linear(rows, target)
    if solution is None:
        raise NotInvertibleError(f"{x.format()} is not invertible")
    return AlgebraElement(ambient, {k: v for k, v in enumerate(solution)})


def divide(x: AlgebraElement, y: AlgebraElement) -> Optional[AlgebraElement]:
    """Exact quotient x / y within the ambient, or None when not exact."""
    if y.is_zero:
        raise NotInvertibleError("division by zero")
    if x.is_zero:
        return AlgebraElement(x.ambient, {})
    ambient = y.ambient
    if isinstance(ambient, LaurentAmbient):
        # Shift both to ordinary polynomials and long-divide.
        bot_x, top_x = x.items[0][0], x.items[-1][0]
        bot_y, top_y = y.items[0][0], y.items[-1][0]
        if top_x - bot_x < top_y - bot_y:
            return None
        px = [x.coefficient(k) for k in range(bot_x, top_x + 1)]
        py = [y.coefficient(k) for k in range(bot_y, top_y + 1)]
        quotient = [Fraction(0)] * (len(px) - len(py) + 1)
        rem = list(px)
        for shift in range(len(quotient) - 1, -1, -1):
            coeff = rem[shift + len(py) - 1] / py[-1]
            quotient[shift] = coeff
            if coeff != 0:
                for i, c in enumerate(py):
                    rem[shift + i] -= coeff * c
        if any(c != 0 for c in rem):
            return None
        offset = bot_x - bot_y
        return AlgebraElement(x.ambient,
                              {offset + i: c for i, c in enumerate(quotient) if c != 0})
    # Structure-constant kind: solve mu * y = x as a linear system in mu.
    d = ambient.dim
    cols = []
    for j in range(d):
        col = [Fraction(0)] * d
        for k1, c in y.items:
            for k, v in ambient.basis_product(j, k1).items():
                col[k] += c * v
        cols.append(col)
    rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    target = [x.coefficient(i) for i in range(d)]
    solution = solve_linear(rows, target)
    if solution is None:
        return None
    mu = AlgebraElement(ambient, {k: v for k, v in enumerate(solution)})
    return mu if mu * y == x else None


# --- seeded random generation (integer coefficients in [-9, 9]) ----------


def random_element(ambient: Ambient, keys: Sequence[Key], rng) -> AlgebraElement:
    return AlgebraElement(ambient, {k: Fraction(rng.randint(-9, 9)) for k in keys})


def random_subspace(ambient: Ambient, dim: int, keys: Sequence[Key], rng,
                    *, exclude_unity: bool = False, max_tries: int = 200) -> Subspace:
    """A random subspace of the requested dimension, redrawn until achieved."""
    if dim > len(keys):
        raise AmbientError(f"cannot fit dimension {dim} in a window of size {len(keys)}")
    for _ in range(max_tries):
        sub = echelonize(ambient, [random_element(ambient, keys, rng) for _ in range(dim)])
        if sub.dim != dim:
            continue
        if exclude_unity and sub.contains(ambient.unity()):
            continue
        return sub
    raise AmbientError("random subspace generation failed to reach the target dimension")
