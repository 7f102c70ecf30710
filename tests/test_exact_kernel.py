"""Oracle tests for the exact integer kernel: row reduction, kernels, integer
determinants, the interpolated Gram determinant of two-variable pencils and
its rational roots.

sympy serves only as an independent oracle here; matchkit itself stays
stdlib-only.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matchkit import AlgebraElement, LaurentAmbient, echelonize
from matchkit.algebra import integer_determinant, kernel_basis, rref, solve_linear
from matchkit.linear import (_gram_determinant, _poly_trim, _rational_roots, _Residual,
                             strong_matching_report)

sympy = pytest.importorskip("sympy")

# Mostly small integers, some zeros, a few proper fractions.
fractions = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=8):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [[draw(fractions) for _ in range(ncols)] for _ in range(nrows)], ncols


def to_sympy(rows, ncols):
    if not rows:
        return sympy.zeros(0, ncols)
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def to_fraction(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


class TestRref:
    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_rref_matches_sympy(self, case):
        rows, ncols = case
        reduced, pivots = rref([list(r) for r in rows])
        expected, expected_pivots = to_sympy(rows, ncols).rref()
        assert pivots == list(expected_pivots)
        assert reduced == [[to_fraction(expected[r, c]) for c in range(ncols)]
                           for r in range(len(pivots))]
        assert all(type(v) is Fraction for row in reduced for v in row)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_kernel_matches_sympy_nullspace(self, case):
        rows, ncols = case
        expected = [[to_fraction(v) for v in vec] for vec in to_sympy(rows, ncols).nullspace()]
        assert kernel_basis(rows, ncols) == expected

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_rows=5, max_cols=5), st.data())
    def test_solution_satisfies_system(self, case, data):
        rows, ncols = case
        if not rows:
            return
        rhs = [data.draw(fractions) for _ in rows]
        solution = solve_linear(rows, rhs)
        augmented = to_sympy([r + [b] for r, b in zip(rows, rhs)], ncols + 1)
        consistent = augmented.rank() == to_sympy(rows, ncols).rank()
        assert (solution is not None) == consistent
        if solution is not None:
            assert [sum(a * x for a, x in zip(r, solution)) for r in rows] == rhs

    def test_edge_shapes(self):
        assert rref([]) == ([], [])
        assert rref([[Fraction(0)] * 4] * 3) == ([], [])
        assert kernel_basis([[Fraction(0)] * 3], 3) == [
            [Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]]
        wide, pivots = rref([[Fraction(2), Fraction(4), Fraction(1), Fraction(3)]])
        assert pivots == [0]
        assert wide == [[1, 2, Fraction(1, 2), Fraction(3, 2)]]


class TestIntegerDeterminant:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 7).flatmap(
        lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_matches_sympy(self, matrix):
        expected = sympy.Matrix(matrix).det() if matrix else 1
        assert integer_determinant(matrix) == expected

    def test_singular_and_pivoting(self):
        assert integer_determinant([[0, 1], [1, 0]]) == -1
        assert integer_determinant([[1, 2], [2, 4]]) == 0
        assert integer_determinant([[0, 0], [0, 5]]) == 0


LAURENT = LaurentAmbient(0, 8)


def space(vectors):
    return echelonize(LAURENT, [AlgebraElement(LAURENT, v) for v in vectors])


@st.composite
def two_variable_pencils(draw):
    m = draw(st.integers(1, 4))
    a_keys = draw(st.integers(2, 4))
    b_keys = draw(st.integers(m, m + 3))
    vec = lambda n: {k: draw(fractions) for k in range(n)}
    a_space = space([vec(a_keys) for _ in range(2)])
    b_space = space([vec(b_keys) for _ in range(m)])
    if a_space.dim != 2 or b_space.is_zero:
        return None
    return _Residual(a_space.basis, a_space, b_space), draw(st.integers(0, 1))


def residual_of(a_vectors, b_vectors):
    a_space, b_space = space(a_vectors), space(b_vectors)
    return _Residual(a_space.basis, a_space, b_space)


class TestGramDeterminant:
    @settings(max_examples=25, deadline=None)
    @given(two_variable_pencils())
    def test_matches_symbolic_gram(self, case):
        assume(case is not None)
        residual, axis = case
        dense = residual.pencil("a")
        ncols = len(dense)
        s = sympy.Symbol("s")
        rat = lambda v: sympy.Rational(v.numerator, v.denominator)
        matrix = sympy.Matrix(len(residual.frame), ncols, lambda r, i: (
            rat(dense[i][1 - axis][r]) + s * rat(dense[i][axis][r])))
        if not residual.frame:
            matrix = sympy.zeros(0, ncols)
        det = sympy.expand((matrix.T * matrix).det(method="berkowitz"))
        expected = [to_fraction(c) for c in reversed(sympy.Poly(det, s).all_coeffs())]
        poly = _gram_determinant(residual, "a", axis)
        assert len(poly) == 2 * ncols + 1
        assert _poly_trim(poly) == _poly_trim(expected)

    # Random pencils rarely drop rank at a rational point; this one does at s = -1.
    @example((residual_of([{0: 2, 1: -3, 2: 1}, {0: -2, 1: 2}],
                          [{0: -3, 3: 3}, {1: -2, 3: -3}, {0: -1, 1: 3, 2: -1}]), 0))
    @settings(max_examples=25, deadline=None)
    @given(two_variable_pencils())
    def test_rational_roots_match_symbolic_gram(self, case):
        assume(case is not None)
        residual, axis = case
        dense = residual.pencil("a")
        s = sympy.Symbol("s")
        matrix = sympy.Matrix(len(residual.frame), len(dense), lambda r, i: (
            dense[i][1 - axis][r] + s * dense[i][axis][r]))
        det = sympy.expand((matrix.T * matrix).det(method="berkowitz"))
        assume(det != 0)
        poly = _gram_determinant(residual, "a", axis)
        assert _rational_roots(poly) == sympy_rational_roots(det, s)


def sympy_rational_roots(expr, x):
    """The roots of the linear factors of sympy's factorization over Q."""
    _, factors = sympy.factor_list(expr, x)
    roots = []
    for factor, _ in factors:
        poly = sympy.Poly(factor, x)
        if poly.degree() == 1:
            slope, const = poly.all_coeffs()
            roots.append(to_fraction(-const / slope))
    return sorted(roots)


@st.composite
def planted_polynomials(draw):
    """Integer polynomials of degree <= 14: planted rational roots of
    multiplicity <= 3 times extra factors (x^2 - c for c not a square,
    d x^2 + c with c, d > 0, or a random one) with coefficients up to 10^20,
    times a scalar up to 10^20 so the content is not 1."""
    big = st.integers(-10**20, 10**20)
    poly = [1]
    for _ in range(draw(st.integers(0, 4))):
        num = draw(st.integers(-10**6, 10**6))
        den = draw(st.integers(1, 10**6))
        for _ in range(draw(st.integers(1, 3))):
            poly = poly_times(poly, [-num, den])
    while len(poly) < 15:
        kind = draw(st.sampled_from(["irrational", "positive", "random", "stop"]))
        if kind == "stop":
            break
        if kind == "irrational":
            c = draw(st.integers(2, 10**20))
            assume(sympy.sqrt(c).is_rational is False)
            factor = [-c, 0, 1]
        elif kind == "positive":
            factor = [draw(st.integers(1, 10**20)), 0, draw(st.integers(1, 10**6))]
        else:
            factor = draw(st.lists(big, min_size=2, max_size=5))
            assume(factor[-1] != 0)
        if len(poly) + len(factor) - 1 > 15:
            break
        poly = poly_times(poly, factor)
    poly = poly_times(poly, [draw(st.integers(1, 10**20)) * draw(st.sampled_from([-1, 1]))])
    return poly


def poly_times(left, right):
    out = [0] * (len(left) + len(right) - 1)
    for i, c in enumerate(left):
        for j, d in enumerate(right):
            out[i + j] += c * d
    return out


class TestRationalRootsOracle:
    # x(3x^6 + x^3 - 4): its Sturm chain drops two degrees at a divisor with a
    # negative leading coefficient, where a signed multiplier would flip signs.
    @example([0, -4, 0, 0, 1, 0, 0, 3], False)
    @settings(max_examples=60, deadline=None)
    @given(planted_polynomials(), st.booleans())
    def test_matches_sympy_linear_factors(self, poly, as_fractions):
        x = sympy.Symbol("x")
        expected = sympy_rational_roots(sympy.Poly(list(reversed(poly)), x).as_expr(), x)
        coeffs = [Fraction(c) for c in poly] if as_fractions else poly
        assert _rational_roots(coeffs) == expected


# A 2 x 10 Laurent pair (drawn once with random.Random(1): A over degrees
# 0..4, B over degrees 0..11) that reaches the two-variable pencil decision
# with a 10 x 10 Gram matrix, where a determinant of factorial cost shows.
TWO_BY_TEN_A = [[-5, 9, -7, -1, -6], [6, 5, 6, 3, -3]]
TWO_BY_TEN_B = [
    [-6, 6, -9, 3, 4, -9, 5, -1, -2, 9, -6, 1],
    [-9, -9, -9, 8, -9, 3, -3, 4, -9, 7, -2, 5],
    [6, 8, -2, 2, -2, -2, 5, 0, -9, 4, 8, -6],
    [-4, 0, -6, 1, 7, 4, 7, -3, 0, 0, 9, 6],
    [7, 3, 9, -8, 6, -2, 3, 4, -4, 2, 8, 2],
    [-7, 5, 7, -6, -4, 7, 3, 2, 6, -9, 6, -8],
    [0, 9, 9, 3, -4, -4, 7, -2, -9, -3, 8, 8],
    [-2, 3, 7, 2, 9, 2, 5, -1, 8, -9, 3, 7],
    [-5, 7, 8, -3, 4, -8, 6, 2, 9, 8, -3, 7],
    [4, 6, 2, 4, 2, -9, 8, 8, 1, 5, -9, -2],
]


def test_two_by_ten_pencil_decision_is_fast():
    a_space = space([dict(enumerate(v)) for v in TWO_BY_TEN_A])
    b_space = space([dict(enumerate(v)) for v in TWO_BY_TEN_B])
    assert (a_space.dim, b_space.dim) == (2, 10)
    start = time.perf_counter()
    report = strong_matching_report(a_space, b_space)
    elapsed = time.perf_counter() - start
    assert (report.exists, report.certificate, report.decisive) == (
        True, "no-rational-witness", True)
    assert elapsed < 20.0
