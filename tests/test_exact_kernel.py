"""Oracle tests for the exact integer kernel: row reduction, kernels, integer
determinants and the interpolated Gram determinant of two-variable pencils.

sympy serves only as an independent oracle here; matchkit itself stays
stdlib-only.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matchkit import AlgebraElement, LaurentAmbient, echelonize
from matchkit.algebra import integer_determinant, kernel_basis, rref, solve_linear
from matchkit.linear import _gram_determinant, _poly_trim, _Residual, strong_matching_report

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
