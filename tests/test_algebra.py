"""Tests for exact ambient arithmetic, subspaces, and division."""

import random
from fractions import Fraction

import pytest

from matchkit import (
    AlgebraElement,
    AmbientError,
    LaurentAmbient,
    NotInvertibleError,
    StructureConstantAmbient,
    Subspace,
    ambient_from_json,
    divide,
    echelonize,
    element_from_dense,
    intersect,
    invert,
    minkowski_span,
    random_subspace,
    subspace_from_json,
    subspace_sum,
)
from matchkit.algebra import (
    format_rational,
    invert_matrix,
    kernel_basis,
    parse_rational,
    random_element,
    rref,
    solve_linear,
)

from conftest import LAURENT, lel, tpow


def quartic_root_of_two():
    return StructureConstantAmbient.power_basis([2, 0, 0, 0])


class TestRationals:
    def test_parse(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(-2) == Fraction(-2)
        assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_parse_rejects_junk(self):
        with pytest.raises(AmbientError):
            parse_rational("abc")
        with pytest.raises(AmbientError):
            parse_rational(True)
        with pytest.raises(AmbientError):
            parse_rational(1.5)
        with pytest.raises(AmbientError):
            parse_rational("1/0")

    def test_format(self):
        assert format_rational(Fraction(-5, 3)) == "-5/3"
        assert format_rational(Fraction(4, 2)) == "2"


class TestLaurentAmbient:
    def test_window_validation(self):
        with pytest.raises(AmbientError):
            LaurentAmbient(3, 2)

    def test_product_window_sums(self):
        a = LaurentAmbient(0, 3)
        b = LaurentAmbient(-1, 2)
        w = a.product_window(b)
        assert (w.dmin, w.dmax) == (-1, 5)

    def test_product_carries_window(self):
        x = LaurentAmbient(0, 3).t_power(3)
        y = LaurentAmbient(0, 2).t_power(2)
        p = x * y
        assert p.ambient.dmax == 5
        assert p == LaurentAmbient(0, 5).t_power(5)

    def test_format(self):
        e = lel({0: 1, 1: -1, 3: Fraction(1, 2)})
        assert e.format() == "1 - t + 1/2*t^3"

    def test_json_roundtrip(self):
        doc = LAURENT.to_json()
        again = ambient_from_json(doc)
        assert isinstance(again, LaurentAmbient)
        assert (again.dmin, again.dmax) == (LAURENT.dmin, LAURENT.dmax)


class TestStructureConstantAmbient:
    def test_quartic_root_facts(self):
        amb = quartic_root_of_two()
        x = amb.basis_element(1)
        x2 = amb.basis_element(2)
        x3 = amb.basis_element(3)
        assert x * x == x2
        assert x2 * x3 == x.scale(2)  # x^5 = 2x
        assert x * amb.unity() == x

    def test_unity_is_neutral(self):
        amb = quartic_root_of_two()
        rng = random.Random(0)
        for _ in range(10):
            e = random_element(amb, range(amb.dim), rng)
            assert e * amb.unity() == e
            assert amb.unity() * e == e

    def test_commutativity_required(self):
        # e1*e2 = e0 but e2*e1 = 0.
        bad = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[0, 1, 0], [0, 0, 0], [1, 0, 0]],
               [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
        with pytest.raises(AmbientError, match="commutative"):
            StructureConstantAmbient(bad, [1, 0, 0])

    def test_associativity_required(self):
        # Commutative with unity, but (e1*e1)*e2 = e2*e2 = e1 while
        # e1*(e1*e2) = 0.
        bad = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
               [[0, 0, 1], [0, 0, 0], [0, 1, 0]]]
        with pytest.raises(AmbientError, match="associative"):
            StructureConstantAmbient(bad, [1, 0, 0])

    def test_bad_unity_rejected(self):
        tensor = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
        with pytest.raises(AmbientError, match="unity"):
            StructureConstantAmbient(tensor, [0, 1])

    def test_json_roundtrip(self):
        amb = quartic_root_of_two()
        again = ambient_from_json(amb.to_json())
        assert isinstance(again, StructureConstantAmbient)
        assert again.dim == 4
        x = again.basis_element(1)
        assert (x * x * x * x) == again.unity().scale(2)

    def test_incompatible_ambients(self):
        amb = quartic_root_of_two()
        with pytest.raises(AmbientError):
            amb.basis_element(1) * LAURENT.t_power(1)


class TestInvertAndDivide:
    def test_laurent_monomial_inverse(self):
        x = tpow(3, 2)
        inv = invert(x)
        assert inv.items == ((-3, Fraction(1, 2)),)
        assert x * inv == LAURENT.unity()

    def test_laurent_non_monomial_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            invert(lel({0: 1, 1: 1}))

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            invert(lel({}))

    def test_structure_inverse(self):
        amb = quartic_root_of_two()
        x = amb.basis_element(1)
        inv = invert(x)
        assert inv == amb.basis_element(3).scale(Fraction(1, 2))
        assert inv * x == amb.unity()

    def test_zero_divisor_not_invertible(self):
        # Q[x]/(x^2 - x): x * (x - 1) = 0.
        amb = StructureConstantAmbient.power_basis([0, 1])
        with pytest.raises(NotInvertibleError):
            invert(amb.basis_element(1))

    def test_divide_exact(self):
        num = lel({1: 1, 2: 1})  # t + t^2 = t(1 + t)
        den = lel({0: 1, 1: 1})
        q = divide(num, den)
        assert q == tpow(1)

    def test_divide_inexact_returns_none(self):
        assert divide(lel({0: 1, 2: 1}), lel({0: 1, 1: 1})) is None

    def test_divide_by_zero_raises(self):
        with pytest.raises(NotInvertibleError):
            divide(tpow(1), lel({}))

    def test_divide_structure_kind(self):
        amb = quartic_root_of_two()
        x = amb.basis_element(1)
        x3 = amb.basis_element(3)
        q = divide(x3, x)
        assert q == amb.basis_element(2)
        # x is a zero divisor free element; unity/x stays exact.
        assert divide(amb.unity(), x) == invert(x)

    def test_divide_structure_inexact(self):
        amb = StructureConstantAmbient.power_basis([0, 1])
        x = amb.basis_element(1)
        one = amb.unity()
        assert divide(one, x) is None


class TestDenseHelpers:
    def test_rref_and_kernel(self):
        rows = [[Fraction(1), Fraction(2), Fraction(3)],
                [Fraction(2), Fraction(4), Fraction(6)]]
        reduced, pivots = rref([r[:] for r in rows])
        assert pivots == [0]
        kernel = kernel_basis(rows, 3)
        assert len(kernel) == 2
        for vec in kernel:
            assert sum(r * v for r, v in zip(rows[0], vec)) == 0

    def test_solve_linear(self):
        rows = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]]
        sol = solve_linear(rows, [Fraction(4), Fraction(5)])
        assert sol == [Fraction(2), Fraction(3)]
        assert solve_linear([[Fraction(1), Fraction(1)],
                             [Fraction(1), Fraction(1)]],
                            [Fraction(0), Fraction(1)]) is None

    def test_invert_matrix(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
        inv = invert_matrix(m)
        assert inv == [[Fraction(-5), Fraction(2)], [Fraction(3), Fraction(-1)]]
        assert invert_matrix([[Fraction(1), Fraction(2)],
                              [Fraction(2), Fraction(4)]]) is None

    def test_element_from_dense(self):
        e = element_from_dense(LAURENT, [0, 1, "1/2"] + [0] * 6)
        assert e == lel({1: 1, 2: Fraction(1, 2)})
        with pytest.raises(AmbientError):
            element_from_dense(LAURENT, [1, 2])


class TestSubspace:
    def test_echelonize_dedupes(self):
        u = echelonize(LAURENT, [tpow(0), tpow(1), lel({0: 1, 1: 1})])
        assert u.dim == 2

    def test_contains_and_coordinates(self):
        u = echelonize(LAURENT, [lel({0: 1, 1: 1}), tpow(2)])
        probe = lel({0: 2, 1: 2, 2: -1})
        assert u.contains(probe)
        coords = u.coordinates(probe)
        rebuilt = sum((b.scale(c) for b, c in zip(u.basis, coords)),
                      lel({}))
        assert rebuilt == probe
        assert u.coordinates(tpow(3)) is None

    def test_reduce_is_projection_complement(self):
        u = echelonize(LAURENT, [tpow(1), tpow(2)])
        x = lel({0: 5, 1: 3, 2: -2, 4: 1})
        r = u.reduce(x)
        assert u.contains(x - r)
        assert u.reduce(r) == r
        assert u.reduce(tpow(1)).is_zero

    def test_canonical_basis_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            u = random_subspace(LAURENT, 3, range(0, 6), rng)
            again = echelonize(LAURENT, u.basis)
            assert again == u
            assert again.basis == u.basis

    def test_zero_subspace(self):
        z = echelonize(LAURENT, [])
        assert z.is_zero
        assert z.dim == 0
        assert z.contains(lel({}))
        assert not z.contains(tpow(0))

    def test_json_roundtrip_laurent(self):
        u = echelonize(LAURENT, [lel({0: 1, 3: -2}), tpow(5)])
        again = subspace_from_json(u.to_json())
        assert again == u

    def test_json_roundtrip_structure(self):
        amb = quartic_root_of_two()
        u = echelonize(amb, [amb.unity(), amb.basis_element(2)])
        again = subspace_from_json(u.to_json())
        assert again == u

    def test_non_rref_basis_rejected(self):
        bad_bases = [
            [lel({0: 2, 1: 1})],                   # pivot coefficient is not 1
            [tpow(1), tpow(0)],                    # pivots decrease
            [tpow(1), lel({1: 1, 2: 1})],          # repeated pivot
            [lel({0: 1, 1: 3}), tpow(1)],          # pivot 1 in another row
            [lel({})],                             # zero row
        ]
        for basis in bad_bases:
            with pytest.raises(AmbientError):
                Subspace(LAURENT, basis)

    def test_every_echelonize_result_constructs(self):
        rng = random.Random(11)
        amb = quartic_root_of_two()
        for _ in range(40):
            for ambient, keys in ((LAURENT, range(-2, 6)), (amb, range(4))):
                vectors = [AlgebraElement(ambient, {k: rng.randint(-3, 3)
                                                    for k in rng.sample(list(keys), 2)})
                           for _ in range(rng.randint(0, 4))]
                u = echelonize(ambient, vectors)
                assert Subspace(ambient, u.basis) == u

    def test_contains_subspace(self):
        u = echelonize(LAURENT, [tpow(0), tpow(1), tpow(2)])
        v = echelonize(LAURENT, [lel({0: 1, 2: 3})])
        assert u.contains_subspace(v)
        assert not v.contains_subspace(u)


class TestSumIntersect:
    def test_examples(self):
        u = echelonize(LAURENT, [tpow(0), tpow(1)])
        v = echelonize(LAURENT, [tpow(1), tpow(2)])
        s = subspace_sum(u, v)
        i = intersect(u, v)
        assert s.dim == 3
        assert i.dim == 1
        assert i.contains(tpow(1))

    def test_disjoint(self):
        u = echelonize(LAURENT, [tpow(0)])
        v = echelonize(LAURENT, [tpow(4)])
        assert intersect(u, v).is_zero
        assert subspace_sum(u, v).dim == 2

    def test_modular_law_random(self):
        rng = random.Random(13)
        for _ in range(40):
            du = rng.randint(1, 4)
            dv = rng.randint(1, 4)
            u = random_subspace(LAURENT, du, range(0, 6), rng)
            v = random_subspace(LAURENT, dv, range(0, 6), rng)
            s = subspace_sum(u, v)
            i = intersect(u, v)
            assert u.dim + v.dim == s.dim + i.dim
            assert u.contains_subspace(i)
            assert s.contains_subspace(u)


class TestMinkowskiSpan:
    def test_monomial_blocks(self):
        a = echelonize(LAURENT, [tpow(0), tpow(1)])
        b = echelonize(LAURENT, [tpow(2)])
        prod = minkowski_span(a, b)
        assert prod.dim == 2
        assert prod.contains(tpow(2))
        assert prod.contains(tpow(3))

    def test_contains_all_products(self):
        rng = random.Random(21)
        for _ in range(10):
            a = random_subspace(LAURENT, 2, range(0, 4), rng)
            b = random_subspace(LAURENT, 2, range(0, 4), rng)
            prod = minkowski_span(a, b)
            for x in a.basis:
                for y in b.basis:
                    assert prod.contains(x * y)

    def test_structure_kind(self):
        amb = quartic_root_of_two()
        a = echelonize(amb, [amb.unity(), amb.basis_element(2)])
        prod = minkowski_span(a, a)
        # (1, x^2) squares into span(1, x^2) since x^4 = 2.
        assert prod == a


class TestRandomSubspace:
    def test_requested_dimension(self):
        rng = random.Random(2)
        for dim in (1, 2, 3, 4):
            u = random_subspace(LAURENT, dim, range(0, 6), rng)
            assert u.dim == dim

    def test_exclude_unity(self):
        rng = random.Random(2)
        for _ in range(20):
            u = random_subspace(LAURENT, 2, range(0, 4), rng, exclude_unity=True)
            assert not u.contains(LAURENT.unity())

    def test_dimension_too_large(self):
        rng = random.Random(2)
        with pytest.raises(AmbientError):
            random_subspace(LAURENT, 5, range(0, 3), rng)
