"""Tests for matched bases, strong matchings, scalings, and the dichotomy."""

import math
import random
from fractions import Fraction

import pytest

from matchkit import (
    AlgebraElement,
    AmbientError,
    InvariantViolationError,
    LaurentAmbient,
    LinearIso,
    MatchBasisInconclusiveError,
    OrderedBasis,
    ProductWitness,
    StrongMatchingRequiredError,
    StructureConstantAmbient,
    UnityInTargetError,
    contains_translate,
    divide,
    echelonize,
    find_acyclic_linear_matching,
    find_scaling,
    intersect,
    is_equivalent,
    is_matched_basis,
    lemma_4_3_check,
    linear_hall_violator,
    match_basis,
    members_with_products_in,
    minkowski_span,
    random_ordered_basis,
    random_subspace,
    strong_matching_exists,
    strong_matching_report,
    violating_basis_pair,
)
from matchkit.algebra import kernel_basis
from matchkit.linear import _deterministic_transversal, _rational_roots, _Residual

from conftest import LAURENT, lel, tpow


def quartic_root_of_two():
    return StructureConstantAmbient.power_basis([2, 0, 0, 0])


def span(*elements):
    return echelonize(LAURENT, list(elements))


class TestOrderedBasis:
    def test_valid(self):
        u = span(tpow(0), tpow(1))
        basis = OrderedBasis(u, [lel({0: 1, 1: 1}), tpow(1)])
        assert basis.n == 2

    def test_wrong_length_rejected(self):
        u = span(tpow(0), tpow(1))
        with pytest.raises(AmbientError):
            OrderedBasis(u, [tpow(0)])

    def test_non_member_rejected(self):
        u = span(tpow(0), tpow(1))
        with pytest.raises(AmbientError):
            OrderedBasis(u, [tpow(0), tpow(2)])

    def test_dependent_rejected(self):
        u = span(tpow(0), tpow(1))
        with pytest.raises(AmbientError):
            OrderedBasis(u, [tpow(0), tpow(0).scale(2)])

    def test_coords_roundtrip(self):
        u = span(lel({0: 1, 2: 1}), tpow(1))
        basis = OrderedBasis.canonical(u)
        x = lel({0: 3, 1: -2, 2: 3})
        coords = basis.coords(x)
        assert coords is not None
        assert basis.element_from_coords(coords) == x

    def test_coords_outside_is_none(self):
        u = span(tpow(0), tpow(1))
        basis = OrderedBasis.canonical(u)
        assert basis.coords(tpow(4)) is None
        assert basis.coords(lel({0: 1, 4: 1})) is None

    def test_coords_of_zero(self):
        u = span(tpow(0), tpow(1))
        basis = OrderedBasis.canonical(u)
        assert basis.coords(lel({})) == [Fraction(0), Fraction(0)]

    def test_omit(self):
        u = span(tpow(0), tpow(1), tpow(2))
        basis = OrderedBasis.canonical(u)
        rest = basis.omit(1)
        assert rest.dim == 2
        assert rest.contains(tpow(0))
        assert not rest.contains(tpow(1))

    def test_random_ordered_basis_spans(self):
        rng = random.Random(17)
        u = span(tpow(0), tpow(1), tpow(3))
        for _ in range(10):
            basis = random_ordered_basis(u, rng)
            assert echelonize(LAURENT, basis.elements) == u


class TestLinearIso:
    def test_from_images_and_apply(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        f = LinearIso.from_images(OrderedBasis.canonical(a),
                                  OrderedBasis.canonical(b),
                                  [tpow(3), tpow(2)])
        assert f.apply(tpow(0)) == tpow(3)
        assert f.apply(lel({0: 1, 1: 2})) == lel({2: 2, 3: 1})

    def test_image_outside_codomain_rejected(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        with pytest.raises(AmbientError):
            LinearIso.from_images(OrderedBasis.canonical(a),
                                  OrderedBasis.canonical(b),
                                  [tpow(3), tpow(5)])

    def test_singular_matrix_rejected(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        with pytest.raises(AmbientError):
            LinearIso(OrderedBasis.canonical(a), OrderedBasis.canonical(b),
                      [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])

    def test_multiplication_by(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        f = LinearIso.multiplication_by(tpow(2), a, b)
        for x in (tpow(0), tpow(1), lel({0: 5, 1: -1})):
            assert f.apply(x) == tpow(2) * x

    def test_canonical_identity(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        f = LinearIso.canonical_identity(a, b)
        assert f.apply(tpow(0)) == tpow(2)
        assert f.apply(tpow(1)) == tpow(3)

    def test_compose_and_inverse(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        rng = random.Random(3)
        f = LinearIso.random(a, b, rng)
        g = f.inverse().compose(f)
        for x in (tpow(0), lel({0: 2, 1: 7})):
            assert g.apply(x) == x
        assert f.compose(f.inverse()).apply(tpow(2)) == tpow(2)

    def test_compose_mismatch_rejected(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        c = span(tpow(4), tpow(5))
        f = LinearIso.canonical_identity(b, c)
        g = LinearIso.canonical_identity(a, b)
        assert f.compose(g).apply(tpow(0)) == tpow(4)
        with pytest.raises(AmbientError):
            g.compose(f)

    def test_to_json(self):
        a = span(tpow(0), tpow(1))
        f = LinearIso.canonical_identity(a, a)
        assert f.to_json() == {"matrix": [["1", "0"], ["0", "1"]]}


class TestMembersWithProductsIn:
    def test_basic_constraint(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(1), tpow(2))
        u1 = members_with_products_in(b, [(tpow(0), a)])
        assert u1.dim == 1
        assert u1.contains(tpow(1))
        u2 = members_with_products_in(b, [(tpow(1), a)])
        assert u2.is_zero

    def test_multiple_constraints_intersect(self):
        full = span(tpow(0), tpow(1), tpow(2))
        target = span(tpow(2), tpow(3))
        u = members_with_products_in(full, [(tpow(1), target), (tpow(2), target)])
        # t*x and t^2*x both in <t^2,t^3> forces x in <t>.
        assert u.dim == 1
        assert u.contains(tpow(1))

    def test_solution_verified(self):
        rng = random.Random(8)
        for _ in range(20):
            space = random_subspace(LAURENT, 3, range(0, 5), rng)
            target = random_subspace(LAURENT, 2, range(0, 6), rng)
            a = tpow(rng.randint(0, 2))
            u = members_with_products_in(space, [(a, target)])
            for x in u.basis:
                assert target.contains(a * x)
                assert space.contains(x)


class TestIsMatchedBasis:
    def test_matched_example(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(1), tpow(2))
        abasis = OrderedBasis.canonical(a)
        # U_1 = <t> must avoid the span of the non-first b elements.
        good = OrderedBasis(b, [tpow(2), tpow(1)])
        bad = OrderedBasis(b, [tpow(1), tpow(2)])
        assert is_matched_basis(abasis, good)
        assert not is_matched_basis(abasis, bad)

    def test_dimension_one(self):
        a = span(tpow(0))
        # With n = 1 the omitted span is zero, so U_1 itself must be zero.
        assert is_matched_basis(OrderedBasis.canonical(a),
                                OrderedBasis.canonical(span(tpow(3))))
        assert not is_matched_basis(OrderedBasis.canonical(a),
                                    OrderedBasis.canonical(span(tpow(0))))

    def test_length_mismatch_rejected(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2))
        with pytest.raises(AmbientError):
            is_matched_basis(OrderedBasis.canonical(a), OrderedBasis.canonical(b))

    def test_definition_directly(self):
        rng = random.Random(23)
        quartic = quartic_root_of_two()
        pairs = [(random_subspace(LAURENT, 2, range(0, 4), rng),
                  random_subspace(LAURENT, 2, range(2, 6), rng)) for _ in range(15)]
        for n in range(1, 5):
            for _ in range(6):
                pairs.append((random_subspace(LAURENT, n, range(0, n + 2), rng),
                              random_subspace(LAURENT, n, range(2, n + 4), rng)))
                pairs.append((random_subspace(quartic, n, range(4), rng),
                              random_subspace(quartic, n, range(4), rng)))
        outcomes = set()
        for a, b in pairs:
            abasis = random_ordered_basis(a, rng)
            bbasis = random_ordered_basis(b, rng)
            expected = True
            for i in range(abasis.n):
                u = members_with_products_in(b, [(abasis.elements[i], a)])
                if not bbasis.omit(i).contains_subspace(u):
                    expected = False
            assert is_matched_basis(abasis, bbasis) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestLinearHallViolator:
    def test_violator_found(self):
        amb = quartic_root_of_two()
        a = echelonize(amb, [amb.unity(), amb.basis_element(2)])
        b = echelonize(amb, [amb.basis_element(1), amb.basis_element(2)])
        violator = linear_hall_violator(OrderedBasis.canonical(a), b)
        assert violator == (1, 2)

    def test_no_violator(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        assert linear_hall_violator(OrderedBasis.canonical(a), b) is None

    def test_violator_condition_verified(self):
        amb = quartic_root_of_two()
        a = echelonize(amb, [amb.unity(), amb.basis_element(2)])
        b = echelonize(amb, [amb.basis_element(1), amb.basis_element(2)])
        abasis = OrderedBasis.canonical(a)
        violator = linear_hall_violator(abasis, b)
        members = b
        for i in violator:
            members = intersect(members, members_with_products_in(
                b, [(abasis.elements[i - 1], a)]))
        assert members.dim > abasis.n - len(violator)

    def test_dimension_mismatch_rejected(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2))
        with pytest.raises(AmbientError):
            linear_hall_violator(OrderedBasis.canonical(a), b)


class TestMatchBasis:
    def test_success_and_certificate(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(1), tpow(2))
        result = match_basis(OrderedBasis.canonical(a), b)
        assert result.found
        assert result.violator is None
        assert result.attempts >= 1
        assert is_matched_basis(OrderedBasis.canonical(a), result.basis)

    def test_unity_in_target_rejected(self):
        a = span(tpow(1), tpow(2))
        b = span(tpow(0), tpow(1))
        with pytest.raises(UnityInTargetError):
            match_basis(OrderedBasis.canonical(a), b)

    def test_violator_reported(self):
        amb = quartic_root_of_two()
        a = echelonize(amb, [amb.unity(), amb.basis_element(2)])
        b = echelonize(amb, [amb.basis_element(1), amb.basis_element(2)])
        result = match_basis(OrderedBasis.canonical(a), b)
        assert not result.found
        assert result.basis is None
        assert result.violator == (1, 2)

    def test_random_pairs(self):
        rng = random.Random(31)
        done = 0
        while done < 25:
            a = random_subspace(LAURENT, rng.randint(1, 4), range(0, 6), rng)
            b = random_subspace(LAURENT, a.dim, range(0, 6), rng,
                                exclude_unity=True)
            abasis = random_ordered_basis(a, rng)
            result = match_basis(abasis, b, seed=done)
            if result.found:
                assert is_matched_basis(abasis, result.basis)
                assert echelonize(LAURENT, result.basis.elements) == b
            done += 1

    def test_deterministic_fallback_direct(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(1), tpow(2))
        abasis = OrderedBasis.canonical(a)
        residual = _Residual(abasis.elements, a, b)
        annihilators = [kernel_basis(residual.kernel(i), 2) for i in range(2)]
        candidate = _deterministic_transversal(b, annihilators)
        assert candidate is not None
        assert is_matched_basis(abasis, candidate)

    def test_dimension_mismatch_rejected(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2))
        with pytest.raises(AmbientError):
            match_basis(OrderedBasis.canonical(a), b)


class TestProductCounts:
    """Each product a_i*b_j is computed once per call."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        multiply = AlgebraElement.__mul__

        def counting(x, y):
            calls.append(None)
            return multiply(x, y)

        monkeypatch.setattr(AlgebraElement, "__mul__", counting)
        return calls

    def test_match_basis_computes_each_product_once(self, products):
        a = span(tpow(0), tpow(1), tpow(2))
        b = span(lel({1: 1, 2: 1}), tpow(2), tpow(3))
        result = match_basis(OrderedBasis.canonical(a), b)
        assert result.found
        assert len(products) == 9

    def test_strong_report_computes_each_product_once(self, products):
        a = span(lel({0: 3, 2: 3}), lel({1: -3, 2: -1}))
        b = span(*(lel(dict(enumerate(v))) for v in (
            [1, 0, 0, 3, 3, -1], [0, -1, 1, -2, 1, -2], [-1, -2, 3, -3, 1, 3],
            [-1, 1, 2, 3, 1, -2], [-1, -3, 2, -3, 3, 2])))
        assert (a.dim, b.dim) == (2, 5)
        products.clear()
        report = strong_matching_report(a, b)
        assert report.certificate == "no-rational-witness"
        assert len(products) == 10


class TestContainsTranslate:
    def test_witness_unity(self):
        amb = quartic_root_of_two()
        m = echelonize(amb, [amb.unity(), amb.basis_element(2)])
        witness = contains_translate(m, m)
        assert witness is not None
        assert witness.translate == amb.unity()

    def test_witness_nontrivial(self):
        amb = quartic_root_of_two()
        x = amb.basis_element(1)
        m = echelonize(amb, [amb.unity(), amb.basis_element(2)])
        a = echelonize(amb, [x, amb.basis_element(3)])
        witness = contains_translate(a, m)
        assert witness is not None
        for mem in m.basis:
            assert a.contains(witness.translate * mem)

    def test_no_translate(self):
        amb = quartic_root_of_two()
        m = echelonize(amb, [amb.unity(), amb.basis_element(2)])
        a = echelonize(amb, [amb.unity(), amb.basis_element(1)])
        assert contains_translate(a, m) is None

    def test_laurent_returns_none(self):
        m = span(tpow(0))
        a = span(tpow(2), tpow(3))
        assert contains_translate(a, m) is None

    def test_m_without_unity_rejected(self):
        amb = quartic_root_of_two()
        m = echelonize(amb, [amb.basis_element(1)])
        a = echelonize(amb, [amb.unity()])
        with pytest.raises(AmbientError):
            contains_translate(a, m)

    def test_m_not_closed_rejected(self):
        amb = quartic_root_of_two()
        m = echelonize(amb, [amb.unity(), amb.basis_element(1)])
        a = echelonize(amb, [amb.unity()])
        with pytest.raises(AmbientError):
            contains_translate(a, m)


class TestStrongMatching:
    def test_disjoint_product_span(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(4), tpow(5))
        report = strong_matching_report(a, b)
        assert report.exists
        assert report.certificate == "disjoint-product-span"
        assert report.decisive

    def test_basis_witness(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(1), tpow(2))
        report = strong_matching_report(a, b)
        assert not report.exists
        assert report.certificate == "basis-witness"
        assert report.decisive
        w = report.witness
        assert a.contains(w.product)
        assert not w.product.is_zero
        assert w.product == w.a * w.b

    def test_pencil_witness_exact_path(self):
        # The only witness ray is a = 1+t+t^2 against b = 1-t, mixed in both
        # canonical bases, so unit sweeps and integer probes miss it and the
        # exact two-variable analysis must find the root.
        a = span(lel({0: 1, 1: 1, 2: 1}), lel({0: 1, 3: -1}))
        b = span(lel({0: 1, 2: -1}), lel({1: 1, 2: -1}))
        report = strong_matching_report(a, b)
        assert not report.exists
        assert report.certificate == "pencil-witness"
        assert report.decisive
        w = report.witness
        assert a.contains(w.a)
        assert b.contains(w.b)
        assert w.product == w.a * w.b
        assert a.contains(w.product)
        assert not w.product.is_zero
        # Confirm the canonical directions genuinely carry no witness.
        for i, x in enumerate(OrderedBasis.canonical(a).elements):
            u = members_with_products_in(b, [(x, a)])
            assert u.is_zero
        for j, y in enumerate(OrderedBasis.canonical(b).elements):
            u = members_with_products_in(a, [(y, a)])
            assert u.is_zero

    def test_non_decisive_flagged(self):
        # Every nonzero member of B has degree at least 3 while A holds the
        # polynomials of degree at most 2, so no product can land in A; but
        # the product span does intersect A, so no certificate is available
        # and the positive answer must be flagged.
        a = span(tpow(0), tpow(1), tpow(2))
        b = span(lel({0: 1, 3: 1}), tpow(4), tpow(5))
        assert not intersect(minkowski_span(a, b), a).is_zero
        report = strong_matching_report(a, b)
        assert report.exists
        assert report.certificate == "no-witness-found"
        assert not report.decisive

    def test_one_dimensional_b(self):
        # A = (1+t)<1,t> against B = <(1+t)^2>: every product has degree
        # at least 3 beyond the pattern of A, provably no witness.
        a = span(lel({0: 1, 1: 1}), lel({1: 1, 2: 1}))
        b = span(lel({0: 1, 1: 2, 2: 1}))
        report = strong_matching_report(a, b)
        assert report.exists
        assert report.decisive
        # B = <1+t> against A = <t, t^2>: t*(1+t) = t+t^2 lands in A.
        a2 = span(tpow(1), tpow(2))
        b2 = span(lel({0: 1, 1: 1}))
        report2 = strong_matching_report(a2, b2)
        assert not report2.exists
        assert report2.certificate == "basis-witness"

    def test_exists_wrapper(self):
        a = span(tpow(0), tpow(1))
        assert strong_matching_exists(a, span(tpow(4), tpow(5)))
        assert not strong_matching_exists(a, span(tpow(1), tpow(2)))

    def test_zero_space_rejected(self):
        a = span(tpow(0))
        with pytest.raises(AmbientError):
            strong_matching_report(a, echelonize(LAURENT, []))

    def test_structure_kind(self):
        amb = quartic_root_of_two()
        a = echelonize(amb, [amb.basis_element(1)])
        b = echelonize(amb, [amb.basis_element(2)])
        # x * x^2 = x^3, outside <x>.
        assert strong_matching_report(a, b).exists
        # x * x^3 = 2 and x * x = x^2 are both outside <x> as well.
        bad = echelonize(amb, [amb.basis_element(1), amb.basis_element(3)])
        assert strong_matching_report(a, bad).exists
        # x * x^3 = 2 lands in <1, x> and is nonzero.
        c = echelonize(amb, [amb.unity(), amb.basis_element(1)])
        d = echelonize(amb, [amb.basis_element(3)])
        report = strong_matching_report(c, d)
        assert not report.exists
        assert c.contains(report.witness.product)
        assert not report.witness.product.is_zero


def poly_times(left, right):
    out = [Fraction(0)] * (len(left) + len(right) - 1)
    for i, c in enumerate(left):
        for j, d in enumerate(right):
            out[i + j] += c * d
    return out


def poly_with_roots(roots, extra=None):
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = poly_times(coeffs, [Fraction(-r.numerator), Fraction(r.denominator)])
    if extra is not None:
        coeffs = poly_times(coeffs, extra)
    return coeffs


class TestRationalRoots:
    def test_known_roots(self):
        roots = [Fraction(1), Fraction(-2), Fraction(3, 2)]
        assert _rational_roots(poly_with_roots(roots)) == sorted(roots)

    def test_no_rational_roots(self):
        assert _rational_roots([Fraction(-2), Fraction(0), Fraction(1)]) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            _rational_roots([Fraction(0), Fraction(0)])

    def test_constant_and_linear(self):
        assert _rational_roots([Fraction(5)]) == []
        assert _rational_roots([Fraction(3), Fraction(-6)]) == [Fraction(1, 2)]

    def test_zero_root_stripped(self):
        # x^3 + x^2 = x^2 (x + 1)
        poly = [Fraction(0), Fraction(0), Fraction(1), Fraction(1)]
        assert _rational_roots(poly) == [Fraction(-1), Fraction(0)]

    def test_repeated_factor_reported_once(self):
        poly = poly_with_roots([Fraction(1), Fraction(1), Fraction(-3)])
        assert _rational_roots(poly) == [Fraction(-3), Fraction(1)]

    def test_rational_root_among_irrational_factors(self):
        # (3x - 7)(x^2 - 2)(x^2 + 1)
        extra = poly_times([Fraction(-2), Fraction(0), Fraction(1)],
                           [Fraction(1), Fraction(0), Fraction(1)])
        poly = poly_with_roots([Fraction(7, 3)], extra=extra)
        assert _rational_roots(poly) == [Fraction(7, 3)]

    def test_large_coefficients(self):
        # Coefficient sizes in the range produced by pencil determinants.
        extra = [Fraction(73_786_976_294_838_206_473),
                 Fraction(18_446_744_073_709_551_629),
                 Fraction(36_893_488_147_419_103_231)]
        roots = [Fraction(-17, 12), Fraction(5, 7)]
        assert _rational_roots(poly_with_roots(roots, extra=extra)) == sorted(roots)

    def test_matches_divisor_search(self):
        rng = random.Random(1234)
        for _ in range(150):
            degree = rng.randint(1, 6)
            poly = [Fraction(rng.randint(-8, 8)) for _ in range(degree + 1)]
            if all(c == 0 for c in poly):
                continue
            assert _rational_roots(poly) == divisor_search_roots(poly)


def divisor_search_roots(poly):
    coeffs = list(poly)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    roots = set()
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low:
        roots.add(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) > 1:
        scale = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        for p in range(1, abs(ints[0]) + 1):
            if ints[0] % p:
                continue
            for q in range(1, abs(ints[-1]) + 1):
                if ints[-1] % q:
                    continue
                for sign in (1, -1):
                    cand = Fraction(sign * p, q)
                    acc = Fraction(0)
                    for c in reversed(ints):
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(cand)
    return sorted(roots)


class TestViolatingBasisPair:
    def test_construction_fails_matched_condition(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(1), tpow(2))
        report = strong_matching_report(a, b)
        assert not report.exists
        abasis, bbasis = violating_basis_pair(a, b, report.witness)
        assert not is_matched_basis(abasis, bbasis)
        assert abasis.elements[0] == report.witness.a
        assert bbasis.elements[0] == report.witness.b

    def test_on_pencil_witness(self):
        a = span(lel({0: 1, 1: 1, 2: 1}), lel({0: 1, 3: -1}))
        b = span(lel({0: 1, 2: -1}), lel({1: 1, 2: -1}))
        report = strong_matching_report(a, b)
        abasis, bbasis = violating_basis_pair(a, b, report.witness)
        assert not is_matched_basis(abasis, bbasis)


class TestFindScaling:
    def test_monomial_scaling(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        alpha = find_scaling(a, b)
        assert alpha == tpow(2)

    def test_no_scaling(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(3), lel({4: 1, 5: 1}))
        assert find_scaling(a, b) is None

    def test_identity_scaling(self):
        a = span(tpow(0), tpow(1))
        assert find_scaling(a, a) == tpow(0)

    def test_non_monomial_scaling(self):
        alpha = lel({0: 1, 1: 1})
        a = span(tpow(0), tpow(1))
        b = echelonize(LAURENT, [alpha * x for x in a.basis])
        found = find_scaling(a, b)
        assert found is not None
        image = echelonize(LAURENT, [found * x for x in a.basis])
        assert image == b

    def test_random_scaled_pairs(self):
        rng = random.Random(41)
        for _ in range(20):
            dim = rng.randint(1, 3)
            a = random_subspace(LAURENT, dim, range(0, 4), rng)
            alpha = tpow(rng.randint(0, 3), rng.choice([1, 2, -1]))
            b = echelonize(LAURENT, [alpha * x for x in a.basis])
            found = find_scaling(a, b)
            assert found is not None
            image = echelonize(LAURENT, [found * x for x in a.basis])
            assert image == b

    def test_dimension_mismatch(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2))
        assert find_scaling(a, b) is None

    def test_structure_kind(self):
        amb = quartic_root_of_two()
        a = echelonize(amb, [amb.basis_element(1)])
        b = echelonize(amb, [amb.basis_element(3)])
        alpha = find_scaling(a, b)
        assert alpha is not None
        assert echelonize(amb, [alpha * x for x in a.basis]) == b


class TestIsEquivalent:
    def test_identity_equivalence(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        f = LinearIso.multiplication_by(tpow(2), a, b)
        phi = LinearIso.canonical_identity(a, a)
        assert is_equivalent(f, f, phi)

    def test_scalar_pair_equivalent(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        g = LinearIso.multiplication_by(tpow(2), a, b)
        domain = g.domain
        f = LinearIso.from_images(domain, g.codomain,
                                  [g.apply(x).scale(9) for x in domain.elements])
        phi = LinearIso.from_images(domain, domain,
                                    [x.scale(3) for x in domain.elements])
        assert is_equivalent(f, g, phi)

    def test_not_equivalent(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        f = LinearIso.multiplication_by(tpow(2), a, b)
        g = LinearIso.from_images(f.domain, f.codomain, [tpow(3), tpow(2)])
        phi = LinearIso.canonical_identity(a, a)
        assert not is_equivalent(f, g, phi)

    def test_domain_mismatch_rejected(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        c = span(tpow(4), tpow(5))
        f = LinearIso.multiplication_by(tpow(2), a, b)
        h = LinearIso.multiplication_by(tpow(2), c, echelonize(
            LAURENT, [tpow(6), tpow(7)]))
        phi = LinearIso.canonical_identity(a, a)
        with pytest.raises(AmbientError):
            is_equivalent(f, h, phi)


class TestFindAcyclicLinearMatching:
    def test_scaling_certificate(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        result = find_acyclic_linear_matching(a, b)
        assert result.certificate == "scaling"
        assert result.alpha == tpow(2)
        assert result.acyclicity_claimed
        for x in a.basis:
            assert result.iso.apply(x) == tpow(2) * x

    def test_rigid_certificate(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(3), lel({4: 1, 5: 1}))
        result = find_acyclic_linear_matching(a, b)
        assert result.certificate == "rigid"
        assert result.alpha is None
        assert result.acyclicity_claimed

    def test_requires_strong_matching(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(1), tpow(2))
        with pytest.raises(StrongMatchingRequiredError):
            find_acyclic_linear_matching(a, b)

    def test_structure_kind_not_claimed(self):
        amb = quartic_root_of_two()
        a = echelonize(amb, [amb.basis_element(1)])
        b = echelonize(amb, [amb.basis_element(2)])
        result = find_acyclic_linear_matching(a, b)
        assert result.certificate == "scaling"
        assert not result.acyclicity_claimed


class TestLemma43Check:
    def test_scalar_branch(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        g = LinearIso.multiplication_by(tpow(2), a, b)
        domain = g.domain
        f = LinearIso.from_images(domain, g.codomain,
                                  [g.apply(x).scale(9) for x in domain.elements])
        phi = LinearIso.from_images(domain, domain,
                                    [x.scale(3) for x in domain.elements])
        verdict = lemma_4_3_check(f, g, phi)
        assert verdict.branch == "scalar"
        assert verdict.scalar == Fraction(9)

    def test_trivial_scalar(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        f = LinearIso.multiplication_by(tpow(2), a, b)
        phi = LinearIso.canonical_identity(a, a)
        verdict = lemma_4_3_check(f, f, phi)
        assert verdict.branch == "scalar"
        assert verdict.scalar == Fraction(1)

    def test_scaling_branch(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        abasis = OrderedBasis.canonical(a)
        phi = LinearIso(abasis, abasis,
                        [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])
        w = LinearIso.multiplication_by(tpow(2), a, b)
        f = w.compose(phi)
        g = w.compose(phi.inverse())
        assert is_equivalent(f, g, phi)
        verdict = lemma_4_3_check(f, g, phi)
        assert verdict.branch == "scaling"
        assert verdict.alpha == tpow(2)

    def test_not_equivalent_rejected(self):
        a = span(tpow(0), tpow(1))
        b = span(tpow(2), tpow(3))
        f = LinearIso.multiplication_by(tpow(2), a, b)
        g = LinearIso.from_images(f.domain, f.codomain, [tpow(3), tpow(2)])
        phi = LinearIso.canonical_identity(a, a)
        with pytest.raises(AmbientError):
            lemma_4_3_check(f, g, phi)

    def test_structure_ambient_rejected(self):
        amb = quartic_root_of_two()
        a = echelonize(amb, [amb.basis_element(1)])
        b = echelonize(amb, [amb.basis_element(2)])
        f = LinearIso.multiplication_by(amb.basis_element(1), a, b)
        phi = LinearIso.canonical_identity(a, a)
        with pytest.raises(AmbientError):
            lemma_4_3_check(f, f, phi)

    def test_random_equivalent_pairs_never_violate(self):
        rng = random.Random(55)
        a = span(tpow(0), tpow(1), tpow(2))
        b = span(tpow(3), tpow(4), tpow(5))
        w = LinearIso.multiplication_by(tpow(3), a, b)
        for _ in range(20):
            phi = LinearIso.random(a, a, rng)
            f = w.compose(phi)
            g = w.compose(phi.inverse())
            verdict = lemma_4_3_check(f, g, phi)
            assert verdict.branch in ("scalar", "scaling")
