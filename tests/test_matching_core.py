"""Tests for the matching core shared by the plain and relative matchers.

The plain matcher is the relative matcher with N trivial, so the two must
agree on repeat-free tuples; relative graphs with a nontrivial N are checked
against networkx, and free abelian pairs (whose products may leave the
coordinate window) against brute force over raw coordinate sums.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import (
    CyclicGroup,
    FreeAbelianGroup,
    GroupValidationError,
    Homomorphism,
    ProductGroup,
    Subgroup,
    SubsetPair,
    TupleOfElements,
    compatibility_graph,
    enumerate_matchings,
    enumerate_subgroups,
    find_acyclic_matching,
    find_matching,
    find_relative_matching,
    hall_violator,
    relative_hall_violator,
)
from matchkit import matching
from matchkit.primes import check_prop_2_2
from matchkit.relative import _validated_graph

from conftest import s3_group

GROUPS = ([CyclicGroup(n) for n in range(2, 13)]
          + [ProductGroup((2, 4)), ProductGroup((3, 3)), s3_group()])


@st.composite
def plain_pairs(draw):
    group = draw(st.sampled_from(GROUPS))
    elements = list(group.elements())
    nonidentity = [x for x in elements if x != group.identity]
    k = draw(st.integers(1, min(6, len(nonidentity))))
    A = draw(st.permutations(elements))[:k]
    B = draw(st.permutations(nonidentity))[:k]
    return group, A, B


class TestTrivialSubgroupIsPlainMatching:
    @settings(max_examples=300, deadline=None)
    @given(plain_pairs())
    def test_same_graph_sigma_and_violator(self, case):
        group, A, B = case
        pair = SubsetPair(group, A, B)
        a, b = TupleOfElements(group, A), TupleOfElements(group, B)
        trivial = Subgroup.trivial(group)
        assert _validated_graph(a, b, trivial) == compatibility_graph(pair)
        plain = find_matching(pair)
        relative = find_relative_matching(a, b, trivial)
        assert (None if plain is None else plain.sigma) == \
            (None if relative is None else relative.sigma)
        if plain is None:
            assert relative_hall_violator(a, b, trivial) == hall_violator(pair)


def normal_subgroup_cases():
    """(group, N) for every nontrivial normal N of a few small groups, plus
    homomorphism kernels."""
    cases = []
    for group in (CyclicGroup(8), CyclicGroup(9), CyclicGroup(12),
                  ProductGroup((2, 4)), s3_group()):
        cases += [(group, sub) for sub in enumerate_subgroups(group)
                  if not sub.is_trivial and sub.is_normal()]
    cases += [(CyclicGroup(12), Homomorphism.mod_map(12, k).kernel()) for k in (2, 3, 4, 6)]
    cases += [(ProductGroup((3, 4)), Homomorphism.projection(ProductGroup((3, 4)), axis).kernel())
              for axis in (0, 1)]
    return cases


class TestRelativeGraphAgainstNetworkx:
    @pytest.mark.parametrize("group,subgroup", normal_subgroup_cases())
    def test_matchability_and_violator(self, group, subgroup):
        nx = pytest.importorskip("networkx")
        rng = random.Random(repr(group.to_json()) + repr(subgroup.members))
        elements = list(group.elements())
        for _ in range(40):
            n = rng.randint(1, 6)
            a = [rng.choice(elements) for _ in range(n)]
            b = [rng.choice(elements) for _ in range(n)]
            forbidden = {group.op(x, h) for x in a for h in subgroup.members}
            edges = [(i, j) for i in range(n) for j in range(n)
                     if group.op(a[i], b[j]) not in forbidden]
            graph = nx.Graph()
            graph.add_nodes_from(("a", i) for i in range(n))
            graph.add_nodes_from(("b", j) for j in range(n))
            graph.add_edges_from((("a", i), ("b", j)) for i, j in edges)
            size = len(nx.bipartite.maximum_matching(
                graph, top_nodes=[("a", i) for i in range(n)])) // 2
            ta, tb = TupleOfElements(group, a), TupleOfElements(group, b)
            found = find_relative_matching(ta, tb, subgroup)
            assert (found is not None) == (size == n)
            if found is not None:
                assert all((i, found.sigma[i]) in edges for i in range(n))
            else:
                violator = relative_hall_violator(ta, tb, subgroup)
                neighbours = {j for i, j in edges if i in violator}
                assert len(neighbours) < len(violator)


def add(x, y):
    """Free abelian sum with no window."""
    return tuple(u + v for u, v in zip(x, y))


def raw_products(A, B, sigma):
    return [add(A[i], B[sigma[i]]) for i in range(len(A))]


@st.composite
def free_abelian_pairs(draw):
    rank = draw(st.integers(1, 2))
    window = draw(st.integers(1, 3))
    points = list(itertools.product(range(-window, window + 1), repeat=rank))
    nonzero = [x for x in points if any(x)]
    k = draw(st.integers(1, min(5, len(nonzero))))
    A = draw(st.permutations(points))[:k]
    B = draw(st.permutations(nonzero))[:k]
    return FreeAbelianGroup(rank, window), A, B


class TestFreeAbelianPairs:
    def test_products_may_leave_the_window(self):
        pair = SubsetPair(FreeAbelianGroup(1, 3), [[3]], [[3]])
        assert find_matching(pair).products == ((6,),)
        assert find_matching(pair).to_json()["products"] == [[6]]
        assert find_acyclic_matching(pair).status == "found"
        a = TupleOfElements(FreeAbelianGroup(1, 3), [[3], [1]])
        b = TupleOfElements(FreeAbelianGroup(1, 3), [[3], [2]])
        assert find_relative_matching(a, b, Subgroup.trivial(a.group)) is not None

    @settings(max_examples=150, deadline=None)
    @given(free_abelian_pairs())
    def test_matchers_agree_with_brute_force(self, case):
        group, A, B = case
        pair = SubsetPair(group, A, B)
        sigmas = [s for s in itertools.permutations(range(len(A)))
                  if not set(raw_products(A, B, s)) & set(A)]
        assert [m.sigma for m in enumerate_matchings(pair).matchings] == sigmas
        assert (find_matching(pair) is None) == (not sigmas)
        classes = Counter(tuple(sorted(raw_products(A, B, s))) for s in sigmas)
        acyclic = [s for s in sigmas if classes[tuple(sorted(raw_products(A, B, s)))] == 1]
        search = find_acyclic_matching(pair)
        assert search.total_matchings == len(sigmas)
        assert search.acyclic_count == len(acyclic)
        assert search.status == ("found" if acyclic else "absent")
        if acyclic:
            assert search.matching.sigma == acyclic[0]
        a, b = TupleOfElements(group, A), TupleOfElements(group, B)
        assert (find_relative_matching(a, b, Subgroup.trivial(group)) is None) == (not sigmas)


class TestRelativeViolatorValidation:
    def test_length_mismatch(self):
        g = CyclicGroup(6)
        with pytest.raises(GroupValidationError):
            relative_hall_violator(TupleOfElements(g, [1, 2, 3]), TupleOfElements(g, [1]),
                                   Subgroup.trivial(g))

    def test_non_normal_subgroup(self, s3):
        sub = next(s for s in enumerate_subgroups(s3) if s.order == 2)
        assert not sub.is_normal()
        x = sub.members[1]
        a, b = TupleOfElements(s3, [x, x]), TupleOfElements(s3, [x, x])
        with pytest.raises(GroupValidationError):
            relative_hall_violator(a, b, sub)


def test_prop_2_2_check_shares_one_graph(monkeypatch):
    """The truncated p = 31 check builds its product table once for all
    2000 acyclicity probes, beside the enumeration's own graph."""
    counts = Counter()
    product, graph = matching._raw_product, matching._graph

    def counting_product(*args):
        counts["products"] += 1
        return product(*args)

    def counting_graph(*args):
        counts["graphs"] += 1
        return graph(*args)

    monkeypatch.setattr(matching, "_raw_product", counting_product)
    monkeypatch.setattr(matching, "_graph", counting_graph)
    verdict = check_prop_2_2(31, enumeration_cap=20000)
    assert not verdict.exhaustive
    # 15 x 15 graph for the enumeration, 15 products for each of the 20000
    # matchings, and one more 15 x 15 table for the probes.
    assert counts["products"] <= 225 + 20000 * 15 + 225
    assert counts["graphs"] <= 2
