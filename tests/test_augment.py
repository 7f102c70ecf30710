"""The iterative augmenting-path search: depth beyond the recursion limit and
the exact visiting order of the recursive formulation."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit.matching import _maximum_matching


def recursive_maximum_matching(adj, n):
    """Reference: Kuhn's algorithm with a recursive augmenting search."""

    def augment(i, match_b, visited):
        for j in adj[i]:
            if visited[j]:
                continue
            visited[j] = True
            if match_b[j] < 0 or augment(match_b[j], match_b, visited):
                match_b[j] = i
                return True
        return False

    match_b = [-1] * n
    for i in range(n):
        augment(i, match_b, [False] * n)
    return match_b


def test_path_deeper_than_recursion_limit():
    nx = pytest.importorskip("networkx")
    n = 1500
    assert n > sys.getrecursionlimit()
    # Vertex i prefers i-1, owned by i-1, so its search walks down to 0.
    adj = [(0,)] + [(i - 1, i) for i in range(1, n)]
    match_b = _maximum_matching(adj, n)
    graph = nx.Graph()
    graph.add_nodes_from(("a", i) for i in range(n))
    graph.add_nodes_from(("b", j) for j in range(n))
    graph.add_edges_from((("a", i), ("b", j)) for i, row in enumerate(adj) for j in row)
    # networkx's Hopcroft-Karp recurses along augmenting paths itself, so
    # only the oracle runs under a raised limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * n)
    try:
        expected = nx.bipartite.maximum_matching(graph, top_nodes=[("a", i) for i in range(n)])
    finally:
        sys.setrecursionlimit(limit)
    assert sum(1 for i in match_b if i >= 0) == len(expected) // 2 == n
    assert all(match_b[j] < 0 or j in adj[match_b[j]] for j in range(n))


@st.composite
def bipartite_graphs(draw):
    n = draw(st.integers(1, 8))
    adj = [tuple(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
           for _ in range(n)]
    return adj, n


@settings(max_examples=300, deadline=None)
@given(bipartite_graphs())
def test_matches_recursive_reference(case):
    adj, n = case
    assert _maximum_matching(adj, n) == recursive_maximum_matching(adj, n)
