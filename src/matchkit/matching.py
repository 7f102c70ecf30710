"""Matchings between equal-size subsets of a group, and the matching core.

A matching from A to B is a bijection f with a*f(a) outside A for every a.
This module builds the compatibility graph, finds matchings with Hall-type
certificates when none exist, enumerates matchings, computes multiplicity
functions, and decides acyclicity (no second matching shares the
multiplicity function).

It also holds the core shared with ``relative`` (forbidden set A*N, not A):
every product goes through ``_raw_product``, ``_graph`` is the one graph
builder, ``_checked_products`` the one sigma check, and ``_sigma_stream`` the
one search, optionally within a multiplicity budget.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Literal, Optional, Sequence, TypeVar

from .groups import Element, Group, WindowOverflowError, group_from_json

# Enumeration-flavoured operations are only supported up to this subset size.
ENUMERATION_SIZE_CAP = 20
DEFAULT_ENUMERATION_CAP = 100_000
ACYCLIC_PROBE_LIMIT = 2_000
T = TypeVar("T")


class PairValidationError(ValueError):
    """A subset pair failed validation."""


class SizeCapError(ValueError):
    """An enumeration operation was asked to exceed its size cap."""


class MatchingExistsError(ValueError):
    """A Hall violator was requested although a matching exists."""


def _raw_product(group: Group, a: Element, b: Element) -> Element:
    """Group product that tolerates free abelian window overflow.

    An out-of-window sum is still a genuine ambient-group element; it simply
    cannot belong to any subset drawn from the window.
    """
    try:
        return group.op(a, b)
    except WindowOverflowError as exc:
        return exc.result


class SubsetPair:
    """Equal-size subsets A, B of a common group with the identity not in B."""

    def __init__(self, group: Group, A: Sequence[Element], B: Sequence[Element]):
        self.group = group
        self.A = tuple(group.canon(a) for a in A)
        self.B = tuple(group.canon(b) for b in B)
        if len(self.A) == 0:
            raise PairValidationError("A must be nonempty")
        if len(self.A) != len(self.B):
            raise PairValidationError(f"|A|={len(self.A)} and |B|={len(self.B)} differ")
        if len(set(self.A)) != len(self.A):
            raise PairValidationError("A has repeated elements")
        if len(set(self.B)) != len(self.B):
            raise PairValidationError("B has repeated elements")
        if group.identity in set(self.B):
            raise PairValidationError("B must not contain the identity")
        self._a_set = frozenset(self.A)

    @property
    def size(self) -> int:
        return len(self.A)

    def in_a(self, x: Element) -> bool:
        return x in self._a_set

    @classmethod
    def from_json(cls, doc: dict) -> "SubsetPair":
        if not isinstance(doc, dict):
            raise PairValidationError("pair description must be an object")
        group = group_from_json(doc.get("group", {}))
        return cls(group, doc.get("A", ()), doc.get("B", ()))

    def to_json(self) -> dict:
        g = self.group
        return {"group": g.to_json(),
                "A": [g.element_to_json(a) for a in self.A],
                "B": [g.element_to_json(b) for b in self.B]}

    def __repr__(self) -> str:
        g = self.group
        a = ",".join(g.format_element(x) for x in self.A)
        b = ",".join(g.format_element(x) for x in self.B)
        return f"SubsetPair({g.name}; A={{{a}}}; B={{{b}}})"


def _product_table(group: Group, left: Sequence[Element],
                   right: Sequence[Element]) -> list[list[Element]]:
    """table[i][j] is left[i]*right[j]."""
    return [[_raw_product(group, x, y) for y in right] for x in left]


def _product_set(group: Group, left: Sequence[Element], right: Sequence[Element]) -> frozenset:
    """The set of products x*y, x in left and y in right."""
    return frozenset([_raw_product(group, x, y) for x in left for y in right])


def _graph(group: Group, left: Sequence[Element], right: Sequence[Element],
           forbidden: frozenset) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists: j is admissible for i when left[i]*right[j] lies
    outside forbidden."""
    rows = []
    for x in left:
        rows.append(tuple(j for j, y in enumerate(right)
                          if _raw_product(group, x, y) not in forbidden))
    return tuple(rows)


def _checked_products(group: Group, left: Sequence[Element], right: Sequence[Element],
                      forbidden: frozenset, sigma: tuple[int, ...],
                      error: type[Exception]) -> tuple[Element, ...]:
    """The products left[i]*right[sigma[i]], after checking that sigma is a
    permutation and that no product lies in forbidden; raises error if not."""
    n = len(left)
    if sorted(sigma) != list(range(n)):
        raise error(f"sigma {sigma!r} is not a permutation of 0..{n - 1}")
    products = tuple(_raw_product(group, x, right[j]) for x, j in zip(left, sigma))
    for i, p in enumerate(products):
        if p in forbidden:
            raise error(f"product at position {i} lands in the forbidden set")
    return products


def compatibility_graph(pair: SubsetPair) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists: j is admissible for i when A[i]*B[j] lies outside A."""
    return _graph(pair.group, pair.A, pair.B, pair._a_set)


def _augment(adj: Sequence[Sequence[int]], root: int, match_b: list[int],
             visited: list[bool]) -> bool:
    """Depth-first search for an augmenting path from root.

    The recursion of Kuhn's algorithm is kept as an explicit stack of
    suspended (vertex, remaining neighbours, B vertex taken) frames, so the
    visiting order is the recursive one and the path length is not limited
    by the interpreter's recursion limit.
    """
    i, neighbours = root, iter(adj[root])
    stack: list[tuple[int, Iterator[int], int]] = []
    while True:
        for j in neighbours:
            if visited[j]:
                continue
            visited[j] = True
            owner = match_b[j]
            if owner < 0:
                match_b[j] = i
                for k, _, jk in stack:
                    match_b[jk] = k
                return True
            stack.append((i, neighbours, j))
            i, neighbours = owner, iter(adj[owner])
            break
        else:
            if not stack:
                return False
            i, neighbours, _ = stack.pop()


def _maximum_matching(adj: Sequence[Sequence[int]], n: int) -> list[int]:
    """Deterministic augmenting-path matching; returns match_b (B -> A or -1)."""
    match_b = [-1] * n
    for i in range(n):
        visited = [False] * n
        _augment(adj, i, match_b, visited)
    return match_b


def _hall_cut(adj: Sequence[Sequence[int]], match_b: list[int], n: int) -> list[int]:
    """A-side of the alternating-reachability cut from the unmatched A vertices."""
    match_a = [-1] * n
    for j, i in enumerate(match_b):
        if i >= 0:
            match_a[i] = j
    frontier = [i for i in range(n) if match_a[i] < 0]
    seen_a = set(frontier)
    seen_b: set[int] = set()
    while frontier:
        fresh = []
        for i in frontier:
            for j in adj[i]:
                if j in seen_b:
                    continue
                seen_b.add(j)
                owner = match_b[j]
                if owner >= 0 and owner not in seen_a:
                    seen_a.add(owner)
                    fresh.append(owner)
        frontier = fresh
    return sorted(seen_a)


class MultiplicityFunction:
    """Multiset of products a*f(a), keyed by the product value."""

    def __init__(self, items: Sequence[tuple[Element, int]]):
        self._counts = dict(items)
        self.items = tuple(sorted(self._counts.items()))

    @property
    def counts(self) -> dict:
        return dict(self._counts)

    def support(self) -> tuple[Element, ...]:
        return tuple(k for k, _ in self.items)

    def __getitem__(self, key: Element) -> int:
        return self._counts.get(key, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiplicityFunction) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def to_json(self, group: Group) -> dict:
        return {group.format_element(k): v for k, v in self.items}

    def __repr__(self) -> str:
        return f"MultiplicityFunction({dict(self.items)!r})"


class Matching:
    """A matching given as sigma: index i of A paired with index sigma[i] of B."""

    def __init__(self, pair: SubsetPair, sigma: Sequence[int]):
        self.pair = pair
        self.sigma = tuple(sigma)
        self.products = _checked_products(pair.group, pair.A, pair.B, pair._a_set,
                                          self.sigma, PairValidationError)

    def multiplicity(self) -> MultiplicityFunction:
        return MultiplicityFunction(tuple(Counter(self.products).items()))

    def _product_key(self) -> tuple:
        return tuple(sorted(self.products))

    def to_json(self) -> dict:
        g = self.pair.group
        return {"sigma": list(self.sigma),
                "products": [g.element_to_json(p) for p in self.products],
                "multiplicity": self.multiplicity().to_json(g)}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matching) and self.pair.A == other.pair.A
                and self.pair.B == other.pair.B and self.sigma == other.sigma)

    def __hash__(self) -> int:
        return hash(self.sigma)

    def __repr__(self) -> str:
        return f"Matching(sigma={self.sigma})"


def _solve(adj: Sequence[Sequence[int]]) -> tuple[Optional[list[int]], list[int]]:
    """One maximum matching run: (sigma, match_b), sigma None unless perfect."""
    n = len(adj)
    match_b = _maximum_matching(adj, n)
    if -1 in match_b:
        return None, match_b
    sigma = [-1] * n
    for j, i in enumerate(match_b):
        sigma[i] = j
    return sigma, match_b


def _match_or_violator(adj: Sequence[Sequence[int]], build: Callable[[list[int]], T]
                       ) -> tuple[Optional[T], Optional[tuple[int, ...]]]:
    """build(sigma) for a perfect matching, or else a Hall violator (the A-side
    of the alternating cut, checked), from one matching run on the graph."""
    sigma, match_b = _solve(adj)
    if sigma is not None:
        return build(sigma), None
    cut = _hall_cut(adj, match_b, len(adj))
    if len(set().union(*(adj[i] for i in cut))) >= len(cut):
        raise AssertionError("alternating cut failed to certify the Hall violation")
    return None, tuple(cut)


def find_matching(pair: SubsetPair) -> Optional[Matching]:
    """A matching from A to B, or None; deterministic in the index order."""
    sigma, _ = _solve(compatibility_graph(pair))
    return None if sigma is None else Matching(pair, sigma)


def hall_violator(pair: SubsetPair) -> tuple[int, ...]:
    """Indices S of A whose joint neighborhood is smaller than S.

    Only valid when no matching exists; raises MatchingExistsError otherwise.
    """
    _, cut = _match_or_violator(compatibility_graph(pair), partial(Matching, pair))
    if cut is None:
        raise MatchingExistsError("a matching exists; there is no Hall violator")
    return cut


def _sigma_stream(adj: Sequence[Sequence[int]],
                  table: Optional[Sequence[Sequence[Element]]] = None,
                  budget: Optional[Counter] = None) -> Iterator[tuple[int, ...]]:
    """All perfect matchings as sigma tuples in lexicographic order.

    With a budget (product -> count, consumed while the search runs), only
    the matchings whose products table[i][sigma[i]] fit within it.
    """
    n = len(adj)
    sigma = [-1] * n
    used = [False] * n

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(sigma)
            return
        for j in adj[i]:
            if used[j]:
                continue
            if budget is not None:
                p = table[i][j]
                if budget[p] <= 0:
                    continue
                budget[p] -= 1
            used[j] = True
            sigma[i] = j
            yield from rec(i + 1)
            used[j] = False
            if budget is not None:
                budget[p] += 1

    yield from rec(0)


@dataclass
class MatchingEnumeration:
    matchings: tuple[Matching, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.matchings)


def _enumerate(pair: SubsetPair, cap: int) -> tuple[MatchingEnumeration, Sequence]:
    """The enumeration of enumerate_matchings, with the graph it ran on."""
    if pair.size > ENUMERATION_SIZE_CAP:
        raise SizeCapError(f"enumeration supports |A| <= {ENUMERATION_SIZE_CAP}, got {pair.size}")
    adj = compatibility_graph(pair)
    out = []
    truncated = False
    for sigma in _sigma_stream(adj):
        if len(out) >= cap:
            truncated = True
            break
        out.append(Matching(pair, sigma))
    return MatchingEnumeration(tuple(out), truncated), adj


def enumerate_matchings(pair: SubsetPair, cap: int = DEFAULT_ENUMERATION_CAP) -> MatchingEnumeration:
    """All matchings in lexicographic sigma order, truncated at cap."""
    return _enumerate(pair, cap)[0]


def _is_acyclic(adj: Sequence[Sequence[int]], table: Sequence[Sequence[Element]],
                products: Sequence[Element]) -> bool:
    """True when exactly one matching of the graph has this product multiset;
    the search stops at the second."""
    return len(list(islice(_sigma_stream(adj, table, Counter(products)), 2))) == 1


def is_acyclic(matching: Matching) -> bool:
    """True when no other matching has the same multiplicity function.

    Counts multiplicity-constrained completions directly with an early exit
    at two, rather than enumerating all matchings first.
    """
    pair = matching.pair
    if pair.size > ENUMERATION_SIZE_CAP:
        raise SizeCapError(f"acyclicity check supports |A| <= {ENUMERATION_SIZE_CAP}")
    return _is_acyclic(compatibility_graph(pair), _product_table(pair.group, pair.A, pair.B),
                       matching.products)


def _singleton_classes(matchings: Sequence[Matching]) -> list[Matching]:
    """The matchings, in order, whose product multiset no other matching in
    the complete list shares: exactly the acyclic ones."""
    counts = Counter(m._product_key() for m in matchings)
    return [m for m in matchings if counts[m._product_key()] == 1]


@dataclass
class AcyclicSearch:
    """Outcome of a search for an acyclic matching."""
    status: Literal["found", "absent", "inconclusive"]
    matching: Optional[Matching]
    matchings_examined: int
    total_matchings: Optional[int] = None
    acyclic_count: Optional[int] = None


def find_acyclic_matching(pair: SubsetPair, cap: int = DEFAULT_ENUMERATION_CAP) -> AcyclicSearch:
    """First acyclic matching in enumeration order, verified absence, or an
    inconclusive verdict when the enumeration cap is hit.

    When the enumeration completes, acyclicity of every matching falls out of
    grouping by product multiset: a matching is acyclic exactly when its
    multiplicity class is a singleton.
    """
    enum, adj = _enumerate(pair, cap)
    matchings = enum.matchings
    if not enum.truncated:
        acyclic = _singleton_classes(matchings)
        if acyclic:
            return AcyclicSearch("found", acyclic[0], len(matchings), len(matchings),
                                 len(acyclic))
        return AcyclicSearch("absent", None, len(matchings), len(matchings), 0)
    # Truncated enumeration: acyclicity of each candidate is still decided
    # exactly (the constrained count is global), but absence cannot be, and
    # probing the entire truncated list would cost another search per entry,
    # so only a bounded prefix is tried before conceding.  All probes share
    # the enumeration's graph and one product table.
    table = _product_table(pair.group, pair.A, pair.B)
    for m in matchings[:ACYCLIC_PROBE_LIMIT]:
        if _is_acyclic(adj, table, m.products):
            return AcyclicSearch("found", m, len(matchings), None, None)
    return AcyclicSearch("inconclusive", None, len(matchings), None, None)
