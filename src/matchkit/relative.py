"""Matchings of element tuples relative to a normal subgroup.

Entries may repeat, so tuples rather than sets are matched: a permutation
sigma matches (a_1..a_n) to (b_1..b_n) relative to a normal subgroup N when
every product a_i * b_sigma(i) avoids every coset a_j * N.  Taking N trivial
recovers plain tuple matchings; taking N = ker(eta) mirrors matchings of the
image tuples under a homomorphism eta.

This module validates inputs; the forbidden set A*N, the graph, the sigma
check and the search come from the matching core in ``matching``.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Optional, Sequence

from .groups import (Element, Group, GroupValidationError, Homomorphism,
                     Subgroup)
from .matching import (_checked_products, _graph, _match_or_violator,
                       _product_set, _solve)


class MultiplicityMismatchError(ValueError):
    """A support map does not preserve entry multiplicities."""


class TupleOfElements:
    """An ordered tuple of group elements, repetition allowed."""

    def __init__(self, group: Group, entries: Sequence[Element]):
        self.group = group
        self.entries = tuple(group.canon(x) for x in entries)
        if not self.entries:
            raise GroupValidationError("tuple must be nonempty")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def support(self) -> tuple[Element, ...]:
        """Distinct entries in first-occurrence order."""
        return tuple(dict.fromkeys(self.entries))

    @property
    def multiplicities(self) -> dict:
        return dict(Counter(self.entries))

    def to_json(self) -> list:
        return [self.group.element_to_json(x) for x in self.entries]

    def __repr__(self) -> str:
        inside = ",".join(self.group.format_element(x) for x in self.entries)
        return f"TupleOfElements(({inside}))"


def _check_shapes(a: TupleOfElements, b: TupleOfElements, subgroup: Subgroup) -> None:
    if a.group != b.group or a.group != subgroup.group:
        raise GroupValidationError("tuples and subgroup must share one group")
    if len(a) != len(b):
        raise GroupValidationError("tuples must have equal length")


class RelativeMatching:
    """A verified matching of tuple a to tuple b relative to N."""

    def __init__(self, a: TupleOfElements, b: TupleOfElements, subgroup: Subgroup,
                 sigma: Sequence[int]):
        _check_shapes(a, b, subgroup)
        self.a = a
        self.b = b
        self.subgroup = subgroup
        self.sigma = tuple(sigma)
        forbidden = _product_set(a.group, a.support, subgroup.members)
        _checked_products(a.group, a.entries, b.entries, forbidden, self.sigma,
                          GroupValidationError)

    def to_json(self) -> dict:
        g = self.a.group
        return {"sigma": list(self.sigma),
                "a": self.a.to_json(),
                "b": self.b.to_json(),
                "N": [g.element_to_json(m) for m in self.subgroup.members]}

    def __repr__(self) -> str:
        return f"RelativeMatching(sigma={self.sigma})"


def _validated_graph(a: TupleOfElements, b: TupleOfElements,
                     subgroup: Subgroup) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists: j is admissible for i when a_i*b_j avoids every coset a_k*N."""
    _check_shapes(a, b, subgroup)
    if not subgroup.is_normal():
        raise GroupValidationError("the subgroup must be normal")
    forbidden = _product_set(a.group, a.support, subgroup.members)
    return _graph(a.group, a.entries, b.entries, forbidden)


def find_relative_matching(a: TupleOfElements, b: TupleOfElements,
                           subgroup: Subgroup) -> Optional[RelativeMatching]:
    """A matching of a to b relative to the normal subgroup N, or None."""
    sigma, _ = _solve(_validated_graph(a, b, subgroup))
    return None if sigma is None else RelativeMatching(a, b, subgroup, sigma)


def relative_hall_violator(a: TupleOfElements, b: TupleOfElements,
                           subgroup: Subgroup) -> tuple[int, ...]:
    """Index set of a-positions with too small a joint neighborhood."""
    _, cut = _match_or_violator(_validated_graph(a, b, subgroup),
                                partial(RelativeMatching, a, b, subgroup))
    if cut is None:
        raise GroupValidationError("a relative matching exists; no violator")
    return cut


def push_forward(hom: Homomorphism, tup: TupleOfElements) -> TupleOfElements:
    """Entrywise image of a tuple under a homomorphism."""
    if tup.group != hom.source:
        raise GroupValidationError("tuple group does not match the homomorphism source")
    return TupleOfElements(hom.target, [hom(x) for x in tup.entries])


def verify_hom_transfer(hom: Homomorphism, a: TupleOfElements,
                        b: TupleOfElements) -> bool:
    """Check that matchability of image tuples equals matchability relative
    to the kernel.  Always true; a False return flags an implementation or
    statement defect."""
    kernel_side = find_relative_matching(a, b, hom.kernel()) is not None
    image_a = push_forward(hom, a)
    image_b = push_forward(hom, b)
    trivial = Subgroup.trivial(hom.target)
    image_side = find_relative_matching(image_a, image_b, trivial) is not None
    return kernel_side == image_side


def lift_support_matching(a: TupleOfElements, b: TupleOfElements,
                          support_map: dict) -> Optional[RelativeMatching]:
    """Lift a matching of supports to a matching of the full tuples.

    The map must send the support of a onto the support of b preserving
    entry multiplicities; occurrences are then paired in order.  The lift is
    validated against the defining condition with trivial N (products must
    avoid the support of a); None is returned when the given map is not
    actually a matching of the supports.
    """
    g = a.group
    support_map = {g.canon(k): g.canon(v) for k, v in support_map.items()}
    if sorted(support_map.keys()) != sorted(a.support):
        raise MultiplicityMismatchError("map domain must be exactly the support of a")
    if sorted(support_map.values()) != sorted(b.support):
        raise MultiplicityMismatchError("map image must be exactly the support of b")
    mult_a = a.multiplicities
    mult_b = b.multiplicities
    for s, t in support_map.items():
        if mult_a[s] != mult_b[t]:
            raise MultiplicityMismatchError(
                f"entry {g.format_element(s)} has multiplicity {mult_a[s]} in a but "
                f"{g.format_element(t)} has {mult_b[t]} in b")
    positions: dict = {}
    for j, y in enumerate(b.entries):
        positions.setdefault(y, []).append(j)
    slots = {y: iter(js) for y, js in positions.items()}
    sigma = [next(slots[support_map[x]]) for x in a.entries]
    try:
        return RelativeMatching(a, b, Subgroup.trivial(g), sigma)
    except GroupValidationError:
        return None
