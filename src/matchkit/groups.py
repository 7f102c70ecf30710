"""Group arithmetic: cyclic groups, direct products, Cayley tables, and
windowed free abelian groups, plus subgroups, cosets, and homomorphisms.

Elements of finite groups are canonical integer indices ``0..order-1``.
Direct products pack coordinate tuples in mixed radix; the public API also
accepts the tuples themselves.  Free abelian elements are integer tuples
confined to a symmetric coordinate window; results that would leave the
window raise instead of wrapping.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence, Union

Element = Union[int, tuple[int, ...]]

# Enumerating every subgroup is only supported up to this group order.
MAX_ENUMERATION_ORDER = 512
# Cayley tables are checked for associativity exhaustively up to this order;
# larger tables are spot-checked on a deterministic sample of triples.
ASSOC_CHECK_LIMIT = 64
_ASSOC_SAMPLE = 20_000
_HOM_CHECK_LIMIT = 64
_HOM_SAMPLE = 10_000


class GroupValidationError(ValueError):
    """A group definition, element, or homomorphism failed validation."""


class GroupTooLargeError(ValueError):
    """An enumeration was requested past its supported size cap."""


class InfiniteClosureError(ValueError):
    """A subgroup closure cannot terminate (infinite-order generator)."""


class WindowOverflowError(ArithmeticError):
    """A free abelian operation left the coordinate window.

    The true (unwrapped) result is kept in ``result`` so callers that only
    need a membership test can still inspect it.
    """

    def __init__(self, message: str, result: tuple[int, ...]):
        super().__init__(message)
        self.result = result


class Group:
    """Common interface for the supported group kinds."""

    kind: str = ""
    name: str = ""

    @property
    def order(self) -> Optional[int]:
        """Number of elements, or None for the infinite kinds."""
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    @property
    def identity(self) -> Element:
        raise NotImplementedError

    @property
    def is_abelian(self) -> bool:
        raise NotImplementedError

    def canon(self, x: object) -> Element:
        """Normalize an element given in any accepted form; raise if invalid."""
        raise NotImplementedError

    def op(self, x: Element, y: Element) -> Element:
        raise NotImplementedError

    def inv(self, x: Element) -> Element:
        raise NotImplementedError

    def elements(self) -> Iterator[Element]:
        """All elements in canonical order (finite kinds only)."""
        raise NotImplementedError

    def format_element(self, x: Element) -> str:
        raise NotImplementedError

    def element_to_json(self, x: Element) -> object:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Group) and self.to_json() == other.to_json())

    def __hash__(self) -> int:
        return hash(repr(self.to_json()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class CyclicGroup(Group):
    """Additive group of integers modulo n."""

    kind = "cyclic"

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise GroupValidationError(f"cyclic order must be a positive integer, got {n!r}")
        self.n = n
        self.name = f"Z/{n}"

    @property
    def order(self) -> int:
        return self.n

    @property
    def identity(self) -> int:
        return 0

    @property
    def is_abelian(self) -> bool:
        return True

    def canon(self, x: object) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise GroupValidationError(f"{x!r} is not an element of {self.name}")
        if not 0 <= x < self.n:
            raise GroupValidationError(f"{x} out of range for {self.name}")
        return x

    def op(self, x: Element, y: Element) -> int:
        return (self.canon(x) + self.canon(y)) % self.n

    def inv(self, x: Element) -> int:
        return (-self.canon(x)) % self.n

    def elements(self) -> Iterator[int]:
        return iter(range(self.n))

    def format_element(self, x: Element) -> str:
        return str(self.canon(x))

    def element_to_json(self, x: Element) -> int:
        return self.canon(x)

    def to_json(self) -> dict:
        return {"kind": "cyclic", "n": self.n}


class ProductGroup(Group):
    """Direct product of cyclic groups, elements packed in mixed radix."""

    kind = "product"

    def __init__(self, factors: Sequence[int]):
        factors = tuple(factors)
        if not factors or any(not isinstance(f, int) or f < 1 for f in factors):
            raise GroupValidationError(f"product factors must be positive integers, got {factors!r}")
        self.factors = factors
        self.name = "x".join(f"Z/{f}" for f in factors)
        self._order = 1
        for f in factors:
            self._order *= f

    @property
    def order(self) -> int:
        return self._order

    @property
    def identity(self) -> int:
        return 0

    @property
    def is_abelian(self) -> bool:
        return True

    def encode(self, coords: Sequence[int]) -> int:
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise GroupValidationError(f"expected {len(self.factors)} coordinates, got {coords!r}")
        index = 0
        for c, f in zip(coords, self.factors):
            if not isinstance(c, int) or not 0 <= c < f:
                raise GroupValidationError(f"coordinate {c!r} out of range for Z/{f}")
            index = index * f + c
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        coords = []
        for f in reversed(self.factors):
            index, c = divmod(index, f)
            coords.append(c)
        return tuple(reversed(coords))

    def canon(self, x: object) -> int:
        if isinstance(x, (tuple, list)):
            return self.encode(x)
        if isinstance(x, bool) or not isinstance(x, int):
            raise GroupValidationError(f"{x!r} is not an element of {self.name}")
        if not 0 <= x < self._order:
            raise GroupValidationError(f"{x} out of range for {self.name}")
        return x

    def op(self, x: Element, y: Element) -> int:
        a = self.decode(self.canon(x))
        b = self.decode(self.canon(y))
        return self.encode(tuple((u + v) % f for u, v, f in zip(a, b, self.factors)))

    def inv(self, x: Element) -> int:
        a = self.decode(self.canon(x))
        return self.encode(tuple((-u) % f for u, f in zip(a, self.factors)))

    def elements(self) -> Iterator[int]:
        return iter(range(self._order))

    def format_element(self, x: Element) -> str:
        return "(" + ",".join(str(c) for c in self.decode(self.canon(x))) + ")"

    def element_to_json(self, x: Element) -> list[int]:
        return list(self.decode(self.canon(x)))

    def to_json(self) -> dict:
        return {"kind": "product", "factors": list(self.factors)}


class TableGroup(Group):
    """Finite group given by an explicit Cayley table over labelled elements."""

    kind = "table"

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[int]], *, name: str = ""):
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        if n == 0:
            raise GroupValidationError("table group needs at least one element")
        if len(set(self.labels)) != n:
            raise GroupValidationError("table group labels must be distinct")
        if len(table) != n or any(len(row) != n for row in table):
            raise GroupValidationError("Cayley table must be square and match the label count")
        self.table = tuple(tuple(int(v) for v in row) for row in table)
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise GroupValidationError(f"table entry {v} out of range")
        self.name = name or f"table[{n}]"
        self._identity = self._find_identity()
        self._check_inverses()
        self._check_associativity()
        self._label_index = {s: i for i, s in enumerate(self.labels)}

    def _find_identity(self) -> int:
        n = len(self.labels)
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                return e
        raise GroupValidationError("Cayley table has no two-sided identity")

    def _check_inverses(self) -> None:
        n = len(self.labels)
        e = self._identity
        for x in range(n):
            if not any(self.table[x][y] == e and self.table[y][x] == e for y in range(n)):
                raise GroupValidationError(f"element {self.labels[x]!r} has no inverse")

    def _check_associativity(self) -> None:
        n = len(self.labels)
        if n <= ASSOC_CHECK_LIMIT:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(0)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(_ASSOC_SAMPLE))
        for x, y, z in triples:
            if self.table[self.table[x][y]][z] != self.table[x][self.table[y][z]]:
                raise GroupValidationError(
                    f"Cayley table is not associative at ({self.labels[x]},{self.labels[y]},{self.labels[z]})"
                )

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def identity(self) -> int:
        return self._identity

    @property
    def is_abelian(self) -> bool:
        n = len(self.labels)
        return all(self.table[x][y] == self.table[y][x] for x in range(n) for y in range(x))

    def canon(self, x: object) -> int:
        if isinstance(x, str):
            if x not in self._label_index:
                raise GroupValidationError(f"unknown element label {x!r}")
            return self._label_index[x]
        if isinstance(x, bool) or not isinstance(x, int):
            raise GroupValidationError(f"{x!r} is not an element of {self.name}")
        if not 0 <= x < len(self.labels):
            raise GroupValidationError(f"{x} out of range for {self.name}")
        return x

    def op(self, x: Element, y: Element) -> int:
        return self.table[self.canon(x)][self.canon(y)]

    def inv(self, x: Element) -> int:
        x = self.canon(x)
        e = self._identity
        for y in range(len(self.labels)):
            if self.table[x][y] == e:
                return y
        raise GroupValidationError("unreachable: validated table lost an inverse")

    def elements(self) -> Iterator[int]:
        return iter(range(len(self.labels)))

    def format_element(self, x: Element) -> str:
        return self.labels[self.canon(x)]

    def element_to_json(self, x: Element) -> str:
        return self.labels[self.canon(x)]

    def to_json(self) -> dict:
        return {"kind": "table", "elements": list(self.labels),
                "table": [list(row) for row in self.table]}


class FreeAbelianGroup(Group):
    """Z^rank restricted to a symmetric coordinate window [-window, window].

    The window is a representation bound, not a quotient: sums that leave it
    raise WindowOverflowError carrying the true result.
    """

    kind = "free_abelian"

    def __init__(self, rank: int, window: int):
        if not isinstance(rank, int) or rank < 1:
            raise GroupValidationError(f"rank must be a positive integer, got {rank!r}")
        if not isinstance(window, int) or window < 1:
            raise GroupValidationError(f"window must be a positive integer, got {window!r}")
        self.rank = rank
        self.window = window
        self.name = f"Z^{rank}[w={window}]"

    @property
    def order(self) -> Optional[int]:
        return None

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    @property
    def is_abelian(self) -> bool:
        return True

    def _coords(self, x: object) -> tuple[int, ...]:
        """x as a rank-length integer tuple, inside the window or not."""
        if not isinstance(x, (tuple, list)) or len(x) != self.rank:
            raise GroupValidationError(f"{x!r} is not a rank-{self.rank} integer tuple")
        for c in x:
            if isinstance(c, bool) or not isinstance(c, int):
                raise GroupValidationError(f"coordinate {c!r} is not an integer")
        return tuple(x)

    def canon(self, x: object) -> tuple[int, ...]:
        coords = self._coords(x)
        for c in coords:
            if abs(c) > self.window:
                raise GroupValidationError(f"coordinate {c} outside window +-{self.window}")
        return coords

    def op(self, x: Element, y: Element) -> tuple[int, ...]:
        a = self.canon(x)
        b = self.canon(y)
        result = tuple(u + v for u, v in zip(a, b))
        if any(abs(c) > self.window for c in result):
            raise WindowOverflowError(
                f"sum {result} leaves window +-{self.window}", result)
        return result

    def inv(self, x: Element) -> tuple[int, ...]:
        return tuple(-c for c in self.canon(x))

    def elements(self) -> Iterator[Element]:
        raise GroupTooLargeError(f"{self.name} is infinite; enumeration is not supported")

    # Products may leave the window (see WindowOverflowError), so output
    # accepts every integer tuple of the rank.
    def format_element(self, x: Element) -> str:
        return "(" + ",".join(str(c) for c in self._coords(x)) + ")"

    def element_to_json(self, x: Element) -> list[int]:
        return list(self._coords(x))

    def to_json(self) -> dict:
        return {"kind": "free_abelian", "rank": self.rank, "window": self.window}


def group_from_json(doc: dict) -> Group:
    """Build a group from its JSON description."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise GroupValidationError(f"group description must be an object with a 'kind': {doc!r}")
    kind = doc["kind"]
    if kind == "cyclic":
        return CyclicGroup(doc.get("n"))
    if kind == "product":
        return ProductGroup(doc.get("factors", ()))
    if kind == "table":
        return TableGroup(doc.get("elements", ()), doc.get("table", ()))
    if kind == "free_abelian":
        return FreeAbelianGroup(doc.get("rank"), doc.get("window"))
    raise GroupValidationError(f"unknown group kind {kind!r}")


class Subgroup:
    """A subgroup held as a sorted tuple of canonical members."""

    def __init__(self, group: Group, members: Sequence[Element], *, check: bool = True):
        self.group = group
        canon = sorted({group.canon(m) for m in members})
        self.members = tuple(canon)
        self._member_set = frozenset(canon)
        if check:
            self._validate()

    def _validate(self) -> None:
        g = self.group
        if g.identity not in self._member_set:
            raise GroupValidationError("subgroup must contain the identity")
        for x in self.members:
            if g.inv(x) not in self._member_set:
                raise GroupValidationError(f"subgroup is not closed under inverses at {g.format_element(x)}")
            for y in self.members:
                try:
                    closed = g.op(x, y) in self._member_set
                except WindowOverflowError:
                    closed = False
                if not closed:
                    raise GroupValidationError(
                        f"subgroup is not closed at {g.format_element(x)}*{g.format_element(y)}")

    @classmethod
    def trivial(cls, group: Group) -> "Subgroup":
        return cls(group, [group.identity], check=False)

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.group.is_finite and self.order == self.group.order

    def __contains__(self, x: object) -> bool:
        return self.group.canon(x) in self._member_set

    def is_normal(self) -> bool:
        g = self.group
        if g.is_abelian:
            return True
        for x in g.elements():
            xi = g.inv(x)
            for h in self.members:
                if g.op(g.op(x, h), xi) not in self._member_set:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subgroup) and self.group == other.group
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.group, self.members))

    def __repr__(self) -> str:
        inside = ",".join(self.group.format_element(m) for m in self.members)
        return f"Subgroup({{{inside}}})"


def generated_subgroup(group: Group, generators: Sequence[Element]) -> Subgroup:
    """Closure of the generators under the group operation."""
    gens = [group.canon(x) for x in generators]
    if isinstance(group, FreeAbelianGroup):
        if any(x != group.identity for x in gens):
            raise InfiniteClosureError(
                "free abelian generators of infinite order have no finite closure")
        return Subgroup.trivial(group)
    members = {group.identity}
    members.update(gens)
    frontier = sorted(members)
    while frontier:
        fresh = []
        for x in frontier:
            for y in list(members):
                for z in (group.op(x, y), group.op(y, x)):
                    if z not in members:
                        members.add(z)
                        fresh.append(z)
        frontier = fresh
    return Subgroup(group, sorted(members), check=False)


def enumerate_subgroups(group: Group) -> list[Subgroup]:
    """All subgroups, sorted by order then by member list.

    Finite groups only, capped at order 512.  The windowed free abelian
    kinds report just the trivial subgroup (every other subgroup is infinite).
    """
    if isinstance(group, FreeAbelianGroup):
        return [Subgroup.trivial(group)]
    if not group.is_finite:
        raise GroupTooLargeError(f"cannot enumerate subgroups of infinite {group.name}")
    if group.order > MAX_ENUMERATION_ORDER:
        raise GroupTooLargeError(
            f"subgroup enumeration capped at order {MAX_ENUMERATION_ORDER}, got {group.order}")
    atoms = {}
    for x in group.elements():
        sub = generated_subgroup(group, [x])
        atoms[sub.members] = sub
    known: dict[tuple, Subgroup] = {}
    trivial = Subgroup.trivial(group)
    known[trivial.members] = trivial
    frontier = [trivial]
    while frontier:
        fresh = []
        for sub in frontier:
            base = set(sub.members)
            for members, atom in atoms.items():
                if set(members) <= base:
                    continue
                joined = generated_subgroup(group, sorted(base | set(members)))
                if joined.members not in known:
                    known[joined.members] = joined
                    fresh.append(joined)
        frontier = fresh
    return sorted(known.values(), key=lambda s: (s.order, s.members))


def coset(group: Group, x: Element, subgroup: Subgroup, side: str = "left") -> tuple[Element, ...]:
    """Left coset x*H or right coset H*x as a sorted tuple."""
    if side not in ("left", "right"):
        raise GroupValidationError(f"side must be 'left' or 'right', got {side!r}")
    x = group.canon(x)
    if side == "left":
        return tuple(sorted(group.op(x, h) for h in subgroup.members))
    return tuple(sorted(group.op(h, x) for h in subgroup.members))


class Homomorphism:
    """Group homomorphism from a finite group, given per-element images."""

    def __init__(self, source: Group, target: Group, images: Sequence[Element],
                 *, name: str = "", check: bool = True):
        if not source.is_finite:
            raise GroupValidationError("homomorphisms are supported from finite sources only")
        self.source = source
        self.target = target
        self.images = tuple(target.canon(v) for v in images)
        if len(self.images) != source.order:
            raise GroupValidationError(
                f"expected {source.order} images, got {len(self.images)}")
        self.name = name or f"{source.name}->{target.name}"
        self._kernel: Optional[Subgroup] = None
        if check:
            self._validate()

    def _validate(self) -> None:
        src, tgt = self.source, self.target
        n = src.order
        if self.images[src.canon(src.identity)] != tgt.identity:
            raise GroupValidationError(f"{self.name} does not fix the identity")
        if n <= _HOM_CHECK_LIMIT:
            pairs = itertools.product(range(n), repeat=2)
        else:
            rng = random.Random(0)
            pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(_HOM_SAMPLE))
        for x, y in pairs:
            left = self.images[src.op(x, y)]
            right = tgt.op(self.images[x], self.images[y])
            if left != right:
                raise GroupValidationError(
                    f"{self.name} violates the homomorphism law at "
                    f"({src.format_element(x)},{src.format_element(y)})")

    def __call__(self, x: Element) -> Element:
        return self.images[self.source.canon(x)]

    def kernel(self) -> Subgroup:
        """Preimage of the target identity; verified to be normal."""
        if self._kernel is None:
            e = self.target.identity
            members = [x for x in self.source.elements() if self.images[x] == e]
            ker = Subgroup(self.source, members)
            if not ker.is_normal():
                raise GroupValidationError(f"kernel of {self.name} failed the normality check")
            self._kernel = ker
        return self._kernel

    @classmethod
    def mod_map(cls, n: int, k: int) -> "Homomorphism":
        """Reduction Z/n -> Z/k for k dividing n."""
        if n % k != 0:
            raise GroupValidationError(f"reduction mod {k} is not a homomorphism on Z/{n}")
        return cls(CyclicGroup(n), CyclicGroup(k), [x % k for x in range(n)],
                   name=f"mod_{k}")

    @classmethod
    def projection(cls, product: ProductGroup, axis: int) -> "Homomorphism":
        """Coordinate projection of a direct product onto one factor."""
        if not 0 <= axis < len(product.factors):
            raise GroupValidationError(f"axis {axis} out of range")
        target = CyclicGroup(product.factors[axis])
        images = [product.decode(i)[axis] for i in range(product.order)]
        return cls(product, target, images, name=f"proj_{axis}")

    @classmethod
    def identity_map(cls, group: Group) -> "Homomorphism":
        return cls(group, group, list(group.elements()), name="id", check=False)

    @classmethod
    def from_json(cls, doc: dict) -> "Homomorphism":
        source = group_from_json(doc.get("source", {}))
        target = group_from_json(doc.get("target", {}))
        spec = doc.get("map")
        if isinstance(spec, str) and spec.startswith("mod_"):
            if not (isinstance(source, CyclicGroup) and isinstance(target, CyclicGroup)):
                raise GroupValidationError("mod_k maps require cyclic source and target")
            k = int(spec[4:])
            if k != target.n:
                raise GroupValidationError(f"map {spec!r} does not match target {target.name}")
            return cls.mod_map(source.n, k)
        if isinstance(spec, str) and spec.startswith("proj_"):
            if not isinstance(source, ProductGroup):
                raise GroupValidationError("proj_i maps require a product source")
            return cls.projection(source, int(spec[5:]))
        if isinstance(spec, list):
            return cls(source, target, [target.canon(v) for v in spec])
        raise GroupValidationError(f"unsupported homomorphism map {spec!r}")

    def __repr__(self) -> str:
        return f"Homomorphism({self.name})"
