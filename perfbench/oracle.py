"""Independent oracles: the benchmark's own group, set and linear arithmetic.

Nothing here imports matchkit.  Checks run outside the timed interval of each
op and raise Wrong when a returned verdict is rejected.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class Wrong(Exception):
    """An op returned a verdict the oracle rejects."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


# --- finite groups -----------------------------------------------------------


class OwnGroup:
    """A finite group as a full Cayley table over the indices 0..order-1.

    The indices follow matchkit's documented element encoding: residues for
    cyclic groups, mixed radix for products of cyclic groups, and the row
    order of the Cayley table for table groups.
    """

    def __init__(self, name: str, table: list[list[int]], identity: int = 0):
        self.name = name
        self.table = table
        self.order = len(table)
        self.identity = identity
        self.abelian = all(table[x][y] == table[y][x]
                           for x in range(self.order) for y in range(x))
        self._subgroups = None

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def closure(self, gens) -> frozenset:
        members = {self.identity, *gens}
        frontier = list(members)
        while frontier:
            fresh = []
            for x in frontier:
                for y in list(members):
                    for z in (self.table[x][y], self.table[y][x]):
                        if z not in members:
                            members.add(z)
                            fresh.append(z)
            frontier = fresh
        return frozenset(members)

    def subgroups(self) -> list[frozenset]:
        """Every subgroup generated by at most two elements.

        For the groups the benchmark uses (cyclic, Z2xZ4, Z3xZ3, S3, S4) that
        is every subgroup.
        """
        if self._subgroups is None:
            found = {self.closure([x, y])
                     for x in range(self.order) for y in range(x, self.order)}
            self._subgroups = sorted(found, key=lambda s: (len(s), sorted(s)))
        return self._subgroups

    def left_coset(self, x: int, members) -> frozenset:
        return frozenset(self.table[x][h] for h in members)

    def right_coset(self, x: int, members) -> frozenset:
        return frozenset(self.table[h][x] for h in members)


def cyclic_group(n: int) -> OwnGroup:
    g = OwnGroup(f"Z/{n}", [[(x + y) % n for y in range(n)] for x in range(n)])
    # The subgroups of Z/n are the multiples of each divisor of n.
    g._subgroups = [frozenset(range(0, n, n // d)) for d in range(1, n + 1) if n % d == 0]
    return g


def product_group(factors: tuple[int, ...]) -> OwnGroup:
    coords = list(itertools.product(*(range(f) for f in factors)))
    index = {c: i for i, c in enumerate(coords)}
    table = [[index[tuple((u + v) % f for u, v, f in zip(a, b, factors))]
              for b in coords] for a in coords]
    return OwnGroup("x".join(f"Z/{f}" for f in factors), table)


def symmetric_group(n: int) -> tuple[OwnGroup, list[str], list[tuple[int, ...]]]:
    """S_n with (p*q)(i) = p(q(i)); returns the group, labels and permutations."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    labels = ["".join(str(v) for v in p) for p in perms]
    return OwnGroup(f"S{n}", table), labels, perms


def sign(perm: tuple[int, ...]) -> int:
    """0 for even permutations, 1 for odd ones (the map onto Z/2)."""
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return inversions % 2


# --- matchings ---------------------------------------------------------------


def admissible(g: OwnGroup, A, B, forbidden=None) -> list[list[int]]:
    """adj[i] = indices j with A[i]*B[j] outside the forbidden set (default A)."""
    bad = set(A) if forbidden is None else forbidden
    return [[j for j, b in enumerate(B) if g.mul(a, b) not in bad] for a in A]


def brute_matchings(g: OwnGroup, A, B, forbidden=None) -> list[tuple[int, ...]]:
    """Every matching sigma, by filtering all permutations in lexicographic order."""
    ok = [[j in row for j in range(len(B))] for row in admissible(g, A, B, forbidden)]
    return [perm for perm in itertools.permutations(range(len(A)))
            if all(map(list.__getitem__, ok, perm))]


def all_matchings(g: OwnGroup, A, B, brute_force: bool) -> list[tuple[int, ...]]:
    """Every matching in lexicographic order: all permutations filtered when
    brute_force is set and k <= 7, else a depth-first search over the
    admissible pairs."""
    if brute_force and len(A) <= 7:
        return brute_matchings(g, A, B)
    adj = admissible(g, A, B)
    out: list[tuple[int, ...]] = []
    used = [False] * len(B)
    sigma: list[int] = []

    def extend() -> None:
        if len(sigma) == len(A):
            out.append(tuple(sigma))
            return
        for j in adj[len(sigma)]:
            if not used[j]:
                used[j] = True
                sigma.append(j)
                extend()
                sigma.pop()
                used[j] = False

    extend()
    return out


def count_matchings(adj: list[list[int]]) -> int:
    """Number of perfect matchings (the permanent), by a bitmask recursion."""
    n = len(adj)
    ways = {0: 1}
    for i in range(n):
        nxt: dict[int, int] = {}
        for used, count in ways.items():
            for j in adj[i]:
                bit = 1 << j
                if not used & bit:
                    nxt[used | bit] = nxt.get(used | bit, 0) + count
        ways = nxt
    return sum(ways.values())


def acyclic_summary(g: OwnGroup, A, B, sigmas) -> tuple[int, list[tuple[int, ...]]]:
    """(number of acyclic matchings, acyclic sigmas in input order).

    A matching is acyclic when no other matching has the same multiset of
    products a*f(a).
    """
    keys = [tuple(sorted(g.mul(A[i], B[s[i]]) for i in range(len(A)))) for s in sigmas]
    classes: dict[tuple, int] = {}
    for key in keys:
        classes[key] = classes.get(key, 0) + 1
    acyclic = [s for s, key in zip(sigmas, keys) if classes[key] == 1]
    return len(acyclic), acyclic


def check_matching(g: OwnGroup, A, B, sigma, forbidden=None) -> None:
    n = len(A)
    require(sorted(sigma) == list(range(n)), f"sigma {sigma} is not a permutation")
    bad = set(A) if forbidden is None else forbidden
    for i in range(n):
        require(g.mul(A[i], B[sigma[i]]) not in bad,
                f"product at position {i} lands in the forbidden set")


def check_hall_violator(g: OwnGroup, A, B, violator, forbidden=None) -> None:
    """The reported index set S of A must have fewer than |S| neighbours."""
    require(len(violator) > 0, "empty Hall violator")
    adj = admissible(g, A, B, forbidden)
    neighbourhood = {j for i in violator for j in adj[i]}
    require(len(neighbourhood) < len(set(violator)),
            f"violator {violator} has {len(neighbourhood)} neighbours")


def has_coset_of(g: OwnGroup, A, members, sides=("left", "right")) -> bool:
    a_set = set(A)
    for x in a_set:
        if "left" in sides and g.left_coset(x, members) <= a_set:
            return True
        if "right" in sides and g.right_coset(x, members) <= a_set:
            return True
    return False


# --- primes ------------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def order_of_two(p: int) -> int:
    x, m = 2 % p, 1
    while x != 1:
        x, m = x * 2 % p, m + 1
    return m


def family_members(family: str, upto: int) -> list[int]:
    out = []
    for p in range(3, upto + 1, 2):
        if not is_prime(p):
            continue
        if family == "22" and p % 8 == 7:
            out.append(p)
        elif family == "23" and order_of_two(p) % 2 == 1:
            out.append(p)
    return out


def certificate_facts(family: str, p: int) -> tuple[tuple[int, ...], dict]:
    """The subset and certificate dictionary recomputed with sets."""
    if family == "22":
        subset = sorted({n * n % p for n in range(1, p)})
        roots = [n for n in range(1, p) if n * n % p == 2]
        facts = {"subset_size": len(subset), "size_odd": len(subset) % 2 == 1,
                 "two_in_subset": 2 in set(subset),
                 "square_root_of_two": roots[0] if roots else None}
    else:
        m = order_of_two(p)
        subset = sorted({pow(2, i, p) for i in range(m)})
        facts = {"order_of_two": m, "subset_size": len(subset),
                 "size_odd": len(subset) % 2 == 1}
    members = set(subset)
    facts["doubling_closed"] = all(2 * a % p in members for a in subset)
    return tuple(subset), facts


def check_prime_verdict(verdict, family: str) -> None:
    subset, facts = certificate_facts(family, verdict.p)
    require(tuple(verdict.subset) == subset, f"p={verdict.p}: wrong subset")
    require(verdict.certificate == facts, f"p={verdict.p}: certificate {verdict.certificate} != {facts}")
    require(facts["size_odd"], f"p={verdict.p}: the family needs an odd subset")


# --- linear algebra over Q -----------------------------------------------------


Vec = dict  # basis key -> Fraction, zero entries omitted


def vec_of(element) -> Vec:
    return dict(element.items)


def laurent_mul(x: Vec, y: Vec) -> Vec:
    out: dict[int, Fraction] = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def quartic_mul(x: Vec, y: Vec) -> Vec:
    """Product in Q[x]/(x^4 - 2) on the power basis 1, x, x^2, x^3."""
    out = [Fraction(0)] * 7
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            out[k1 + k2] += c1 * c2
    for k in (6, 5, 4):
        out[k - 4] += 2 * out[k]
    return {k: out[k] for k in range(4) if out[k] != 0}


def combine(coeffs, vectors) -> Vec:
    out: dict[int, Fraction] = {}
    for c, v in zip(coeffs, vectors):
        if c:
            for k, x in v.items():
                out[k] = out.get(k, Fraction(0)) + c * x
    return {k: v for k, v in out.items() if v != 0}


def _echelon(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    rows = [list(r) for r in rows]
    out = []
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows.remove(pivot)
        pivot = [v / pivot[col] for v in pivot]
        rows = [[a - r[col] * b for a, b in zip(r, pivot)] if r[col] else r for r in rows]
        out = [[a - r[col] * b for a, b in zip(r, pivot)] if r[col] else r for r in out]
        out.append(pivot)
        col += 1
    return out


def rank(vectors: list[Vec]) -> int:
    """Exact rank over Q: rows scaled to integers, then fraction-free
    (Bareiss) elimination, where every division is exact."""
    keys = sorted({k for v in vectors for k in v})
    rows = []
    for v in vectors:
        scale = math.lcm(*(v[k].denominator for k in v)) if v else 1
        row = [int(v.get(k, 0) * scale) for k in keys]
        if any(row):
            rows.append(row)
    r, prev = 0, 1
    for col in range(len(keys)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], rows[r])]
        prev, r = p, r + 1
    return r


def in_span(x: Vec, basis: list[Vec]) -> bool:
    return rank(basis + [x]) == rank(basis)


def nullspace(columns: list[Vec]) -> list[list[Fraction]]:
    """Basis of {c : sum_j c_j columns[j] = 0}."""
    n = len(columns)
    keys = sorted({k for v in columns for k in v})
    rows = [[columns[j].get(k, Fraction(0)) for j in range(n)] for k in keys]
    reduced = _echelon(rows) if rows else []
    pivots = [next(i for i, v in enumerate(r) if v != 0) for r in reduced]
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        c = [Fraction(0)] * n
        c[free] = Fraction(1)
        for r, p in zip(reduced, pivots):
            c[p] = -r[free]
        basis.append(c)
    return basis


def residual_columns(mul, a: Vec, b_vectors: list[Vec], a_basis: list[Vec]) -> list[Vec]:
    """Columns of c -> a*(sum c_j b_j) modulo span(A), with A's coordinates
    appended as extra unknowns: a*b_j - sum d_k A_k."""
    return [mul(a, b) for b in b_vectors] + [{k: -v for k, v in x.items()} for x in a_basis]


def membership_space(mul, a: Vec, b_vectors: list[Vec], a_basis: list[Vec]) -> list[list[Fraction]]:
    """Coordinates c over b_vectors of U = {x in span(b) : a*x in span(A)}."""
    n = len(b_vectors)
    kernel = nullspace(residual_columns(mul, a, b_vectors, a_basis))
    return [row[:n] for row in kernel if any(row[:n])]


def is_matched(mul, a_elems: list[Vec], b_elems: list[Vec], a_basis: list[Vec]) -> bool:
    """Matched-basis condition by coordinates: U_i lies in span{b_j : j != i}
    exactly when every vector of U_i has i-th coordinate 0 over (b_1..b_n)."""
    for i, a in enumerate(a_elems):
        for c in membership_space(mul, a, b_elems, a_basis):
            if c[i] != 0:
                return False
    return True


def violator_dimension(mul, a_elems: list[Vec], b_basis: list[Vec], a_basis: list[Vec],
                       subset) -> int:
    """dim of {x in B : a_i*x in A for all i in subset} (subset is 1-based).

    The unknowns are the coordinates of x over b_basis, shared by every
    condition, and one block of A-coordinates per condition."""
    n = len(b_basis)
    blocks = [residual_columns(mul, a_elems[i - 1], b_basis, a_basis) for i in subset]
    cols = [{(bi, k): v for bi, block in enumerate(blocks) for k, v in block[j].items()}
            for j in range(n)]
    for bi, block in enumerate(blocks):
        cols += [{(bi, k): v for k, v in col.items()} for col in block[n:]]
    kernel = nullspace(cols)
    return rank([{j: c[j] for j in range(n) if c[j]} for c in kernel])
