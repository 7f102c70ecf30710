"""group-sweep: thousands of small subset pairs (k <= 5) on 25 small groups
that repeat, so per-group work (subgroup lattices, compatibility graphs) is
redone on the same few groups over and over.

Each round visits every group once and runs, where the group allows it:
is_coset_free, find_matching, a coset counterexample with its Hall violator,
prop_1_4_condition, verify_hom_transfer and find_relative_matching.
"""

from __future__ import annotations

import functools
import itertools

from harness import Op, Pool, op_rng
import oracle as O
from oracle import require

NAME = "group-sweep"
MAX_K = 5


class GroupCase:
    """One group: the benchmark's own arithmetic plus matchkit's object."""

    def __init__(self, own: O.OwnGroup, mk_group, homs: list):
        self.own = own
        self.mk = mk_group
        self.homs = homs          # [(matchkit Homomorphism, own image list)]
        self.non_identity = [x for x in range(own.order) if x != own.identity]
        cyclic = {g: own.closure([g]) for g in self.non_identity}
        # Generators of nontrivial proper subgroups small enough for k <= 5.
        self.small_gens = [g for g, H in cyclic.items() if len(H) <= MAX_K and len(H) < own.order]
        self.small_subgroups = [H for H in own.subgroups()
                                if 1 < len(H) <= MAX_K and len(H) < own.order]


@functools.lru_cache(maxsize=None)
def own_groups() -> tuple[dict, dict, dict]:
    """The benchmark's own copies of the groups, with their subgroup lists
    precomputed; built once per process, outside the timed set-up."""
    cyclic = {n: O.cyclic_group(n) for n in range(4, 25)}
    products = {f: O.product_group(f) for f in ((2, 4), (3, 3))}
    symmetric = {n: O.symmetric_group(n) for n in (3, 4)}
    for g in [*products.values(), *(s[0] for s in symmetric.values())]:
        g.subgroups()
    return cyclic, products, symmetric


def make_cases(mk) -> list[GroupCase]:
    cyclic, products, symmetric = own_groups()
    cases = []
    for n, own in cyclic.items():
        divisors = [d for d in range(2, n) if n % d == 0] or [n]
        homs = [(mk.Homomorphism.mod_map(n, d), [x % d for x in range(n)]) for d in divisors[:2]]
        cases.append(GroupCase(own, mk.CyclicGroup(n), homs))
    for factors, own in products.items():
        group = mk.ProductGroup(list(factors))
        coords = list(itertools.product(*(range(f) for f in factors)))
        homs = [(mk.Homomorphism.projection(group, axis), [c[axis] for c in coords])
                for axis in range(len(factors))]
        cases.append(GroupCase(own, group, homs))
    for n, (own, labels, perms) in symmetric.items():
        group = mk.TableGroup(labels, own.table, name=f"S{n}")
        signs = [O.sign(p) for p in perms]
        hom = mk.Homomorphism(group, mk.CyclicGroup(2), signs, name="sign")
        cases.append(GroupCase(own, group, [(hom, signs)]))
    return cases


def _pair_sets(case: GroupCase, rng):
    k = rng.randint(1, min(MAX_K, len(case.non_identity)))
    A = rng.sample(range(case.own.order), k)
    B = rng.sample(case.non_identity, k)
    return A, B


def _coset_set(case: GroupCase, rng):
    """A random set, half the time built around a coset so both verdicts occur."""
    g = case.own
    if case.small_subgroups and rng.random() < 0.5:
        H = sorted(rng.choice(case.small_subgroups))
        x = rng.randrange(g.order)
        base = g.left_coset(x, H) if rng.random() < 0.5 else g.right_coset(x, H)
        extra = [y for y in range(g.order) if y not in base]
        k = rng.randint(len(base), MAX_K)
        return sorted(base) + rng.sample(extra, min(k - len(base), len(extra)))
    return rng.sample(range(g.order), rng.randint(1, min(MAX_K, g.order)))


def op_is_coset_free(mk, case, rng):
    A = _coset_set(case, rng)
    g = case.own

    def check(result, counters):
        free, witness = result
        contains = any(O.has_coset_of(g, A, H) for H in g.subgroups()
                       if 1 < len(H) < g.order)
        require(free == (not contains), f"{g.name} A={A}: coset_free={free}")
        if witness is not None:
            members = witness.subgroup.members
            require(1 < len(members) < g.order, "witness subgroup is trivial or full")
            require(frozenset(members) in set(g.subgroups()), "witness is not a subgroup")
            side = g.left_coset if witness.side == "left" else g.right_coset
            cs = side(witness.translate, members)
            require(cs == frozenset(witness.coset) and cs <= set(A), "witness coset")
        return f"{free}"

    return Op("is_coset_free",
              lambda t: t.call("criteria.is_coset_free", mk.is_coset_free, case.mk, A),
              check)


def op_find_matching(mk, case, rng):
    A, B = _pair_sets(case, rng)
    pair = mk.SubsetPair(case.mk, A, B)
    g = case.own

    def check(result, counters):
        if result is None:
            require(not O.brute_matchings(g, A, B), f"{g.name}: matchable pair reported unmatchable")
            return "none"
        O.check_matching(g, A, B, result.sigma)
        return str(result.sigma)

    return Op("find_matching",
              lambda t: t.call("matching.find_matching", mk.find_matching, pair), check)


def op_counterexample(mk, case, rng):
    g = case.own
    gen = rng.choice(case.small_gens)
    H = g.closure([gen])
    x = rng.randrange(g.order)
    outside = rng.choice([y for y in range(g.order) if y not in H])

    def run(t):
        sub = t.call("groups.generated_subgroup", mk.generated_subgroup, case.mk, [gen])
        pair = t.call("criteria.counterexample_pair", mk.counterexample_pair,
                      case.mk, sub, x, outside)
        return sub, pair, t.call("matching.hall_violator", mk.hall_violator, pair)

    def check(result, counters):
        sub, pair, violator = result
        require(frozenset(sub.members) == H, "generated subgroup differs")
        require(set(pair.A) == g.left_coset(x, H), "A is not the coset xH")
        require(set(pair.B) == (H - {g.identity}) | {outside}, "B is not H\\e plus one")
        O.check_hall_violator(g, list(pair.A), list(pair.B), violator)
        return str(violator)

    return Op("counterexample", run, check)


def op_prop_1_4(mk, case, rng):
    A, B = _pair_sets(case, rng)
    g = case.own

    def check(result, counters):
        holds, witness = result
        bad = [b for b in B if O.has_coset_of(g, A, g.closure([b]), ("left",))]
        require(holds == (not bad), f"{g.name}: prop14={holds}")
        if witness is not None:
            require(witness.b in B, "witness b not in B")
            cs = frozenset(witness.coset)
            require(cs <= set(A) and len(cs) == len(g.closure([witness.b])), "witness coset")
        return f"{holds}"

    return Op("prop_1_4_condition",
              lambda t: t.call("criteria.prop_1_4_condition", mk.prop_1_4_condition,
                               case.mk, A, B), check)


def _tuples(case, rng):
    k = rng.randint(2, MAX_K)
    a = [rng.randrange(case.own.order) for _ in range(k)]
    b = [rng.randrange(case.own.order) for _ in range(k)]
    return a, b


def op_hom_transfer(mk, case, rng):
    hom, images = rng.choice(case.homs)
    a, b = _tuples(case, rng)
    ta = mk.TupleOfElements(case.mk, a)
    tb = mk.TupleOfElements(case.mk, b)
    g = case.own
    kernel = [x for x in range(g.order) if images[x] == 0]
    target = O.cyclic_group(max(images) + 1)

    def check(result, counters):
        require(result is True, "transfer biconditional reported False")
        forbidden = {g.mul(x, h) for x in a for h in kernel}
        kernel_side = bool(O.brute_matchings(g, a, b, forbidden))
        ia = [images[x] for x in a]
        ib = [images[x] for x in b]
        image_side = bool(O.brute_matchings(target, ia, ib, set(ia)))
        require(kernel_side == image_side, "own transfer check disagrees")
        return f"{kernel_side}"

    return Op("verify_hom_transfer",
              lambda t: t.call("relative.verify_hom_transfer", mk.verify_hom_transfer,
                               hom, ta, tb), check)


def op_relative(mk, case, rng):
    hom, images = rng.choice(case.homs)
    a, b = _tuples(case, rng)
    ta = mk.TupleOfElements(case.mk, a)
    tb = mk.TupleOfElements(case.mk, b)
    g = case.own
    kernel = [x for x in range(g.order) if images[x] == 0]
    N = mk.Subgroup(case.mk, kernel)
    forbidden = {g.mul(x, h) for x in a for h in kernel}

    def run(t):
        found = t.call("relative.find_relative_matching", mk.find_relative_matching, ta, tb, N)
        if found is not None:
            return "match", found.sigma
        return "violator", t.call("relative.relative_hall_violator",
                                  mk.relative_hall_violator, ta, tb, N)

    def check(result, counters):
        kind, value = result
        if kind == "match":
            O.check_matching(g, a, b, value, forbidden)
        else:
            O.check_hall_violator(g, a, b, value, forbidden)
        return f"{kind}{value}"

    return Op("find_relative_matching", run, check)


def build(mk, seed: int, quick: bool, workdir: str) -> Pool:
    cases = make_cases(mk)
    if quick:
        cases = [c for c in cases if c.own.order <= 12]

    def rounds():
        index = 0
        while True:
            ops = []
            for case in cases:
                makers = [op_is_coset_free, op_find_matching,
                          op_counterexample if case.small_gens else op_find_matching,
                          op_prop_1_4 if case.own.abelian else op_find_matching,
                          op_hom_transfer, op_relative]
                for maker in makers:
                    ops.append(maker(mk, case, op_rng(NAME, seed, index)))
                    index += 1
            yield ops

    return Pool([], rounds())
