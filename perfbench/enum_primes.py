"""enum-primes: the matching layer enumerates every perfect matching instead
of finding one, and the primes layer builds family certificates.

The exhaustive Prop 2.2 and 2.3 checks at p = 23 (about two seconds each) and
p = 31 run once at the start.  Prop 2.2 at p = 31 has a 15-element subset, so
its enumeration is capped rather than exhaustive.  Each round then runs
find_acyclic_matching and enumerate_matchings on pairs in Z/p (p = 11, 13, 17,
k = 5..8), Lemma 2.1 audits of odd subsets, the p = 7 checks, one budgeted
acyclic_property_scan and both family tables.

The shapes are stratified, not drawn: every round has one pair of each
(p, k) per function, and the audits walk through every (p, size) in turn.
Only the subsets come from the seed.  Enumeration cost grows factorially in
k, so a drawn k would move the median latency with the seed.
"""

from __future__ import annotations

from harness import Op, Pool, count, op_rng
import oracle as O
from oracle import require

NAME = "enum-primes"
PRIMES = (11, 13, 17)
PAIR_SHAPES = [(p, k) for p in PRIMES for k in range(5, 9)]
AUDIT_SHAPES = [(p, size) for p in PRIMES for size in (3, 5, 7)]
SCAN_BUDGET = 2_000
FAMILY_UPTO = (1300, 1320)
PROP_22_31_CAP = 20_000
BRUTE_FORCE_SHARE = 0.25


def op_pair(mk, rng, p: int, k: int, enumerate_all: bool):
    A = rng.sample(range(p), k)
    B = rng.sample(range(1, p), k)
    g = O.cyclic_group(p)
    pair = mk.SubsetPair(mk.CyclicGroup(p), A, B)
    adj = O.admissible(g, A, B)
    # Filtering all k! permutations costs more than the op; do it on a share.
    brute = rng.random() < BRUTE_FORCE_SHARE

    def check_enumeration(result, counters):
        sigmas = [m.sigma for m in result.matchings]
        require(not result.truncated, "enumeration truncated below the default cap")
        require(len(sigmas) == O.count_matchings(adj), "matching count differs")
        require(sigmas == O.all_matchings(g, A, B, brute), "matchings differ from the own enumeration")
        return f"{len(sigmas)}"

    def check_acyclic(result, counters):
        count(counters, "matching.matchings_examined", result.matchings_examined)
        total = O.count_matchings(adj)
        require(result.total_matchings == total, "total_matchings differs")
        acyclic, first = O.acyclic_summary(g, A, B, O.all_matchings(g, A, B, brute))
        require(result.acyclic_count == acyclic, "acyclic_count differs")
        if acyclic:
            require(result.status == "found" and result.matching.sigma == first[0],
                    "first acyclic matching differs")
        else:
            require(result.status == "absent", f"status {result.status}")
        return f"{result.status}:{acyclic}"

    if enumerate_all:
        return Op("enumerate_matchings",
                  lambda t: t.call("matching.enumerate_matchings", mk.enumerate_matchings, pair),
                  check_enumeration)
    return Op("find_acyclic_matching",
              lambda t: t.call("matching.find_acyclic_matching", mk.find_acyclic_matching, pair),
              check_acyclic)


def op_audit(mk, rng, p: int, size: int):
    A = sorted(rng.sample(range(1, p), size))
    g = O.cyclic_group(p)
    group = mk.CyclicGroup(p)
    brute = rng.random() < BRUTE_FORCE_SHARE

    def check(result, counters):
        _, acyclic = O.acyclic_summary(g, A, A, O.all_matchings(g, A, A, brute))
        holds = all(any(s[i] == i for i in range(len(A))) for s in acyclic)
        require(result == holds and holds, f"audit={result}, own {holds}")
        return f"{result}"

    return Op("lemma_2_1_audit",
              lambda t: t.call("primes.lemma_2_1_audit", mk.lemma_2_1_audit, group, A), check)


def op_prop(mk, family: str, p: int, cap=None):
    fn = mk.check_prop_2_2 if family == "22" else mk.check_prop_2_3
    kwargs = {} if cap is None else {"enumeration_cap": cap}

    def check(result, counters):
        O.check_prime_verdict(result, family)
        g = O.cyclic_group(p)
        subset = list(result.subset)
        if result.exhaustive:
            total = O.count_matchings(O.admissible(g, subset, subset))
            require(result.total_matchings == total, "total_matchings differs")
            require(result.acyclic_count == 0, "the family has no acyclic matching")
        else:
            require(cap is not None, "an uncapped small check must be exhaustive")
        return f"{result.exhaustive}:{result.total_matchings}"

    return Op(f"check_prop_{family}",
              lambda t: t.call(f"primes.check_prop_2_{family[1]}", fn, p, **kwargs), check)


def op_scan(mk, rng):
    p = rng.choice(PRIMES)
    size_cap = rng.randint(4, 6)
    seed = rng.randrange(10 ** 6)

    def check(result, counters):
        count(counters, "primes.scan_work_used", result.work_used)
        require(result.pairs_examined >= 1, "no pair examined")
        if result.failure is None:
            require(result.budget_exhausted and result.work_used >= SCAN_BUDGET,
                    "scan stopped early without a failure")
        else:
            A, B = list(result.failure.A), list(result.failure.B)
            g = O.cyclic_group(p)
            acyclic, _ = O.acyclic_summary(g, A, B, O.brute_matchings(g, A, B))
            require(acyclic == 0, "reported failure has an acyclic matching")
        return f"{result.pairs_examined}:{result.failure is not None}"

    return Op("acyclic_property_scan",
              lambda t: t.call("primes.acyclic_property_scan", mk.acyclic_property_scan,
                               p, size_cap, SCAN_BUDGET, seed=seed), check)


def op_family(mk, rng, family: str):
    upto = rng.randint(*FAMILY_UPTO)

    def check(result, counters):
        require([row.p for row in result] == O.family_members(family, upto), "prime list differs")
        for row in result:
            O.check_prime_verdict(row, family)
        return f"{len(result)}"

    return Op(f"family_table_{family}",
              lambda t: t.call("primes.family_table", mk.family_table, family, upto), check)


def build(mk, seed: int, quick: bool, workdir: str) -> Pool:
    prefix = [] if quick else [op_prop(mk, "22", 23), op_prop(mk, "23", 23),
                               op_prop(mk, "23", 31), op_prop(mk, "22", 31, PROP_22_31_CAP)]
    index = len(prefix)

    def rng():
        nonlocal index
        index += 1
        return op_rng(NAME, seed, index - 1)

    def rounds():
        audits = 0
        while True:
            ops = [op_pair(mk, rng(), p, k, enumerate_all)
                   for p, k in PAIR_SHAPES for enumerate_all in (False, True)]
            for _ in range(2):
                ops.append(op_audit(mk, rng(), *AUDIT_SHAPES[audits % len(AUDIT_SHAPES)]))
                audits += 1
            ops.append(op_prop(mk, "22", 7))
            ops.append(op_prop(mk, "23", 7))
            if not quick:
                ops.append(op_scan(mk, rng()))
                ops.append(op_family(mk, rng(), "22"))
                ops.append(op_family(mk, rng(), "23"))
            yield ops

    return Pool(prefix, rounds())
