"""Families of primes whose residue groups lack the acyclic matching property.

Two families are verified: primes p = 7 (mod 8), where the nonzero quadratic
residues form an odd-size doubling-closed set containing 2's square class,
and primes where 2 has odd multiplicative order, where the powers of 2 form
such a set directly.  Both certificates rest on one audit fact: in an
abelian group, an odd-size set avoiding 0 admits no fixed-point-free acyclic
matching to itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import random

from .groups import CyclicGroup, Element, Group
from .matching import (ENUMERATION_SIZE_CAP, SubsetPair, _singleton_classes,
                       enumerate_matchings, find_acyclic_matching)

DEFAULT_ENUMERATION_BUDGET = 200_000
EXHAUSTIVE_SIZE_CAP = 12


class PrimePreconditionError(ValueError):
    """The prime fails the hypothesis of the requested family."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def quadratic_residues(p: int) -> tuple[int, ...]:
    """Nonzero quadratic residues modulo a prime p, sorted."""
    if not is_prime(p):
        raise PrimePreconditionError(f"{p} is not prime")
    return tuple(sorted({n * n % p for n in range(1, p)}))


def multiplicative_order(a: int, p: int) -> int:
    """Least m with a^m = 1 (mod p)."""
    if not is_prime(p):
        raise PrimePreconditionError(f"{p} is not prime")
    if a % p == 0:
        raise PrimePreconditionError(f"{a} is not invertible mod {p}")
    # The order divides p-1; test its divisors in increasing order.
    n = p - 1
    divisors = sorted(d for k in range(1, int(n ** 0.5) + 1) if n % k == 0
                      for d in {k, n // k})
    for d in divisors:
        if pow(a, d, p) == 1:
            return d
    raise AssertionError("order must divide p-1")


def two_power_subset(p: int) -> tuple[int, ...]:
    """The set {2^i mod p : 0 <= i < ord_p(2)}, sorted."""
    m = multiplicative_order(2, p)
    return tuple(sorted(pow(2, i, p) for i in range(m)))


@dataclass
class PrimeVerdict:
    """Certificate facts plus optional exhaustive-search results."""
    p: int
    family: str
    subset: tuple[int, ...]
    certificate: dict
    exhaustive: bool
    total_matchings: Optional[int] = None
    acyclic_count: Optional[int] = None

    def to_json(self) -> dict:
        return {"p": self.p, "family": self.family, "subset": list(self.subset),
                "certificate": self.certificate, "exhaustive": self.exhaustive,
                "total_matchings": self.total_matchings,
                "acyclic_count": self.acyclic_count}


def _with_exhaustive_fields(verdict: PrimeVerdict, cap: int) -> PrimeVerdict:
    """Add the exhaustive search's counts; sets beyond the enumeration size
    cap keep the certificate alone, with exhaustive false."""
    if len(verdict.subset) > ENUMERATION_SIZE_CAP:
        return verdict
    pair = SubsetPair(CyclicGroup(verdict.p), verdict.subset, verdict.subset)
    search = find_acyclic_matching(pair, cap)
    if search.status != "inconclusive":
        verdict.exhaustive = True
        verdict.total_matchings = search.total_matchings
        verdict.acyclic_count = search.acyclic_count
    return verdict


def check_prop_2_2(p: int, *, enumeration_cap: int = DEFAULT_ENUMERATION_BUDGET) -> PrimeVerdict:
    """Certificate for p = 7 (mod 8): the quadratic residues form an odd-size
    set containing 2, so no acyclic matching of QR(p) to itself exists."""
    if not is_prime(p):
        raise PrimePreconditionError(f"{p} is not prime")
    if p % 8 != 7:
        raise PrimePreconditionError(f"p = {p} is not congruent to 7 mod 8")
    return _with_exhaustive_fields(_certificate_2_2(p), enumeration_cap)


def check_prop_2_3(p: int, *, enumeration_cap: int = DEFAULT_ENUMERATION_BUDGET) -> PrimeVerdict:
    """Certificate for odd ord_p(2): the powers of 2 form an odd-size
    doubling-closed set, so no acyclic matching of the set to itself exists."""
    if not is_prime(p) or p == 2:
        raise PrimePreconditionError(f"{p} is not an odd prime")
    order = multiplicative_order(2, p)
    if order % 2 == 0:
        raise PrimePreconditionError(f"2 has even order {order} mod {p}")
    verdict = _certificate_2_3(p, order)
    if len(verdict.subset) > EXHAUSTIVE_SIZE_CAP:
        return verdict
    return _with_exhaustive_fields(verdict, enumeration_cap)


def family_table(family: str, upto: int, *,
                 enumeration_cap: int = 0) -> list[PrimeVerdict]:
    """Certificate rows for every qualifying prime up to the bound.

    With enumeration_cap = 0 the exhaustive search is skipped entirely and
    only certificate facts are reported.
    """
    rows = []
    for p in range(3, upto + 1, 2):
        if not is_prime(p):
            continue
        if family in ("22", "prop22", "quadratic_residues"):
            if p % 8 != 7:
                continue
            rows.append(check_prop_2_2(p, enumeration_cap=max(enumeration_cap, 1))
                        if enumeration_cap else _certificate_2_2(p))
        elif family in ("23", "prop23", "two_powers"):
            order = multiplicative_order(2, p)
            if order % 2 == 0:
                continue
            rows.append(check_prop_2_3(p, enumeration_cap=max(enumeration_cap, 1))
                        if enumeration_cap else _certificate_2_3(p, order))
        else:
            raise ValueError(f"unknown family {family!r}")
    return rows


def _certificate_2_2(p: int) -> PrimeVerdict:
    """Certificate facts for p = 7 (mod 8), without the exhaustive search."""
    subset = quadratic_residues(p)
    members = set(subset)
    sqrt_two = next((n for n in range(1, p) if n * n % p == 2), None)
    certificate = {"subset_size": len(subset), "size_odd": len(subset) % 2 == 1,
                   "two_in_subset": 2 in members, "square_root_of_two": sqrt_two,
                   "doubling_closed": all((2 * a) % p in members for a in subset)}
    if not (certificate["size_odd"] and certificate["two_in_subset"]):
        raise AssertionError(f"certificate computation contradicts theory at p={p}")
    return PrimeVerdict(p, "quadratic_residues", subset, certificate, False)


def _certificate_2_3(p: int, order: int) -> PrimeVerdict:
    """Certificate facts for odd ord_p(2) = order, without the exhaustive search."""
    subset = two_power_subset(p)
    members = set(subset)
    certificate = {"order_of_two": order, "subset_size": len(subset),
                   "size_odd": len(subset) % 2 == 1,
                   "doubling_closed": all((2 * a) % p in members for a in subset)}
    if not (certificate["size_odd"] and certificate["doubling_closed"]):
        raise AssertionError(f"certificate computation contradicts theory at p={p}")
    return PrimeVerdict(p, "two_powers", subset, certificate, False)


def lemma_2_1_audit(group: Group, A: Sequence[Element], *,
                    enumeration_cap: int = 1_000_000) -> bool:
    """Verify on one instance that every acyclic matching of A to itself has
    a fixed point (abelian group, |A| odd, identity not in A)."""
    if not group.is_abelian:
        raise ValueError("the audit applies to abelian groups only")
    members = sorted({group.canon(a) for a in A})
    if len(members) % 2 == 0:
        raise ValueError("|A| must be odd")
    if group.identity in members:
        raise ValueError("A must not contain the identity")
    if len(members) > EXHAUSTIVE_SIZE_CAP:
        raise ValueError(f"audit supports |A| <= {EXHAUSTIVE_SIZE_CAP}")
    pair = SubsetPair(group, members, members)
    enum = enumerate_matchings(pair, enumeration_cap)
    if enum.truncated:
        raise ValueError("enumeration budget exhausted; audit inconclusive")
    return all(any(m.sigma[i] == i for i in range(pair.size))
               for m in _singleton_classes(enum.matchings))


@dataclass
class ScanRecord:
    """One pair probed by the acyclic-property scan."""
    A: tuple[int, ...]
    B: tuple[int, ...]
    status: str
    sigma: Optional[tuple[int, ...]]
    matchings_examined: int

    def to_json(self) -> dict:
        return {"A": list(self.A), "B": list(self.B), "status": self.status,
                "sigma": list(self.sigma) if self.sigma is not None else None,
                "matchings_examined": self.matchings_examined}


@dataclass
class ScanReport:
    """Aggregate outcome of an acyclic-property scan over subset pairs."""
    p: int
    size_cap: int
    budget: int
    seed: int
    mode: str
    pairs_examined: int
    work_used: int
    failure: Optional[ScanRecord]
    inconclusive_pairs: int
    budget_exhausted: bool

    def to_json(self) -> dict:
        return {"p": self.p, "size_cap": self.size_cap, "budget": self.budget,
                "seed": self.seed, "mode": self.mode,
                "pairs_examined": self.pairs_examined, "work_used": self.work_used,
                "failure": self.failure.to_json() if self.failure else None,
                "inconclusive_pairs": self.inconclusive_pairs,
                "budget_exhausted": self.budget_exhausted}


def _exhaustive_pairs(p: int, size_cap: int):
    universe = list(range(p))
    nonzero = list(range(1, p))
    for k in range(1, size_cap + 1):
        for A in combinations(universe, k):
            for B in combinations(nonzero, k):
                yield A, B


def _sampled_pairs(p: int, size_cap: int, rng: random.Random):
    universe = list(range(p))
    nonzero = list(range(1, p))
    while True:
        k = rng.randint(1, size_cap)
        A = tuple(sorted(rng.sample(universe, k)))
        B = tuple(sorted(rng.sample(nonzero, k)))
        yield A, B


def acyclic_property_scan(p: int, size_cap: int, budget: int, *, seed: int = 0,
                          log_path: Optional[str] = None) -> ScanReport:
    """Search subset pairs of Z/p for one with no acyclic matching.

    Pairs are enumerated exhaustively for p <= 7 and sampled uniformly with
    the given seed otherwise.  The budget counts matchings examined across
    the scan (at least one unit per pair); a pair cut short mid-enumeration
    is recorded as inconclusive, never dropped.  Returns after the first
    verified-absent pair, when the pair stream ends, or when the budget is
    exhausted.
    """
    if not is_prime(p):
        raise PrimePreconditionError(f"{p} is not prime")
    if size_cap < 1 or size_cap >= p:
        raise ValueError(f"size cap must be in 1..{p - 1}")
    group = CyclicGroup(p)
    rng = random.Random(seed)
    mode = "exhaustive" if p <= 7 else "sampled"
    stream = _exhaustive_pairs(p, size_cap) if mode == "exhaustive" \
        else _sampled_pairs(p, size_cap, rng)
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    pairs = 0
    work = 0
    inconclusive = 0
    failure = None
    exhausted = False
    try:
        for A, B in stream:
            if work >= budget:
                exhausted = True
                break
            pair = SubsetPair(group, A, B)
            started = time.perf_counter()
            search = find_acyclic_matching(pair, cap=budget - work)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            pairs += 1
            work += max(1, search.matchings_examined)
            sigma = search.matching.sigma if search.matching else None
            record = ScanRecord(tuple(A), tuple(B), search.status, sigma,
                                search.matchings_examined)
            if log_file:
                line = {"seed": seed, "p": p, **record.to_json(),
                        "elapsed_ms": round(elapsed_ms, 3)}
                log_file.write(json.dumps(line, sort_keys=True) + "\n")
            if search.status == "inconclusive":
                inconclusive += 1
                exhausted = True
                break
            if search.status == "absent":
                failure = record
                break
    finally:
        if log_file:
            log_file.close()
    return ScanReport(p, size_cap, budget, seed, mode, pairs, work,
                      failure, inconclusive, exhausted)
