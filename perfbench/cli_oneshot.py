"""cli-oneshot: matchkit.cli.main(argv) called in-process on fixture files
written at set-up, one distinct instance per call, as a user who runs one
command per process would.  This is the only workload that measures argparse,
JSON reading and encoding, exit-code handling and large inputs.

In-process calls keep interpreter start-up (about 220 ms, and noisy) out of
the per-op time; import cost shows in setup_s instead.  A 2 x 7 linear strong
report runs once at the start.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from harness import Op, Pool, count, op_rng
import oracle as O
from oracle import Wrong, require

NAME = "cli-oneshot"
ENVELOPE = {"tool", "version", "command", "seed", "config", "result"}
RESULT_KEYS = {
    "match find": {"matching", "hall_violator"},
    "match enumerate": {"count", "truncated", "matchings"},
    "match acyclic": {"status", "matching", "matchings_examined", "total_matchings",
                      "acyclic_count"},
    "criteria check": {"coset_free", "witness", "prop14", "prop14_witness"},
    "relative find": {"matching", "hall_violator"},
    "relative transfer": {"transfer_verified", "kernel", "image_a"},
    "primes family": {"family", "upto", "primes", "verdicts"},
    "primes scan": {"p", "size_cap", "budget", "seed", "mode", "pairs_examined", "work_used",
                    "failure", "inconclusive_pairs", "budget_exhausted"},
    "primes audit": {"group", "set", "fixed_point_property"},
    "linear match": {"matched_basis", "violator", "attempts"},
    "linear strong": {"exists", "certificate", "decisive", "witness"},
    "linear scaling": {"alpha"},
    "linear acyclic": {"certificate", "alpha", "iso", "domain_basis", "codomain_basis",
                       "acyclicity_claimed"},
}
# Groups for `criteria check`, in a fixed order: each fixture gets a group no
# other fixture uses, so a per-group cache fills but never hits, and every
# run sees the same groups whatever the seed.
CRITERIA_GROUPS = ([("cyclic", (n,)) for n in range(8, 41)]
                   + [("product", (a, b)) for a in range(2, 7) for b in range(a, 7) if a * b >= 8])
random.Random(0).shuffle(CRITERIA_GROUPS)  # mix cheap and costly groups along the run


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Fixtures:
    def __init__(self, workdir: str):
        self.dir = workdir
        self.n = 0

    def write(self, doc: dict) -> str:
        path = os.path.join(self.dir, f"fixture-{self.n}.json")
        self.n += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def cli_op(mk, argv, check, expected_code=lambda result: 0, known_failure=""):
    """An op running one CLI command; the check sees the parsed result object."""
    command = f"{argv[0]} {argv[1]}"
    span = f"cli.{argv[0]}-{argv[1]}"

    def run(t):
        return t.call(span, call_cli, mk.cli, argv)

    def verify(result, counters):
        code, out, err = result
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            raise Wrong(f"{command}: exit {code} without a report, stderr {err.strip()!r}")
        require(set(doc) == ENVELOPE and doc["command"] == command, "envelope keys")
        require(set(doc["result"]) == RESULT_KEYS[command], f"{command}: result keys")
        require(code == expected_code(doc["result"]), f"{command}: exit {code}")
        return f"{code}:{check(doc['result'], counters)}"

    return Op(command.replace(" ", "-"), run, verify, known_failure)


# --- group fixtures ------------------------------------------------------------


def cyclic_pair(rng, n, k):
    return rng.sample(range(n), k), rng.sample(range(1, n), k)


class _CyclicArith:
    """Z/n arithmetic without a Cayley table, for the large pairs."""

    def __init__(self, n):
        self.n = n

    def mul(self, x, y):
        return (x + y) % self.n


def op_match_find(mk, fx, n, A, B, known_failure=""):
    path = fx.write({"group": {"kind": "cyclic", "n": n}, "A": A, "B": B})
    g = _CyclicArith(n)

    def check(result, counters):
        if result["matching"] is not None:
            O.check_matching(g, A, B, result["matching"]["sigma"])
            return "matched"
        index = {a: i for i, a in enumerate(A)}
        O.check_hall_violator(g, A, B, [index[a] for a in result["hall_violator"]])
        return "violator"

    return cli_op(mk, ["match", "find", "--pair", path], check, known_failure=known_failure)


def op_match_enumerate(mk, fx, rng, acyclic: bool):
    p = rng.choice((11, 13, 17, 19, 23))
    A, B = cyclic_pair(rng, p, rng.randint(5, 7))
    path = fx.write({"group": {"kind": "cyclic", "n": p}, "A": A, "B": B})
    g = _CyclicArith(p)

    def check(result, counters):
        sigmas = O.brute_matchings(g, A, B)
        if not acyclic:
            require([m["sigma"] for m in result["matchings"]] == [list(s) for s in sigmas],
                    "matchings differ from brute force")
            return f"{result['count']}"
        n_acyclic, first = O.acyclic_summary(g, A, B, sigmas)
        require(result["total_matchings"] == len(sigmas), "total_matchings differs")
        require(result["acyclic_count"] == n_acyclic, "acyclic_count differs")
        if n_acyclic:
            require(result["matching"]["sigma"] == list(first[0]), "first acyclic differs")
        return f"{result['status']}"

    action = "acyclic" if acyclic else "enumerate"
    return cli_op(mk, ["match", action, "--pair", path], check)


def _fixture_group(kind, params) -> O.OwnGroup:
    return O.cyclic_group(params[0]) if kind == "cyclic" else O.product_group(params)


def op_criteria(mk, fx, rng, spec):
    kind, params = spec
    g = _fixture_group(kind, params)
    A = sorted(rng.sample(range(g.order), rng.randint(2, 5)))
    if rng.random() < 0.5:
        H = g.closure([rng.randrange(1, g.order)])
        if len(H) <= 4 and len(H) < g.order:
            A = sorted(g.left_coset(rng.randrange(g.order), H) | set(A[:5 - len(H)]))
    B = rng.sample(range(1, g.order), len(A))
    group = ({"kind": kind, "n": params[0]} if kind == "cyclic"
             else {"kind": kind, "factors": list(params)})
    path = fx.write({"group": group, "A": A, "B": B})

    def check(result, counters):
        # Abelian groups: left and right cosets coincide.
        contains = any(O.has_coset_of(g, A, H, ("left",)) for H in g.subgroups()
                       if 1 < len(H) < g.order)
        require(result["coset_free"] == (not contains), "coset_free differs")
        bad = [b for b in B if O.has_coset_of(g, A, g.closure([b]), ("left",))]
        require(result["prop14"] == (not bad), "prop14 differs")
        return f"{result['coset_free']}:{result['prop14']}"

    return cli_op(mk, ["criteria", "check", "--pair", path], check)


def _divided_group(rng):
    n = rng.choice((12, 18, 20, 24, 30, 36, 40, 42, 48, 60))
    d = rng.choice([d for d in range(2, n) if n % d == 0])
    return n, d


def op_relative_find(mk, fx, rng):
    n, d = _divided_group(rng)
    k = rng.randint(4, 8)
    a = [rng.randrange(n) for _ in range(k)]
    b = [rng.randrange(n) for _ in range(k)]
    sub = list(range(0, n, d))
    path = fx.write({"group": {"kind": "cyclic", "n": n}, "a": a, "b": b, "subgroup": sub})
    g = _CyclicArith(n)
    forbidden = {(x + h) % n for x in a for h in sub}

    def check(result, counters):
        if result["matching"] is not None:
            O.check_matching(g, a, b, result["matching"]["sigma"], forbidden)
            return "matched"
        O.check_hall_violator(g, a, b, result["hall_violator"], forbidden)
        return "violator"

    return cli_op(mk, ["relative", "find", "--input", path], check)


def op_relative_transfer(mk, fx, rng):
    n, d = _divided_group(rng)
    k = rng.randint(4, 8)
    a = [rng.randrange(n) for _ in range(k)]
    b = [rng.randrange(n) for _ in range(k)]
    path = fx.write({"hom": {"source": {"kind": "cyclic", "n": n},
                             "target": {"kind": "cyclic", "n": d}, "map": f"mod_{d}"},
                     "a": a, "b": b})

    def check(result, counters):
        require(result["transfer_verified"] is True, "transfer not verified")
        require(result["kernel"] == list(range(0, n, d)), "kernel")
        require(result["image_a"] == [x % d for x in a], "image of a")
        return "verified"

    return cli_op(mk, ["relative", "transfer", "--input", path], check)


# --- primes ----------------------------------------------------------------------


def op_primes_family(mk, rng, index):
    family = rng.choice(("22", "23"))
    upto = 300 + 7 * index + rng.randrange(7)

    def check(result, counters):
        require(result["primes"] == O.family_members(family, upto), "prime list differs")
        for row in result["verdicts"]:
            subset, facts = O.certificate_facts(family, row["p"])
            require(row["subset"] == list(subset) and row["certificate"] == facts,
                    f"p={row['p']}: certificate differs")
        return f"{len(result['primes'])}"

    return cli_op(mk, ["primes", "family", "--prop", family, "--upto", str(upto)], check)


def op_primes_scan(mk, rng):
    p = rng.choice((11, 13))
    seed = rng.randrange(10 ** 6)
    argv = ["primes", "scan", "--p", str(p), "--size-cap", "4", "--budget", "2000",
            "--seed", str(seed)]

    def check(result, counters):
        count(counters, "primes.scan_work_used", result["work_used"])
        if result["failure"] is not None:
            f = result["failure"]
            g = _CyclicArith(p)
            acyclic, _ = O.acyclic_summary(g, f["A"], f["B"], O.brute_matchings(g, f["A"], f["B"]))
            require(acyclic == 0, "reported failure has an acyclic matching")
        else:
            require(result["budget_exhausted"], "scan stopped early")
        return f"{result['pairs_examined']}"

    # Exit 3 reports a budget that ran out before any failure was found.
    return cli_op(mk, argv, check, lambda r: 3 if r["failure"] is None else 0)


def op_primes_audit(mk, rng):
    p = rng.choice((11, 13, 17, 19))
    members = sorted(rng.sample(range(1, p), rng.choice((3, 5))))
    argv = ["primes", "audit", "--n", str(p), "--set", ",".join(map(str, members))]

    def check(result, counters):
        require(result["fixed_point_property"] is True and result["set"] == members, "audit")
        return "holds"

    return cli_op(mk, argv, check)


# --- linear -----------------------------------------------------------------------


def laurent_doc(vecs):
    keys = sorted({k for v in vecs for k in v})
    lo, hi = min(keys), max(keys)
    return {"ambient": {"kind": "laurent", "dmin": lo, "dmax": hi},
            "basis": [[str(v.get(k, 0)) for k in range(lo, hi + 1)] for v in vecs]}


def parse_element(doc) -> dict:
    lo = doc["ambient"]["dmin"]
    return {lo + i: Fraction(c) for i, c in enumerate(doc["coeffs"]) if Fraction(c) != 0}


def rand_space(rng, dim, keys, exclude_unity=False):
    while True:
        vecs = [{k: Fraction(c) for k in keys if (c := rng.randint(-9, 9))} for _ in range(dim)]
        if O.rank(vecs) == dim and not (exclude_unity and O.in_span({0: Fraction(1)}, vecs)):
            return vecs


def op_linear_strong(mk, fx, A, B):
    path = fx.write({"A": laurent_doc(A), "B": laurent_doc(B)})

    def check(result, counters):
        count(counters, f"linear.strong.{result['certificate']}")
        if not result["exists"]:
            w = {k: parse_element(result["witness"][k]) for k in ("a", "b", "product")}
            require(O.in_span(w["a"], A) and O.in_span(w["b"], B), "witness factors")
            require(w["product"] and O.laurent_mul(w["a"], w["b"]) == w["product"],
                    "witness product")
            require(O.in_span(w["product"], A), "witness product outside A")
        return f"{result['exists']}:{result['certificate']}"

    return cli_op(mk, ["linear", "strong", "--pair", path], check)


def strong_pair(rng, m=None):
    if m is not None:
        return rand_space(rng, 2, [0, 1, 2]), rand_space(rng, m, list(range(9)))
    d = rng.randint(1, 3)
    if rng.random() < 0.5:
        return rand_space(rng, d, [0, 1, 2, 3]), rand_space(rng, d, [5, 6, 7, 8])
    return rand_space(rng, d, [0, 1, 2, 3]), rand_space(rng, d, [0, 1, 2, 3])


def op_linear_match(mk, fx, rng):
    n = rng.randint(1, 4)
    A = rand_space(rng, n, list(range(9)))
    B = rand_space(rng, n, list(range(9)), exclude_unity=True)
    path = fx.write({"A": laurent_doc(A), "B": laurent_doc(B)})

    def check(result, counters):
        if result["matched_basis"] is None:
            return f"violator{result['violator']}"
        mb = result["matched_basis"]
        lo = mb["ambient"]["dmin"]
        bvecs = [{lo + i: Fraction(c) for i, c in enumerate(row) if Fraction(c) != 0}
                 for row in mb["vectors"]]
        require(O.rank(bvecs) == n and all(O.in_span(x, B) for x in bvecs), "not a basis of B")
        return "found"

    return cli_op(mk, ["linear", "match", "--pair", path], check)


def scaled_pair(rng):
    d = rng.randint(1, 2)
    A = rand_space(rng, d, [0, 1, 2])
    alpha = {rng.randint(3, 4): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))}
    return A, [O.laurent_mul(alpha, a) for a in A]


def op_linear_scaling(mk, fx, rng, action: str):
    A, B = scaled_pair(rng)
    path = fx.write({"A": laurent_doc(A), "B": laurent_doc(B)})

    def check(result, counters):
        require(result["alpha"] is not None, "scaling not found")
        alpha = parse_element(result["alpha"])
        image = [O.laurent_mul(alpha, a) for a in A]
        require(O.rank(image) == len(A) and all(O.in_span(x, B) for x in image), "alpha*A != B")
        if action == "acyclic":
            require(result["certificate"] == "scaling", "certificate")
        return "scaling"

    return cli_op(mk, ["linear", action, "--pair", path], check)


# A matchable pair on which `match find` hits RecursionError (recursive
# augmenting paths 1500 deep).  It runs as a probe after the timed loop of a
# traced run: it fails, and its several seconds would swamp the loop's timing.
REPRODUCER = {"group": {"kind": "cyclic", "n": 4000},
              "A": list(range(1499, -1, -1)), "B": list(range(1500, 0, -1))}


def build(mk, seed: int, quick: bool, workdir: str) -> Pool:
    fx = Fixtures(workdir)
    prefix = [] if quick else [op_linear_strong(mk, fx, *strong_pair(op_rng(NAME, seed, 0), 7))]
    probes = [op_match_find(mk, fx, 4000, REPRODUCER["A"], REPRODUCER["B"],
                            known_failure="RecursionError")]
    index = len(prefix)

    def rng():
        nonlocal index
        index += 1
        return op_rng(NAME, seed, index - 1)

    def rounds():
        # Light commands (a few ms, mostly argparse and JSON) are two thirds
        # of a round, so the median op lies well inside them rather than at
        # the edge between light and heavy commands.
        for i in itertools.count():
            ops = []
            for _ in range(3):
                r = rng()
                n = r.randint(30, 200)
                ops.append(op_match_find(mk, fx, n, *cyclic_pair(r, n, r.randint(8, min(20, n // 2)))))
            if not quick:
                r = rng()
                ops.append(op_match_find(mk, fx, 1000, *cyclic_pair(r, 1000, 375)))
            ops.append(op_match_enumerate(mk, fx, rng(), acyclic=False))
            ops.append(op_match_enumerate(mk, fx, rng(), acyclic=True))
            ops.append(op_match_enumerate(mk, fx, rng(), acyclic=True))
            ops.append(op_criteria(mk, fx, rng(), CRITERIA_GROUPS[i % len(CRITERIA_GROUPS)]))
            ops.append(op_relative_find(mk, fx, rng()))
            ops.append(op_relative_find(mk, fx, rng()))
            ops.append(op_relative_transfer(mk, fx, rng()))
            ops.append(op_primes_family(mk, rng(), i))
            ops.append(op_primes_scan(mk, rng()))
            ops.append(op_primes_audit(mk, rng()))
            ops.append(op_primes_audit(mk, rng()))
            ops.append(op_linear_match(mk, fx, rng()))
            ops.append(op_linear_strong(mk, fx, *strong_pair(rng())))
            if not quick:
                ops.append(op_linear_strong(mk, fx, *strong_pair(rng(), 6)))
            ops.append(op_linear_scaling(mk, fx, rng(), "scaling"))
            ops.append(op_linear_scaling(mk, fx, rng(), "scaling"))
            ops.append(op_linear_scaling(mk, fx, rng(), "acyclic"))
            yield ops

    return Pool(prefix, rounds(), probes)
