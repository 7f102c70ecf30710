"""matchkit benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 perfbench/run.py --workload group-sweep --seed 1 --seconds 25 --trace 0

Builds nothing: matchkit is pure Python and is imported from ``src/`` of the
checkout this file sits in.  Set-up (import plus input generation) runs
twice before the loop and three times after it; setup_s is the median.
The loop then runs one op at a time in this single process until --seconds
of op time have passed, checks every result against an independent oracle
outside the timed interval, and prints one line per metric followed by a
JSON summary as the last line.  Timings are scaled to a reference speed
measured by a fixed kernel run alongside (see harness.py); the raw
wall-clock figures are printed too.  With --trace 1 it records a span
around every public call, writes the spans to perfbench/out/ and reports
per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up runs this many times before the loop and again after it, so that
# the median set-up time does not hang on one phase of a noisy machine.
SETUP_BEFORE, SETUP_AFTER = 2, 3

import cli_oneshot  # noqa: E402
import enum_primes  # noqa: E402
import group_sweep  # noqa: E402
import harness  # noqa: E402
import linear_sweep  # noqa: E402

WORKLOADS = {m.NAME: m for m in (group_sweep, linear_sweep, enum_primes, cli_oneshot)}

# Rounds of inputs built during set-up, per second of loop time: about what
# the baseline consumes.  Rounds past these are built when the loop needs
# them, outside the timed interval.  cli-oneshot builds few: each of its ops
# writes a fixture file, and file creation here is slow and noisy enough to
# drown the import and generation time that setup_s is meant to show.
ROUNDS_PER_SECOND = {"group-sweep": 3.0, "linear-sweep": 1.5,
                     "enum-primes": 4.0, "cli-oneshot": 0.2}

# Public functions the benchmark calls, by module: the per-layer metrics.
LAYERS = {
    "groups": ["generated_subgroup"],
    "criteria": ["is_coset_free", "counterexample_pair", "prop_1_4_condition"],
    "matching": ["find_matching", "hall_violator", "enumerate_matchings",
                 "find_acyclic_matching"],
    "relative": ["find_relative_matching", "relative_hall_violator", "verify_hom_transfer"],
    "primes": ["family_table", "check_prop_2_2", "check_prop_2_3", "lemma_2_1_audit",
               "acyclic_property_scan"],
    "algebra": ["echelonize"],
    "linear": ["OrderedBasis", "random_ordered_basis", "is_matched_basis", "match_basis",
               "strong_matching_report", "violating_basis_pair", "find_scaling",
               "lemma_4_3_check"],
    "cli": [f"{a}-{b}" for a, b in (c.split() for c in cli_oneshot.RESULT_KEYS)],
}
STRONG_CERTIFICATES = ["disjoint-product-span", "basis-witness", "probe-witness",
                       "single-direction", "pencil-witness", "no-rational-witness",
                       "grid-witness", "no-witness-found"]
COUNTERS = {"matching.matchings_examined": "count", "primes.scan_work_used": "count",
            "linear.match_basis.attempts": "count", "cli.known_defects": "count",
            **{f"linear.strong.{c}": "count" for c in STRONG_CERTIFICATES}}


def import_matchkit():
    """Import matchkit afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "matchkit" or m.startswith("matchkit.")]:
        del sys.modules[name]
    mk = importlib.import_module("matchkit")
    importlib.import_module("matchkit.cli")
    if not os.path.abspath(mk.__file__).startswith(SRC + os.sep):
        raise ImportError(f"matchkit was imported from {mk.__file__}, not from {SRC}")
    return mk


def set_up(workload, seed: int, rounds: int, quick: bool, workdir: str):
    """One set-up: a fresh import of matchkit, then the first rounds of inputs
    (and their fixture files).  Returns the pool, the wall seconds it took
    and those seconds at the reference speed."""
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)

    def build():
        pool = workload.build(import_matchkit(), seed, quick, workdir)
        pool.grow(rounds)
        return pool

    return harness.timed_at_reference_speed(build)


def report(metrics: dict, loop: harness.LoopResult, pool: harness.Pool,
           setup_wall: list[float]) -> None:
    tail_s, pct = harness.tail(loop.latencies)
    print(f"ops {loop.attempted}, failed {loop.failed}, rounds {pool.grown}, "
          f"untimed checks and input generation {loop.untimed_s:.2f} s")
    print(f"op_ms_tail is p{pct:.2f}: {min(harness.TAIL_SAMPLES_ABOVE, loop.attempted - 1)} "
          f"of {loop.attempted} samples above it")
    print(f"ops_failed_frac {loop.failed / loop.attempted:.6f} fraction")
    print(f"verdict_digest {loop.digest}")
    for problem in loop.problems[:20]:
        print(f"problem: {problem}")
    speed = statistics.median(s / w for s, w in zip(loop.scaled, loop.latencies) if w > 0)
    print(f"median speed scale {speed:.4f} (reference kernel time / measured kernel time)")
    for name, (value, unit) in harness.timings(loop.latencies, setup_wall).items():
        print(f"wall-clock {name} {value} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and no once-per-run heavy ops (self-tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "matchkit", "__init__.py")):
        print(f"run.py: no matchkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    rounds = math.ceil(args.seconds * ROUNDS_PER_SECOND[args.workload])
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    setup_wall, setup_scaled = [], []
    try:
        for _ in range(SETUP_BEFORE):
            pool = None
            pool, wall, scaled = set_up(workload, args.seed, rounds, args.quick, workdir)
            setup_wall.append(wall)
            setup_scaled.append(scaled)
        gc.collect()
        tracer = harness.Tracer() if args.trace else harness.NullTracer()
        loop = harness.run_loop(pool, tracer, args.seconds)
        probe_lines = harness.run_probes(pool, loop) if args.trace else []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(SETUP_AFTER):
            pool = None
            pool, wall, scaled = set_up(workload, args.seed, rounds, args.quick, workdir)
            setup_wall.append(wall)
            setup_scaled.append(scaled)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in probe_lines:
        print(line)
    if args.trace:
        metrics = harness.per_layer(tracer, loop, LAYERS, COUNTERS)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path, loop.origin)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = harness.end_to_end(loop, setup_scaled, peak_rss_mb)
    report(metrics, loop, pool, setup_wall)
    summary = {"correct": not loop.problems, "attempted": loop.attempted,
               "failed": loop.failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
