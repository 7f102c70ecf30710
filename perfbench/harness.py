"""Closed-loop runner, span tracer and metric computation.

One process runs one op at a time.  An op makes one to three calls into
matchkit's public API, each through ``tracer.call`` so that a traced run can
record a span per call; the untraced run uses a tracer that only forwards.
The oracle check of each op runs right after it, outside the timed interval.

Timings are scaled to a reference speed.  On a shared virtual machine, such
as the 2-vCPU one described in meta.json, CPU speed can jump between two
states about 1.5x apart for seconds to minutes at a time, so raw op times of
one run move with the share of time it happened to spend in the fast state.
The loop therefore times a fixed pure-Python kernel (no matchkit code) every
PROBE_EVERY_S of op time, and each op's latency is multiplied by
REFERENCE_KERNEL_S over the median kernel time of the probes around it.
A change to matchkit moves op times but not kernel times, so it shows in full;
a change of machine speed moves both and cancels.  Raw wall-clock figures are
printed too.
"""

from __future__ import annotations

import bisect
import collections
import gc
import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from oracle import Wrong

# Number of samples that must lie above the reported tail latency.
TAIL_SAMPLES_ABOVE = 10
# Seconds of op time between two runs of the reference kernel.
PROBE_EVERY_S = 0.05
# Kernel runs on each side of an instant whose speed is estimated.
PROBE_WINDOW = 5
# The kernel's usual time on the machine described in meta.json, so scaled
# figures read as that machine's seconds.
REFERENCE_KERNEL_S = 2.7e-3


def reference_kernel() -> int:
    """Fixed interpreter-bound work in the style of matchkit's inner loops:
    calls, small-int arithmetic, tuples, sets, dicts and a sort."""
    acc = 0
    table = {}
    for i in range(1500):
        t = (i, i * 7 % 13, i ^ 5)
        s = {t[0] % 17, t[1], t[2] % 11}
        table[t] = len(s)
        acc += sum(s) + max(t)
    return acc + len(sorted(table, key=lambda k: k[1]))


class SpeedProbe:
    """Times of the reference kernel, by when they were taken."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        # With the collector off, garbage the program left behind cannot
        # slow the kernel and so hide a slower program.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(t0)
        self.kernel_s.append(t1 - t0)

    def scale(self, at: float) -> float:
        """REFERENCE_KERNEL_S over the median kernel time around ``at``."""
        i = bisect.bisect(self.times, at)
        near = self.kernel_s[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW]
        return REFERENCE_KERNEL_S / statistics.median(near)


def timed_at_reference_speed(fn, probes: int = 3) -> tuple[object, float, float]:
    """Run ``fn`` once between two sets of kernel runs; returns its result,
    its wall seconds and those seconds scaled to the reference speed."""
    probe = SpeedProbe()
    for _ in range(probes):
        probe.sample()
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    for _ in range(probes):
        probe.sample()
    return result, wall, wall * REFERENCE_KERNEL_S / statistics.median(probe.kernel_s)


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    """The RNG of one op, derived only from (workload, seed, op index)."""
    return random.Random(f"{workload}:{seed}:{index}")


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]        # run(tracer) -> result
    check: Callable[[Any, dict], str]  # check(result, counters) -> verdict; raises Wrong
    known_failure: str = ""          # exception type name of a documented defect


class Pool:
    """Ops in run order: a prefix that runs once, then rounds drawn from an
    endless generator, so no input repeats however fast the program gets.
    Each op is handed out once and then dropped, so memory does not grow
    with the number of ops a run completes.

    Probes reproduce documented defects; they run outside the timed loop."""

    def __init__(self, prefix: list[Op], rounds: Iterator[list[Op]], probes: list[Op] = ()):
        self.pending = collections.deque(prefix)
        self.rounds = rounds
        self.probes = list(probes)
        self.grown = 0

    def grow(self, n_rounds: int) -> None:
        for _ in range(n_rounds):
            self.pending.extend(next(self.rounds))
            self.grown += 1

    def take(self) -> Op:
        if not self.pending:
            self.grow(1)
        return self.pending.popleft()


class NullTracer:
    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, index: int, op: Op):
        return op.run(self)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def op(self, index: int, op: Op):
        self._op = index
        return self.call(f"op.{op.kind}", op.run, self)

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, op), own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "op": op, "self": own}) + "\n")


@dataclass
class LoopResult:
    latencies: list[float]           # wall seconds per op
    scaled: list[float]              # the same, at the reference speed
    attempted: int
    failed: int
    problems: list[str]
    counters: dict
    digest: str
    origin: float
    untimed_s: float


def run_loop(pool: Pool, tracer, seconds: Optional[float], max_ops: Optional[int] = None,
             tamper: Optional[Callable[[int, Op, Any], Any]] = None) -> LoopResult:
    """Run ops back to back until ``seconds`` of loop time have passed, or
    until ``max_ops`` ops have run.  Loop time leaves out the oracle checks,
    the kernel runs of the speed probe and the generation of inputs for
    rounds beyond those built at set-up."""
    latencies: list[float] = []
    starts: list[float] = []
    probe = SpeedProbe()
    since_probe = PROBE_EVERY_S
    problems: list[str] = []
    counters: dict = {}
    digest = hashlib.sha256()
    failed = 0
    untimed_s = 0.0
    origin = perf_counter()
    i = 0
    while True:
        if max_ops is not None and i >= max_ops:
            break
        if seconds is not None and i > 0 and perf_counter() - origin - untimed_s >= seconds:
            break
        g0 = perf_counter()
        if since_probe >= PROBE_EVERY_S:
            probe.sample()
            since_probe = 0.0
        op = pool.take()
        error = None
        t0 = perf_counter()
        untimed_s += t0 - g0
        try:
            result = tracer.op(i, op)
        except Exception as exc:  # a failed op is counted, never fatal
            result, error = None, exc
        t1 = perf_counter()
        latencies.append(t1 - t0)
        starts.append(t0)
        since_probe += t1 - t0
        if tamper is not None:
            result = tamper(i, op, result)
        if error is not None:
            failed += 1
            verdict = f"raised {type(error).__name__}"
            problems.append(f"op {i} ({op.kind}) raised {error!r}")
        else:
            try:
                verdict = op.check(result, counters)
            except Wrong as exc:
                failed += 1
                verdict = "rejected"
                problems.append(f"op {i} ({op.kind}): {exc}")
        digest.update(f"{i}:{op.kind}:{verdict}\n".encode())
        untimed_s += perf_counter() - t1
        i += 1
    probe.sample()
    scaled = [lat * probe.scale(t) for lat, t in zip(latencies, starts)]
    return LoopResult(latencies, scaled, i, failed, problems, counters,
                      digest.hexdigest(), origin, untimed_s)


def run_probes(pool: Pool, loop: LoopResult) -> list[str]:
    """Run each defect probe once, untraced.  A probe that still raises its
    documented exception counts in ``cli.known_defects``; one that returns
    is checked like any op, so a fix shows as a passing check."""
    lines = []
    for op in pool.probes:
        t0 = perf_counter()
        try:
            result = op.run(NullTracer())
        except Exception as exc:
            if type(exc).__name__ == op.known_failure:
                count(loop.counters, "cli.known_defects")
            else:
                loop.problems.append(f"probe {op.kind} raised {exc!r}")
            lines.append(f"known defect {op.kind}: {type(exc).__name__} after "
                         f"{perf_counter() - t0:.2f} s")
            continue
        try:
            verdict = op.check(result, loop.counters)
        except Wrong as exc:
            loop.problems.append(f"probe {op.kind}: {exc}")
            verdict = "rejected"
        lines.append(f"known defect {op.kind} no longer raises: {verdict}, "
                     f"{perf_counter() - t0:.2f} s")
    return lines


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency with TAIL_SAMPLES_ABOVE samples above it, its percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    pos = max(0, n - 1 - TAIL_SAMPLES_ABOVE)
    return ordered[pos], 100.0 * (pos + 1) / n


def timings(latencies: list[float], setup_times: list[float]) -> dict:
    tail_s, _ = tail(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (1000.0 * statistics.median(latencies), "ms"),
        "op_ms_tail": (1000.0 * tail_s, "ms"),
    }


def end_to_end(loop: LoopResult, setup_scaled: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics, every timing at the reference speed."""
    return {**timings(loop.scaled, setup_scaled), "peak_rss_mb": (peak_rss_mb, "MB")}


def per_layer(tracer: Tracer, loop: LoopResult, layers: dict[str, list[str]],
              counter_units: dict[str, str]) -> dict:
    """Calls and self seconds per public function, module shares of op time,
    and the exact counts the checks read from returned objects."""
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    op_time = 0.0
    for span, t in zip(tracer.spans, tracer.self_times()):
        name = span[0]
        if span[3] < 0:
            op_time += span[2] - span[1]
            continue
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + t
    metrics: dict = {}
    for module, functions in layers.items():
        module_s = sum(v for k, v in own.items() if k.startswith(module + "."))
        for fn in functions:
            name = f"{module}.{fn}"
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            metrics[f"{name}.s"] = (own.get(name, 0.0), "s")
        metrics[f"{module}.share"] = (module_s / op_time if op_time else 0.0, "fraction")
    for name, unit in counter_units.items():
        metrics[name] = (loop.counters.get(name, 0), unit)
    attempts = loop.counters.get("linear.match_basis.attempts", 0)
    found = loop.counters.get("linear.match_basis.found", 0)
    metrics["linear.match_basis.found_per_attempt"] = (found / attempts if attempts else 0.0,
                                                       "ratio")
    metrics["trace.ops_per_s"] = (loop.attempted / sum(loop.scaled), "1/s")
    return metrics


def count(counters: dict, name: str, amount: int = 1) -> None:
    counters[name] = counters.get(name, 0) + amount
