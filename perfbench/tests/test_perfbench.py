"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import group_sweep  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, *extra, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--quick", *extra], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


def quick_pool(seed):
    return group_sweep.build(run.import_matchkit(), seed, True, None)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(summary["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        value = summary["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), m["name"]


def test_planted_wrong_verdict_is_counted_as_failed():
    def flip(i, op, result):
        if op.kind == "is_coset_free":
            free, witness = result
            return (not free, witness)
        return result

    honest = harness.run_loop(quick_pool(5), harness.NullTracer(), None, max_ops=40)
    planted = harness.run_loop(quick_pool(5), harness.NullTracer(), None, max_ops=40,
                               tamper=flip)
    pool = quick_pool(5)
    flipped = sum(1 for _ in range(40) if pool.take().kind == "is_coset_free")
    assert honest.failed == 0 and not honest.problems
    assert flipped > 0 and planted.failed == flipped
    assert len(planted.problems) == flipped


def test_same_seed_gives_same_verdict_digest():
    first = harness.run_loop(quick_pool(11), harness.NullTracer(), None, max_ops=60)
    second = harness.run_loop(quick_pool(11), harness.NullTracer(), None, max_ops=60)
    other = harness.run_loop(quick_pool(12), harness.NullTracer(), None, max_ops=60)
    assert first.digest == second.digest
    assert first.digest != other.digest


def test_speed_scale_follows_the_kernel_around_each_instant():
    probe = harness.SpeedProbe()
    ref = harness.REFERENCE_KERNEL_S
    probe.times = [float(t) for t in range(40)]
    probe.kernel_s = [ref] * 20 + [2 * ref] * 20
    assert probe.scale(5.5) == 1.0
    assert probe.scale(30.5) == 0.5


def test_benchmark_json_lists_what_run_prints():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work"))
    proc = bench("group-sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
