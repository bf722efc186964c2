"""Tests of the benchmark itself: its wrappers, gates, failure isolation
and result format.  They run the tiny task list, never a full workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Task, Workload  # noqa: E402

COUNT_METRICS = (
    "hunter.verify_certificate.calls",
    "arith.find_prime_cluster.calls",
    "arith.factor.calls",
    "arith.is_prime.calls",
    "cyclo.c_table.calls",
    "cyclo.phi_poly.calls",
    "series.apply.calls",
    "series.updates",
    "series.high_share",
    "arith.cluster_n_scanned",
    "cli.document_bytes",
)


def traced_tiny_pass() -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "tiny", "--seed", "7",
         "--pass-index", "0", "--deadline", repr(time.monotonic() + 120), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def two_traced_passes() -> tuple[dict, dict]:
    return traced_tiny_pass(), traced_tiny_pass()


def test_every_wrapper_records_a_call(two_traced_passes):
    result = two_traced_passes[0]
    assert result["missing_sites"] == []
    labels = [layers.site_label(owner, attribute) for owner, attribute, _, _ in layers.SITES]
    silent = [label for label in labels if result["site_calls"].get(label, 0) < 1]
    assert silent == []
    assert all(op[3] is None for op in result["ops"]), result["ops"]


def test_traced_counts_repeat_exactly(two_traced_passes):
    first, second = (result["layers"] for result in two_traced_passes)
    assert {name: first[name] for name in COUNT_METRICS} == {
        name: second[name] for name in COUNT_METRICS
    }


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCHMARKED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert set(run.BENCHMARKED) <= set(WORKLOADS)


class FakeCli:
    def __init__(self, main) -> None:
        self.main = main


def test_failures_are_isolated_and_charged_the_limit():
    def main(argv):
        if argv[0] == "recurse":
            raise RecursionError("deep")
        if argv[0] == "hang":
            while True:
                pass
        if argv[0] == "exit":
            return 2
        print("42")
        return 0

    limit = 0.2
    workload = Workload("fake", limit, ())
    run_pass = worker.Pass(FakeCli(main), workload, time.monotonic() + 60)
    previous = worker.signal.signal(worker.signal.SIGALRM, worker._on_alarm)
    try:
        names = ("recurse", "hang", "exit", "ok")
        outputs = [run_pass.run_op("query", name, [name]) for name in names]
    finally:
        worker.signal.signal(worker.signal.SIGALRM, previous)
    assert outputs == [None, None, None, "42\n"]
    assert [op[3] for op in run_pass.ops] == ["RecursionError", "Timeout", "Exit2", None]
    assert [op[2] for op in run_pass.ops[:3]] == [limit] * 3
    assert run_pass.ops[3][2] < limit


def test_gates_reject_wrong_answers():
    coeff = Task(("coeff", "a", "105", "7"))
    assert worker.query_ok(coeff, "-2\n", -2)
    assert not worker.query_ok(coeff, "2\n", -2)
    scan = Task(("scan", "--m", "1", "--nmax", "10"))
    table = "   value           n         k\n      -1           1         0\n"
    assert worker.query_ok(scan, table, [[-1, 1, 0]])
    assert not worker.query_ok(scan, table, [[-1, 1, 1]])
    hunt = Task(("hunt", "--m", "3", "--value", "2", "--mode", "a"), 3, 2, "a")
    report = {"pass": True, "computed_value": 2, "window_checked": True, "reasons": []}
    assert worker.verify_ok(hunt, json.dumps(report))
    assert not worker.verify_ok(hunt, json.dumps({**report, "computed_value": 3}))
    assert not worker.verify_ok(hunt, "Traceback (most recent call last):")
    assert not worker.query_ok(scan, "value n k\nnot a row\n", [[-1, 1, 0]])


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    assert run.tail(samples) == (89.0, 90.0, 100)
    assert run.tail(samples[:12]) == (5.0, 50.0, 12)


def test_odd_passes_replay_the_order_reversed():
    grid = WORKLOADS["grid"]
    first, second, third = (workloads.pass_order(grid, 3, i) for i in range(3))
    assert second == first[::-1]
    assert sorted(third, key=str) == sorted(first, key=str) and third != first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
