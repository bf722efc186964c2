"""The cyclocert benchmark.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``, so
nothing needs installing.  Each pass of the workload runs in a fresh
interpreter (perfbench/worker.py) so the package's caches start cold, as for
a CLI call.  Passes repeat while the next one is expected to end within
``--seconds``, so a run measures at most that long (and at least one pass).

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* setup_s: interpreter start until ``cyclocert.cli`` is imported and the
  inputs are generated; the median of at least 11 set-ups.
* run_s: program time of one pass, the sum of its op latencies with each
  failed op charged the workload's per-op limit; the median over passes.
* pass_ratio: ops that passed their output check over ops attempted.
* peak_rss_mb: the largest peak RSS of a pass's interpreter.

Per op kind, the median latency and the highest percentile with at least 10
ops beyond it are printed with their sample counts, each op's latency being
its median over the passes.  They are not gated: measured on a shared
2-vCPU virtual machine, single ops swung by 20% from run to run while
run_s, their sum, stayed within 10%.

``--trace 1`` runs one untraced pass, then one traced pass in the same
order, and reports the per-layer metrics (see layers.py) plus the tracing
overhead.  The layer counts repeat exactly from pass to pass, so one traced
pass is enough and the traced run stays short.
Human-readable lines come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import WRONG_OUTPUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARKED = ("grid", "deep", "tables")
RUN_BUDGET_S = 165.0  # every run ends well inside its 180 s allowance
SETUP_SAMPLES = 11
TAIL_BEYOND = 10  # samples beyond the tail percentile
MIN_SAMPLES = 2 * TAIL_BEYOND + 1  # so that the tail percentile lies above the median

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.parse_document_s": "s",
    "cli.serialize_document_s": "s",
    "cli.document_bytes": "B",
    "hunter.plan_target_s": "s",
    "hunter.build_certificate.self_s": "s",
    "hunter.verify_certificate.self_s": "s",
    "hunter.verify_certificate.calls": "count",
    "hunter.cluster_attempts": "count",
    "hunter.cluster_useful_ratio": "ratio",
    "arith.find_prime_cluster_s": "s",
    "arith.find_prime_cluster.calls": "count",
    "arith.cluster_n_scanned": "count",
    "arith.factor_s": "s",
    "arith.factor.calls": "count",
    "arith.is_prime_s": "s",
    "arith.is_prime.calls": "count",
    "cyclo.c_table_s": "s",
    "cyclo.c_table.calls": "count",
    "cyclo.c_table.distinct_n": "count",
    "cyclo.expand_s": "s",
    "cyclo.expand_T": "count",
    "cyclo.phi_poly_s": "s",
    "cyclo.phi_poly.calls": "count",
    "series.apply_s": "s",
    "series.apply.calls": "count",
    "series.updates": "count",
    "series.high_share": "ratio",
    "series.updates_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, index: int, deadline: float, *, trace=0, setup_only=False):
    """Run perfbench/worker.py once; returns its result with setup_s added."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
        "--deadline", repr(deadline), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - started, 0.0) + 10.0,
        )
    except subprocess.TimeoutExpired:
        # a hang the per-op alarm could not interrupt, such as one long call
        # into native code: every task of the pass counts as failed
        limit = WORKLOADS[workload].op_limit_s
        ops = [("killed", task.key, limit, "Killed") for task in WORKLOADS[workload].tasks]
        return {"setup_s": None, "ops": ops, "rss_mb": None}
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - started
    return result


def run_passes(workload: str, seed: int, seconds: float, deadline: float) -> list[dict]:
    """Untraced passes while the next is expected to end within `seconds`
    (at least one)."""
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, len(passes), deadline))
        elapsed = time.monotonic() - start
        expected_end = elapsed + elapsed / len(passes)
        if expected_end > seconds or start + expected_end > deadline:
            return passes


def pass_seconds(result: dict) -> float:
    """Program time of one pass: each op's latency, failures charged the limit."""
    return sum(seconds for _, _, seconds, _ in result["ops"])


def op_latencies(passes: list[dict], kind: str) -> list[float]:
    """One latency per distinct op of a kind: its median over the run's passes.

    Passes run the ops in different orders, so an op's own median is a
    steadier figure than any single run of it.
    """
    by_op: dict[str, list[float]] = {}
    for result in passes:
        for op_kind, key, seconds, _ in result["ops"]:
            if op_kind == kind:
                by_op.setdefault(key, []).append(seconds)
    return [statistics.median(samples) for samples in by_op.values()]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) for the highest percentile with >= 10 samples
    beyond it.  Below MIN_SAMPLES that percentile would fall under the
    median, so the median is reported as the tail instead."""
    n = len(samples)
    if n < MIN_SAMPLES:
        return statistics.median_low(samples), 50.0, n
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def environment(seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "cyclocert").glob("*.py"))
    )
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_cyclocert_lines": src_lines,
    }


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op[3])
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(pass_seconds(p) for p in passes),
        "pass_ratio": (len(ops) - failed) / len(ops),
        "peak_rss_mb": max((p["rss_mb"] for p in passes if p["rss_mb"]), default=0.0),
    }


def layer_report(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of the traced pass; its overhead is measured
    against the untraced pass that ran the same order."""
    if "layers" not in traced:
        raise BenchError("the traced pass was killed before it finished")
    out = dict(traced["layers"])
    out["trace.overhead_ratio"] = pass_seconds(traced) / pass_seconds(untraced) - 1.0
    return out


def print_report(workload: str, env: dict, passes: list[dict], traced: list[dict],
                 metrics: dict, units: dict) -> None:
    ops = [op for p in passes + traced for op in p["ops"]]
    failures = Counter(op[3] for op in ops if op[3])
    failed = sum(failures.values())
    print(f"workload {workload}: {len(passes)} untraced and {len(traced)} traced passes")
    print("environment " + json.dumps(env))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {units[name]}")
    print("  run_s per pass: " + ", ".join(f"{pass_seconds(p):.4f}" for p in passes))
    detail = ", ".join(f"{kind} x{count}" for kind, count in sorted(failures.items()))
    print(f"  failed_ratio {failed / len(ops):.4f} ({failed} of {len(ops)} ops failed"
          f"{': ' + detail if detail else ''})")
    for kind in sorted({op[0] for op in ops}):
        latencies = op_latencies(passes, kind)
        value, pct, n = tail(latencies)
        print(f"  {kind:6s} p50 {statistics.median_low(latencies):.6f} s, "
              f"tail p{pct:.1f} {value:.6f} s, over {n} distinct ops")
    for p in traced:
        if p.get("missing_sites"):
            print(f"  untraced sites (not in the program): {', '.join(p['missing_sites'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=BENCHMARKED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cyclocert" / "cli.py").is_file():
        print(f"error: no cyclocert sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            passes = [spawn(args.workload, args.seed, 0, deadline)]
            traced = [spawn(args.workload, args.seed, 0, deadline, trace=1)]
            metrics, units = layer_report(passes[0], traced[0]), LAYER_UNITS
        else:
            passes = run_passes(args.workload, args.seed, args.seconds, deadline)
            traced = []
            setups = [p["setup_s"] for p in passes if p["setup_s"] is not None]
            while len(setups) < SETUP_SAMPLES:
                setup_s = spawn(args.workload, args.seed, 0, deadline, setup_only=True)["setup_s"]
                if setup_s is None:
                    raise BenchError("a set-up did not finish in time")
                setups.append(setup_s)
            metrics, units = end_to_end(passes, setups), END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print_report(args.workload, env, passes, traced, metrics, units)

    ops = [op for p in passes + traced for op in p["ops"]]
    result = {
        "correct": not any(op[3] == WRONG_OUTPUT for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op[3]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
