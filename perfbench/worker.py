"""One pass of a workload, in a fresh interpreter started by run.py.

Every op goes through ``cyclocert.cli.main(argv)`` in-process, one at a time
(a closed loop with one client).  The interpreter is new for each pass, so
the package's caches start cold as they do for every CLI call; the benchmark
never clears them itself.

Each op is timed, held to the workload's per-op time limit by SIGALRM, and
its output checked against the stored answers.  An op fails on an exception
(its type is recorded), a non-zero exit, a timeout, or a wrong output; a
failed op is charged the full time limit.  The pass result is printed as one
JSON line on the real standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import HUNT, QUERY, VERIFY, WORKLOADS, Task, pass_order  # noqa: E402

WRONG_OUTPUT = "WrongOutput"


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op outruns its limit; BaseException so the
    program's own handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


class Pass:
    """Runs the ops of one pass and keeps their records."""

    def __init__(self, cli, workload, deadline: float, tracer=None) -> None:
        self.cli = cli
        self.limit = workload.op_limit_s
        self.deadline = deadline
        self.tracer = tracer
        self.main = cli.main
        if tracer is not None:
            self.main = tracer.wrap("cli.main", cli.main, site="cyclocert.cli.main")
        # (kind, task key, seconds charged, error or None), in run order
        self.ops: list[tuple[str, str, float, str | None]] = []

    def run_op(self, kind: str, key: str, argv: list[str]) -> str | None:
        """Run one CLI call; returns its stdout, or None if it failed."""
        budget = min(self.limit, self.deadline - time.monotonic())
        if budget <= 0:
            self.ops.append((kind, key, self.limit, "RunDeadline"))
            return None
        out = io.StringIO()
        code, error = None, None
        if self.tracer is not None:
            self.tracer.begin_op(len(self.ops))
        signal.setitimer(signal.ITIMER_REAL, budget)
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.main(argv)
        except OpTimeout:
            error = "Timeout"
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the op boundary: record the failure, keep the pass going
            error = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_op()
        if error is None and code != 0:
            error = f"Exit{code}"
        self.ops.append((kind, key, self.limit if error else elapsed, error))
        return None if error else out.getvalue()

    def fail_last(self) -> None:
        kind, key, _, _ = self.ops[-1]
        self.ops[-1] = (kind, key, self.limit, WRONG_OUTPUT)

    def run_task(self, task: Task, expected: dict, doc: Path) -> None:
        if not task.is_pair:
            out = self.run_op(QUERY, task.key, list(task.argv))
            if out is not None and not query_ok(task, out, expected["queries"][task.key]):
                self.fail_last()
            return
        if self.run_op(HUNT, task.key, [*task.argv, "--out", str(doc)]) is None:
            return  # nothing to verify
        if not self.document_ok(task, doc, expected["documents"]):
            self.fail_last()
            return
        out = self.run_op(VERIFY, task.key, ["verify", str(doc), "--full-window"])
        if out is not None and not verify_ok(task, out):
            self.fail_last()

    def document_ok(self, task: Task, doc: Path, digests: dict) -> bool:
        """The document round-trips, names the requested (m, v, mode), and
        matches the recorded digest where one was recorded."""
        try:
            text = doc.read_text(encoding="utf-8")
            document = self.cli.parse_document(text)
        except (OSError, ValueError):
            return False
        cert = document.certificate
        if (cert.m_original, cert.v, cert.mode) != (task.m, task.v, task.mode):
            return False
        if self.cli.serialize_document(document) != text:
            return False
        digest = digests.get(task.key)
        return digest is None or hashlib.sha256(text.encode()).hexdigest() == digest


def verify_ok(task: Task, out: str) -> bool:
    try:
        report = json.loads(out)
    except ValueError:
        return False
    return report == {
        "pass": True,
        "computed_value": task.v,
        "window_checked": True,
        "reasons": [],
    }


def query_ok(task: Task, out: str, answer) -> bool:
    if task.argv[0] == "coeff":
        return out.strip() == str(answer)
    try:
        rows = [[int(x) for x in line.split()] for line in out.splitlines()[1:]]
    except ValueError:
        return False
    return rows == answer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True, help="time.monotonic() value")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from cyclocert import cli

    workload = WORKLOADS[args.workload]
    tasks = pass_order(workload, args.seed, args.pass_index)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    tracer = None
    missing: list[str] = []
    if args.trace:
        import layers

        tracer = layers.Tracer()
        missing = layers.install(tracer)
    WORK.mkdir(exist_ok=True)
    doc = WORK / f"doc-{args.workload}-{args.pass_index}.json"
    signal.signal(signal.SIGALRM, _on_alarm)
    this_pass = Pass(cli, workload, args.deadline, tracer)
    try:
        for task in tasks:
            this_pass.run_task(task, expected, doc)
    finally:
        doc.unlink(missing_ok=True)
    result = {
        "setup_done": setup_done,
        "ops": this_pass.ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer)
        result["site_calls"] = dict(tracer.site_calls)
        result["missing_sites"] = missing
        tracer.write_spans(WORK / f"spans-{args.workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
