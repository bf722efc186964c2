"""Outside-in tracing of cyclocert's layers for the benchmark's traced run.

Public functions are wrapped where they are *looked up*, not where they are
defined: ``hunter`` and ``cli`` import names directly, so replacing
``arith.factor`` alone would miss ``hunter.factor``.  Each wrapper records a
span (name, start, end, parent span, op id) and, for a few sites, a count
derived from the call's arguments or result.  Spans stay in memory until the
pass ends.  Nothing is recorded outside an op, so the benchmark's own output
checks do not show up as program time.

Every ``*_s`` layer metric is self time: a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from cyclocert import arith, cli, cyclo, hunter
from cyclocert.series import TruncatedSeries


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self.counters: dict[str, float] = defaultdict(float)
        self.values: dict[str, set] = defaultdict(set)
        self.site_calls: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None, site: str = ""):
        """fn, recording a span named `name` while an op is running.

        count(tracer, args, result) adds the call's counts; it runs only
        when the call returns.  Calls are also tallied per `site`.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self.site_calls[site] += 1
            index = len(self.spans)
            parent = self.current_span()
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, perf_counter(), parent, self.op)
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def current_span(self) -> int:
        """Index of the innermost open span, or -1 outside any span."""
        return self._stack[-1] if self._stack else -1

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.clear()

    def end_op(self) -> None:
        self.op = None
        self._stack.clear()

    def closed_spans(self):
        """(index, span) for every finished span; a time limit can cut one
        off before its wrapper records it."""
        return [(i, span) for i, span in enumerate(self.spans) if span is not None]

    def self_times(self) -> dict[str, float]:
        spans = self.closed_spans()
        covered = [0.0] * len(self.spans)
        for _, (name, start, end, parent, _) in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in spans:
            totals[name] += end - start - covered[i]
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for _, span in self.closed_spans():
            out[span[0]] += 1
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in self.closed_spans():
                handle.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _count_apply(tracer: Tracer, args, result) -> None:
    series, d = args[0], args[1]
    truncation = len(series.coeffs)
    updates = max(truncation - d, 0)
    tracer.counters["series.updates"] += updates
    if 2 * d >= truncation:
        tracer.counters["series.high_updates"] += updates


def _count_cluster(tracer: Tracer, args, result) -> None:
    tracer.counters["arith.cluster_n_scanned"] += result.n - args[0].floor_n + 1


def _count_expand(tracer: Tracer, args, result) -> None:
    tracer.counters["cyclo.expand_T"] += args[1]


def _count_c_table(tracer: Tracer, args, result) -> None:
    tracer.values["cyclo.c_table.n"].add(args[0])


def _count_document_in(tracer: Tracer, args, result) -> None:
    tracer.counters["cli.document_bytes"] += len(args[0].encode())


def _count_document_out(tracer: Tracer, args, result) -> None:
    tracer.counters["cli.document_bytes"] += len(result.encode())


def _count_attempt(tracer: Tracer, args, result) -> None:
    # the attempt's span is closed, so the open span is the build that made it
    tracer.values["hunter.searching_builds"].add(tracer.current_span())


# (owner, attribute looked up there, span name, counter)
SITES = (
    (cli, "parse_document", "cli.parse_document", _count_document_in),
    (cli, "serialize_document", "cli.serialize_document", _count_document_out),
    (cli, "build_certificate", "hunter.build_certificate", None),
    (cli, "verify_certificate", "hunter.verify_certificate", None),
    (cli, "a_coeff", "cyclo.a_coeff", None),
    (cli, "c_coeff", "cyclo.c_coeff", None),
    (cli, "phi_poly", "cyclo.phi_poly", None),
    (cli, "factor", "arith.factor", None),
    (hunter, "build_certificate", "hunter.build_certificate", None),
    (hunter, "plan_target", "hunter.plan_target", None),
    (hunter, "_cluster_cached", "hunter.cluster_attempt", _count_attempt),
    (hunter, "find_prime_cluster", "arith.find_prime_cluster", _count_cluster),
    (hunter, "factor", "arith.factor", None),
    (hunter, "is_prime", "arith.is_prime", None),
    (hunter, "next_prime_above", "arith.next_prime_above", None),
    (hunter, "c_table", "cyclo.c_table", _count_c_table),
    (hunter, "phi_truncated", "cyclo.expand", _count_expand),
    (hunter, "inverse_phi_truncated", "cyclo.expand", _count_expand),
    (cyclo, "phi_truncated", "cyclo.phi_truncated", None),
    (cyclo, "phi_poly", "cyclo.phi_poly", None),
    (cyclo, "c_table", "cyclo.c_table", _count_c_table),
    (cyclo, "factor", "arith.factor", None),
    (arith, "is_prime", "arith.is_prime", None),
    (TruncatedSeries, "apply_one_minus_power", "series.apply", _count_apply),
)


def site_label(owner, attribute: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attribute}"


def install(tracer: Tracer) -> list[str]:
    """Wrap every site for the rest of the process; returns the labels of
    sites the program no longer has.

    A missing site is skipped rather than fatal, so a refactor still gets
    its end-to-end numbers; the benchmark's test is what fails loudly on a
    missing or silent site.
    """
    missing = []
    for owner, attribute, name, count in SITES:
        original = owner.__dict__.get(attribute)
        label = site_label(owner, attribute)
        if original is None:
            missing.append(label)
        else:
            setattr(owner, attribute, tracer.wrap(name, original, count, label))
    return missing


def _ratio(top: float, base: float) -> float:
    return top / base if base else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, totals over the pass.

    Each group names the end-to-end metric it should move, and where:
    cli -> run_s on grid; hunter and arith -> run_s on deep
    (arith.factor/is_prime also on grid); cyclo.c_table -> run_s on tables;
    cyclo.expand -> run_s on deep; series -> run_s on deep (high divisors)
    and tables (low divisors); cyclo.phi_poly -> run_s and peak_rss_mb on
    tables.
    """
    self_s = tracer.self_times()
    calls = tracer.calls()
    counters = tracer.counters
    attempts = calls["hunter.cluster_attempt"]
    return {
        # includes argparse parser construction on every call
        "cli.self_s": self_s["cli.main"],
        "cli.parse_document_s": self_s["cli.parse_document"],
        "cli.serialize_document_s": self_s["cli.serialize_document"],
        "cli.document_bytes": counters["cli.document_bytes"],
        "hunter.plan_target_s": self_s["hunter.plan_target"],
        "hunter.build_certificate.self_s": self_s["hunter.build_certificate"],
        "hunter.verify_certificate.self_s": self_s["hunter.verify_certificate"],
        "hunter.verify_certificate.calls": calls["hunter.verify_certificate"],
        "hunter.cluster_attempts": attempts,
        # builds over cluster searches: the waste of the retry loop
        "hunter.cluster_useful_ratio": _ratio(
            len(tracer.values["hunter.searching_builds"]), attempts
        ),
        "arith.find_prime_cluster_s": self_s["arith.find_prime_cluster"],
        "arith.find_prime_cluster.calls": calls["arith.find_prime_cluster"],
        "arith.cluster_n_scanned": counters["arith.cluster_n_scanned"],
        "arith.factor_s": self_s["arith.factor"],
        "arith.factor.calls": calls["arith.factor"],
        "arith.is_prime_s": self_s["arith.is_prime"],
        "arith.is_prime.calls": calls["arith.is_prime"],
        "cyclo.c_table_s": self_s["cyclo.c_table"],
        "cyclo.c_table.calls": calls["cyclo.c_table"],
        "cyclo.c_table.distinct_n": len(tracer.values["cyclo.c_table.n"]),
        "cyclo.expand_s": self_s["cyclo.expand"],
        "cyclo.expand_T": counters["cyclo.expand_T"],
        # the exact-polynomial path outside the series layer
        "cyclo.phi_poly_s": self_s["cyclo.phi_poly"] + self_s["cyclo.phi_truncated"],
        "cyclo.phi_poly.calls": calls["cyclo.phi_poly"],
        "series.apply_s": self_s["series.apply"],
        "series.apply.calls": calls["series.apply"],
        # sum of max(T - d, 0) over calls; "high" steps have 2d >= T
        "series.updates": counters["series.updates"],
        "series.high_share": _ratio(counters["series.high_updates"], counters["series.updates"]),
        "series.updates_per_s": _ratio(counters["series.updates"], self_s["series.apply"]),
    }
