"""Command-line surface and the on-disk certificate document format.

Commands:
  coeff   print a(n, k) or c(n, k)
  hunt    build a certificate for (m, v) and write it as a JSON document
  verify  independently recheck a certificate document
  scan    tabulate coefficient values observed among a(m*n, k)

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or resource errors.  Output is deterministic for fixed flags; no
timestamps are ever embedded in certificates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    DEFAULT_SCAN_CEILING,
    FactoredInteger,
    PrimeCluster,
    factor,
    radical,
)
from .cyclo import DEFAULT_DEGREE_BUDGET, a_coeff, c_coeff, phi_poly
from .cyclo import _check_degree_budget, _check_phi_budget
from .errors import CycloError, DocumentFormatError, MACHINE_INT_MAX
from .hunter import (
    DEFAULT_RATIO,
    Certificate,
    TargetPlan,
    VerificationReport,
    build_certificate,
    verify_certificate,
)

SCHEMA_VERSION = "1"

_DOCUMENT_KEYS = (
    "schema_version",
    "mode",
    "m",
    "v",
    "kernel",
    "mu_kernel",
    "t",
    "delta",
    "cluster_n",
    "primes",
    "q",
    "N_factors",
    "k",
    "stretch",
    "N_lifted_factors",
    "k_lifted",
    "truncation",
    "ratio_num",
    "ratio_den",
)
_REPORT_KEYS = ("pass", "computed_value", "window_checked", "reasons")


@dataclass(frozen=True)
class CertificateDocument:
    """A certificate plus an optional embedded verification report."""

    certificate: Certificate
    verification: VerificationReport | None = None


def _factors_to_json(n: FactoredInteger) -> list[list[int]]:
    return [[p, e] for p, e in n.factors]


def _report_to_json(report: VerificationReport) -> dict:
    return {
        "pass": report.passed,
        "computed_value": report.computed_value,
        "window_checked": report.window_checked,
        "reasons": list(report.reasons),
    }


def serialize_document(document: CertificateDocument) -> str:
    cert = document.certificate
    plan = cert.plan
    data: dict = {
        "schema_version": SCHEMA_VERSION,
        "mode": cert.mode,
        "m": cert.m_original,
        "v": cert.v,
        "kernel": plan.kernel,
        "mu_kernel": plan.mu_kernel,
        "t": plan.t,
        "delta": plan.delta,
        "cluster_n": cert.cluster.n,
        "primes": list(cert.cluster.primes),
        "q": cert.q,
        "N_factors": _factors_to_json(cert.N),
        "k": cert.k_kernel,
        "stretch": cert.stretch,
        "N_lifted_factors": _factors_to_json(cert.N_lifted),
        "k_lifted": cert.k_lifted,
        "truncation": cert.truncation,
        "ratio_num": cert.ratio_num,
        "ratio_den": cert.ratio_den,
    }
    if document.verification is not None:
        data["verification"] = _report_to_json(document.verification)
    return json.dumps(data, indent=2) + "\n"


def _require_int(
    data: dict, key: str, minimum: int | None = None, bounded: bool = True
) -> int:
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentFormatError(f"field {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise DocumentFormatError(f"field {key!r} must be >= {minimum}, got {value}")
    if bounded and abs(value) > MACHINE_INT_MAX:
        raise DocumentFormatError(f"field {key!r} exceeds the 64-bit range")
    return value


def _int_within(value, lo: int) -> bool:
    """An int, not a bool, within [lo, MACHINE_INT_MAX]."""
    if not isinstance(value, int) or isinstance(value, bool):
        return False
    return lo <= value <= MACHINE_INT_MAX


def _parse_factors(raw, key: str) -> FactoredInteger:
    if not isinstance(raw, list) or not raw:
        raise DocumentFormatError(f"field {key!r} must be a non-empty list of [prime, exponent]")
    pairs = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not _int_within(item[0], 2)
            or not _int_within(item[1], 1)
        ):
            raise DocumentFormatError(f"field {key!r} entries must be [prime, exponent] pairs")
        pairs.append((item[0], item[1]))
    try:
        return FactoredInteger(tuple(pairs))
    except ValueError as exc:
        raise DocumentFormatError(f"field {key!r}: {exc}") from exc


def parse_document(text: str) -> CertificateDocument:
    """Parse a certificate document, rejecting unknown or missing fields."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # a valid document nests three levels deep
        raise DocumentFormatError("not a certificate: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise DocumentFormatError("document must be a JSON object")
    unknown = set(data) - set(_DOCUMENT_KEYS) - {"verification"}
    if unknown:
        raise DocumentFormatError(f"unknown fields: {sorted(unknown)}")
    missing = set(_DOCUMENT_KEYS) - set(data)
    if missing:
        raise DocumentFormatError(f"missing fields: {sorted(missing)}")

    if data["schema_version"] != SCHEMA_VERSION:
        raise DocumentFormatError(f"unsupported schema_version {data['schema_version']!r}")
    mode = data["mode"]
    if mode not in ("a", "c"):
        raise DocumentFormatError(f"mode must be 'a' or 'c', got {mode!r}")
    m = _require_int(data, "m", 1)
    v = _require_int(data, "v", bounded=False)
    kernel = _require_int(data, "kernel", 2)
    mu_kernel = _require_int(data, "mu_kernel")
    if mu_kernel not in (-1, 1):
        raise DocumentFormatError(f"mu_kernel must be -1 or +1, got {mu_kernel}")
    t = _require_int(data, "t", 1)
    delta = _require_int(data, "delta", 0)
    cluster_n = _require_int(data, "cluster_n", 1)
    raw_primes = data["primes"]
    if (
        not isinstance(raw_primes, list)
        or not raw_primes
        or not all(_int_within(p, 2) for p in raw_primes)
    ):
        raise DocumentFormatError("field 'primes' must be a non-empty list of integers >= 2")
    q = data["q"]
    if q is not None and not _int_within(q, 2):
        raise DocumentFormatError("field 'q' must be null or an integer >= 2")
    n_factored = _parse_factors(data["N_factors"], "N_factors")
    k = _require_int(data, "k", 0)
    stretch = _require_int(data, "stretch", 1)
    n_lifted = _parse_factors(data["N_lifted_factors"], "N_lifted_factors")
    k_lifted = _require_int(data, "k_lifted", 0)
    truncation = _require_int(data, "truncation", 1)
    ratio_num = _require_int(data, "ratio_num", 1)
    ratio_den = _require_int(data, "ratio_den", 1)

    plan = TargetPlan(
        kernel=kernel, mu_kernel=mu_kernel, t=t, delta=delta, predicted_value=v
    )
    certificate = Certificate(
        mode=mode,
        m_original=m,
        v=v,
        plan=plan,
        cluster=PrimeCluster(n=cluster_n, primes=tuple(raw_primes)),
        q=q,
        N=n_factored,
        k_kernel=k,
        stretch=stretch,
        N_lifted=n_lifted,
        k_lifted=k_lifted,
        truncation=truncation,
        ratio_num=ratio_num,
        ratio_den=ratio_den,
    )

    verification: VerificationReport | None = None
    if "verification" in data and data["verification"] is not None:
        raw = data["verification"]
        if not isinstance(raw, dict):
            raise DocumentFormatError("field 'verification' must be an object or null")
        extra = set(raw) - set(_REPORT_KEYS)
        if extra:
            raise DocumentFormatError(f"unknown verification fields: {sorted(extra)}")
        lacking = set(_REPORT_KEYS) - set(raw)
        if lacking:
            raise DocumentFormatError(f"missing verification fields: {sorted(lacking)}")
        if not isinstance(raw["pass"], bool) or not isinstance(raw["window_checked"], bool):
            raise DocumentFormatError("verification 'pass' and 'window_checked' must be booleans")
        computed = raw["computed_value"]
        if computed is not None and (not isinstance(computed, int) or isinstance(computed, bool)):
            raise DocumentFormatError("verification 'computed_value' must be an integer or null")
        if not isinstance(raw["reasons"], list) or not all(
            isinstance(r, str) for r in raw["reasons"]
        ):
            raise DocumentFormatError("verification 'reasons' must be a list of strings")
        verification = VerificationReport(
            certificate=certificate,
            computed_value=computed,
            window_checked=raw["window_checked"],
            passed=raw["pass"],
            reasons=tuple(raw["reasons"]),
        )
    return CertificateDocument(certificate=certificate, verification=verification)


def _env_degree_budget() -> int:
    return int(os.environ.get("CYCLO_DEGREE_BUDGET", DEFAULT_DEGREE_BUDGET))


def _env_scan_ceiling() -> int:
    return int(os.environ.get("CYCLO_SCAN_CEILING", DEFAULT_SCAN_CEILING))


def _parse_ratio(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("ratio must be written NUM/DEN, e.g. 15/8")
    try:
        ratio = Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad ratio: {exc}") from exc
    if not Fraction(1) < ratio < Fraction(2):
        raise argparse.ArgumentTypeError("ratio must lie strictly between 1 and 2")
    return ratio


def cmd_coeff(args: argparse.Namespace) -> int:
    budget = _env_degree_budget()
    if args.kind == "a":
        value = a_coeff(args.n, args.k, degree_budget=budget)
    else:
        value = c_coeff(args.n, args.k, degree_budget=budget)
    if args.json:
        print(json.dumps({"kind": args.kind, "n": args.n, "k": args.k, "value": value}))
    else:
        print(value)
    return 0


def cmd_hunt(args: argparse.Namespace) -> int:
    budget = _env_degree_budget()
    certificate = build_certificate(
        args.m,
        args.value,
        args.mode,
        args.ratio,
        scan_ceiling=_env_scan_ceiling(),
        degree_budget=budget,
    )
    report = verify_certificate(certificate, degree_budget=budget)
    if not report.passed:
        print(f"internal error: fresh certificate failed verification: {report.reasons}",
              file=sys.stderr)
        return 1
    text = serialize_document(CertificateDocument(certificate, report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    with open(args.path, "r", encoding="utf-8") as handle:
        document = parse_document(handle.read())
    report = verify_certificate(
        document.certificate, full_window=args.full_window, degree_budget=_env_degree_budget()
    )
    print(json.dumps(_report_to_json(report), indent=2))
    return 0 if report.passed else 1


def cmd_scan(args: argparse.Namespace) -> int:
    # n gets the budget checks of coeff a around the factor(n) that the skip
    # rules read.  phi_poly(n) builds Phi_n(x) = Phi_rad(n)(x**s), s = n /
    # rad(n), from the cached Phi_rad(n), so n is skipped, after its budget
    # check, when it cannot add a value:
    # - omega(n) <= 2 and -1, 0 and 1 have all been seen: Phi_1, Phi_p and
    #   the binary Phi_pq have every coefficient in {-1, 0, 1} (Migotti,
    #   1883), and stretching adds only zeros;
    # - n is not squarefree, m | rad(n) and 0 has been seen: rad(n) = m*j'
    #   with j' < n/m was scanned, and Phi_n's first kmax + 1 coefficients
    #   are zeros and a(rad(n), i) for i <= kmax.
    budget = _env_degree_budget()
    first_seen: dict[int, tuple[int, int]] = {}
    for multiplier in range(1, args.nmax + 1):
        n = args.m * multiplier
        _check_degree_budget(n, budget)
        fac = factor(n)
        _check_phi_budget(fac, budget)
        if len(fac.factors) <= 2 and {-1, 0, 1} <= first_seen.keys():
            continue
        rad = radical(fac).value()
        if rad < n and rad % args.m == 0 and 0 in first_seen:
            continue
        coeffs = phi_poly(n, degree_budget=budget).coeffs
        if args.kmax is not None:
            coeffs = coeffs[: max(0, args.kmax + 1)]
        new = set(coeffs).difference(first_seen)
        if new:
            # built from the top down, so each value keeps its smallest k
            first = dict(zip(reversed(coeffs), range(len(coeffs) - 1, -1, -1)))
            for value in new:
                first_seen[value] = (n, first[value])
    rows = [(value, n, k) for value, (n, k) in sorted(first_seen.items())]
    if args.json:
        print(json.dumps([{"value": v, "n": n, "k": k} for v, n, k in rows]))
    else:
        print(f"{'value':>8}  {'n':>10}  {'k':>8}")
        for value, n, k in rows:
            print(f"{value:>8}  {n:>10}  {k:>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclocert",
        description="Exact cyclotomic coefficients and certified coefficient-value witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="print a single coefficient a(n,k) or c(n,k)")
    p_coeff.add_argument("kind", choices=("a", "c"))
    p_coeff.add_argument("n", type=int)
    p_coeff.add_argument("k", type=int)
    p_coeff.add_argument("--json", action="store_true")
    p_coeff.set_defaults(func=cmd_coeff)

    p_hunt = sub.add_parser("hunt", help="build a certificate for a(N,k)=v or c(N,k)=v with m | N")
    p_hunt.add_argument("--m", type=int, required=True)
    p_hunt.add_argument("--value", type=int, required=True)
    p_hunt.add_argument("--mode", choices=("a", "c"), required=True)
    p_hunt.add_argument("--ratio", type=_parse_ratio, default=DEFAULT_RATIO,
                        help=f"interval ratio NUM/DEN, 1 < NUM/DEN < 2 (default {DEFAULT_RATIO})")
    p_hunt.add_argument("--out", help="write the document here instead of stdout")
    p_hunt.set_defaults(func=cmd_hunt)

    p_verify = sub.add_parser("verify", help="independently recheck a certificate document")
    p_verify.add_argument("path")
    p_verify.add_argument("--full-window", action="store_true",
                          help="also check the window identity at every index")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="tabulate values observed among a(m*n, k)")
    p_scan.add_argument("--m", type=int, required=True)
    p_scan.add_argument("--nmax", type=int, required=True)
    p_scan.add_argument("--kmax", type=int, default=None)
    p_scan.add_argument("--json", action="store_true")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, CycloError) as exc:
        # budget, scan-ceiling, overflow, document and filesystem problems are
        # all resource/usage errors by the exit-code contract
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
