"""Command-line surface and the on-disk certificate document format.

Commands:
  coeff   print a(n, k) or c(n, k)
  hunt    build a certificate for (m, v) and write it as a JSON document
  verify  independently recheck a certificate document
  scan    tabulate coefficient values observed among a(m*n, k)
  bench   cross-validate and time the exact-polynomial strategies

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or resource errors.  Output is deterministic for fixed flags; no
timestamps are ever embedded in certificates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    DEFAULT_SCAN_CEILING,
    FactoredInteger,
    PrimeCluster,
    euler_phi,
    factor,
    radical,
)
from .cyclo import DEFAULT_DEGREE_BUDGET, a_coeff, c_coeff, phi_poly
from .errors import CycloError, DocumentFormatError, MACHINE_INT_MAX
from .hunter import (
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
    schema_version: str = SCHEMA_VERSION


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
        "schema_version": document.schema_version,
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


def _parse_factors(raw, key: str) -> FactoredInteger:
    if not isinstance(raw, list) or not raw:
        raise DocumentFormatError(f"field {key!r} must be a non-empty list of [prime, exponent]")
    pairs = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
            or not 2 <= item[0] <= MACHINE_INT_MAX
            or not 1 <= item[1] <= MACHINE_INT_MAX
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
        or not all(
            isinstance(p, int) and not isinstance(p, bool) and 2 <= p <= MACHINE_INT_MAX
            for p in raw_primes
        )
    ):
        raise DocumentFormatError("field 'primes' must be a non-empty list of integers >= 2")
    q = data["q"]
    if q is not None and (
        not isinstance(q, int) or isinstance(q, bool) or not 2 <= q <= MACHINE_INT_MAX
    ):
        raise DocumentFormatError("field 'q' must be null or an integer >= 2")
    n_factored = _parse_factors(data["N_factors"], "N_factors")
    k = _require_int(data, "k", 0)
    stretch = _require_int(data, "stretch", 1)
    n_lifted = _parse_factors(data["N_lifted_factors"], "N_lifted_factors")
    k_lifted = _require_int(data, "k_lifted", 0)
    truncation = _require_int(data, "truncation", 1)
    ratio_num = _require_int(data, "ratio_num", 1)
    ratio_den = _require_int(data, "ratio_den", 1)

    q1 = q2 = None
    if mu_kernel == 1:
        kernel_primes = factor(kernel).primes()
        if len(kernel_primes) >= 2:
            q1, q2 = kernel_primes[0], kernel_primes[1]
    plan = TargetPlan(
        kernel=kernel,
        mu_kernel=mu_kernel,
        t=t,
        delta=delta,
        predicted_value=v,
        q1=q1,
        q2=q2,
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
    certificate = build_certificate(
        args.m,
        args.value,
        args.mode,
        args.ratio,
        scan_ceiling=_env_scan_ceiling(),
        degree_budget=_env_degree_budget(),
    )
    report = verify_certificate(certificate, degree_budget=_env_degree_budget())
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
    budget = _env_degree_budget()
    first_seen: dict[int, tuple[int, int]] = {}
    for multiplier in range(1, args.nmax + 1):
        n = args.m * multiplier
        coeffs = phi_poly(n, degree_budget=budget).coeffs
        top = len(coeffs) - 1
        if args.kmax is not None:
            top = min(top, args.kmax)
        for k in range(top + 1):
            value = coeffs[k]
            if value not in first_seen:
                first_seen[value] = (n, k)
    rows = [(value, n, k) for value, (n, k) in sorted(first_seen.items())]
    if args.json:
        print(json.dumps([{"value": v, "n": n, "k": k} for v, n, k in rows]))
    else:
        print(f"{'value':>8}  {'n':>10}  {'k':>8}")
        for value, n, k in rows:
            print(f"{value:>8}  {n:>10}  {k:>8}")
    return 0


def _proper_divisors(n: int) -> list[int]:
    fac = factor(n)
    divs = [1]
    for p, e in fac.factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(d for d in divs if d < n)


def _poly_div_exact(numerator: list[int], denominator: tuple[int, ...]) -> list[int]:
    # long division by a monic divisor with an exact-zero remainder
    work = list(numerator)
    dlen = len(denominator)
    quotient = [0] * (len(work) - dlen + 1)
    for i in range(len(quotient) - 1, -1, -1):
        c = work[i + dlen - 1]
        if c:
            quotient[i] = c
            for j in range(dlen - 1):
                work[i + j] -= c * denominator[j]
            work[i + dlen - 1] = 0
    if any(work[: dlen - 1]):
        raise ValueError("division left a nonzero remainder")
    return quotient


def _phi_by_division(n: int, cache: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    # the product identity x**n - 1 = prod Phi_d, unwound by long division
    got = cache.get(n)
    if got is not None:
        return got
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _proper_divisors(n):
        poly = _poly_div_exact(poly, _phi_by_division(d, cache))
    result = tuple(poly)
    cache[n] = result
    return result


def _phi_by_stretch(n: int, budget: int) -> tuple[int, ...]:
    # compute over the squarefree kernel, then spread exponents by n/kernel
    kernel = radical(factor(n)).value()
    base = phi_poly(kernel, degree_budget=budget).coeffs
    s = n // kernel
    if s == 1:
        return base
    out = [0] * ((len(base) - 1) * s + 1)
    for i, coefficient in enumerate(base):
        out[i * s] = coefficient
    return tuple(out)


def cmd_bench(args: argparse.Namespace) -> int:
    budget = _env_degree_budget()
    division_cache: dict[int, tuple[int, ...]] = {}
    rows = []
    for n in args.n:
        euler_phi(factor(n))  # fail fast on absurd inputs before timing
        started = time.perf_counter()
        by_division = _phi_by_division(n, division_cache)
        division_s = time.perf_counter() - started

        started = time.perf_counter()
        by_product = phi_poly(n, degree_budget=budget).coeffs
        product_s = time.perf_counter() - started

        started = time.perf_counter()
        by_stretch = _phi_by_stretch(n, budget)
        stretch_s = time.perf_counter() - started

        if not (by_division == by_product == by_stretch):
            print(f"strategy disagreement at n={n}", file=sys.stderr)
            return 1
        rows.append((n, division_s, product_s, stretch_s))
    if args.json:
        print(json.dumps(
            [
                {
                    "n": n,
                    "division_ms": round(d * 1000, 3),
                    "mobius_product_ms": round(p * 1000, 3),
                    "radical_stretch_ms": round(s * 1000, 3),
                }
                for n, d, p, s in rows
            ]
        ))
    else:
        print(f"{'n':>10}  {'division_ms':>12}  {'product_ms':>12}  {'stretch_ms':>12}")
        for n, d, p, s in rows:
            print(f"{n:>10}  {d * 1000:>12.3f}  {p * 1000:>12.3f}  {s * 1000:>12.3f}")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list: {exc}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("expected a comma-separated list of positive integers")
    return values


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
    p_hunt.add_argument("--ratio", type=_parse_ratio, default=Fraction(15, 8),
                        help="interval ratio NUM/DEN, 1 < NUM/DEN < 2 (default 15/8)")
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

    p_bench = sub.add_parser("bench", help="cross-validate and time exact-polynomial strategies")
    p_bench.add_argument("--n", type=_int_list, required=True,
                         help="comma-separated list of n values")
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
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
