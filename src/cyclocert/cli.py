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
from itertools import chain
from operator import attrgetter

from .arith import (
    DEFAULT_SCAN_CEILING,
    FactoredInteger,
    PrimeCluster,
    _class_primes,
    factor,
    radical,
)
from .cyclo import DEFAULT_DEGREE_BUDGET, a_coeff, c_coeff, phi_poly
from .cyclo import _factor_within_budget, _phi_prefix
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
_REPORT_KEYS = ("pass", "computed_value", "window_checked", "reasons")
_REPORT_TEMPLATE = "{\n%s\n}" % ",\n".join('  "%s": %%s' % key for key in _REPORT_KEYS)
_PAIR_TEMPLATE = "[\n      %d,\n      %d\n    ]"


@dataclass(frozen=True)
class CertificateDocument:
    """A certificate plus an optional embedded verification report."""

    certificate: Certificate
    verification: VerificationReport | None = None


def _array(items: list[str], indent: str) -> str:
    """Encoded items as json.dumps(..., indent=2) lays out an array whose
    closing bracket sits at `indent`."""
    if not items:
        return "[]"
    inner = "\n  " + indent
    return "[%s%s\n%s]" % (inner, ("," + inner).join(items), indent)


def _factors_array(n: FactoredInteger) -> str:
    return _array([_PAIR_TEMPLATE % pair for pair in n.factors], "  ")


def _report_object(report: VerificationReport, indent: str) -> str:
    """The report as json.dumps(..., indent=2) lays out an object whose
    closing brace sits at `indent`."""
    text = _REPORT_TEMPLATE % (
        json.dumps(report.passed),
        json.dumps(report.computed_value),
        json.dumps(report.window_checked),
        _array(list(map(json.dumps, report.reasons)), "  "),
    )
    return text.replace("\n", "\n" + indent)


def _require_int(value, key: str, minimum: int | None = None, bounded: bool = True) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentFormatError(f"field {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise DocumentFormatError(f"field {key!r} must be >= {minimum}, got {value}")
    if bounded and abs(value) > MACHINE_INT_MAX:
        raise DocumentFormatError(f"field {key!r} exceeds the 64-bit range")
    return value


def _ints_within(values: list, lo: int) -> bool:
    """A non-empty list of ints, no bools, all within [lo, MACHINE_INT_MAX]."""
    return set(map(type, values)) == {int} and lo <= min(values) and max(values) <= MACHINE_INT_MAX


def _parse_factors(raw, key: str) -> FactoredInteger:
    if not isinstance(raw, list) or not raw:
        raise DocumentFormatError(f"field {key!r} must be a non-empty list of [prime, exponent]")
    pairs = set(map(type, raw)) == {list} and set(map(len, raw)) == {2}
    flat = list(chain.from_iterable(raw)) if pairs else []
    primes, exponents = flat[::2], flat[1::2]
    if not (_ints_within(primes, 2) and _ints_within(exponents, 1)):
        raise DocumentFormatError(f"field {key!r} entries must be [prime, exponent] pairs")
    try:
        return FactoredInteger(tuple(zip(primes, exponents)))
    except ValueError as exc:
        raise DocumentFormatError(f"field {key!r}: {exc}") from exc


def _read_schema_version(raw, key: str) -> str:
    if raw != SCHEMA_VERSION:
        raise DocumentFormatError(f"unsupported {key} {raw!r}")
    return raw


def _read_mode(raw, key: str) -> str:
    if raw not in ("a", "c"):
        raise DocumentFormatError(f"{key} must be 'a' or 'c', got {raw!r}")
    return raw


def _read_mu_kernel(raw, key: str) -> int:
    if _require_int(raw, key) not in (-1, 1):
        raise DocumentFormatError(f"{key} must be -1 or +1, got {raw}")
    return raw


def _read_primes(raw, key: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not _ints_within(raw, 2):
        raise DocumentFormatError(f"field {key!r} must be a non-empty list of integers >= 2")
    return tuple(raw)


def _read_q(raw, key: str) -> int | None:
    if raw is not None and not _ints_within([raw], 2):
        raise DocumentFormatError(f"field {key!r} must be null or an integer >= 2")
    return raw


# The document, one row per field in document order: its key, its layout in
# the template, its value as written from a Certificate, and how it is read
# back: the least value of a bounded 64-bit integer, None for the unbounded
# v, or a reader taking (value, key).  Document order is the order of
# Certificate's fields, with TargetPlan's (kernel to delta) and
# PrimeCluster's (cluster_n, primes) in place of plan and cluster, so
# parse_document builds all three from slices of the values read.
# serialize_document's layout is exactly json.dumps(data, indent=2) + "\n" of
# these fields, then "verification" when present, with the arrays joined at
# C speed instead of walked by the indenting encoder.
_DOCUMENT_FIELDS = (
    ("schema_version", '"%s"', lambda cert: SCHEMA_VERSION, _read_schema_version),
    ("mode", "%s", lambda cert: json.dumps(cert.mode), _read_mode),
    ("m", "%d", attrgetter("m_original"), 1),
    ("v", "%d", attrgetter("v"), None),
    ("kernel", "%d", attrgetter("plan.kernel"), 2),
    ("mu_kernel", "%d", attrgetter("plan.mu_kernel"), _read_mu_kernel),
    ("t", "%d", attrgetter("plan.t"), 1),
    ("delta", "%d", attrgetter("plan.delta"), 0),
    ("cluster_n", "%d", attrgetter("cluster.n"), 1),
    ("primes", "%s", lambda cert: _array(list(map(str, cert.cluster.primes)), "  "), _read_primes),
    ("q", "%s", lambda cert: json.dumps(cert.q), _read_q),
    ("N_factors", "%s", lambda cert: _factors_array(cert.N), _parse_factors),
    ("k", "%d", attrgetter("k_kernel"), 0),
    ("stretch", "%d", attrgetter("stretch"), 1),
    ("N_lifted_factors", "%s", lambda cert: _factors_array(cert.N_lifted), _parse_factors),
    ("k_lifted", "%d", attrgetter("k_lifted"), 0),
    ("truncation", "%d", attrgetter("truncation"), 1),
    ("ratio_num", "%d", attrgetter("ratio_num"), 1),
    ("ratio_den", "%d", attrgetter("ratio_den"), 1),
)
_DOCUMENT_KEYS = tuple(row[0] for row in _DOCUMENT_FIELDS)
_DOCUMENT_TEMPLATE = "{\n%s%%s\n}\n" % ",\n".join(
    '  "%s": %s' % row[:2] for row in _DOCUMENT_FIELDS
)


def serialize_document(document: CertificateDocument) -> str:
    cert = document.certificate
    verification = ""
    if document.verification is not None:
        verification = ',\n  "verification": ' + _report_object(document.verification, "  ")
    texts = [write(cert) for _, _, write, _ in _DOCUMENT_FIELDS]
    return _DOCUMENT_TEMPLATE % (*texts, verification)


def _check_keys(data: dict, required: tuple[str, ...], kind: str, optional: tuple = ()) -> None:
    unknown = set(data).difference(required, optional)
    if unknown:
        raise DocumentFormatError(f"unknown {kind}fields: {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise DocumentFormatError(f"missing {kind}fields: {sorted(missing)}")


def parse_document(text: str) -> CertificateDocument:
    """Parse a certificate document, rejecting unknown or missing fields."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past the int-digit limit
        raise DocumentFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # a valid document nests three levels deep
        raise DocumentFormatError("not a certificate: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise DocumentFormatError("document must be a JSON object")
    _check_keys(data, _DOCUMENT_KEYS, "", ("verification",))
    values = [
        read(data[key], key) if callable(read)
        else _require_int(data[key], key, read, bounded=read is not None)
        for key, _, _, read in _DOCUMENT_FIELDS
    ]
    plan = TargetPlan(*values[4:8], predicted_value=values[3])
    cluster = PrimeCluster(*values[8:10])
    certificate = Certificate(*values[1:4], plan, cluster, *values[10:])

    verification: VerificationReport | None = None
    raw = data.get("verification")
    if raw is not None:
        if not isinstance(raw, dict):
            raise DocumentFormatError("field 'verification' must be an object or null")
        _check_keys(raw, _REPORT_KEYS, "verification ")
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
    print(_report_object(report, ""))
    return 0 if report.passed else 1


def _height_bound(fac: FactoredInteger) -> int | None:
    """A proven bound on every |a(n, k)|, from n's odd primes q1 < q2 < ...

    A(n) = A(rad(n)) by the stretch, and A(2j) = A(j) for odd j because
    Phi_2j(x) = Phi_j(-x), so the prime 2 and all exponents drop out: 1 for
    at most two odd primes (Migotti, 1883), q1 - ceil(q1/4) for exactly
    three (Bachman, J. Number Theory 100, 2003), and None, no bound, for
    more.
    """
    odd = [p for p, _ in fac.factors if p > 2]
    if len(odd) <= 2:
        return 1
    if len(odd) == 3:
        return odd[0] - (odd[0] + 3) // 4
    return None


# a count of odd primes plus one, where 3 stands for three or more
_COUNT_UP = bytes(min(count + 1, 3) for count in range(256))
# multipliers _odd_prime_counts sieves at most, so its memory stays bounded
# under any budget from the environment
_SCAN_SIEVE_LIMIT = 1 << 20


def _odd_prime_counts(m: int, size: int) -> bytes:
    """Entry j, 1 <= j < size, is the number of odd primes of m*j, or 3 for
    three or more; empty when size < 2 or m alone has three.

    One sieve over the multipliers: each odd prime r < size that does not
    divide m adds one to the entries of its multiples, at C speed.  It
    holds size bytes, and cmd_scan keeps size within _SCAN_SIEVE_LIMIT + 1.
    """
    if size < 2:
        return b""
    own = sum(p > 2 for p, _ in factor(m).factors)
    if own >= 3:
        return b""
    counts = bytearray([own]) * size
    for r in _class_primes(1, 2, size - 1):
        if m % r:
            counts[r::r] = counts[r::r].translate(_COUNT_UP)
    return bytes(counts)


def cmd_scan(args: argparse.Namespace) -> int:
    # n is factored by _factor_within_budget, where the budget checks of coeff
    # a live.  phi_poly(n) builds Phi_n(x) = Phi_rad(n)(x**s), s = n /
    # rad(n), expanding Phi_rad(n) afresh, so n is skipped, after its budget
    # check, when it cannot add a value:
    # - every value in [-B, B] has been seen, B = _height_bound(n): Phi_n's
    #   coefficients lie in [-B, B], and --kmax only drops some of them;
    # - n is not squarefree, m | rad(n) and 0 has been seen: rad(n) = m*j'
    #   with j' < n/m was scanned, and Phi_n's first kmax + 1 coefficients
    #   are zeros and a(rad(n), i) for i <= kmax.
    # Up to n = budget the budget checks cannot fail (see there), so an n
    # there with at most two odd primes (B = 1), counted by one sieve over
    # the multipliers, is skipped unfactored once [-1, 1] has been seen.
    # Under --kmax only a(n, 0..kmax) are read, by _phi_prefix from the
    # factorization already made; without it phi_poly(n) factors n again.
    budget = _env_degree_budget()
    m = args.m
    sieved = b""
    if m >= 1:
        sieved = _odd_prime_counts(m, min(args.nmax, budget // m, _SCAN_SIEVE_LIMIT) + 1)
    first_seen: dict[int, tuple[int, int]] = {}
    covered = -1  # the largest c such that every value in [-c, c] has been seen
    for multiplier in range(1, args.nmax + 1):
        if covered >= 1 and multiplier < len(sieved) and sieved[multiplier] <= 2:
            continue
        n = m * multiplier
        fac = _factor_within_budget(n, budget)
        bound = _height_bound(fac)
        if bound is not None and covered >= bound:
            continue
        rad = radical(fac)
        if rad.value() < n and rad.value() % m == 0 and 0 in first_seen:
            continue
        if args.kmax is None:
            coeffs = phi_poly(n, degree_budget=budget).coeffs
        else:
            coeffs = _phi_prefix(fac, args.kmax, budget)
        new = set(coeffs).difference(first_seen)
        if new:
            # built from the top down, so each value keeps its smallest k
            first = dict(zip(reversed(coeffs), range(len(coeffs) - 1, -1, -1)))
            for value in new:
                first_seen[value] = (n, first[value])
            while covered + 1 in first_seen and -covered - 1 in first_seen:
                covered += 1
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
