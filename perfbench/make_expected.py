"""Regenerate perfbench/expected.json, the answers the benchmark gates on.

    PYTHONPATH=src python3 perfbench/make_expected.py

Two kinds of answer are stored:

* ``queries``: the output of every ``coeff``/``scan`` task.  These come from
  a route that shares no code with cyclocert: dense exact power series in
  NumPy object arrays built from the product formula, each polynomial checked
  pointwise modulo a large prime against the same formula evaluated in
  Python integers, and each reciprocal series checked by multiplying it back
  against the full polynomial.  NumPy is needed only here, never at run time.
* ``documents``: the SHA-256 of every certificate document ``hunt`` writes,
  recorded from the program itself.  Certificates must stay byte-stable, so
  a later change that alters a document fails the gate.  A hunt that fails
  when this script runs records no digest; once it succeeds, its document is
  checked only structurally.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

PRIME = (1 << 61) - 1


def trial_factor(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def mobius_divisors(n: int) -> list[tuple[int, int]]:
    """(d, mu(n/d)) for every divisor d of n with mu(n/d) != 0."""
    pairs = [(1, 1)]
    for p, e in trial_factor(n):
        pairs = [(d * p**e, s) for d, s in pairs] + [(d * p ** (e - 1), -s) for d, s in pairs]
    return sorted(pairs)


def totient(n: int) -> int:
    out = 1
    for p, e in trial_factor(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def product_series(n: int, order: int, exponent_sign: int) -> np.ndarray:
    """prod over d | n of (1 - x**d)**(sign * mu(n/d)) mod x**order, n > 1."""
    c = np.zeros(order, dtype=object)
    c[0] = 1
    steps = mobius_divisors(n)
    # multiplications first, then divisions: a different order of operations
    # from the program's, with the same exact result
    for d, s in sorted(steps, key=lambda step: -step[1] * exponent_sign):
        if d >= order:
            continue
        if s * exponent_sign == 1:
            c[d:] = c[d:] - c[:-d]
        else:
            width = -(-order // d) * d
            padded = np.zeros(width, dtype=object)
            padded[:order] = c
            c = np.cumsum(padded.reshape(-1, d), axis=0).reshape(-1)[:order]
    return c


def cyclotomic(n: int) -> list[int]:
    if n == 1:
        return [-1, 1]
    # Phi_n = prod (1 - x**d)**mu(n/d) holds for n > 1 as stated
    coeffs = [int(v) for v in product_series(n, totient(n) + 1, 1)]
    assert coeffs[-1] == 1 and coeffs == coeffs[::-1], n
    for r in (3, 1_000_003):
        horner = 0
        for value in reversed(coeffs):
            horner = (horner * r + value) % PRIME
        direct = 1
        for d, s in mobius_divisors(n):
            term = (1 - pow(r, d, PRIME)) % PRIME
            direct = direct * (term if s == 1 else pow(term, PRIME - 2, PRIME)) % PRIME
        assert horner == direct, n
    return coeffs


def coeff_a(n: int, k: int) -> int:
    coeffs = cyclotomic(n)
    return coeffs[k] if k < len(coeffs) else 0


def coeff_c(n: int, k: int) -> int:
    order = k + 1
    inverse = product_series(n, order, -1)
    poly = np.array(cyclotomic(n)[:order], dtype=object)
    product = np.convolve(inverse.astype(np.int64), poly.astype(np.int64))[:order]
    assert product[0] == 1 and not product[1:].any(), n
    return int(inverse[k])


def scan_rows(m: int, nmax: int) -> list[list[int]]:
    first_seen: dict[int, tuple[int, int]] = {}
    for multiplier in range(1, nmax + 1):
        n = m * multiplier
        for k, value in enumerate(cyclotomic(n)):
            first_seen.setdefault(value, (n, k))
    return [[value, n, k] for value, (n, k) in sorted(first_seen.items())]


def query_answer(argv: tuple[str, ...]):
    if argv[0] == "coeff":
        kind, n, k = argv[1], int(argv[2]), int(argv[3])
        return coeff_a(n, k) if kind == "a" else coeff_c(n, k)
    assert argv[0] == "scan" and argv[1] == "--m" and argv[3] == "--nmax", argv
    return scan_rows(int(argv[2]), int(argv[4]))


def document_digest(argv: tuple[str, ...], out: Path) -> str | None:
    from cyclocert.cli import main

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([*argv, "--out", str(out)])
    except RecursionError:
        return None
    if code != 0:
        return None
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> None:
    queries, documents = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        doc = Path(scratch) / "doc.json"
        for workload in WORKLOADS.values():
            for task in workload.tasks:
                if task.is_pair:
                    digest = document_digest(task.argv, doc)
                    if digest is not None:
                        documents[task.key] = digest
                    else:
                        print(f"no document for {task.key}", file=sys.stderr)
                else:
                    queries[task.key] = query_answer(task.argv)
                    print(f"{task.key} -> done", file=sys.stderr)
    text = json.dumps({"queries": queries, "documents": documents}, indent=1, sort_keys=True)
    (HERE / "expected.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
