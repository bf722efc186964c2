"""Digests of what the package computes, one per family of inputs.

    python3 scripts/same_outputs.py [--src PATH] [--quick] [--dump FILE]

For each family it prints one line: the family's name, the number of items
it computed and one SHA-256 over every item's key and output.  Two trees
give the same outputs on a family when they print the same line for it.

- cyclo: c_table's period, lookup and c_coeff at residues far past the
  period, a_coeff (also at n = 1616615, 255255, 2p and 6p in the full
  sweep), phi_poly, and periodic phi_truncated / inverse_phi_truncated
  reads over several kernels K, with reads longer than K among them;
  exceptions (budget refusals included) are outputs.
- documents: `hunt` on the acceptance grid (m <= 30, |v| <= 10), on m = 30
  with v in {+-300, +-1000} and on m in {2310, 30030} with small |v|, both
  modes, with the document, the plain and the `--full-window` `verify`
  output, and every exit code.
- tampers: each of the 19 document fields of five hunted documents set in
  turn to each of a list of bad values, and three documents edited in
  several fields whose periodic kernel no divisor limit stops, with the
  plain and the `--full-window` `verify` output and exit code.
- cli: `scan` over several m (m = 1 and non-squarefree m*n among them),
  without --kmax and with --kmax negative, 0, on both sides of half of
  Phi_rad's degree and past phi(n), and `coeff a` / `coeff c` at k from -1
  to far past the degree, each under CYCLO_DEGREE_BUDGET unset, not
  positive and set to small values that some n breaks, with the exit code,
  stdout and stderr; the full sweep adds the six queries of the `tables`
  benchmark workload.
- arith: factor for every n below 2**20, for seeded products of a small
  part and one to three primes above 4096 (the cofactors that Brent's rho
  splits) and for the inputs it refuses; all_prime on seeded lists of the
  primes of a window, each taking the sieve or the Miller-Rabin route,
  with and without one planted composite; is_prime at and next to
  Jaeschke's psi_2, psi_3, psi_4 and psi_7.

Each family runs in a child process of its own over PATH/src (by default
this repository's), so every cache starts cold and a family's digest does
not depend on which other families ran.  The child's environment holds no
CYCLO_* variable, so the cli's budgets are their defaults whatever the
calling shell sets; the cli family sets CYCLO_DEGREE_BUDGET itself, per
item.  --quick runs a subset of every family in a few seconds.  --dump
appends every item to FILE as one JSON line [family, key, output], so two
trees' dumps can be compared line by line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from math import prod
from pathlib import Path
from random import Random

FAMILIES = ("cyclo", "documents", "tampers", "cli", "arith", "series")

# an output longer than this is kept as its SHA-256, so dumps stay small
_LONG = 2000


def _text(value) -> str:
    text = value if isinstance(value, str) else repr(value)
    if len(text) > _LONG:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def _call(function, *args, **kwargs) -> str:
    """The value of the call, or the exception it raised, as text."""
    try:
        return _text(function(*args, **kwargs))
    except Exception as exc:  # every exception is an output of the sweep
        return f"{type(exc).__name__}: {exc}"


def _cli(*argv: str) -> str:
    """Exit code, stdout and stderr of one in-process `cyclocert` run."""
    from cyclocert.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a traceback is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    return _text(json.dumps([code, out.getvalue(), err.getvalue()]))


# n of the a_coeff reads of the full cyclo family: 1616615 = 85085 * 19 and
# 255255 = 15015 * 17 as the tables workload reads them, and 2p, 6p
A_COEFF_NS = (1616615, 255255, 2 * 4099, 6 * 4099, 2 * 65537, 6 * 65537)


def cyclo_items(quick: bool):
    from cyclocert import cyclo
    from cyclocert.arith import FactoredInteger, euler_phi, factor, next_prime_above

    top = 120 if quick else 1500
    rng = Random(2602)
    for n in range(1, top):
        phi = euler_phi(factor(n))
        table = cyclo.c_table(n)
        far = (n - 1, n, 2 * n + 1, 10**12 + n, 3**40)
        yield f"c_table {n}", _text(table.period)
        yield f"lookup {n}", _text([table.lookup(k) for k in far])
        yield f"c_coeff {n}", _text([cyclo.c_coeff(n, k) for k in far])
        yield f"phi_poly {n}", _text(cyclo.phi_poly(n).coeffs)
        ks = sorted({0, 1, phi // 2, phi - 1, phi, phi + 1, rng.randrange(phi + 2)})
        yield f"a_coeff {n}", _text([cyclo.a_coeff(n, k) for k in ks])
    for n in ((2310, 15015) if quick else (2310, 15015, 30030, 85085, 255255)):
        table = cyclo.c_table(n)
        yield f"c_table {n}", _text(table.period)
        yield f"lookup {n}", _text([table.lookup(k) for k in range(0, 50 * n, 997)])
    # a_coeff whose window of c(K, .) at step -p wraps the period of 1/Phi_K
    # many times, or whose p exceeds K = 2 or 6
    for n in () if quick else A_COEFF_NS:
        phi = euler_phi(factor(n))
        picks = Random(n).sample(range(phi + 1), 40)
        ks = sorted({0, 1, phi // 2, phi - 1, phi, phi + 1, 300000, *picks})
        yield f"a_coeff {n}", _text([cyclo.a_coeff(n, k) for k in ks])
    for n, k, budget in ((101, 0, 100), (1009, 3, 100), (10**14, 0, 1000), (30, 5, 8),
                         (0, 0, 10), (210, 7, 47), (210, 7, 48), (2310, 1, 0)):
        for name in ("c_table", "phi_poly"):
            yield f"{name} {n} budget {budget}", _call(getattr(cyclo, name), n,
                                                       degree_budget=budget)
        for name in ("a_coeff", "c_coeff"):
            yield f"{name} {n} {k} budget {budget}", _call(getattr(cyclo, name), n, k,
                                                           degree_budget=budget)

    kernels = (1, 2, 6, 15, 30, 105) if quick else (1, 2, 6, 15, 30, 105, 210, 1155, 2310)
    for kernel in kernels:
        kernel_fac = factor(kernel) if kernel > 1 else FactoredInteger(())
        # primes above 4K: the first three = 1 (mod K), and the first three of any residue
        above = []
        while sum(p % kernel == 1 % kernel for p in above) < 3:
            above.append(next_prime_above(above[-1] if above else 4 * kernel))
        congruent = [p for p in above if p % kernel == 1 % kernel]
        for cluster in (congruent[:1], congruent[:2], congruent, above[:2], above[:3]):
            truncation = 2 * cluster[0]
            for with_q in (False, True):
                q = next_prime_above(max(truncation, cluster[-1]))
                primes = cluster + [q] if with_q else cluster
                n = kernel_fac * FactoredInteger(tuple((p, 1) for p in primes))
                for start in sorted({cluster[-1], cluster[-1] + 1, truncation - 1,
                                     (cluster[-1] + truncation) // 2, kernel}):
                    if not 0 <= start < truncation:
                        continue
                    for name in ("phi_truncated", "inverse_phi_truncated"):
                        key = f"{name} {kernel} {primes} {truncation} {start}"
                        yield key, _call(getattr(cyclo, name), n, truncation, start)


def _documents(quick: bool) -> list[tuple[int, int]]:
    """The (m, v) of the documents family, each hunted in both modes."""
    if quick:
        return [(m, v) for m in range(1, 7) for v in range(-3, 4)] + [(30, -300), (30, 300),
                                                                      (2310, 2)]
    grid = [(m, v) for m in range(1, 31) for v in range(-10, 11)]
    deep = [(30, v) for v in (-1000, -300, 300, 1000)]
    wide = [(m, v) for m in (2310, 30030) for v in (-3, 0, 2, 5)]
    return grid + deep + wide


def documents_items(quick: bool):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "cert.json")
        for m, v in _documents(quick):
            for mode in "ac":
                argv = ("hunt", "--m", str(m), "--value", str(v), "--mode", mode, "--out", path)
                if os.path.exists(path):
                    os.remove(path)
                key = f"{m} {v} {mode}"
                yield f"hunt {key}", _cli(*argv)
                if not os.path.exists(path):
                    continue
                yield f"document {key}", _text(Path(path).read_text())
                yield f"verify {key}", _cli("verify", path)
                yield f"verify --full-window {key}", _cli("verify", path, "--full-window")


TAMPER_BASES = ((6, 2, "a"), (15, -2, "a"), (30, 7, "c"), (1, -2, "a"), (12, 3, "c"))

# bad values for any field: other JSON types, edges of the 64-bit range,
# malformed and well-formed factor lists, and two huge primes' worth of N
BAD_VALUES = (
    "x", "1", True, False, None, 1.5, [], {}, -2, -1, 0, 1, 2, 3,
    2**63 - 1, 2**63, -(2**63), 10**40, -(10**40), 1000000000039,
    [1], [2, 3], [10000000000037], [[2]], [[2, 1]], [[2, 0]], [[1, 1]],
    [[3, 1], [2, 1]], [[2, 1], [2, 1]], [[2**63, 1]],
    [[2, 1], [3, 1], [1000000000039, 1]],
)


# documents edited in several fields at once, whose periods of 1/Phi_K no
# divisor limit stops, as (the hunted base, the edits).  With N = 6P and
# cluster primes near 10**13 that do not divide it, every divisor of N is
# low and together they make 1/Phi_6P, with P = 1,000,003 small enough to
# expand whole; with N = P * c, P near 10**12, 1 and P make 1/Phi_P
_NEAR_10_13 = [10000000000037, 10000000000051, 10000000000099, 10000000000129]
_N_6P = [[2, 1], [3, 1], [1000003, 1]]
COMPOUND_TAMPERS = (
    ((6, 2, "c"), {"primes": _NEAR_10_13[:1], "k": 15 * 10**12, "N_factors": _N_6P}),
    ((6, 2, "c"), {"primes": _NEAR_10_13, "k": 15 * 10**12, "N_factors": _N_6P}),
    ((6, 2, "a"), {"primes": [3000000000013], "k": 3000000000018,
                   "N_factors": [[1000000000039, 1], [3000000000013, 1]]}),
)


def tampers_items(quick: bool):
    from cyclocert.cli import main

    bases = TAMPER_BASES[:1] if quick else TAMPER_BASES
    values = BAD_VALUES[::4] if quick else BAD_VALUES
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "cert.json")

        def hunted(m: int, v: int, mode: str) -> dict:
            with contextlib.redirect_stdout(io.StringIO()):
                main(["hunt", "--m", str(m), "--value", str(v), "--mode", mode, "--out", path])
            base = json.loads(Path(path).read_text())
            del base["verification"]
            return base

        tampers = []
        for m, v, mode in bases:
            base = hunted(m, v, mode)
            tampers += [((m, v, mode), base, {field: value}) for field in base for value in values]
        tampers += [(spec, hunted(*spec), edits) for spec, edits in COMPOUND_TAMPERS]
        for (m, v, mode), base, edits in tampers:
            Path(path).write_text(json.dumps(dict(base, **edits)))
            key = f"{m} {v} {mode} {json.dumps(edits)}"
            yield f"verify {key}", _cli("verify", path)
            yield f"verify --full-window {key}", _cli("verify", path, "--full-window")


# CYCLO_DEGREE_BUDGET of the cli items, None for unset: scan --m 1 breaks
# 50 at n = 53 and 500 at n = 503, and scan --m 105 breaks 50 at n = 315
CLI_BUDGETS = (None, "-3", "0", "1", "7", "50", "500", "5000")
# --kmax of the scans: 23, 24 and 25 straddle half of phi(105) = 48
SCAN_KMAXES = (None, -5, -1, 0, 1, 2, 5, 11, 23, 24, 25, 60, 200, 10**6)
# the queries of the tables benchmark workload
TABLES_ARGV = (
    ("scan", "--m", "1", "--nmax", "4000"),
    ("scan", "--m", "105", "--nmax", "60"),
    ("coeff", "a", "255255", "60000"),
    ("coeff", "a", "1616615", "300000"),
    ("coeff", "c", "3003", "1500"),
    ("coeff", "c", "15015", "7000"),
)


def _cli_runs(quick: bool):
    """(argv, budget) of the cli family: scans, then coeff reads."""
    from cyclocert.arith import euler_phi, factor

    budgets = CLI_BUDGETS[::2] if quick else CLI_BUDGETS
    ms = (1, 12, 105) if quick else (1, 2, 6, 12, 30, 105, 210)
    for m in ms:
        argv = ("scan", "--m", str(m), "--nmax", str(max(10, 600 // m)))
        yield argv, None
        for kmax in SCAN_KMAXES[::3] if quick else SCAN_KMAXES:
            flags = ("--json",) if kmax is None else ("--kmax", str(kmax), "--json")
            yield from ((argv + flags, budget) for budget in budgets)
    ns = (1, 12, 105, 10**14) if quick else (-3, 0, 1, 2, 4, 12, 30, 105, 210, 729, 1155,
                                             2310, 10**14)
    for n in ns:
        # n < 1 and n = 10**14 fail under every budget, so a few small k do
        phi = euler_phi(factor(n)) if 0 < n < 10**6 else 10
        for k in sorted({-1, 0, 1, phi // 2, phi, phi + 1, 10**18}):
            for kind in "ac":
                argv = ("coeff", kind, str(n), str(k))
                yield from ((argv + ("--json",) * (k == 1), budget) for budget in budgets)
    if not quick:
        yield from ((argv, None) for argv in TABLES_ARGV)


def cli_items(quick: bool):
    for argv, budget in _cli_runs(quick):
        if budget is None:
            os.environ.pop("CYCLO_DEGREE_BUDGET", None)
        else:
            os.environ["CYCLO_DEGREE_BUDGET"] = budget
        yield f"{budget} {' '.join(argv)}", _cli(*argv)


# n whose cofactor after trial division is prime, a prime power or a
# product of large primes: 4099 is the least prime above 4096, and the last
# is 3825123056546413051, a strong pseudoprime to the bases 2..23
COFACTOR_CASES = (
    ((2147483647, 2),), ((9223372036854775783, 1),), ((3037000453, 1), (3037000493, 1)),
    ((1000000007, 1), (1000000009, 1)), ((3, 1), (4099, 3)), ((4099, 5),), ((7, 1), (65537, 3)),
    ((4099, 1), (4111, 1), (2147483647, 1)), ((149491, 1), (747451, 1), (34233211, 1)),
)
# (first value, width) of the windows whose primes make all_prime's lists
WINDOWS = ((2, 3000), (10**4, 6000), (10**6, 20000), (10**8, 40000), (10**12, 4000))
# Jaeschke's psi_2, psi_3, psi_4 and psi_7, where is_prime takes more bases
PSIS = (1_373_653, 25_326_001, 3_215_031_751, 341_550_071_728_321)


def _products(rng: Random, count: int):
    """Seeded n below 2**63: a part below 4096 times one to three primes above it."""
    from cyclocert.arith import next_prime_above
    from cyclocert.errors import MACHINE_INT_MAX

    for _ in range(count):
        n, primes = rng.randrange(1, 4096), rng.randint(1, 3)
        for i in range(primes):
            bits = (MACHINE_INT_MAX // n).bit_length() // (primes - i)
            p = next_prime_above(rng.randrange(4096, max(4097, 1 << bits)))
            for _ in range(1 + (rng.random() < 0.2)):  # some squares
                if n * p <= MACHINE_INT_MAX:
                    n *= p
        yield n


def arith_items(quick: bool):
    from cyclocert.arith import all_prime, factor, is_prime

    top, block = 1 << (12 if quick else 20), 256
    for lo in range(0, top, block):
        yield f"factor {lo}..{lo + block - 1}", _text(
            [factor(n).factors for n in range(max(lo, 1), lo + block)])
    for n in (0, -12, 2**63 - 1, 2**63):
        yield f"factor {n}", _call(factor, n)
    rng = Random(2602)
    products = [prod(p**e for p, e in case) for case in COFACTOR_CASES]
    for n in products + list(_products(rng, 20 if quick else 400)):
        yield f"factor {n}", _call(factor, n)

    lists = [[], [2], [2, 3, 5, 7, 2, 3], [0, 2, 3], [1], [4], [561, 1105, 1729], list(PSIS)]
    windows = WINDOWS[::2] if quick else WINDOWS + ((10**7, (1 << 18) + 5000),)
    for lo, width in windows:
        primes = [u for u in range(lo, lo + width) if is_prime(u)]
        composites = [u for u in range(lo, lo + width) if not is_prime(u)]
        for size in (5, 9, len(primes) // 8, len(primes)):
            values = rng.sample(primes, min(size, len(primes)))
            lists += [values, values + [rng.choice(composites)]]
            lists += [values[: size // 2] + [rng.choice(composites)] + values[size // 2 :]]
    for values in lists:
        yield f"all_prime {_text(values)}", _call(all_prime, values)

    for psi in PSIS:
        near = range(psi - 10, psi + 11) if quick else range(psi - 300, psi + 301)
        yield f"is_prime {near}", _text([u for u in near if is_prime(u)])


# truncations of the series family: T = 1 takes no step, and a division by
# 1 - x at T = 1000 or 4099 grows the bound by T, past a limb edge
SERIES_TRUNCATIONS = (1, 2, 3, 5, 8, 17, 64, 257, 1000, 4099)
# term counts q of its geometric sums, most of them cut at the truncation
SERIES_TERMS = (1, 2, 3, 4, 5, 7, 8, 16, 100, 10**9)


def _series_input(series_type, rng: Random, truncation: int, kind):
    """A series of the family: seeded, or from a list with coefficients
    near 2**kind among small ones, under an exact or a looser bound; the
    loosest, 2**63 - 1, puts 16-bit values on 64-bit limbs until a step
    tightens it."""
    if kind == "seeded":
        ds = rng.sample(range(1, truncation), min(truncation - 1, rng.randint(0, 6)))
        return series_type.seeded(truncation, [(d, rng.choice((1, -1))) for d in sorted(ds)])
    top = 1 << kind
    coeffs = [rng.choice((rng.randrange(-top, top), rng.randrange(-top, -top + 4),
                          rng.randrange(top - 4, top), rng.randrange(-8, 9)))
              for _ in range(truncation)]
    exact = max(map(abs, coeffs))
    return series_type(coeffs, rng.choice((exact, exact, 2 * exact, 3 * exact, 2**63 - 1)))


def series_items(quick: bool):
    from cyclocert.series import TruncatedSeries

    rng = Random(2602)
    truncations = SERIES_TRUNCATIONS[:8] if quick else SERIES_TRUNCATIONS
    for index in range(60 if quick else 800):
        truncation, kind = rng.choice(truncations), rng.choice(("seeded", 15, 31, 62))
        steps = []
        for _ in range(rng.randint(1, 8)):
            d = rng.choice((1, 2, 3, rng.randint(1, truncation + 1)))
            if rng.random() < 0.6:
                steps.append(("apply_one_minus_power", d, rng.choice((1, -1))))
            else:
                steps.append(("apply_geometric_sum", d, rng.choice(SERIES_TERMS)))
        start = rng.randrange(truncation)
        # a state after each step; an exception ends the run, since a
        # step that raises leaves the series unusable
        states = []
        try:
            series = _series_input(TruncatedSeries, Random(index), truncation, kind)
            for name, d, arg in steps:
                getattr(series, name)(d, arg)
                states.append((series.width, series.bound))
            states.append(series.suffix(start))
        except Exception as exc:  # an overflow is an output of the sweep
            states.append(f"{type(exc).__name__}: {exc}")
        yield f"series {index} {truncation} {kind} {steps} {start}", _text(states)


def _run_family(name: str, quick: bool) -> None:
    """Print every item of one family, one JSON line [key, output] each."""
    for key, output in globals()[f"{name}_items"](quick):
        print(json.dumps([key, output]))


def digest(lines: list[str]) -> str:
    """SHA-256 over the items' JSON lines, in order."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="root of the tree to run (default: this repository)")
    parser.add_argument("--quick", action="store_true", help="a subset of every family")
    parser.add_argument("--dump", type=Path, help="append every item here, one JSON line each")
    parser.add_argument("--child", choices=FAMILIES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _run_family(args.child, args.quick)
        return 0
    # the cli's budgets from the environment are left at their defaults
    env = {key: value for key, value in os.environ.items() if not key.startswith("CYCLO_")}
    env.update(PYTHONPATH=str(args.src.resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    for name in FAMILIES:
        command = [sys.executable, str(Path(__file__).resolve()), "--child", name]
        run = subprocess.run(command + ["--quick"] * args.quick, env=env,
                             capture_output=True, text=True, cwd=tempfile.gettempdir())
        if run.returncode:
            sys.stderr.write(run.stderr)
            return 1
        lines = run.stdout.splitlines()
        print(f"{name} {len(lines)} {digest(lines)}")
        if args.dump:
            with args.dump.open("a") as dump:
                dump.writelines(json.dumps([name, *json.loads(line)]) + "\n" for line in lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
