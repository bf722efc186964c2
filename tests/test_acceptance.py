"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  All checks are exact integer equalities; the only tolerances are
the stated wall-clock budgets, asserted at the end of each criterion.
"""

import json
import random
import time
from contextlib import contextmanager

from cyclocert.arith import FactoredInteger, euler_phi, factor
from cyclocert.cli import main, parse_document
from cyclocert.cyclo import (
    a_coeff,
    c_coeff,
    c_table,
    inverse_phi_truncated,
    phi_poly,
    phi_truncated,
)
from cyclocert.hunter import build_certificate

from oracles import (
    cyclotomic_by_division,
    geometric_series,
    invert_series,
    mul_series,
    poly_mul,
)


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.1f}s", flush=True)


def test_criterion_1_certificate_grid(tmp_path):
    """Every m in 1..30 and v in -10..10, both modes: hunt, then an
    independent full-window verify, through the CLI surface."""
    with criterion(1, "certificate grid"):
        started = time.perf_counter()
        path = tmp_path / "grid-cert.json"
        for m in range(1, 31):
            for v in range(-10, 11):
                for mode in ("a", "c"):
                    code = main([
                        "hunt", "--m", str(m), "--value", str(v), "--mode", mode,
                        "--out", str(path),
                    ])
                    assert code == 0, (m, v, mode, "hunt failed")
                    code = main(["verify", str(path), "--full-window"])
                    assert code == 0, (m, v, mode, "verification failed")
                    document = parse_document(path.read_text())
                    assert document.certificate.m_original == m
                    assert document.certificate.v == v
        assert time.perf_counter() - started < 300


def test_criterion_2_worked_instance():
    """m=3, v=2, mode a: primes (31, 37, 43), k=43, coefficient 2, checked
    against a from-scratch expansion of the divisor product mod x**86."""
    with criterion(2, "worked instance m=3 v=2"):
        cert = build_certificate(3, 2, "a")
        assert cert.cluster.primes == (31, 37, 43)
        assert cert.k_kernel == 43
        assert cert.plan.t == 3
        assert cert.plan.predicted_value == -1 + cert.plan.t == 2

        # independent oracle: (1-x) / ((1-x^3)(1-x^31)(1-x^37)(1-x^43)) mod x^86
        order = 86
        expansion = mul_series([1], [1, -1], order)
        for d in (3, 31, 37, 43):
            expansion = mul_series(expansion, geometric_series(d, order), order)
        assert expansion[43] == 2

        computed = phi_truncated(cert.N, cert.truncation)
        assert computed[43] == 2
        assert list(computed) == expansion[: cert.truncation]


def test_criterion_3_height_bounds():
    """max |a(n, k)| <= 1 for 1 < n < 105 with first violation -2 at n=105;
    max |c(n, k)| <= 1 over k <= 5n for all n < 561."""
    with criterion(3, "height bounds"):
        started = time.perf_counter()
        for n in range(2, 105):
            assert max(abs(v) for v in phi_poly(n).coeffs) <= 1, n
        coeffs_105 = phi_poly(105).coeffs
        assert max(abs(v) for v in coeffs_105) == 2
        assert -2 in coeffs_105
        assert a_coeff(105, 7) == -2

        for n in range(1, 561):
            table = c_table(n)
            for k in range(5 * n + 1):
                assert abs(table.lookup(k)) <= 1, (n, k)
        assert time.perf_counter() - started < 120


def test_criterion_4_identity_suites():
    """Product identity to n=300, self-reciprocality to 500, stretching to
    500, periodicity plus the tail-zero window to 200."""
    with criterion(4, "identity suites"):
        started = time.perf_counter()
        for n in range(1, 301):
            product = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    product = poly_mul(product, list(phi_poly(d).coeffs))
            assert product == [-1] + [0] * (n - 1) + [1], n
        first = time.perf_counter()
        assert first - started < 60

        for n in range(2, 501):
            coeffs = phi_poly(n).coeffs
            assert coeffs == coeffs[::-1], n
        second = time.perf_counter()
        assert second - first < 60

        for n in range(2, 501):
            for p, _ in factor(n).factors:
                if p * n > 500:
                    continue
                base = phi_poly(n).coeffs
                expected = [0] * ((len(base) - 1) * p + 1)
                for i, coefficient in enumerate(base):
                    expected[i * p] = coefficient
                assert list(phi_poly(p * n).coeffs) == expected, (p, n)
        third = time.perf_counter()
        assert third - second < 60

        for n in range(1, 201):
            oracle = invert_series(list(phi_poly(n).coeffs), 6 * n + 1)
            for k in range(5 * n + 1):
                assert oracle[k] == c_coeff(n, k), (n, k)
                assert oracle[k] == oracle[k + n] == c_coeff(n, k + n), (n, k)
            period = c_table(n).period
            tail_start = n - euler_phi(factor(n))
            for j in range(tail_start + 1, n):
                assert period[j] == 0, (n, j)
        assert time.perf_counter() - third < 60


def test_criterion_5_oracle_equivalence():
    """The Mobius-product polynomials equal long division of x**n - 1 by the
    proper-divisor product for n <= 300; forward and inverse truncated
    products multiply to 1 on 50 randomized factored N."""
    with criterion(5, "oracle equivalence"):
        started = time.perf_counter()
        for n in range(1, 301):
            assert phi_poly(n).coeffs == tuple(cyclotomic_by_division(n)), n

        rng = random.Random(561)
        small_primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
        for _ in range(50):
            chosen = sorted(rng.sample(small_primes, rng.randint(3, 5)))
            n = FactoredInteger(tuple((p, 1) for p in chosen))
            truncation = rng.randint(2, 128)
            forward = phi_truncated(n, truncation)
            backward = inverse_phi_truncated(n, truncation)
            product = mul_series(forward, backward, truncation)
            assert product == [1] + [0] * (truncation - 1)
        assert time.perf_counter() - started < 60


def test_criterion_6_adversarial_verification(tmp_path, monkeypatch):
    """Mutated certificate documents are rejected with the matching reason."""
    with criterion(6, "adversarial verification"):
        base_path = tmp_path / "base.json"
        code = main(["hunt", "--m", "15", "--value", "-2", "--mode", "a",
                     "--out", str(base_path)])
        assert code == 0
        base = json.loads(base_path.read_text())
        assert base["q"] is not None, "mutation set expects a certificate carrying q"
        # positive control first
        assert main(["verify", str(base_path), "--full-window"]) == 0

        def mutate(name, **changes):
            data = json.loads(base_path.read_text())
            data.update(changes)
            data.pop("verification", None)
            mutated = tmp_path / f"mutated-{name}.json"
            mutated.write_text(json.dumps(data))
            return mutated

        def n_factors(*entries):
            return [[p, e] for p, e in sorted(entries)]

        kernel_entries = ((3, 1), (5, 1))
        p1, p2 = base["primes"]
        q = base["q"]

        cases = [
            ("value-mismatch", mutate("value", v=5)),
            (
                "primality",  # 121 = 11*11 is 1 mod 15, so only primality breaks
                mutate(
                    "primality",
                    primes=[121, p2],
                    N_factors=n_factors(*kernel_entries, (121, 1), (p2, 1), (q, 1)),
                    N_lifted_factors=n_factors(*kernel_entries, (121, 1), (p2, 1), (q, 1)),
                ),
            ),
            (
                "q-bound",  # 199 is prime but not above 2 * p1
                mutate(
                    "q-bound",
                    q=199,
                    N_factors=n_factors(*kernel_entries, (p1, 1), (p2, 1), (199, 1)),
                    N_lifted_factors=n_factors(*kernel_entries, (p1, 1), (p2, 1), (199, 1)),
                ),
            ),
            (
                "congruence",  # 149 is prime and in the interval, but 149 = 14 mod 15
                mutate(
                    "congruence",
                    primes=[149, p2],
                    N_factors=n_factors(*kernel_entries, (149, 1), (p2, 1), (q, 1)),
                    N_lifted_factors=n_factors(*kernel_entries, (149, 1), (p2, 1), (q, 1)),
                ),
            ),
            ("window", mutate("window", k=base["truncation"], k_lifted=base["truncation"])),
        ]
        for expected_reason, path in cases:
            code, report = _verify_and_capture(path)
            assert code == 1, expected_reason
            assert expected_reason in report["reasons"], (expected_reason, report["reasons"])

        # the whole reason list, for the codes the cases above never raise;
        # no small document reaches "overflow", which the series tests cover
        assert (p1, p2, q) == (151, 181, 307)
        exact_cases = [
            (["kernel", "composition", "plan"], mutate("kernel", kernel=5)),
            (["kernel", "plan"], mutate("mu-kernel", mu_kernel=-1)),
            (["ratio"], mutate("ratio", ratio_num=2, ratio_den=1)),
            (["plan"], mutate("delta", delta=3)),
            (["primality", "composition"], mutate("q-composite", q=303)),  # 303 = 3*101
            (
                ["q-bound", "coprimality", "lift", "value-mismatch"],
                mutate("q-in-kernel", q=5, N_factors=n_factors((3, 1), (5, 2), (p1, 1), (p2, 1))),
            ),
        ]
        for expected_reasons, path in exact_cases:
            code, report = _verify_and_capture(path)
            assert (code, report["reasons"]) == (1, expected_reasons), path.name

        # the plan check's table of c(kernel, .) is over the degree budget
        untouched = mutate("untouched")
        code, report = _verify_and_capture(untouched)
        assert (code, report["reasons"]) == (0, [])
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", "10")
        code, report = _verify_and_capture(untouched)
        assert (code, report["reasons"]) == (1, ["plan"])


def test_overflow_reason_end_to_end(tmp_path, capsys):
    """A document whose N overflows the expansion is refused with "overflow".

    The hunted m = 6 document gets m = N = 3*5*7*11*23*29*31*37*43*47, k =
    107293 and one cluster prime 53717.  With ten primes in m the divisor
    cap 2**10 + 1 admits N's divisors below the truncation (with m = 6 the
    read stops at 5 of them, as "budget"), so the dense route expands them
    and a partial product leaves the 64-bit range.  That is a refusal of a
    partial product, not of a returned coefficient: should the dense route
    come to check only the coefficients it returns, this document must be
    replaced by one whose read coefficients overflow.
    """
    assert main(["hunt", "--m", "6", "--value", "2", "--mode", "c"]) == 0
    data = json.loads(capsys.readouterr().out)
    del data["verification"]
    primes = [3, 5, 7, 11, 23, 29, 31, 37, 43, 47]
    m = 1
    for p in primes:
        m *= p
    assert m == 1785819453495
    data.update(m=m, N_factors=[[p, 1] for p in primes], k=107293, primes=[53717])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    for extra in ([], ["--full-window"]):
        assert main(["verify", str(path), *extra]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["pass"]
        assert "overflow" in report["reasons"], (extra, report["reasons"])


def _verify_and_capture(path):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["verify", str(path)])
    return code, json.loads(buffer.getvalue())
