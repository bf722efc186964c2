import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclocert
from cyclocert import cli, cyclo, hunter
from cyclocert.arith import FactoredInteger
from cyclocert.cli import (
    CertificateDocument,
    main,
    parse_document,
    serialize_document,
)
from cyclocert.cyclo import DEFAULT_DEGREE_BUDGET
from cyclocert.errors import DocumentFormatError
from cyclocert.hunter import build_certificate, verify_certificate
from oracles import cyclotomic_by_division, trial_factor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocumentFormat:
    def test_roundtrip_without_verification(self):
        cert = build_certificate(15, -2, "c")
        document = CertificateDocument(cert)
        assert parse_document(serialize_document(document)) == document

    def test_roundtrip_with_verification(self):
        cert = build_certificate(6, 5, "a")
        document = CertificateDocument(cert, verify_certificate(cert))
        again = parse_document(serialize_document(document))
        assert again == document
        assert serialize_document(again) == serialize_document(document)

    def test_unknown_field_rejected(self):
        cert = build_certificate(3, 2, "a")
        data = json.loads(serialize_document(CertificateDocument(cert)))
        data["comment"] = "sneaky"
        with pytest.raises(DocumentFormatError):
            parse_document(json.dumps(data))

    def test_missing_field_rejected(self):
        cert = build_certificate(3, 2, "a")
        data = json.loads(serialize_document(CertificateDocument(cert)))
        del data["truncation"]
        with pytest.raises(DocumentFormatError):
            parse_document(json.dumps(data))

    def test_type_errors_rejected(self):
        cert = build_certificate(3, 2, "a")
        base = json.loads(serialize_document(CertificateDocument(cert)))
        for key, value in (
            ("mode", "x"),
            ("m", "3"),
            ("mu_kernel", 0),
            ("primes", []),
            ("N_factors", [[31, 0]]),
            ("schema_version", "2"),
        ):
            data = dict(base)
            data[key] = value
            with pytest.raises(DocumentFormatError):
                parse_document(json.dumps(data))

    def test_not_json(self):
        with pytest.raises(DocumentFormatError):
            parse_document("certificate: yes")


class TestCoeffCommand:
    def test_a_coefficient(self, capsys):
        code, out, _ = run_cli(capsys, "coeff", "a", "105", "7")
        assert code == 0 and out.strip() == "-2"

    def test_c_coefficient(self, capsys):
        code, out, _ = run_cli(capsys, "coeff", "c", "1", "12345")
        assert code == 0 and out.strip() == "-1"

    def test_a_hexagonal(self, capsys):
        code, out, _ = run_cli(capsys, "coeff", "a", "6", "1")
        assert code == 0 and out.strip() == "-1"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "coeff", "a", "6", "1", "--json")
        assert code == 0
        assert json.loads(out) == {"kind": "a", "n": 6, "k": 1, "value": -1}

    def test_budget_exceeded_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", "10")
        assert run_cli(capsys, "coeff", "a", "105", "7") == (
            2, "", "error: phi(105) exceeds degree budget 10\n"
        )

    def test_budget_rejects_large_n_unfactored(self, capsys, monkeypatch):
        # phi(n) >= sqrt(n/2), so n > 2 * 10**2 cannot fit a budget of 10
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", "10")
        assert run_cli(capsys, "coeff", "a", "201", "7") == (
            2, "", "error: phi(201) certainly exceeds budget 10\n"
        )


class TestHuntAndVerify:
    def test_hunt_writes_passing_document(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "hunt", "--m", "3", "--value", "2", "--mode", "a",
                             "--out", str(out_path))
        assert code == 0
        document = parse_document(out_path.read_text())
        assert document.certificate.N.value() == 3 * 31 * 37 * 43
        assert document.certificate.k_kernel == 43
        assert document.verification is not None and document.verification.passed

    def test_hunt_stdout_and_verify_roundtrip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "hunt", "--m", "15", "--value", "-2", "--mode", "c")
        assert code == 0
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out2, _ = run_cli(capsys, "verify", str(path), "--full-window")
        assert code == 0
        report = json.loads(out2)
        assert report["pass"] and report["window_checked"]
        assert report["computed_value"] == -2

    def test_hunt_delegates_m_one(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "hunt", "--m", "1", "--value", "0", "--mode", "a",
                             "--out", str(out_path))
        assert code == 0
        document = parse_document(out_path.read_text())
        assert document.certificate.m_original == 1
        assert document.certificate.plan.kernel == 2

    def test_hunt_custom_ratio(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "hunt", "--m", "3", "--value", "2", "--mode", "a",
                             "--ratio", "9/5", "--out", str(out_path))
        assert code == 0
        document = parse_document(out_path.read_text())
        assert (document.certificate.ratio_num, document.certificate.ratio_den) == (9, 5)

    def test_bad_ratio_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["hunt", "--m", "3", "--value", "2", "--mode", "a", "--ratio", "2/1"])
        assert info.value.code == 2

    def test_hunt_scan_ceiling_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLO_SCAN_CEILING", "10")
        code, _, err = run_cli(capsys, "hunt", "--m", "15", "--value", "-2", "--mode", "a")
        assert code == 2
        assert "cluster" in err

    def test_verify_tampered_value(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "3", "--value", "2", "--mode", "a", "--out", str(path))
        data = json.loads(path.read_text())
        data["v"] = -2
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        report = json.loads(out)
        assert "value-mismatch" in report["reasons"]
        assert report["computed_value"] == 2

    @pytest.mark.parametrize("mode", ["a", "c"])
    def test_thousand_prime_certificate(self, capsys, tmp_path, mode):
        # N has over 1,000 prime factors and the truncation is 221,462
        path = tmp_path / "cert.json"
        code, _, err = run_cli(capsys, "hunt", "--m", "30", "--value", "1000", "--mode", mode,
                               "--out", str(path))
        assert code == 0, err
        code, out, _ = run_cli(capsys, "verify", str(path), "--full-window")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] and report["window_checked"]
        assert report["computed_value"] == 1000

    @pytest.mark.parametrize("mode", ["a", "c"])
    def test_full_window_rejects_tampered_index_and_window(self, capsys, tmp_path, mode):
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "30", "--value", "300", "--mode", mode, "--out", str(path))
        original = json.loads(path.read_text())
        p_last = original["primes"][-1]
        for field, value, reason in (
            ("k", original["k"] + 1, "value-mismatch"),
            ("k", p_last - 1, "value-mismatch"),
            ("t", original["t"] + 1, "window-mismatch"),
        ):
            data = dict(original, **{field: value})
            if field == "k":
                data["k_lifted"] = value
            path.write_text(json.dumps(data))
            code, out, _ = run_cli(capsys, "verify", str(path), "--full-window")
            assert code == 1
            report = json.loads(out)
            assert reason in report["reasons"], (field, value, report)
            if field == "k":
                assert report["computed_value"] not in (None, 300)

    @pytest.mark.parametrize("mode", ["a", "c"])
    def test_verify_rejects_tampered_lift(self, capsys, tmp_path, monkeypatch, mode):
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "12", "--value", "-3", "--mode", mode, "--out", str(path))
        original = json.loads(path.read_text())
        assert original["stretch"] == 2
        extra_prime = sorted(original["N_lifted_factors"] + [[5, 1]])
        # trial division of this prime stretch would run for hours: a stretch
        # other than m // rad(m) must be rejected without factoring it
        hostile = 9223372036854775783
        factor = hunter.factor

        def guarded(n):
            if n == hostile:
                raise AssertionError("the document's stretch was factored")
            return factor(n)

        monkeypatch.setattr(hunter, "factor", guarded)
        for field, value in (
            ("stretch", 1),
            ("stretch", 3),
            ("stretch", hostile),
            ("N_lifted_factors", original["N_factors"]),
            ("N_lifted_factors", extra_prime),
            ("k_lifted", original["k_lifted"] + 1),
        ):
            path.write_text(json.dumps(dict(original, **{field: value})))
            code, out, err = run_cli(capsys, "verify", str(path), "--full-window")
            assert (code, err) == (1, ""), (field, value, err)
            assert json.loads(out)["reasons"] == ["lift"], (field, value)

    def test_verify_malformed_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and "error" in err

    def test_verify_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2 and "error" in err

    def test_verify_deeply_nested_document_exits_2(self, capsys, tmp_path):
        # deep enough that json.loads gives up with a RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err


def _record_expansions(monkeypatch) -> list[int]:
    """The n whose Phi_n scan expands, in order, from here on."""
    expanded: list[int] = []
    build = cli.phi_poly

    def recorded(n, **kwargs):
        expanded.append(n)
        return build(n, **kwargs)

    monkeypatch.setattr(cli, "phi_poly", recorded)
    return expanded


class TestScanCommand:
    def test_small_even_scan(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--m", "2", "--nmax", "3", "--json")
        assert code == 0
        rows = json.loads(out)
        assert {row["value"] for row in rows} == {-1, 0, 1}

    def test_first_occurrences_scan(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--m", "1", "--nmax", "105", "--json")
        assert code == 0
        rows = {row["value"]: (row["n"], row["k"]) for row in json.loads(out)}
        assert rows[-2] == (105, 7)
        assert rows[1] == (1, 1)
        assert rows[-1] == (1, 0)
        assert set(rows) == {-2, -1, 0, 1}

    def test_kmax_limits_columns(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--m", "1", "--nmax", "10", "--kmax", "0", "--json")
        assert code == 0
        rows = json.loads(out)
        assert {row["k"] for row in rows} == {0}

    def test_human_table(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--m", "2", "--nmax", "3")
        assert code == 0
        assert out.splitlines()[0].split() == ["value", "n", "k"]

    def test_degree_budget_counts_the_stretch(self, capsys, monkeypatch):
        # Phi_12(x) = Phi_6(x**2): degree 4, twice the kernel's
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", "4")
        assert run_cli(capsys, "scan", "--m", "12", "--nmax", "1")[0] == 0
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", "3")
        code, _, err = run_cli(capsys, "scan", "--m", "12", "--nmax", "1")
        assert code == 2 and "budget" in err

    @pytest.mark.parametrize(
        "budget, m",
        [
            # 2**21 = 2 * 2**20: the stretch alone exceeds the default budget
            (DEFAULT_DEGREE_BUDGET, 2097152),
            # phi(12) = 4 > 3, while phi(6) = 2 exceeds only budget // 2 = 1
            (3, 12),
        ],
    )
    def test_budget_excess_is_reported_for_n(self, capsys, monkeypatch, budget, m):
        # the same message as `coeff a m k`, not one about the kernel
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", str(budget))
        code, _, err = run_cli(capsys, "scan", "--m", str(m), "--nmax", "1")
        assert code == 2
        assert err == f"error: phi({m}) exceeds degree budget {budget}\n"
        assert run_cli(capsys, "coeff", "a", str(m), "1") == (2, "", err)

    @pytest.mark.parametrize("budget", [0, -3, 3, 10**6])
    @pytest.mark.parametrize("m", [0, 1, 12, 13, 4611686014132420609])
    def test_budget_errors_match_coeff_a(self, capsys, monkeypatch, budget, m):
        # scan checks each n with the checks of phi_poly and a_coeff
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", str(budget))
        code, _, err = run_cli(capsys, "scan", "--m", str(m), "--nmax", "1")
        assert run_cli(capsys, "coeff", "a", str(m), "0")[::2] == (code, err)

    def test_only_squarefree_polynomials_are_cached(self, monkeypatch, capsys):
        # Phi_n for a non-squarefree n is Phi_rad(n) stretched, never cached
        built = []
        cached = cyclo._phi_poly_cached

        def recorded(fac):
            built.append(fac)
            return cached(fac)

        cached.cache_clear()
        monkeypatch.setattr(cyclo, "_phi_poly_cached", recorded)
        assert run_cli(capsys, "scan", "--m", "12", "--nmax", "20")[0] == 0
        assert built and all(e == 1 for fac in built for _, e in fac.factors)

    def test_first_occurrences_match_long_division(self, capsys):
        first_seen: dict[int, tuple[int, int]] = {}
        for n in range(12, 12 * 20 + 1, 12):
            for k, value in enumerate(cyclotomic_by_division(n)):
                first_seen.setdefault(value, (n, k))
        expected = [{"value": v, "n": n, "k": k} for v, (n, k) in sorted(first_seen.items())]
        code, out, _ = run_cli(capsys, "scan", "--m", "12", "--nmax", "20", "--json")
        assert code == 0
        assert json.loads(out) == expected

    @pytest.mark.parametrize(
        "m, nmax", [(1, 300), (2, 150), (4, 80), (6, 60), (12, 30), (30, 12), (105, 6)]
    )
    @pytest.mark.parametrize("kmax", [None, -2, 0, 1, 3, 40])
    def test_skipped_n_add_no_value(self, capsys, m, nmax, kmax):
        # scan expands only the n that can add a value; the rows are those
        # of every Phi_{m*j}, j <= nmax, cut after kmax
        first_seen: dict[int, tuple[int, int]] = {}
        for n in range(m, m * nmax + 1, m):
            coeffs = cyclotomic_by_division(n)
            if kmax is not None:
                coeffs = coeffs[: max(0, kmax + 1)]
            for k, value in enumerate(coeffs):
                first_seen.setdefault(value, (n, k))
        expected = [{"value": v, "n": n, "k": k} for v, (n, k) in sorted(first_seen.items())]
        argv = ["scan", "--m", str(m), "--nmax", str(nmax), "--json"]
        if kmax is not None:
            argv += ["--kmax", str(kmax)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out) == expected

    def test_only_n_whose_height_bound_leaves_a_value_unseen_expand(
        self, capsys, monkeypatch
    ):
        expanded = _record_expansions(monkeypatch)
        assert run_cli(capsys, "scan", "--m", "1", "--nmax", "4000")[0] == 0
        # n expands while a value its height bound admits is unseen: 1 for at
        # most two odd primes, q1 - ceil(q1/4) for three, no bound for more;
        # once 0 is seen, a non-squarefree n never expands
        seen: set[int] = set()
        expected = []
        for n in range(1, 4001):
            factors = trial_factor(n)
            odd = [p for p, _ in factors if p > 2]
            if len(odd) <= 3:
                bound = odd[0] - -(-odd[0] // 4) if len(odd) == 3 else 1
                if set(range(-bound, bound + 1)) <= seen:
                    continue
            if 0 in seen and any(e > 1 for _, e in factors):
                continue
            expected.append(n)
            seen.update(cyclo.phi_poly(n).coeffs)
        assert expanded == expected
        assert len(expanded) == 41

    def test_kmax_zero_expands_no_full_polynomial(self, capsys, monkeypatch):
        # a(n, 0) = +-1, so no skip rule fires under --kmax 0; still, no n
        # may cost a full Phi_rad for its first coefficient
        expanded = []
        half = cyclo._half_product

        def counted(fac, degree, exponent):
            expanded.append(fac.value())
            return half(fac, degree, exponent)

        monkeypatch.setattr(cyclo, "_half_product", counted)
        cyclo._phi_poly_cached.cache_clear()
        argv = ["scan", "--m", "1", "--nmax", "4000", "--kmax", "0", "--json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out) == [{"value": -1, "n": 1, "k": 0}, {"value": 1, "n": 2, "k": 0}]
        assert expanded == []

    def test_height_bound_against_long_division(self):
        # no n <= 700 has four odd primes: the least such n is 1155
        for n in range(1, 701):
            bound = cli._height_bound(FactoredInteger(tuple(trial_factor(n))))
            assert max(map(abs, cyclotomic_by_division(n))) <= bound, n

    def test_height_bound_against_phi_poly(self):
        for n in range(701, 6001):
            factors = trial_factor(n)
            bound = cli._height_bound(FactoredInteger(tuple(factors)))
            odd = [p for p, _ in factors if p > 2]
            if len(odd) > 3:
                assert bound is None, n
            elif len(odd) == 3:
                assert max(map(abs, cyclo.phi_poly(n).coeffs)) <= bound, n

    @pytest.mark.parametrize("m, nmax", [(1, 1500), (2, 800), (3, 600), (6, 400), (15, 120)])
    @pytest.mark.parametrize("kmax", [None, 0, 40])
    def test_rows_match_every_n_expanded(self, capsys, m, nmax, kmax):
        # too far for long division, so every n goes through phi_poly, which
        # test_cyclo pins to it; m = 1 reaches -3 at n = 385 and -4 at 1365
        first_seen: dict[int, tuple[int, int]] = {}
        for n in range(m, m * nmax + 1, m):
            coeffs = cyclo.phi_poly(n).coeffs
            if kmax is not None:
                coeffs = coeffs[: kmax + 1]
            for k, value in enumerate(coeffs):
                first_seen.setdefault(value, (n, k))
        expected = [{"value": v, "n": n, "k": k} for v, (n, k) in sorted(first_seen.items())]
        argv = ["scan", "--m", str(m), "--nmax", str(nmax), "--json"]
        if kmax is not None:
            argv += ["--kmax", str(kmax)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out) == expected

    @pytest.mark.parametrize(
        "m, budget, n",
        [
            # 13 is prime: -1, 0 and 1 are seen by then, so it adds nothing
            (1, 10, 13),
            # 60 = 2 * 30: rad(60) = 30 was scanned, and Phi_30 holds a 0
            (30, 8, 60),
        ],
    )
    def test_budget_is_checked_before_the_skip(self, capsys, monkeypatch, m, budget, n):
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", str(budget))
        code, out, err = run_cli(capsys, "scan", "--m", str(m), "--nmax", str(n // m))
        assert (code, out, err) == (2, "", f"error: phi({n}) exceeds degree budget {budget}\n")
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", str(10**6))
        expanded = _record_expansions(monkeypatch)
        assert run_cli(capsys, "scan", "--m", str(m), "--nmax", str(n // m))[0] == 0
        assert n not in expanded

    def test_huge_prime_modulus_rejected_before_factoring(self, capsys):
        # trial division of this 63-bit prime would take minutes
        code, _, err = run_cli(capsys, "scan", "--m", "9223372036854775783", "--nmax", "1")
        assert code == 2 and "budget" in err


def test_bench_is_not_a_command():
    with pytest.raises(SystemExit) as info:
        main(["bench", "--n", "105"])
    assert info.value.code == 2


def fresh_process_env() -> dict[str, str]:
    """The environment for a child `python -m cyclocert`: it must import the
    same package as this test, also when only pytest's pythonpath put it on
    sys.path."""
    src = str(Path(cyclocert.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}


class TestFreshProcess:
    def test_hunt_then_verify_in_subprocesses(self, tmp_path):
        path = tmp_path / "cert.json"
        hunt = subprocess.run(
            [sys.executable, "-m", "cyclocert", "hunt", "--m", "12", "--value", "-4",
             "--mode", "c", "--out", str(path)],
            capture_output=True, text=True, env=fresh_process_env(),
        )
        assert hunt.returncode == 0, hunt.stderr
        verify = subprocess.run(
            [sys.executable, "-m", "cyclocert", "verify", str(path), "--full-window"],
            capture_output=True, text=True, env=fresh_process_env(),
        )
        assert verify.returncode == 0, verify.stderr
        assert json.loads(verify.stdout)["pass"] is True

    def test_deterministic_output(self, tmp_path):
        texts = []
        for name in ("one.json", "two.json"):
            path = tmp_path / name
            run = subprocess.run(
                [sys.executable, "-m", "cyclocert", "hunt", "--m", "6", "--value", "5",
                 "--mode", "a", "--out", str(path)],
                capture_output=True, text=True, env=fresh_process_env(),
            )
            assert run.returncode == 0, run.stderr
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("field", ["m", "kernel", None])
    def test_huge_primes_are_factored_in_time(self, capsys, tmp_path, field):
        # trial division of either number runs for hours: verify factors the
        # document's m, then its kernel, and hunt factors m = (2**31 - 1)**2
        prime = 9223372036854775783
        if field is None:
            argv = ["hunt", "--m", "4611686014132420609", "--value", "2", "--mode", "a"]
            expected_code = 2
        else:
            path = tmp_path / "cert.json"
            run_cli(capsys, "hunt", "--m", "6", "--value", "2", "--mode", "a", "--out", str(path))
            data = json.loads(path.read_text())
            path.write_text(json.dumps(dict(data, **{field: prime})))
            argv = ["verify", str(path)]
            expected_code = 1
        run = subprocess.run(
            [sys.executable, "-m", "cyclocert", *argv],
            capture_output=True, text=True, env=fresh_process_env(), timeout=10,
        )
        assert run.returncode == expected_code, run.stderr
        assert "Traceback" not in run.stderr
        if field is not None:
            assert json.loads(run.stdout)["pass"] is False

    def test_huge_dense_truncation_reports_budget(self, capsys, tmp_path):
        # N keeps the old cluster primes, low divisors outside the kernel, so
        # the product takes the dense route at truncation k + 1 > 10**12: the
        # budget must stop it before anything of that size is allocated
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "6", "--value", "2", "--mode", "a", "--out", str(path))
        prime = 1000000000039  # the least prime = 1 (mod 6) above 10**12
        data = json.loads(path.read_text())
        data.update(primes=[prime], t=1, k=prime, cluster_n=prime - 1)
        path.write_text(json.dumps(data))
        run = subprocess.run(
            [sys.executable, "-c", VERIFY_UNDER_ADDRESS_LIMIT, str(path)],
            capture_output=True, text=True, env=fresh_process_env(), timeout=60,
        )
        assert run.returncode == 1, run.stderr
        assert "Traceback" not in run.stderr
        report = json.loads(run.stdout)
        assert report["pass"] is False
        assert "budget" in report["reasons"]
        assert report["computed_value"] is None


# `verify` under the address-space limit of `ulimit -v 2000000`
VERIFY_UNDER_ADDRESS_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2000000 * 1024, 2000000 * 1024))
from cyclocert.cli import main
sys.exit(main(["verify", sys.argv[1]]))
"""
