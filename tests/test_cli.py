import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclocert
from cyclocert.cli import (
    CertificateDocument,
    main,
    parse_document,
    serialize_document,
)
from cyclocert.errors import DocumentFormatError
from cyclocert.hunter import build_certificate, verify_certificate


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
        code, _, err = run_cli(capsys, "coeff", "a", "105", "7")
        assert code == 2
        assert "budget" in err


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

    def test_verify_malformed_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and "error" in err

    def test_verify_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2 and "error" in err


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


class TestBenchCommand:
    def test_strategies_agree(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--n", "105,1155", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [105, 1155]

    def test_prime_power_stretch_path(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--n", "3072")
        assert code == 0
        assert "3072" in out

    def test_bad_list_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--n", "10,frog"])
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
