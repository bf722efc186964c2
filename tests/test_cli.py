import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cyclocert
from cyclocert import cli, cyclo, hunter
from cyclocert.arith import FactoredInteger, next_prime_above
from cyclocert.cli import (
    CertificateDocument,
    main,
    parse_document,
    serialize_document,
)
from cyclocert.cyclo import DEFAULT_DEGREE_BUDGET
from cyclocert.errors import MACHINE_INT_MAX, DocumentFormatError
from cyclocert.hunter import VerificationReport, build_certificate, verify_certificate
from oracles import (
    cyclotomic_by_division,
    first_over_budget,
    report_fields,
    scan_by_factoring,
    serialize_document_by_dumps,
    trial_factor,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_INT64 = st.integers(-MACHINE_INT_MAX, MACHINE_INT_MAX)


def _bounded(lo: int) -> st.SearchStrategy[int]:
    return st.integers(lo, MACHINE_INT_MAX)


def _factor_lists() -> st.SearchStrategy[list[list[int]]]:
    return st.lists(
        st.tuples(_bounded(2), _bounded(1)), min_size=1, max_size=6, unique_by=lambda pe: pe[0]
    ).map(lambda pairs: [list(pair) for pair in sorted(pairs)])


@st.composite
def document_fields(draw) -> dict:
    """The fields of any document parse_document accepts, in schema order;
    the values need not make a valid certificate."""
    fields = {
        "schema_version": "1",
        "mode": draw(st.sampled_from("ac")),
        "m": draw(st.one_of(st.just(1), _bounded(1))),
        "v": draw(st.one_of(_INT64, st.integers(-(10**40), 0))),
        "kernel": draw(_bounded(2)),
        "mu_kernel": draw(st.sampled_from((-1, 1))),
        "t": draw(_bounded(1)),
        "delta": draw(_bounded(0)),
        "cluster_n": draw(_bounded(1)),
        "primes": draw(st.lists(_bounded(2), min_size=1, max_size=6)),
        "q": draw(st.one_of(st.none(), _bounded(2))),
        "N_factors": draw(_factor_lists()),
        "k": draw(_bounded(0)),
        "stretch": draw(st.one_of(st.just(1), _bounded(2))),
        "N_lifted_factors": draw(_factor_lists()),
        "k_lifted": draw(_bounded(0)),
        "truncation": draw(_bounded(1)),
        "ratio_num": draw(_bounded(1)),
        "ratio_den": draw(_bounded(1)),
    }
    if draw(st.booleans()):
        fields["verification"] = {
            "pass": draw(st.booleans()),
            "computed_value": draw(st.one_of(st.none(), _INT64)),
            "window_checked": draw(st.booleans()),
            "reasons": draw(st.lists(st.text(max_size=12), max_size=4)),
        }
    return fields


@lru_cache(maxsize=None)
def _pinned_text() -> str:
    """A hunted document, with its report, whose fields the message tests
    replace one at a time."""
    cert = build_certificate(6, 2, "a")
    return serialize_document(CertificateDocument(cert, verify_certificate(cert)))


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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            *[
                case
                for key, least in (
                    ("m", 1), ("kernel", 2), ("t", 1), ("delta", 0), ("cluster_n", 1),
                    ("k", 0), ("stretch", 1), ("k_lifted", 0), ("truncation", 1),
                    ("ratio_num", 1), ("ratio_den", 1),
                )
                for case in (
                    (key, "x", f"field '{key}' must be an integer"),
                    (key, True, f"field '{key}' must be an integer"),
                    (key, least - 1, f"field '{key}' must be >= {least}, got {least - 1}"),
                    (key, 2**63, f"field '{key}' exceeds the 64-bit range"),
                )
            ],
            ("v", "x", "field 'v' must be an integer"),
            ("v", False, "field 'v' must be an integer"),
            ("schema_version", "2", "unsupported schema_version '2'"),
            ("mode", "b", "mode must be 'a' or 'c', got 'b'"),
            ("mu_kernel", "x", "field 'mu_kernel' must be an integer"),
            ("mu_kernel", 2**63, "field 'mu_kernel' exceeds the 64-bit range"),
            ("mu_kernel", 0, "mu_kernel must be -1 or +1, got 0"),
            *[
                ("primes", value, "field 'primes' must be a non-empty list of integers >= 2")
                for value in ([], [1], "x")
            ],
            ("q", 1, "field 'q' must be null or an integer >= 2"),
            ("q", "x", "field 'q' must be null or an integer >= 2"),
            *[
                case
                for key in ("N_factors", "N_lifted_factors")
                for case in (
                    (key, [], f"field '{key}' must be a non-empty list of [prime, exponent]"),
                    (key, [[2, 0]], f"field '{key}' entries must be [prime, exponent] pairs"),
                    (
                        key,
                        [[3, 1], [2, 1]],
                        f"field '{key}': prime entries must be strictly increasing, got 2 after 3",
                    ),
                )
            ],
        ],
    )
    def test_each_field_has_its_own_message(self, key, value, message):
        data = json.loads(_pinned_text())
        data[key] = value
        with pytest.raises(DocumentFormatError) as info:
            parse_document(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data.pop("truncation"), "missing fields: ['truncation']"),
            (lambda data: data.update(comment="x"), "unknown fields: ['comment']"),
            (
                lambda data: data["verification"].pop("reasons"),
                "missing verification fields: ['reasons']",
            ),
            (
                lambda data: data["verification"].update(note="x"),
                "unknown verification fields: ['note']",
            ),
            (
                lambda data: data["verification"].update(computed_value="2"),
                "verification 'computed_value' must be an integer or null",
            ),
        ],
    )
    def test_key_set_messages(self, edit, message):
        data = json.loads(_pinned_text())
        edit(data)
        with pytest.raises(DocumentFormatError) as info:
            parse_document(json.dumps(data))
        assert str(info.value) == message

    def test_not_json(self):
        with pytest.raises(DocumentFormatError):
            parse_document("certificate: yes")
        with pytest.raises(DocumentFormatError, match="document must be a JSON object"):
            parse_document("[]")

    def test_integer_past_the_digit_limit_is_a_format_error(self):
        # json.loads raises a plain ValueError for an int literal this long
        with pytest.raises(DocumentFormatError, match="not valid JSON"):
            parse_document('{"m": 1' + "0" * 5000 + "}")

    @pytest.mark.parametrize(
        "m, v, mode, tamper",
        [
            (1, 0, "a", False),  # m = 1, q null
            (6, 2, "a", False),  # q an integer
            (12, -3, "c", False),  # stretch 2, v < 0
            (30, 4, "a", True),  # reasons not empty
        ],
    )
    def test_writer_matches_json_dumps_on_hunted_documents(self, m, v, mode, tamper):
        cert = build_certificate(m, v, mode)
        if tamper:
            cert = replace(cert, v=v + 1)
        report = verify_certificate(cert)
        assert bool(report.reasons) == tamper
        for document in (CertificateDocument(cert), CertificateDocument(cert, report)):
            text = serialize_document(document)
            assert text == serialize_document_by_dumps(document)
            assert serialize_document(parse_document(text)) == text

    @given(document_fields())
    def test_writer_matches_json_dumps_on_parsed_documents(self, fields):
        text = json.dumps(fields, indent=2) + "\n"
        document = parse_document(text)
        assert serialize_document(document) == serialize_document_by_dumps(document) == text

    def test_writer_peak_memory_is_linear_in_the_document(self):
        cert = build_certificate(30, 1000, "a")
        document = CertificateDocument(cert, verify_certificate(cert))
        length = len(serialize_document(document))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            serialize_document(document)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert cert.plan.t == 1000
        assert peak <= 3 * length, (peak, length)


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

    def test_verify_shares_no_sieve_with_the_hunter(self, capsys, monkeypatch, tmp_path):
        # a deep document (m = 30, v = 300): its cluster is proved prime by
        # the verifier's own sieve, never by the hunter's class-prime sieve
        path = tmp_path / "cert.json"
        hunt = ("hunt", "--m", "30", "--value", "300", "--mode", "c", "--out", str(path))
        assert run_cli(capsys, *hunt)[0] == 0

        def no_class_primes(*args):
            raise AssertionError("the verifier read the hunter's sieve")

        monkeypatch.setattr(cyclocert.arith, "_class_primes", no_class_primes)
        code, out, _ = run_cli(capsys, "verify", str(path), "--full-window")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] and report["window_checked"]

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
        for ratio, message in (
            ("2/1", "ratio must lie strictly between 1 and 2"),
            ("3", "ratio must be written NUM/DEN"),
            ("1/0", "bad ratio"),
        ):
            with pytest.raises(SystemExit) as info:
                main(["hunt", "--m", "3", "--value", "2", "--mode", "a", "--ratio", ratio])
            assert info.value.code == 2
            assert message in capsys.readouterr().err

    def test_hunt_reports_a_fresh_certificate_that_fails_as_internal_error(
        self, capsys, monkeypatch, tmp_path
    ):
        def failing(certificate, **_):
            return VerificationReport(certificate, None, False, False, ("value",))

        monkeypatch.setattr(cli, "verify_certificate", failing)
        path = tmp_path / "cert.json"
        code, out, err = run_cli(capsys, "hunt", "--m", "3", "--value", "2", "--mode", "a",
                                 "--out", str(path))
        assert code == 1
        assert out == "" and not path.exists()
        assert "internal error: fresh certificate failed verification" in err

    def test_hunt_scan_ceiling_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLO_SCAN_CEILING", "10")
        code, _, err = run_cli(capsys, "hunt", "--m", "15", "--value", "-2", "--mode", "a")
        assert code == 2
        assert "cluster" in err

    @pytest.mark.parametrize("mode", ["a", "c"])
    @pytest.mark.parametrize(
        "m, v, budget",
        [(30, 0, 31), (30, 1, 33), (210, -1, 210), (210, 1, 220), (2310, -2, 2320),
         (2310, 2, 2320)],
    )
    def test_budget_just_above_the_kernel(self, capsys, monkeypatch, tmp_path, m, v, budget,
                                          mode):
        # the first cluster prime lies just above the kernel, which is then a
        # high divisor: the product is still read from one period of
        # 1/Phi_kernel, never truncated densely against the budget
        hunt = ("hunt", "--m", str(m), "--value", str(v), "--mode", mode)
        code, expected, _ = run_cli(capsys, *hunt)
        assert code == 0
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", str(budget))
        assert run_cli(capsys, *hunt) == (0, expected, "")
        path = tmp_path / "cert.json"
        path.write_text(expected)
        for window in ((), ("--full-window",)):
            code, out, _ = run_cli(capsys, "verify", str(path), *window)
            assert code == 0, out

    @pytest.mark.parametrize("full_window", [False, True])
    @pytest.mark.parametrize(
        "m, v, mode, tamper",
        [(1, 0, "a", {}), (12, -3, "c", {}), (30, 4, "a", {"v": 5}), (6, 2, "c", {"primes": [7]}),
         (15, -2, "a", {"k": 0})],
    )
    def test_verify_prints_the_report_as_json_dumps(
        self, capsys, tmp_path, m, v, mode, tamper, full_window
    ):
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", str(m), "--value", str(v), "--mode", mode,
                "--out", str(path))
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **tamper)))
        certificate = parse_document(path.read_text()).certificate
        report = verify_certificate(certificate, full_window)
        window = ("--full-window",) if full_window else ()
        code, out, _ = run_cli(capsys, "verify", str(path), *window)
        assert code == (0 if report.passed else 1)
        assert bool(tamper) != report.passed
        assert out == json.dumps(report_fields(report), indent=2) + "\n"

    @pytest.mark.parametrize("value", ["100000000", "99999999999999999999999"])
    def test_more_primes_than_the_class_holds_exit_2_unsieved(self, capsys, monkeypatch,
                                                               value):
        # t is about |v| at m = 6, beyond the class members = 1 (mod 6) below
        # r times the scan ceiling, so the search fails before it sieves
        def no_sieve(*args):
            raise AssertionError("the class was sieved")

        monkeypatch.setattr(cyclocert.arith, "_class_primes", no_sieve)
        code, out, err = run_cli(capsys, "hunt", "--m", "6", "--value", value, "--mode", "a")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: no cluster of {value} primes")

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


@lru_cache(maxsize=None)
def _valid_texts() -> tuple[str, ...]:
    """Small hunted documents with their reports, for the fuzz tests to mutate."""
    texts = []
    for m, v, mode in ((6, 2, "a"), (6, 2, "c"), (1, 0, "a"), (12, -3, "c"), (30, 4, "a")):
        cert = build_certificate(m, v, mode)
        texts.append(serialize_document(CertificateDocument(cert, verify_certificate(cert))))
    return tuple(texts)


_SWAPPED = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
    st.recursive(
        st.lists(st.integers(-3, 40), max_size=3), lambda inner: st.lists(inner, max_size=3)
    ),
    st.none(),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
_HUGE = st.sampled_from(
    (MACHINE_INT_MAX, MACHINE_INT_MAX + 1, -MACHINE_INT_MAX - 2, 2**64 + 1, 10**30, -(10**30),
     10**4000)
)


def _mutate(draw, data: dict) -> None:
    """One mutation somewhere in the document: drop a field or an entry,
    swap in another JSON type or a huge int, or reverse, duplicate or
    resize a list (a factor pair included)."""
    dicts = [data] + [value for value in data.values() if isinstance(value, dict)]
    lists = [value for d in dicts for value in d.values() if isinstance(value, list) and value]
    lists += [item for value in lists for item in value if isinstance(item, list) and item]
    kind = draw(st.sampled_from(("drop", "swap", "huge", "reverse", "duplicate", "resize")))
    if kind in ("drop", "swap", "huge"):
        # a field half the time, else an entry of a list
        target = draw(st.sampled_from(draw(st.sampled_from((dicts, lists))) or dicts))
        if not target:
            return
        keys = list(target) if isinstance(target, dict) else range(len(target))
        key = draw(st.sampled_from(keys))
        if kind == "drop":
            del target[key]
        else:
            target[key] = draw(_SWAPPED if kind == "swap" else _HUGE)
    elif lists:
        target = draw(st.sampled_from(lists))
        if kind == "reverse":
            target.reverse()
        elif kind == "duplicate":
            target.append(json.loads(json.dumps(target[-1])))
        elif len(target) > 1 and draw(st.booleans()):
            target.pop()
        else:
            target.append(1)


@st.composite
def mutated_documents(draw) -> tuple[str, str]:
    """(a valid document, the same document after one to three mutations)."""
    original = draw(st.sampled_from(_valid_texts()))
    data = json.loads(original)
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, data)
    return original, json.dumps(data)


def _same_certificate(text: str, original: str) -> bool:
    try:
        document = parse_document(text)
    except DocumentFormatError:
        return False
    return document.certificate == parse_document(original).certificate


class TestDocumentFuzz:
    @settings(max_examples=300)
    @given(mutated_documents())
    def test_parse_raises_only_format_errors_and_verify_never_raises(self, case):
        original, text = case
        try:
            document = parse_document(text)
        except DocumentFormatError:
            return
        same = _same_certificate(text, original)
        for full_window in (False, True):
            report = verify_certificate(document.certificate, full_window)
            assert isinstance(report, VerificationReport)
            # only a mutation that left the certificate alone (the embedded
            # report aside) may still verify
            assert report.passed == same, (full_window, report.reasons)

    @settings(max_examples=6)
    @given(mutated_documents())
    def test_verify_exits_cleanly_in_a_fresh_process(self, case):
        original, text = case
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "cert.json"
            path.write_text(text)
            runs = _verify_under_limit(path)
        for _, run in runs:
            assert "Traceback" not in run.stderr, run.stderr
            assert run.returncode in ((0,) if _same_certificate(text, original) else (1, 2))


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
        # Phi_n for a non-squarefree n is Phi_rad(n) stretched: only squarefree
        # factorizations are expanded
        built = []
        half = cyclo._half_product

        def recorded(fac, degree, exponent):
            built.append(fac)
            return half(fac, degree, exponent)

        monkeypatch.setattr(cyclo, "_half_product", recorded)
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
        argv = ["scan", "--m", "1", "--nmax", "4000", "--kmax", "0", "--json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out) == [{"value": -1, "n": 1, "k": 0}, {"value": 1, "n": 2, "k": 0}]
        assert expanded == []

    def test_kmax_prefix_reads_under_the_environment_budget(self, capsys, monkeypatch):
        # the truncated prefix read gets the budget the scan runs under, so a
        # raised CYCLO_DEGREE_BUDGET admits a larger --kmax
        coeffs = cyclo.phi_poly(105).coeffs[:11]
        budgets = []
        truncated = cyclo.phi_truncated

        def recorded(n, truncation, start=0, **kwargs):
            budgets.append(kwargs.get("degree_budget"))
            return truncated(n, truncation, start, **kwargs)

        monkeypatch.setattr(cyclo, "phi_truncated", recorded)
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", "5000")
        code, out, _ = run_cli(capsys, "scan", "--m", "105", "--nmax", "1", "--kmax", "10", "--json")
        assert code == 0
        assert json.loads(out) == [
            {"value": value, "n": 105, "k": coeffs.index(value)} for value in sorted(set(coeffs))
        ]
        assert budgets == [5000]

    def test_kmax_factors_each_n_once(self, capsys, monkeypatch):
        # under --kmax the prefix is read from the factorization the scan
        # loop made, so phi_poly's own budget-checked factorization never runs
        factored = []
        within = cyclo._factor_within_budget

        def recorded(n, degree_budget):
            factored.append(n)
            return within(n, degree_budget)

        monkeypatch.setattr(cyclo, "_factor_within_budget", recorded)
        argv = ["scan", "--m", "1", "--nmax", "300", "--kmax", "1000000", "--json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert {row["value"] for row in json.loads(out)} == {-2, -1, 0, 1, 2}
        assert factored == []

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


def _scan_rows(capsys, m: int, nmax: int, kmax: int | None = None) -> list[list[int]]:
    argv = ["scan", "--m", str(m), "--nmax", str(nmax), "--json"]
    if kmax is not None:
        argv += ["--kmax", str(kmax)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    return [[row["value"], row["n"], row["k"]] for row in json.loads(out)]


def _phi_coeffs(n: int) -> tuple[int, ...]:
    return cyclo.phi_poly(n).coeffs


class TestScanSieve:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7, 12, 15, 30, 105, 210])
    @pytest.mark.parametrize("nmax", [1, 37, 300])
    @pytest.mark.parametrize("kmax", [None, 0, 5, 40])
    def test_same_rows_as_factoring_every_n(self, capsys, m, nmax, kmax):
        expected = scan_by_factoring(m, nmax, kmax, _phi_coeffs)
        assert _scan_rows(capsys, m, nmax, kmax) == expected

    @pytest.mark.parametrize("m", [1, 2, 15, 77, 105, 4096])
    def test_odd_prime_counts(self, m):
        counts = cli._odd_prime_counts(m, 500)
        expected = [min(sum(p > 2 for p, _ in trial_factor(m * j)), 3) for j in range(1, 500)]
        if expected[0] >= 3:
            assert counts == b""  # m alone has three odd primes: nothing to skip
        else:
            assert list(counts[1:]) == expected
        assert cli._odd_prime_counts(m, 1) == b""

    def test_sieved_n_are_not_factored(self, capsys, monkeypatch):
        # once -1, 0 and 1 are seen (at n = 4), only an n with three or more
        # odd primes is factored: every other n has height bound 1
        factored = []

        def recorded(function):
            def call(n, *budget):
                factored.append(n)
                return function(n, *budget)
            return call

        # the sieve factors m with factor, the loop each n it reads with
        # _factor_within_budget
        monkeypatch.setattr(cli, "factor", recorded(cli.factor))
        monkeypatch.setattr(cli, "_factor_within_budget", recorded(cli._factor_within_budget))
        assert run_cli(capsys, "scan", "--m", "1", "--nmax", "4000")[0] == 0
        expected = [
            n for n in range(1, 4001)
            if n <= 4 or sum(p > 2 for p, _ in trial_factor(n)) >= 3
        ]
        assert factored[0] == 1  # the sieve's own factor(m)
        assert factored[1:] == expected

    @pytest.mark.parametrize("budget", [0, 1, 50, 500])
    @pytest.mark.parametrize("m", [1, 6, 11, 105])
    def test_a_small_budget_fails_at_the_same_n(self, capsys, monkeypatch, budget, m):
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", str(budget))
        code, out, err = run_cli(capsys, "scan", "--m", str(m), "--nmax", "3000")
        n = first_over_budget(m, 3000, budget)
        if budget == 0:
            message = "degree budget 0 is not positive"
        elif n > 2 * budget * budget:  # rejected before factoring
            message = f"phi({n}) certainly exceeds budget {budget}"
        else:
            message = f"phi({n}) exceeds degree budget {budget}"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("m, budget, nmax", [(6, 1000, 200), (30, 300, 30), (35, 700, 25)])
    def test_n_past_the_budget_edge_are_factored(self, capsys, monkeypatch, m, budget, nmax):
        # the sieve covers m*j <= budget; past that every n takes the
        # factoring path, and phi(n) <= budget holds for all of these n
        assert first_over_budget(m, nmax, budget) is None
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", str(budget))
        assert _scan_rows(capsys, m, nmax) == scan_by_factoring(m, nmax, None, _phi_coeffs)

    @pytest.mark.parametrize("limit", [1, 2, 50])
    def test_n_past_the_sieve_limit_are_factored(self, capsys, monkeypatch, limit):
        monkeypatch.setattr(cli, "_SCAN_SIEVE_LIMIT", limit)
        assert _scan_rows(capsys, 1, 300) == scan_by_factoring(1, 300, None, _phi_coeffs)
        assert _scan_rows(capsys, 2, 300, 5) == scan_by_factoring(2, 300, 5, _phi_coeffs)


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
        for _, run in _verify_under_limit(path):
            assert run.returncode == 1, run.stderr
            assert "Traceback" not in run.stderr
            report = json.loads(run.stdout)
            assert report["pass"] is False
            assert "budget" in report["reasons"]
            assert report["computed_value"] is None

    def test_huge_high_kernel_reports_budget(self, capsys, tmp_path):
        # N = p * p' with p above half the truncation k + 1 and p' above the
        # truncation: p is the least high divisor and with the low divisor 1
        # it makes 1/Phi_p, but a period of length p > 10**12 is beyond the
        # budget, so the product takes the dense route, which the budget
        # refuses before it allocates
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "6", "--value", "2", "--mode", "a", "--out", str(path))
        prime = 1000000000039
        data = json.loads(path.read_text())
        data.update(N_factors=[[prime, 1], [3000000000121, 1]], primes=[prime], k=prime + 5)
        path.write_text(json.dumps(data))
        for _, run in _verify_under_limit(path):
            assert run.returncode == 1, run.stderr
            assert "Traceback" not in run.stderr
            report = json.loads(run.stdout)
            assert "budget" in report["reasons"]
            assert report["computed_value"] is None

    def test_many_divisors_report_budget(self, capsys, tmp_path):
        # N holds the first 40 primes and k lies above 2**61: N has far more
        # divisors below k + 1 than a valid certificate could, so their
        # enumeration must stop at the budget instead of exhausting memory
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "6", "--value", "2", "--mode", "c", "--out", str(path))
        primes = [2]
        while len(primes) < 40:
            primes.append(next_prime_above(primes[-1]))
        prime = next_prime_above(2**61)
        data = json.loads(path.read_text())
        data.update(N_factors=[[p, 1] for p in primes], primes=[prime], k=prime + 5)
        path.write_text(json.dumps(data))
        for seconds, run in _verify_under_limit(path):
            assert seconds < 20
            assert run.returncode == 1, run.stderr
            assert "Traceback" not in run.stderr
            report = json.loads(run.stdout)
            assert report["pass"] is False
            assert "budget" in report["reasons"]

    def test_many_divisors_stop_at_the_certificate_count(self, capsys, tmp_path):
        # the 40-prime N of the test above: below 2*p_1 a valid N for m = 6
        # has 2**2 + t divisors with squarefree cofactor, so the read stops
        # after five of them instead of listing about 10**6
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "6", "--value", "2", "--mode", "c", "--out", str(path))
        primes = [2]
        while len(primes) < 40:
            primes.append(next_prime_above(primes[-1]))
        prime = next_prime_above(2**61)
        data = json.loads(path.read_text())
        data.update(N_factors=[[p, 1] for p in primes], primes=[prime], k=prime + 5)
        path.write_text(json.dumps(data))
        for window in ((), ("--full-window",)):
            run = subprocess.run(
                [sys.executable, "-c", VERIFY_REPORTING_PEAK, str(path), *window],
                capture_output=True, text=True, env=fresh_process_env(), timeout=60,
            )
            assert run.returncode == 1, run.stderr
            peak, cpu_seconds = run.stderr.split()
            assert int(peak) < 64 * 1024  # VmHWM, in KB
            assert float(cpu_seconds) < 2
            report = json.loads(run.stdout)
            assert "budget" in report["reasons"]
            assert report["computed_value"] is None

    def test_full_window_of_a_huge_prime_exits_cleanly(self, capsys, tmp_path):
        # N keeps the old cluster, and the one prime left makes the window
        # [p, 2p) about 10**12 wide: only one period of it is read
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "6", "--value", "2", "--mode", "c", "--out", str(path))
        data = json.loads(path.read_text())
        data.update(primes=[1099511627791])
        path.write_text(json.dumps(data))
        for _, run in _verify_under_limit(path):
            assert run.returncode == 1, run.stderr
            assert "Traceback" not in run.stderr
            assert json.loads(run.stdout)["pass"] is False

    # two documents whose period of 1/Phi_K no divisor limit stops: the
    # verifier must report them cleanly all the same
    @pytest.mark.parametrize("t", [1, 4])
    def test_unbudgeted_low_kernel_period_exits_cleanly(self, capsys, tmp_path, t):
        # every divisor of N is low and together they make 1/Phi_6p, so the
        # periodic route asks for a period of length 6p, about 6 * 10**12;
        # with one cluster prime the read stops at 2**2 + 1 of N's eight
        # divisors and reports `budget`; with four all eight are read, and
        # the half product of 1/Phi_6p, far above the budget, reports it
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "6", "--value", "2", "--mode", "c", "--out", str(path))
        primes = [10000000000037]
        while len(primes) < t:
            primes.append(next_prime_above(primes[-1]))
        data = json.loads(path.read_text())
        data.update(primes=primes, k=15 * 10**12,
                    N_factors=[[2, 1], [3, 1], [1000000000039, 1]])
        path.write_text(json.dumps(data))
        self._assert_clean_failures(path)

    def test_unbudgeted_high_kernel_period_exits_cleanly(self, capsys, tmp_path):
        # below k + 1 the divisors of N = P * c are 1, P and c; the low ones,
        # 1 and P, make 1/Phi_P, whose half product is one entry long; its
        # zeros window of P - 2 entries must never be built
        path = tmp_path / "cert.json"
        run_cli(capsys, "hunt", "--m", "6", "--value", "2", "--mode", "a", "--out", str(path))
        low, high = next_prime_above(10**12), next_prime_above(3 * 10**12)
        data = json.loads(path.read_text())
        del data["verification"]
        data.update(N_factors=[[low, 1], [high, 1]], primes=[high], k=high + 5)
        path.write_text(json.dumps(data))
        self._assert_clean_failures(path)

    @staticmethod
    def _assert_clean_failures(path: Path) -> None:
        for _, run in _verify_under_limit(path):
            assert run.returncode == 1, run.stderr
            assert "Traceback" not in run.stderr
            assert json.loads(run.stdout)["pass"] is False


def _verify_under_limit(path: Path) -> list[tuple[float, subprocess.CompletedProcess]]:
    """`verify` and then `verify --full-window` of the document, each in a
    child under VERIFY_UNDER_ADDRESS_LIMIT, with the seconds each took."""
    runs = []
    for window in ((), ("--full-window",)):
        started = time.monotonic()
        run = subprocess.run(
            [sys.executable, "-c", VERIFY_UNDER_ADDRESS_LIMIT, str(path), *window],
            capture_output=True, text=True, env=fresh_process_env(), timeout=60,
        )
        runs.append((time.monotonic() - started, run))
    return runs


# `verify` under the address-space limit of `ulimit -v 2000000`, on the
# document path and any further options given
VERIFY_UNDER_ADDRESS_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2000000 * 1024, 2000000 * 1024))
from cyclocert.cli import main
sys.exit(main(["verify", *sys.argv[1:]]))
"""


# `verify` on the document path and any further options given, then the
# child's own peak resident set (VmHWM, KB, Linux) and its CPU seconds
# (ru_utime + ru_stime, start-up included) on stderr; ru_maxrss would not
# do, since a child spawned by a larger process reports the parent's peak
VERIFY_REPORTING_PEAK = """
import resource, sys
from cyclocert.cli import main
code = main(["verify", *sys.argv[1:]])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
usage = resource.getrusage(resource.RUSAGE_SELF)
print(peak, usage.ru_utime + usage.ru_stime, file=sys.stderr)
sys.exit(code)
"""
