import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _SCRIPT)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

# `python3 scripts/same_outputs.py --quick` on this tree; a change that
# alters an output on purpose updates these lines and says why
QUICK_DIGESTS = [
    "cyclo 1163 199f38ae479f513bdd92dc530ea86523f825dd414f948eea0e62d8593feff565",
    "documents 360 81745ce0517bc39e7e46c36ea046dc46bf16f55600356897342aca9df263e07c",
    "tampers 310 54310bc46dcda389256fb3af22a987b3000d3cfbbbdf6a3e084402bc39a98bd9",
    "cli 271 2ce46d847a4a2e8e99718e3820b36ab6376a0632035e4f361ce0e467d7d59e35",
    "arith 97 6719ae7453fa65339acbe097c5cf8f577ef1787d6c5a1efe8b66c76a993e15e5",
    "series 60 0f3467e63d78ad5611a83926ab8b399c05ed81835069a6830cb0ddd6b217c900",
]


@pytest.fixture(scope="module")
def quick_sweep(tmp_path_factory):
    """The exit code, the printed lines and the dumped rows of one `--quick`
    sweep, run once for the module.  Budgets set in the calling shell must
    not reach the sweep's children, so two small ones are set here."""
    dump = tmp_path_factory.mktemp("sweep") / "items.jsonl"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch, contextlib.redirect_stdout(out):
        monkeypatch.setenv("CYCLO_DEGREE_BUDGET", "5")
        monkeypatch.setenv("CYCLO_SCAN_CEILING", "5")
        code = same_outputs.main(["--quick", "--dump", str(dump)])
    rows = [json.loads(line) for line in dump.read_text().splitlines()]
    return code, out.getvalue().splitlines(), rows


def test_quick_digests_are_pinned(quick_sweep):
    code, lines, _ = quick_sweep
    assert code == 0
    assert lines == QUICK_DIGESTS


def test_digest_of_a_synthetic_family():
    lines = ['["a", "1"]', '["b", "2"]']
    expected = hashlib.sha256(b'["a", "1"]\n["b", "2"]\n').hexdigest()
    assert same_outputs.digest(lines) == expected
    assert same_outputs.digest(lines[::-1]) != expected


def test_dump_holds_every_item_of_the_digest(quick_sweep):
    code, lines, rows = quick_sweep
    assert code == 0
    for line in lines:
        name, count, digest = line.split()
        items = [json.dumps(row[1:]) for row in rows if row[0] == name]
        assert len(items) == int(count)
        assert same_outputs.digest(items) == digest
    assert {row[0] for row in rows} == set(same_outputs.FAMILIES)
