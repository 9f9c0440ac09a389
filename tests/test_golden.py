"""Golden CLI outputs: stdout, exit code and --out files, byte for byte.

The goldens under tests/golden/ are written by tools/make_golden.py; each
manifest entry is replayed here from the repository root.
"""

import contextlib
import io
import json
import pathlib

import pytest

from extremal_moments.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())


@pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
def test_golden(case, tmp_path, monkeypatch):
    out_path = tmp_path / "artifact.json"
    argv = [str(out_path) if a == "{out}" else a for a in case["argv"]]
    monkeypatch.chdir(ROOT)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    assert code == case["exit"]
    assert buffer.getvalue().encode("utf-8") == \
        (GOLDEN / case["stdout"]).read_bytes()
    if case["out"] is None:
        assert not out_path.exists()
    else:
        assert out_path.read_bytes() == (GOLDEN / case["out"]).read_bytes()
