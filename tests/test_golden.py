"""Golden CLI outputs: stdout, exit code and --out files, byte for byte.

The goldens under tests/golden/ are written by tools/make_golden.py; each
manifest entry is replayed here from the repository root.  Exact mode runs
on the standard library alone: every golden that is not a float one is also
replayed in a fresh interpreter where numpy cannot be imported.
"""

import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from extremal_moments.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text())
NOT_FLOAT = [c for c in MANIFEST if "--mode" not in c["argv"]]


def mismatches(case, out_path) -> list:
    """Replay *case* from the current directory, writing any --out file to
    *out_path*; returns the parts that differ from the golden: "exit",
    "stdout" and "out"."""
    argv = [str(out_path) if a == "{out}" else a for a in case["argv"]]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    wrong = []
    if code != case["exit"]:
        wrong.append("exit")
    if buffer.getvalue().encode("utf-8") != \
            (GOLDEN / case["stdout"]).read_bytes():
        wrong.append("stdout")
    if (out_path.read_bytes() if out_path.exists() else None) != (
            None if case["out"] is None
            else (GOLDEN / case["out"]).read_bytes()):
        wrong.append("out")
    return wrong


@pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
def test_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert mismatches(case, tmp_path / "artifact.json") == []


def in_fresh_interpreter(script: str):
    """Run *script* in a new interpreter from the repository root, with this
    module importable as ``test_golden``; returns the JSON of its last
    output line."""
    prelude = (f"import sys\nsys.path[:0] = "
               f"{[str(ROOT / 'src'), str(ROOT / 'tests')]!r}\n")
    out = subprocess.run([sys.executable, "-c", prelude + script], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_exact_goldens_replay_without_numpy():
    assert len(NOT_FLOAT) == 75
    result = in_fresh_interpreter("""
import json, pathlib, tempfile
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import test_golden
with tempfile.TemporaryDirectory() as tmp:
    failed = {c["name"]: test_golden.mismatches(c, pathlib.Path(tmp) / str(i))
              for i, c in enumerate(test_golden.NOT_FLOAT)}
print(json.dumps({name: parts for name, parts in failed.items() if parts}))
""")
    assert result == {}


def numpy_loaded_after(names):
    """In a fresh interpreter, import the package, solve ex44 exactly with
    ``solve_extremal``, then replay the goldens *names* in order; returns
    whether numpy was loaded after each of these steps, and each golden's
    mismatches as [name, part] pairs."""
    return in_fresh_interpreter(f"NAMES = {names!r}\n" + """
import json, pathlib, tempfile
import extremal_moments as em
import test_golden
loaded = ["numpy" in sys.modules]
em.solve_extremal(em.load_multisequence("fixtures/ex44.moments.json"))
loaded.append("numpy" in sys.modules)
cases = {c["name"]: c for c in test_golden.MANIFEST}
wrong = []
with tempfile.TemporaryDirectory() as tmp:
    for i, name in enumerate(NAMES):
        wrong += [[name, part] for part in test_golden.mismatches(
            cases[name], pathlib.Path(tmp) / str(i))]
        loaded.append("numpy" in sys.modules)
print(json.dumps([loaded, wrong]))
""")


def test_exact_calls_leave_numpy_unloaded():
    loaded, wrong = numpy_loaded_after(
        [f"ex44.{command}.exact-text"
         for command in ("analyze", "solve", "variety", "extend")])
    assert loaded == [False] * 6
    assert wrong == []


def test_import_leaves_dataclasses_and_numpy_unloaded():
    # Records are built by polycore.record, which generates no code.
    assert in_fresh_interpreter("""
import json
import extremal_moments, extremal_moments.cli
print(json.dumps([m in sys.modules for m in ("dataclasses", "numpy")]))
""") == [False, False]


def test_float_solve_loads_numpy():
    loaded, wrong = numpy_loaded_after(["ex44.solve.float-text"])
    assert loaded == [False, False, True]
    assert wrong == []
