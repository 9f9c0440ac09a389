#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden/.

Every case runs ``extremal_moments.cli.run`` in process from the repository
root and records its stdout, its exit code and, for ``solve``, ``variety``
and ``extend``, the file written through ``--out``.  ``tests/test_golden.py``
replays the cases listed in ``tests/golden/MANIFEST.json`` and compares byte
for byte, so a refactor that changes any printed character fails there.

Cases: the seven paper fixtures and two d=1 ones whose verdicts no paper
fixture reaches (``nonrecursive``: a kernel that is not recursively
generated; ``not_psd``: an invertible M(1) that is not PSD) x {analyze,
solve, variety, extend} in exact mode (text and structured format) and in
``--mode float`` (text format), plus ``synth`` from each of its three
sources.

Run from the repository root:

    PYTHONPATH=src python3 tools/make_golden.py [CASE ...]

With case names (as listed in the manifest, e.g. ``prop61.solve.exact-text``)
only those cases are run and rewritten, and every other case keeps its files
and its manifest entry; without names every case is rewritten.  The full
``MANIFEST.json`` is written either way.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from extremal_moments.cli import run  # noqa: E402

FIXTURES = ("ex42_hyperbola", "example15", "prop61", "ex44", "prop61_deg8",
            "ex71", "thm62_a8_8", "nonrecursive", "not_psd")
COMMANDS = ("analyze", "solve", "variety", "extend")
#: Commands whose --out artifact is recorded.
WRITES = ("solve", "variety", "extend")
VARIANTS = {
    "exact-text": [],
    "exact-structured": ["--format", "structured"],
    "float-text": ["--mode", "float"],
}
#: Placeholder in a manifest argv for the --out path of the run.
OUT_TOKEN = "{out}"

#: Input of ``synth --measure``: exact atoms and one float density.
MEASURE = {
    "d": 2,
    "atoms": [
        {"point": ["0", "0"], "density": "1/3"},
        {"point": ["1", "2"], "density": "1/6"},
        {"point": ["-1/2", "3"], "density": "0.5"},
    ],
}


def cases() -> list:
    """(name, argv) of every golden case; argv paths are root-relative."""
    out = []
    for fixture in FIXTURES:
        path = f"fixtures/{fixture}.moments.json"
        for command in COMMANDS:
            for variant, flags in VARIANTS.items():
                argv = [command, path, *flags]
                if command in WRITES:
                    argv += ["--out", OUT_TOKEN]
                out.append((f"{fixture}.{command}.{variant}", argv))
    out.append(("synth.example14", ["synth", "--example14", "2", "1/2"]))
    out.append(("synth.functional",
                ["synth", "--functional", "fixtures/thm62.functional.json",
                 "--degree", "6"]))
    out.append(("synth.measure",
                ["synth", "--measure", "tests/golden/synth.measure.json",
                 "--degree", "4"]))
    return out


def run_case(argv: list, out_path: str):
    """Run one case from the repository root: (exit code, stdout, --out
    file bytes or None)."""
    argv = [out_path if a == OUT_TOKEN else a for a in argv]
    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buffer):
            code = run(argv)
    finally:
        os.chdir(cwd)
    artifact = None
    if os.path.exists(out_path):
        artifact = pathlib.Path(out_path).read_bytes()
        os.remove(out_path)
    return code, buffer.getvalue().encode("utf-8"), artifact


def main(names: list) -> None:
    known = dict(cases())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    previous = {}
    if names:
        previous = {entry["name"]: entry for entry in
                    json.loads((OUT / "MANIFEST.json").read_text())}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "synth.measure.json").write_text(json.dumps(MEASURE, indent=2)
                                           + "\n")
    manifest = []
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "artifact.json")
        for name, argv in known.items():
            if names and name not in names:
                if name not in previous:
                    raise SystemExit(f"{name} has no golden yet; name it")
                manifest.append(previous[name])
                continue
            code, stdout, artifact = run_case(argv, out_path)
            (OUT / f"{name}.stdout").write_bytes(stdout)
            entry = {"name": name, "argv": argv, "exit": code,
                     "stdout": f"{name}.stdout", "out": None}
            if artifact is not None:
                entry["out"] = f"{name}.out.json"
                (OUT / entry["out"]).write_bytes(artifact)
            manifest.append(entry)
            print(f"{name}: exit {code}")
    (OUT / "MANIFEST.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(names) or len(manifest)} of {len(manifest)} cases to "
          f"{OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
