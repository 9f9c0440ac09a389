"""The three benchmark workloads: the cases of one pass and the timed call.

A workload is a list of ``Case`` objects, one pass.  Generated cases carry
their generating measure so the oracle can judge every answer against it;
the solver itself only ever sees the moments.

The generating measures are drawn once from a fixed stream (``ATOM_SEED``,
the ROADMAP generator), not from the run's seed.  The work of an exact solve
depends on the atoms, and even on transformations that look harmless: one
exact d=2 4/12 solve takes 0.6 s on one draw and 5.9 s on another, and
reflecting y or scaling the mass by a power of two moves single n=3 solves by
up to 50%.  Inputs drawn per seed would make the run-to-run spread of every
timing wider than any useful bound.  The run's seed orders the calls instead:
``run.py`` draws a fresh order of the cases for every pass from it.

Unscaled time of one pass on a 2-vCPU x86 VM (Python 3.11), median of ten
runs: exact 9.7 s, float_twins 0.49 s, paper_cli 1.3 s.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

#: Base stream of the exact workloads' atom sets.  Seed 1 with the d=2 shapes
#: (3, 8) then (4, 12) is the ladder of the repository's ROADMAP baseline.
ATOM_SEED = 1

#: (n, atoms) shapes of the d=2 part of ``exact``, drawn in this order from
#: ATOM_SEED: the ROADMAP ladder, four draws of each n=3 shape, then n=4 with
#: 10 atoms.
#: Many cheap n=3 cases give the latency percentiles enough distinct solves.
EXACT_D2_SHAPES = ((3, 8), (4, 12)) + ((3, 6), (3, 7), (3, 8), (3, 9)) * 4 \
    + ((4, 10),)

#: Atom counts k of the d=1 part of ``exact`` (degree 2k data).
EXACT_D1_ATOMS = tuple(range(8, 17))

#: d=2 ladder of ``float_twins``; exact (5,18) and (6,24) are left out of
#: ``exact`` because one exact solve takes about 95 s and over 5 minutes.
FLOAT_D2_SHAPES = ((3, 8), (4, 12), (5, 18), (6, 24))
FLOAT_D1_ATOMS = (10, 12, 15, 16, 20)

FIXTURES = ("ex42_hyperbola", "example15", "prop61", "ex44", "prop61_deg8",
            "ex71", "thm62_a8_8")
COMMANDS = ("analyze", "solve", "variety", "extend")

WORKLOADS = ("exact", "float_twins", "paper_cli")


@dataclass
class Case:
    """One timed call: a library solve of ``beta`` or a CLI command."""

    label: str
    d: int = 2
    n: int = 0
    atoms: tuple = ()
    densities: tuple = ()
    exact: bool = True
    beta: object = None          # Multisequence handed to solve_extremal
    argv: Optional[tuple] = None  # CLI arguments for cli.run
    fixture: str = ""
    command: str = ""
    expected_rank: Optional[int] = None  # filled by the oracle before timing


def _draw_d2(rng, count):
    atoms = set()
    while len(atoms) < count:
        atoms.add((F(rng.randint(-9, 9), rng.randint(1, 4)),
                   F(rng.randint(-9, 9), rng.randint(1, 4))))
    return sorted(atoms)


def _draw_d1(rng, count):
    atoms = set()
    while len(atoms) < count:
        atoms.add((F(rng.randint(-40, 40), rng.randint(1, 4)),))
    return sorted(atoms)


def _densities(rng, count):
    return tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(count))


def _drawn(shapes, draw, d):
    """Measures of the given (n, atoms) shapes drawn from ATOM_SEED."""
    base = random.Random(ATOM_SEED)
    cases = []
    drawn = {}
    for n, count in shapes:
        drawn[n, count] = drawn.get((n, count), 0) + 1
        atoms = draw(base, count)
        cases.append(_measure_case(f"d{d} {n}/{count} #{drawn[n, count]}",
                                   d, n, atoms, _densities(base, count)))
    return cases


def _measure_case(label, d, n, atoms, densities):
    order = sorted(range(len(atoms)), key=lambda i: atoms[i])
    return Case(label, d, n, tuple(atoms[i] for i in order),
                tuple(densities[i] for i in order))


def plan(workload: str, root: pathlib.Path) -> list:
    """The cases of one pass, before their moments are built."""
    if workload == "exact":
        return _drawn(EXACT_D2_SHAPES, _draw_d2, 2) + _drawn(
            [(k, k) for k in EXACT_D1_ATOMS], _draw_d1, 1)
    if workload == "float_twins":
        d2 = _drawn(FLOAT_D2_SHAPES, _draw_d2, 2)
        mirrored = [_measure_case(c.label + " x-mirror", 2, c.n,
                                  [(-x, y) for x, y in c.atoms], c.densities)
                    for c in d2]
        cases = d2 + mirrored + _drawn([(k, k) for k in FLOAT_D1_ATOMS],
                                       _draw_d1, 1)
        for case in cases:
            case.exact = False
            case.label += " float"
        return cases
    if workload == "paper_cli":
        cases = []
        for fixture in FIXTURES:
            path = root / "fixtures" / f"{fixture}.moments.json"
            if not path.is_file():
                raise FileNotFoundError(f"missing fixture {path}")
            for command in COMMANDS:
                cases.append(Case(f"{fixture} {command}", argv=(command,
                                  str(path)), fixture=fixture,
                                  command=command))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def build_inputs(em, cases) -> None:
    """Compute each generated case's moments (the timed part of set-up)."""
    for case in cases:
        if case.argv is not None:
            continue
        beta = em.beta_from_atoms(list(case.atoms), list(case.densities),
                                  d=case.d, degree=2 * case.n)
        if not case.exact:
            beta = em.Multisequence(beta.d, beta.degree,
                                    {idx: float(v)
                                     for idx, v in beta.values.items()})
        case.beta = beta


def call(em, cli, case):
    """The timed call.  Returns the SolveReport, or (exit code, stdout)."""
    if case.argv is None:
        return em.solve_extremal(case.beta)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(case.argv))
    return code, out.getvalue()
