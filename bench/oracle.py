"""Correctness oracle, independent of the solver's own code.

Generated cases are judged against the measure that generated them:

* data from a positive measure never has ``NoMeasure``;
* every definite answer reports the exact rank of M(n), which for a positive
  measure is the rank of the evaluation matrix of the degree <= n monomials
  at its atoms (computed here by fraction-free elimination, before timing);
* ``Measure`` must give back the generating atoms and densities, each atom
  paired with its nearest reported atom;
* ``NotExtremal`` must have a variety containing every generating atom, or an
  infinite-variety witness vanishing at every atom, or a trivial kernel.

CLI cases are judged against the results the paper states for the fixtures
(README, acceptance criteria): verdict lines, exit code, and every printed
measure must reproduce the fixture's moments.  ``Unknown`` answers, and exit
code 3 where the paper states a definite result, are neither correct nor
wrong.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction as F

CORRECT, WRONG, UNKNOWN = "correct", "wrong", "unknown"

#: Relative tolerance on atoms and densities of a returned measure.
MEASURE_TOL = 1e-6
#: Relative tolerance on a printed measure reproducing fixture moments.
MOMENT_TOL = 1e-6


# ---------------------------------------------------------------------------
# exact rank of M(n) for a positive atomic measure
# ---------------------------------------------------------------------------

def monomials(d: int, n: int) -> list:
    if d == 1:
        return [(i,) for i in range(n + 1)]
    return [(t - j, j) for t in range(n + 1) for j in range(t + 1)]


def _power(w, idx):
    value = F(1)
    for x, e in zip(w, idx):
        value *= F(x) ** e
    return value


def exact_rank(d: int, n: int, atoms) -> int:
    """rank M(n) = rank of the atoms-by-monomials evaluation matrix, by
    Bareiss elimination over the integers."""
    rows = []
    for w in atoms:
        row = [_power(w, idx) for idx in monomials(d, n)]
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        rows.append([int(x * lcm) for x in row])
    rank, prev = 0, 1
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            head = rows[i][c]
            rows[i] = [(a * piv - head * b) // prev
                       for a, b in zip(rows[i], rows[rank])]
        prev = piv
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# generated cases
# ---------------------------------------------------------------------------

def _close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def _nearest(point, candidates):
    best, best_dist = None, math.inf
    for j, c in enumerate(candidates):
        dist = math.dist([float(x) for x in point], [float(x) for x in c])
        if dist < best_dist:
            best, best_dist = j, dist
    return best


def _contains(points, atom) -> bool:
    j = _nearest(atom, points)
    return j is not None and all(_close(x, a, MEASURE_TOL)
                                 for x, a in zip(points[j], atom))


def _vanishes(poly, atom) -> bool:
    value = poly.evaluate(tuple(atom))
    if isinstance(value, F):
        return value == 0
    scale = sum(abs(float(c)) * abs(float(_power(atom, idx)))
                for idx, c in poly.terms.items())
    return abs(value) <= MEASURE_TOL * max(1.0, scale)


def judge_solve(case, report) -> tuple:
    """(verdict, reason) for a SolveReport on a generated case."""
    status = report.status
    if status == "Unknown":
        return UNKNOWN, report.reason or "Unknown"
    if status == "NoMeasure":
        return WRONG, "NoMeasure on data of a positive measure"
    if report.rank != case.expected_rank:
        return WRONG, f"rank {report.rank}, exact rank {case.expected_rank}"
    if status == "Measure":
        measure = report.measure
        if measure is None or measure.size != len(case.atoms):
            return WRONG, "measure has the wrong number of atoms"
        used = set()
        for atom, rho in zip(case.atoms, case.densities):
            j = _nearest(atom, measure.atoms)
            if j in used:
                return WRONG, f"two atoms pair with reported atom {j}"
            used.add(j)
            if not all(_close(x, a, MEASURE_TOL)
                       for x, a in zip(measure.atoms[j], atom)):
                return WRONG, f"atom {tuple(map(float, atom))} not recovered"
            if not _close(measure.densities[j], rho, MEASURE_TOL):
                return WRONG, f"density at {tuple(map(float, atom))} off"
        return CORRECT, ""
    if status == "NotExtremal":
        if report.v == math.inf:
            if report.witness is None:
                full = len(monomials(case.d, case.n))
                if case.expected_rank == full:
                    return CORRECT, ""
                return WRONG, "infinite variety claimed without a witness"
            if all(_vanishes(report.witness, a) for a in case.atoms):
                return CORRECT, ""
            return WRONG, "infinite-variety witness misses an atom"
        points = report.variety.points if report.variety is not None else ()
        if all(_contains(points, a) for a in case.atoms):
            return CORRECT, ""
        return WRONG, "variety misses a generating atom"
    return WRONG, f"unexpected status {status}"


# ---------------------------------------------------------------------------
# paper_cli
# ---------------------------------------------------------------------------

S6, S13, S15 = math.sqrt(6), math.sqrt(13), math.sqrt(15)

#: Example 1.5: the parabola/circle measure (README, criterion 1).
EXAMPLE15 = (((-2 - S6, 0.0), 3 / 10 - 7 * S6 / 60),
             ((-0.5, -S15 / 2), 0.2), ((-0.5, S15 / 2), 0.2),
             ((-2 + S6, 0.0), 3 / 10 + 7 * S6 / 60))
#: Proposition 6.1: unit weights on eight points of y = x^3.
CURVE = (((-2.0, -8.0), 1.0), ((0.0, 0.0), 1.0), ((2.0, 8.0), 1.0),
         ((1.0, 1.0), 1.0), ((-0.5 + S13 / 2, -5 + 2 * S13), 1.0),
         ((-0.5 - S13 / 2, -5 - 2 * S13), 1.0), ((-1.0, -1.0), 1.0),
         ((0.5, 0.125), 1.0))
#: Example 4.4 (criterion 2): atom abscissae; seven atoms.
EX44_X = (-8.36748, -1.7299, -0.996357, 0.0, 0.996357, 1.7299, 8.36748)

#: fixture -> (rank, variety card, atoms of the unique measure or None,
#: atom count, consistency verdict).  ex42 has an infinite variety and no
#: stated measure; thm62_a8_8 has none (Theorem 6.2).
PAPER = {
    "ex42_hyperbola": (7, "infinite", None, None, None),
    "example15": (4, "4", EXAMPLE15, 4, "Consistent"),
    "prop61": (8, "8", CURVE, 8, "Consistent"),
    "ex44": (7, "7", None, 7, "Consistent"),
    "prop61_deg8": (8, "8", CURVE, 8, "Consistent"),
    "ex71": (8, "9", None, 9, "Consistent"),
    "thm62_a8_8": (8, "8", None, None, "Inconsistent"),
}

_ATOM = re.compile(r"^\s+\(([^)]*)\) density (\S+)$")
_POINT = re.compile(r"^\s+point: \(([^)]*)\)$")


def _num(text: str) -> float:
    return float(F(text.strip()))


def load_moments(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return {tuple(m["idx"]): float(F(m["value"])) for m in data["moments"]}


def _printed_measure(lines):
    atoms = []
    for line in lines:
        m = _ATOM.match(line)
        if m:
            atoms.append((tuple(_num(x) for x in m.group(1).split(",")),
                          _num(m.group(2))))
    return atoms


def _measure_problem(measure, moments, expected, count):
    """None when the printed measure is right, else the reason."""
    if count is not None and len(measure) != count:
        return f"{len(measure)} atoms, paper has {count}"
    if any(rho <= 0 for _, rho in measure):
        return "nonpositive density"
    scale = max(1.0, max(abs(v) for v in moments.values()))
    for idx, value in moments.items():
        got = sum(rho * math.prod(x ** e for x, e in zip(w, idx))
                  for w, rho in measure)
        if abs(got - value) > MOMENT_TOL * scale:
            return f"printed measure misses moment {idx}"
    if expected is not None:
        for atom, rho in expected:
            w, got = min(measure, key=lambda m: math.dist(m[0], atom))
            if math.dist(w, atom) > MEASURE_TOL * max(1.0, math.hypot(*atom)) \
                    or not _close(got, rho, MEASURE_TOL):
                return f"atom {atom} not recovered"
    return None


def _points_problem(lines, fixture):
    points = []
    for line in lines:
        m = _POINT.match(line)
        if m:
            points.append(tuple(_num(x) for x in m.group(1).split(",")))
    _, card, expected, _, _ = PAPER[fixture]
    if card != "infinite" and len(points) != int(card):
        return f"{len(points)} points printed, paper has {card}"
    if expected is not None:
        for atom, _ in expected:
            if not any(math.dist(p, atom) <= MEASURE_TOL * max(1.0, math.hypot(
                    *atom)) for p in points):
                return f"point {atom} missing"
    if fixture == "ex44":
        xs = sorted(p[0] for p in points)
        if any(abs(a - b) > 1e-4 for a, b in zip(xs, EX44_X)):
            return "ex44 abscissae differ from criterion 2"
    return None


def judge_cli(case, code, out, moments) -> tuple:
    fixture, command = case.fixture, case.command
    rank, card, expected, count, consistency = PAPER[fixture]
    lines = out.splitlines()
    text = "\n".join(lines)

    def need(*patterns):
        for p in patterns:
            if p not in text:
                return f"missing {p!r}"
        return None

    if code == 1:
        return WRONG, "input error on a valid fixture"
    if command == "solve":
        if fixture == "thm62_a8_8":
            want = 2
            problem = need("status: NoMeasure", "reason: Inconsistent")
            if problem is None:
                value = [ln for ln in lines
                         if ln.startswith("functional value")]
                if not value or abs(_num(value[0].split(":")[1])
                                    + 405 / 128) > 1e-9:
                    problem = "functional value is not -405/128"
        elif fixture in ("ex42_hyperbola", "ex71"):
            want = 3
            problem = need("status: NotExtremal",
                           f"rank M(n) = {rank}, card variety = {card}")
        else:
            want = 0
            problem = need("status: Measure",
                           f"rank M(n) = {rank}, card variety = {card}") \
                or _measure_problem(_printed_measure(lines), moments,
                                    expected, count)
    elif command == "variety":
        want = 0
        problem = None if re.search(rf"^rank M\(\d+\) = {rank}$", text,
                                    re.M) else f"rank is not {rank}"
        problem = problem or need("variety: Infinite" if card == "infinite"
                                  else f"variety: Finite, card {card}")
        if problem is None and card == "infinite":
            problem = need("common factor: -1 + YX")
        problem = problem or _points_problem(lines, fixture)
    elif command == "analyze":
        want = 0
        problem = need(f"rank {rank}, psd PSD",
                       "variety: Infinite" if card == "infinite"
                       else f"variety: Finite, card {card}")
        if problem is None and consistency is not None:
            problem = need(f"consistency: {consistency}")
        problem = problem or _points_problem(lines, fixture)
    else:  # extend
        if fixture == "ex42_hyperbola":
            # No stated result: only a printed measure can be checked.
            if code != 0:
                return UNKNOWN, "no stated result"
            want, problem = 0, _measure_problem(_printed_measure(lines),
                                                moments, None, None)
        elif fixture == "thm62_a8_8":
            want, problem = 2, None
        else:
            want = 0
            problem = need("handoff solve: Measure") or _measure_problem(
                _printed_measure(lines), moments, expected, count)
    if code == 3 and want != 3:
        return UNKNOWN, "inconclusive"
    if code != want:
        return WRONG, f"exit {code}, paper result gives {want}"
    if problem:
        return WRONG, problem
    return CORRECT, ""
