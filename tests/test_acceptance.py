"""Acceptance suite: one orchestrated end-to-end check per criterion.

Each test prints exactly one `[PASS]`/`[FAIL]` summary line (bypassing pytest
capture) and collects every sub-check so a failure reports all offending
assertions for that criterion, not just the first.
"""

import contextlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy as sp

import extremal_moments as em
from extremal_moments.polycore import Polynomial
from extremal_moments.variety import VarietyReport, vanishing_ideal

from conftest import eval_matrix_rank, multisequence_combine

SQRT6 = math.sqrt(6.0)
SQRT13 = math.sqrt(13.0)
SQRT15 = math.sqrt(15.0)

#: Column basis and interpolation target of the cubic-curve scenario.
SCENARIO_BASIS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1),
                  (1, 2))
SCENARIO_TARGET = (2, 2)

#: Exact correction polynomial of the curve scenario.
H_TERMS = {
    (2, 2): F(1),
    (1, 0): F(6),
    (2, 0): F(-14),
    (0, 1): F(-11, 2),
    (1, 1): F(43, 2),
    (2, 1): F(-1),
    (0, 2): F(-17, 2),
    (1, 2): F(1, 2),
}

#: Exact boundary weight at which the compressed scenario matrix turns PSD.
ALPHA = F(6012817451, 862617600)

#: Eleven generators of the degree-4 vanishing ideal of the four-point
#: parabola/circle variety; a representing measure forces all of them to be
#: annihilated by the moment functional.
PARABOLA_CIRCLE_IDEAL = (
    {(0, 1): F(1, 2), (1, 1): F(1)},
    {(0, 0): F(-2), (1, 0): F(4), (2, 0): F(1), (0, 2): F(1)},
    {(0, 0): F(-1), (2, 0): F(9, 2), (3, 0): F(1)},
    {(0, 1): F(-1, 4), (2, 1): F(1)},
    {(0, 0): F(1), (1, 0): F(-2), (2, 0): F(-1, 2), (1, 2): F(1)},
    {(0, 1): F(-15, 4), (0, 3): F(1)},
    {(0, 0): F(9, 2), (1, 0): F(-1), (2, 0): F(-81, 4), (4, 0): F(1)},
    {(0, 1): F(1, 8), (3, 1): F(1)},
    {(0, 0): F(-1, 2), (1, 0): F(1), (2, 0): F(1, 4), (2, 2): F(1)},
    {(0, 1): F(15, 8), (1, 3): F(1)},
    {(0, 0): F(-15, 2), (1, 0): F(15), (2, 0): F(15, 4), (0, 4): F(1)},
)

#: Frozen seed for the randomized property suite (verified reproducible).
PROPERTY_SEED = 271828
PROPERTY_INSTANCES = 200


class _Collector:
    """Accumulates named sub-checks; failures are reported together."""

    def __init__(self, label):
        self.label = label
        self.checks = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.checks += 1
        if not ok:
            self.failures.append(name + (f" ({detail})" if detail else ""))

    def close(self, name, actual, expected, tol):
        self.check(name, abs(float(actual) - float(expected)) <= tol,
                   f"{float(actual)!r} vs {float(expected)!r} tol {tol}")

    def equal(self, name, actual, expected):
        self.check(name, actual == expected, f"{actual!r} != {expected!r}")


@contextlib.contextmanager
def criterion(capsys, label):
    col = _Collector(label)
    try:
        yield col
    except Exception as exc:  # surfaced on the summary line, then re-raised
        col.failures.append(f"unexpected {type(exc).__name__}: {exc}")
        _emit(capsys, col)
        raise
    _emit(capsys, col)
    assert not col.failures, "; ".join(col.failures)


def _emit(capsys, col):
    verdict = "PASS" if not col.failures else "FAIL"
    line = f"[{verdict}] {col.label}: {col.checks} checks"
    if col.failures:
        line += " -- " + "; ".join(col.failures[:4])
    with capsys.disabled():
        print(f"\n{line}", flush=True)


def _sorted_measure(measure):
    return sorted(zip([tuple(float(c) for c in a) for a in measure.atoms],
                      [float(r) for r in measure.densities]))


def test_criterion_1_parabola_circle_end_to_end(ex15, capsys):
    with criterion(capsys, "parabola/circle end-to-end") as c:
        matrix = em.build_moment_matrix(ex15)
        report = em.rank_kernel(matrix)
        c.equal("rank M(2)", report.rank, 4)
        kernel_terms = {frozenset(p.terms.items()) for p in report.kernel}
        expected_kernel = {
            frozenset({((1, 1), F(1)), ((0, 1), F(1, 2))}),
            frozenset({((0, 2), F(1)), ((2, 0), F(1)), ((1, 0), F(4)),
                       ((0, 0), F(-2))}),
        }
        c.equal("kernel polynomials (exact)", kernel_terms, expected_kernel)

        var = em.compute_variety(report.kernel)
        c.equal("variety status", var.status, "Finite")
        c.equal("variety cardinality", len(var.points), 4)
        got = sorted((float(x), float(y)) for x, y in var.points)
        want = sorted([(-2.0 - SQRT6, 0.0), (-0.5, -SQRT15 / 2),
                       (-0.5, SQRT15 / 2), (-2.0 + SQRT6, 0.0)])
        for i, (g, w) in enumerate(zip(got, want)):
            c.close(f"point {i} x (tol 1e-9)", g[0], w[0], 1e-9)
            c.close(f"point {i} y (tol 1e-9)", g[1], w[1], 1e-9)

        w4 = em.build_W(var.points, 4)
        rank_w4 = eval_matrix_rank(w4)
        c.equal("rank W_4", rank_w4, 4)
        c.equal("dim ker W_4", len(w4.monomials) - rank_w4, 11)
        for i, terms in enumerate(PARABOLA_CIRCLE_IDEAL, start=1):
            value = em.riesz(ex15, Polynomial(2, terms))
            c.equal(f"Lambda(f_{i}) exact zero", value, 0)

        solved = em.solve_extremal(ex15)
        c.equal("solve status", solved.status, "Measure")
        pairs = _sorted_measure(solved.measure)
        # Conjugate pair (-1/2, +-sqrt(15)/2): density exactly 1/5.  The
        # emitted rationals sit on refined (width 1e-40) coordinates, so the
        # library value agrees with 1/5 to far below any float tolerance; the
        # symbolic oracle below certifies the exact value itself.
        for idx in (1, 2):
            exact_rho = solved.measure.densities[
                [i for i, a in enumerate(solved.measure.atoms)
                 if float(a[0]) == pairs[idx][0][0]
                 and float(a[1]) == pairs[idx][0][1]][0]]
            c.check(f"density at point {idx} == 1/5",
                    abs(exact_rho - F(1, 5)) < F(1, 10**30),
                    f"off by {float(abs(exact_rho - F(1, 5)))}")
        c.close("density at (-2-sqrt6,0) (tol 1e-6)",
                pairs[0][1], 0.0142262, 1e-6)
        c.close("density at (-2+sqrt6,0) (tol 1e-6)",
                pairs[3][1], 0.585774, 1e-6)

        # Independent symbolic oracle: solve the same Vandermonde system with
        # exact surds and compare against the closed forms.
        s6, s15 = sp.sqrt(6), sp.sqrt(15)
        atoms = [(-2 - s6, sp.Integer(0)), (sp.Rational(-1, 2), -s15 / 2),
                 (sp.Rational(-1, 2), s15 / 2), (-2 + s6, sp.Integer(0))]
        basis = [(0, 0), (1, 0), (0, 1), (2, 0)]
        vb = sp.Matrix([[sp.expand(x ** i * y ** j) for (x, y) in atoms]
                        for (i, j) in basis])
        lam = sp.Matrix([[sp.Rational(ex15[idx])] for idx in basis])
        rho = [sp.simplify(r) for r in vb.solve(lam)]
        c.check("oracle: pair densities exactly 1/5",
                rho[1] == sp.Rational(1, 5) and rho[2] == sp.Rational(1, 5),
                f"{rho[1]}, {rho[2]}")
        c.check("oracle: closed forms 3/10 -+ 7*sqrt(6)/60",
                sp.simplify(rho[0] - (sp.Rational(3, 10)
                                      - 7 * sp.sqrt(6) / 60)) == 0
                and sp.simplify(rho[3] - (sp.Rational(3, 10)
                                          + 7 * sp.sqrt(6) / 60)) == 0,
                f"{rho[0]}, {rho[3]}")


def test_criterion_2_cubic_curve_recovery(ex44, capsys):
    with criterion(capsys, "cubic-curve seven-point recovery") as c:
        matrix = em.build_moment_matrix(ex44)
        c.equal("rank M(3)", em.rank_kernel(matrix).rank, 7)

        solved = em.solve_extremal(ex44)
        c.equal("solve status", solved.status, "Measure")
        pairs = _sorted_measure(solved.measure)
        xs = [p[0][0] for p in pairs]
        for got_x, want_x in zip(xs, [-8.36748, -1.7299, -0.996357, 0.0,
                                      0.996357, 1.7299, 8.36748]):
            c.close("variety x (tol 1e-4)", got_x, want_x, 1e-4)
        by_absx = {}
        for (x, _y), rho in pairs:
            by_absx.setdefault(round(abs(x), 4), []).append(rho)
        c.close("density at x=0 (tol 1e-5)",
                by_absx[round(0.0, 4)][0], 0.331731, 1e-5)
        for rho in by_absx[round(0.996357, 4)]:
            c.close("density at |x|=0.996357 (tol 1e-5)", rho, 0.249980, 1e-5)
        for rho in by_absx[round(1.7299, 4)]:
            c.close("density at |x|=1.7299 (tol 1e-5)", rho, 0.0841544, 1e-5)
        for rho in by_absx[round(8.36748, 4)]:
            c.check("density at |x|=8.36748 in (0, 1e-8)",
                    0.0 < rho < 1e-8, f"{rho!r}")


def _scenario_family(base):
    """a8 -> moment data with weight a8 on the (1/2, 1/8) atom."""
    bump = em.Multisequence(
        2, 6, em.moments_of_atoms(2, 6, [(F(1, 2), F(1, 8))], [F(1)]))

    def beta(a8):
        return multisequence_combine([base, bump], [F(1), a8 - F(8)])

    return beta


def _compressed_matrix(beta):
    """Moment matrix restricted to the scenario column basis."""
    rows = tuple(
        tuple(beta[tuple(a + b for a, b in zip(bi, bj))]
              for bj in SCENARIO_BASIS)
        for bi in SCENARIO_BASIS)
    return em.MomentMatrix(beta, 3, SCENARIO_BASIS, rows)


def test_criterion_3_positivity_threshold(thm62_a8_8, capsys):
    with criterion(capsys, "compressed-matrix positivity threshold") as c:
        family = _scenario_family(thm62_a8_8)
        step = F(1, 10 ** 6)
        below = _compressed_matrix(family(ALPHA - step))
        at = _compressed_matrix(family(ALPHA))
        above = _compressed_matrix(family(ALPHA + step))
        for name, mat in (("below", below), ("at", at), ("above", above)):
            c.check(f"exact arithmetic ({name})", mat.is_exact)
        c.equal("alpha - 1e-6 verdict", em.psd_check(below).status, "NotPSD")
        c.equal("alpha verdict", em.psd_check(at).status, "PSD")
        c.equal("alpha + 1e-6 verdict", em.psd_check(above).status, "PSD")
        # The flip point is a boundary: the compressed matrix is singular
        # exactly at alpha and regular on both sides.
        c.equal("rank below", em.rank_kernel(below).rank, 8)
        c.equal("rank at alpha (singular boundary)",
                em.rank_kernel(at).rank, 7)
        c.equal("rank above", em.rank_kernel(above).rank, 8)


def test_criterion_4_curve_scenario_certificates(thm62_a8_8, prop61, capsys):
    with criterion(capsys, "curve-scenario certificates") as c:
        float_points = [(-2.0, -8.0), (0.0, 0.0), (2.0, 8.0), (1.0, 1.0),
                        (-0.5 + SQRT13 / 2, -5.0 + 2 * SQRT13),
                        (-0.5 - SQRT13 / 2, -5.0 - 2 * SQRT13),
                        (-1.0, -1.0), (0.5, 0.125)]
        vb = em.vandermonde_VB(SCENARIO_BASIS, float_points)
        target = 98415.0 / 4.0 * SQRT13
        c.check("vandermonde invertible", vb.invertible)
        c.check("|det V_B| == (98415/4)*sqrt(13) rel 1e-9",
                abs(abs(float(vb.det)) - target) <= 1e-9 * target,
                f"{vb.det!r}")

        mixed_points = [(F(-2), F(-8)), (F(0), F(0)), (F(2), F(8)),
                        (F(1), F(1)),
                        (-0.5 + SQRT13 / 2, -5.0 + 2 * SQRT13),
                        (-0.5 - SQRT13 / 2, -5.0 - 2 * SQRT13),
                        (F(-1), F(-1)), (F(1, 2), F(1, 8))]
        # h is the relation of Y^2X^2 in the points' vanishing ideal.
        relations, complete = vanishing_ideal(
            VarietyReport.of_points(mixed_points), 4, 2)
        c.check("relations span the vanishing ideal", complete)
        h = relations[SCENARIO_TARGET]
        for idx in sorted(set(h.terms) | set(H_TERMS)):
            c.close(f"h coefficient {idx} (tol 1e-9)",
                    h.terms.get(idx, 0), H_TERMS.get(idx, 0), 1e-9)

        value = em.riesz(thm62_a8_8, Polynomial(2, H_TERMS))
        c.equal("Lambda(h) exactly -405/128", value, F(-405, 128))

        # The consistency stage decides the scenario: h is the first
        # relation that Lambda does not annihilate, found in Fractions.
        refuted = em.Pipeline(thm62_a8_8).consistency
        c.equal("derivation data refuted", refuted.status, "Inconsistent")
        c.equal("refutation witness == h",
                getattr(refuted.witness, "terms", None), H_TERMS)
        c.check("refutation value is a Fraction",
                isinstance(refuted.value, F), repr(refuted.value))
        c.equal("refutation value == -405/128", refuted.value, F(-405, 128))
        confirmed = em.Pipeline(prop61).consistency
        c.equal("measure data confirmed", confirmed.status, "Consistent")


def test_criterion_5_extension_chain(ex71, capsys):
    with criterion(capsys, "rank-increasing extension chain") as c:
        m3 = em.build_moment_matrix(ex71)
        k3 = em.rank_kernel(m3)
        c.equal("rank M(3)", k3.rank, 8)
        var = em.compute_variety(k3.kernel)
        c.equal("variety cardinality", len(var.points), 9)

        ext4 = em.propagate_recursive_extension(m3, k3)
        c.check("M(4) fully determined",
                ext4.well_defined and not ext4.undetermined)
        c.equal("M(4) PSD", ext4.psd.status, "PSD")
        c.equal("rank M(4)", ext4.flat.rank, 9)
        c.check("M(4) not flat (rank grew)", not ext4.flat.flat,
                f"rank {ext4.flat.rank_previous} -> {ext4.flat.rank}")

        k4 = em.rank_kernel(ext4.extended.matrix)
        ext5 = em.propagate_recursive_extension(ext4.extended.matrix, k4)
        c.check("M(5) fully determined",
                ext5.well_defined and not ext5.undetermined)
        c.check("M(5) flat", ext5.flat.flat,
                f"rank {ext5.flat.rank_previous} -> {ext5.flat.rank}")

        search = em.extension_search(ex71, 3)
        c.equal("search status", search.status, "FlatAt")
        c.equal("flat level", search.flat_level, 5)
        solved = em.solve_extremal(search.beta_final)
        c.equal("handoff solve", solved.status, "Measure")
        c.equal("atom count", len(solved.measure.atoms), 9)
        verification = em.verify_measure(ex71, solved.measure)
        c.check("measure reproduces original data (tol 1e-8)",
                verification.ok and verification.residual <= 1e-8,
                f"residual {verification.residual!r}")


def test_criterion_6_unit_circle_family(capsys):
    with criterion(capsys, "unit-circle family (complex transform)") as c:
        for n in (2, 3):
            beta = em.complex_to_real(em.example14_gamma(n, F(1, 2)))
            matrix = em.build_moment_matrix(beta)
            report = em.rank_kernel(matrix)
            c.equal(f"n={n} rank", report.rank, 2 * n)
            c.equal(f"n={n} PSD", em.psd_check(matrix).status, "PSD")
            c.equal(f"n={n} recursively generated",
                    em.recursiveness_check(matrix, report).status,
                    "RecursivelyGenerated")
            var = em.compute_variety(report.kernel)
            c.equal(f"n={n} variety cardinality", len(var.points), 2 * n)
            for x, y in var.points:
                c.close(f"n={n} point on unit circle (tol 1e-8)",
                        float(x) ** 2 + float(y) ** 2, 1.0, 1e-8)


def _three_collinear(atoms):
    for p, q, r in itertools.combinations(atoms, 3):
        det = ((q[0] - p[0]) * (r[1] - p[1])
               - (q[1] - p[1]) * (r[0] - p[0]))
        if det == 0:
            return True
    return False


def _random_instance(rng):
    """Distinct rational atoms, no three collinear, positive densities."""
    while True:
        count = rng.randint(1, 6)
        atoms = [(F(rng.randint(-3, 3), rng.choice((1, 2))),
                  F(rng.randint(-3, 3), rng.choice((1, 2))))
                 for _ in range(count)]
        if len(set(atoms)) != count:
            continue
        if count >= 3 and _three_collinear(atoms):
            continue
        densities = [F(rng.randint(1, 9), rng.randint(1, 9))
                     for _ in range(count)]
        return atoms, densities


def _alternate_basis(atoms, size):
    """First invertible Vandermonde basis scanning monomials from the top."""
    monomials = em.monomial_basis(2, 3)
    for candidate in itertools.combinations(reversed(monomials), size):
        if em.vandermonde_VB(candidate, atoms).invertible:
            return candidate
    return None


def _hankel_ok(matrix):
    seen = {}
    for bi, row in zip(matrix.basis, matrix.rows):
        for bj, value in zip(matrix.basis, row):
            key = tuple(a + b for a, b in zip(bi, bj))
            if seen.setdefault(key, value) != value:
                return False
    return True


def test_criterion_7_property_suite(capsys):
    with criterion(capsys,
                   f"randomized property suite "
                   f"({PROPERTY_INSTANCES} instances)") as c:
        rng = random.Random(PROPERTY_SEED)
        recovered = consistent = propagated = basis_checked = 0
        for index in range(PROPERTY_INSTANCES):
            atoms, densities = _random_instance(rng)
            beta = em.beta_from_atoms(atoms, densities, degree=6)
            solved = em.solve_extremal(beta)
            if solved.status != "Measure":
                c.check(f"instance {index} solved", False,
                        f"{solved.status}: {solved.reason}")
                continue
            got = sorted(zip([tuple(a) for a in solved.measure.atoms],
                             solved.measure.densities))
            want = sorted(zip([tuple(a) for a in atoms],
                              [F(x) for x in densities]))
            if got != want:
                c.check(f"instance {index} exact round-trip", False)
                continue
            recovered += 1

            matrix = em.build_moment_matrix(beta)
            report = em.rank_kernel(matrix)
            verdict = em.consistency_check(beta, solved.variety)
            if verdict.ok:
                consistent += 1
                recursive = em.recursiveness_check(matrix, report)
                if not recursive.ok:
                    c.check(f"instance {index} consistent => recursive",
                            False, recursive.status)

            extension = em.propagate_recursive_extension(matrix, report)
            if extension.well_defined and extension.extended is not None:
                propagated += 1
                if not _hankel_ok(extension.extended.matrix):
                    c.check(f"instance {index} extension Hankel property",
                            False)

            if index % 10 == 0:
                alt = _alternate_basis(atoms, len(atoms))
                resolved = em.solve_extremal(beta, basis=alt)
                same = (resolved.status == "Measure"
                        and sorted(zip([tuple(a) for a in
                                        resolved.measure.atoms],
                                       resolved.measure.densities)) == got)
                if same:
                    basis_checked += 1
                else:
                    c.check(f"instance {index} basis independence", False,
                            f"basis {alt}")
        c.equal("exact round-trips", recovered, PROPERTY_INSTANCES)
        c.equal("consistency held everywhere", consistent,
                PROPERTY_INSTANCES)
        c.equal("well-defined Hankel extensions", propagated,
                PROPERTY_INSTANCES)
        c.equal("alternate-basis re-solves", basis_checked,
                PROPERTY_INSTANCES // 10)
