"""Consistency checks, degree-one invariance, and the curve scenario decided
by the consistency stage."""

import math
import random
from fractions import Fraction as F

import pytest

import extremal_moments as em
from extremal_moments import consistency
from extremal_moments.moments import riesz
from extremal_moments.polycore import Polynomial, is_exact, monomial_basis
from extremal_moments.variety import (
    VarietyReport,
    _residual_ok,
    vanishing_ideal,
)

from conftest import as_float, fixture_path, multisequence_combine


#: Exact correction polynomial of the curve scenario (vanishes on the eight
#: scenario points; annihilated by a functional iff a measure exists), the
#: relation of Y^2X^2 in their vanishing ideal.
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


def scenario_points_float():
    s13 = math.sqrt(13.0)
    return [(-2.0, -8.0), (0.0, 0.0), (2.0, 8.0), (1.0, 1.0),
            (-0.5 + s13 / 2, -5.0 + 2 * s13),
            (-0.5 - s13 / 2, -5.0 - 2 * s13),
            (-1.0, -1.0), (0.5, 0.125)]


def variety_of(beta):
    report = em.rank_kernel(em.build_moment_matrix(beta))
    return em.compute_variety(report.kernel)


class TestConsistencyCheck:
    def test_consistent_data(self, ex15):
        verdict = em.consistency_check(ex15, variety_of(ex15))
        assert verdict.ok
        assert verdict.status == "Consistent"

    def test_infinite_variety_is_unknown(self, ex42):
        verdict = em.consistency_check(ex42, variety_of(ex42))
        assert verdict.status == "Unknown"
        assert "Infinite" in verdict.reason

    def test_corrupted_data_is_inconsistent(self):
        beta = em.Multisequence(1, 4, {(0,): F(3), (1,): F(3), (2,): F(5),
                                       (3,): F(9), (4,): F(18)})
        points = [(F(0),), (F(1),), (F(2),)]
        verdict = em.consistency_check(beta, VarietyReport.of_points(points))
        assert verdict.status == "Inconsistent"
        assert verdict.value != 0
        for w in points:
            assert verdict.witness.evaluate(w) == 0

    def test_scenario_measure_data_is_consistent(self, prop61):
        verdict = em.consistency_check(prop61, variety_of(prop61))
        assert verdict.ok

    def test_derivation_data_is_inconsistent(self, thm62_a8_8):
        verdict = em.consistency_check(thm62_a8_8, variety_of(thm62_a8_8))
        assert verdict.status == "Inconsistent"
        assert abs(float(verdict.value)) > 1e-6
        for w in variety_of(thm62_a8_8).points:
            assert abs(float(verdict.witness.evaluate(w))) < 1e-6

    @pytest.mark.parametrize("name, status", [
        ("ex44", "Unknown"), ("ex71", "Unknown"),
        ("thm62_a8_8", "Inconsistent")])
    def test_float_witness_must_vanish_on_the_points(self, name, status,
                                                     request):
        # ex44 and ex71 have measures; their float first witnesses miss
        # some variety points, so they refute nothing.  thm62's vanishes.
        beta = as_float(request.getfixturevalue(name))
        variety = variety_of(beta)
        verdict = em.consistency_check(beta, variety)
        assert verdict.status == status
        if status == "Unknown":
            assert "witness" in verdict.reason
        else:
            assert all(_residual_ok(verdict.witness, w)
                       for w in variety.points)

    def test_empty_variety_and_zero_data_is_consistent(self):
        beta = em.Multisequence(2, 2, dict.fromkeys(monomial_basis(2, 2), 0))
        verdict = em.consistency_check(beta, VarietyReport("Finite"))
        assert verdict.status == "Consistent"

    def test_empty_variety_witness_is_first_nonzero_moment(self):
        # Every polynomial vanishes on the empty set; X is the first monomial
        # (degree-lex) whose moment is nonzero.
        values = dict.fromkeys(monomial_basis(2, 2), 0)
        values.update({(1, 0): F(3), (0, 2): F(1)})
        beta = em.Multisequence(2, 2, values)
        verdict = em.consistency_check(beta, VarietyReport("Finite"))
        assert verdict.status == "Inconsistent"
        assert verdict.witness == Polynomial.monomial(2, (1, 0))
        assert verdict.value == 3

    def test_no_points_is_the_empty_set(self):
        # An empty point list is the empty variety, on which 1 vanishes.
        beta = em.Multisequence(1, 2, {(0,): F(1), (1,): F(0), (2,): F(1)})
        verdict = em.consistency_check(beta, VarietyReport.of_points([]))
        assert verdict.status == "Inconsistent"
        assert verdict.witness == Polynomial.monomial(1, (0,))
        assert verdict.value == 1


def scenario_h(points):
    """The relation of Y^2X^2 in the vanishing ideal of *points*."""
    relations, complete = vanishing_ideal(VarietyReport.of_points(points),
                                          4, 2)
    assert complete
    return relations[(2, 2)]


class TestComputeH:
    """h, the curve scenario's correction of Y^2X^2 over its basis, is the
    relation of Y^2X^2 in the vanishing ideal of the eight points."""

    def test_matches_known_coefficients(self):
        h = scenario_h(scenario_points_float())
        for idx in set(h.terms) | set(H_TERMS):
            expected = float(H_TERMS.get(idx, 0))
            assert abs(float(h.coefficient(idx)) - expected) < 1e-9

    def test_vanishes_on_the_points(self):
        points = scenario_points_float()
        h = scenario_h(points)
        for w in points:
            assert abs(float(h.evaluate(w))) < 1e-6


class TestReducedTest:
    """The paper's reduced test, Lambda(h) = 0, is the consistency stage of
    the decision chain, and the chain decides data outside the curve
    scenario's shape the same way."""

    def test_measure_exists(self, prop61):
        pipe = em.Pipeline(prop61)
        relations, complete = vanishing_ideal(pipe.variety, 4, 2)
        assert complete and relations[(2, 2)].terms == H_TERMS
        assert riesz(prop61, relations[(2, 2)]) == 0
        assert pipe.consistency.status == "Consistent"
        assert em.solve_extremal(pipe).status == "Measure"

    def test_no_measure(self, thm62_a8_8):
        # h is the first relation that Lambda does not annihilate.
        pipe = em.Pipeline(thm62_a8_8)
        verdict = pipe.consistency
        assert verdict.status == "Inconsistent"
        assert verdict.witness.terms == H_TERMS
        assert verdict.value == F(-405, 128)
        report = em.solve_extremal(pipe)
        assert (report.status, report.reason) == ("NoMeasure", "Inconsistent")

    def test_wrong_shape_not_applicable(self, ex15):
        # Degree-four data: not the scenario's shape.
        pipe = em.Pipeline(ex15)
        assert pipe.consistency.status == "Consistent"
        assert em.solve_extremal(pipe).status == "Measure"

    def test_not_psd_not_applicable(self):
        # The chain stops at positivity: no variety, no consistency check.
        beta = em.beta_from_atoms([(F(0), F(0))], [F(-1)], degree=6)
        pipe = em.Pipeline(beta)
        report = em.solve_extremal(pipe)
        assert (report.status, report.reason) == ("NoMeasure", "NotPSD")
        assert "variety" not in vars(pipe)
        assert "consistency" not in vars(pipe)

    def test_wrong_rank_not_applicable(self):
        # Four atoms on the cubic: rank 4, not the scenario's 8.
        atoms = [(F(0), F(0)), (F(1), F(1)), (F(-1), F(-1)), (F(2), F(8))]
        beta = em.beta_from_atoms(atoms, [F(1)] * 4, degree=6)
        pipe = em.Pipeline(beta)
        assert pipe.kernel.rank == 4
        assert pipe.consistency.status == "Consistent"
        report = em.solve_extremal(pipe)
        assert report.status == "Measure"
        assert sorted(report.measure.atoms) == sorted(atoms)


def pushforward(beta, phi):
    """The data of the image measure under phi(x) = Ax + b, computed from
    beta alone: beta^phi_a = Lambda(phi(x)^a)."""
    (A, b), d = phi, beta.d
    coordinates = [Polynomial(d, {(0,) * d: b[i], **{
        tuple(int(k == j) for k in range(d)): A[i][j] for j in range(d)}})
        for i in range(d)]
    powers = {(0,) * d: Polynomial.monomial(d, (0,) * d)}
    for a in monomial_basis(d, beta.degree):  # a - e_i comes before a
        if a not in powers:
            i = next(i for i, e in enumerate(a) if e)
            lower = a[:i] + (a[i] - 1,) + a[i + 1:]
            powers[a] = powers[lower] * coordinates[i]
    return em.Multisequence(d, beta.degree,
                            {a: riesz(beta, powers[a]) for a in beta.values})


def image(phi, w):
    A, b = phi
    return tuple(sum(a * x for a, x in zip(row, w)) + c
                 for row, c in zip(A, b))


def affine(A, b):
    return (tuple(tuple(map(F, row)) for row in A), tuple(map(F, b)))


#: Invertible rational degree-one maps (A, b) for d = 2 and d = 1 data.
D2_MAPS = {
    "shift": affine([[1, 0], [0, 1]], [F(1, 3), F(-2, 7)]),
    "swap": affine([[0, 1], [1, 0]], [0, 0]),
    "rotation": affine([[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]], [0, 0]),
    "shear": affine([[1, 2], [0, 1]], [F(-1, 2), 1]),
}
D1_MAPS = {
    "reflection": affine([[-1]], [F(1, 2)]),
    "scale": affine([[F(2, 3)]], [F(5, 4)]),
}


def drawn(d, shapes):
    """Exact data drawn as the bench's ``exact`` workload draws it (for
    d = 2, the ROADMAP baseline ladder): for each (n, atoms) shape in turn,
    distinct atoms from random.Random(1), sorted, then their densities."""
    rng = random.Random(1)
    top = {1: 40, 2: 9}[d]
    for n, count in shapes:
        atoms = set()
        while len(atoms) < count:
            atoms.add(tuple(F(rng.randint(-top, top), rng.randint(1, 4))
                            for _ in range(d)))
        atoms = sorted(atoms)
        densities = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in atoms]
        yield (f"d{d} {n}/{count}",
               em.beta_from_atoms(atoms, densities, degree=2 * n))


def beside_nonreal_zeros(real_powers, extra=0):
    """d = 1 data: the power sums *real_powers* of unit masses at real
    points plus Re p(i), the functional of the zeros +-i; *extra* is added
    to the last moment."""
    values = [F(s) + [1, 0, -1, 0][k % 4] for k, s in enumerate(real_powers)]
    values[-1] += extra
    return em.Multisequence(1, len(values) - 1,
                            {(k,): v for k, v in enumerate(values)})


def at_sqrt2(degree):
    """Power sums 0..degree of the points -sqrt(2) and sqrt(2)."""
    return [0 if k % 2 else 2 * 2**(k // 2) for k in range(degree + 1)]


D2_INPUTS = [*((name, em.load_multisequence(
    fixture_path(f"{name}.moments.json"))) for name in (
        "ex42_hyperbola", "example15", "prop61", "ex44", "prop61_deg8",
        "ex71", "thm62_a8_8")), *drawn(2, ((3, 8), (4, 12)))]
D1_INPUTS = [*drawn(1, ((8, 8),)),
             # Unit masses at -sqrt(2), 0 and sqrt(2): two refined atoms.
             ("d1 sqrt2", em.Multisequence(1, 6, {
                 (k,): F(at_sqrt2(6)[k] + (k == 0)) for k in range(7)}))]
INVARIANCE_CASES = [
    pytest.param(beta, phi, id=f"{label}-{name}")
    for inputs, maps in ((D2_INPUTS, D2_MAPS), (D1_INPUTS, D1_MAPS))
    for label, beta in inputs for name, phi in maps.items()]


class TestQuotientConsistency:
    @pytest.mark.parametrize("eps", (F(1, 10**9), F(1, 10**12)))
    def test_derivation_part_of_any_size_is_refuted(self, prop61,
                                                    thm62_a8_8, eps):
        # The measure part of thm62_a8_8 plus eps times its derivation part.
        beta = multisequence_combine([prop61, thm62_a8_8], [1 - eps, eps])
        report = em.solve_extremal(beta)
        assert (report.status, report.reason) == ("NoMeasure", "Inconsistent")
        assert report.witness.terms == H_TERMS
        assert report.value == F(-405, 128) * eps

    def test_measure_part_alone_is_a_measure(self, prop61, thm62_a8_8):
        beta = multisequence_combine([prop61, thm62_a8_8], [1, 0])
        assert em.solve_extremal(beta).status == "Measure"

    def test_shifted_ex71_is_consistent(self, ex71):
        beta = pushforward(ex71, affine([[1, 0], [0, 1]], [F(1, 3), 0]))
        pipe = em.Pipeline(beta)
        assert pipe.consistency.status == "Consistent"
        assert (pipe.injectivity.injective, pipe.injectivity.rank_m,
                pipe.injectivity.rank_w) == (True, 8, 8)
        search = em.extension_search(beta)
        assert search.status == "FlatAt"
        handoff = em.solve_extremal(search.final)
        assert handoff.status == "Measure"

    def test_exact_point_decides_beside_nonreal_zeros(self):
        # ker M(4) is spanned by X^3 + X: zeros 0 and +-i, one real point.
        # The exact point decides: X^2 vanishes on it, Lambda(X^2) = -1.
        pipe = em.Pipeline(beside_nonreal_zeros([1] + [0] * 8, extra=1))
        assert [p.terms for p in pipe.kernel.kernel] == [{(1,): 1, (3,): 1}]
        assert pipe.variety.points == ((0,),) and pipe.variety.exact_mask
        verdict = pipe.consistency
        assert verdict.status == "Inconsistent"
        assert verdict.witness == Polynomial.monomial(1, (2,))
        assert verdict.value == -1

    def test_refutation_on_the_radical_is_exact(self):
        # ker M(5) is spanned by (X^2 - 2)(X^2 + 1), whose real zeros are
        # refined; Lambda misses X^10 - NF(X^10) by the 1 added to beta_10.
        pipe = em.Pipeline(beside_nonreal_zeros(at_sqrt2(10), extra=1))
        assert [p.terms for p in pipe.kernel.kernel] \
            == [{(0,): -2, (2,): -1, (4,): 1}]
        assert not any(pipe.variety.exact_mask)
        verdict = pipe.consistency
        assert verdict.status == "Inconsistent"
        assert verdict.witness.terms == {(0,): -10, (2,): -11, (10,): 1}
        assert verdict.value == 1

    @pytest.mark.parametrize("degree", (8, 10))
    def test_refined_points_never_give_consistent(self, degree):
        # Lambda annihilates the radical of (X^2 - 2)(X^2 + 1); only the
        # refined points +-sqrt(2) could decide the rest.
        pipe = em.Pipeline(beside_nonreal_zeros(at_sqrt2(degree)))
        assert len(pipe.variety.points) == 2
        verdict = pipe.consistency
        assert verdict.status == "Unknown"
        assert "non-real" in verdict.reason
        # The two points give rank W 2, not the rank of the radical.
        assert pipe.injectivity.rank_w == 2

    @pytest.mark.parametrize("fixture", ("example15", "prop61", "ex44",
                                         "prop61_deg8", "thm62_a8_8"))
    def test_exact_verdicts_compare_exactly(self, fixture, monkeypatch):
        # Any comparison an exact verdict makes is exact, and the verdict,
        # witness and value are those of riesz in Fractions over every
        # relation of vanishing_ideal.
        flags = []
        significant = consistency.significant

        def recorded(value, scale=1.0):
            flags.append(is_exact(value))
            return significant(value, scale)

        monkeypatch.setattr(consistency, "significant", recorded)
        beta = em.load_multisequence(fixture_path(f"{fixture}.moments.json"))
        pipe = em.Pipeline(beta)
        verdict = pipe.consistency
        assert verdict.status != "Unknown"
        assert all(flags)
        assert verdict_of(verdict) == riesz_verdict(beta, pipe.variety)

    @pytest.mark.parametrize("seed", range(6))
    def test_perturbed_moment_matches_riesz(self, seed):
        # Seeded exact d=2 atoms; one moment of the data is moved off the
        # variety's functional, and the integer identities must find the
        # first relation that riesz finds.
        rng = random.Random(40 + seed)
        atoms = set()
        while len(atoms) < 6 + seed % 2:
            atoms.add((F(rng.randint(-9, 9), rng.randint(1, 4)),
                       F(rng.randint(-9, 9), rng.randint(1, 4))))
        atoms = sorted(atoms)
        beta = em.beta_from_atoms(
            atoms, [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in atoms],
            degree=6)
        variety = em.Pipeline(beta).variety
        assert variety.quotient is not None
        assert em.consistency_check(beta, variety).status == "Consistent"
        values = dict(beta.values)
        moved = rng.choice(sorted(values))
        values[moved] += F(1, rng.randint(1, 9))
        perturbed = em.Multisequence(2, 6, values)
        verdict = em.consistency_check(perturbed, variety)
        assert verdict.status == "Inconsistent"
        assert verdict_of(verdict) == riesz_verdict(perturbed, variety)


@pytest.mark.parametrize("beta, phi", INVARIANCE_CASES)
def test_degree_one_map_keeps_the_answer(beta, phi):
    # A degree-one map keeps status, rank and card V, and the image data's
    # points and densities are those of the data, with the points mapped:
    # exactly at exact points, and to within the refinement elsewhere
    # (refined midpoints are Fractions as well).
    report = em.solve_extremal(beta)
    mapped = em.solve_extremal(pushforward(beta, phi))
    assert (mapped.status, mapped.rank, mapped.v) \
        == (report.status, report.rank, report.v)
    exact = dict(zip(mapped.variety.points, mapped.variety.exact_mask))
    for (w, rho), (v, sigma) in zip(atoms_of(report, phi), atoms_of(mapped)):
        assert v == w if exact[v] else close(v, w)
        if rho is not None:
            assert sigma == rho if all(exact.values()) \
                else close([sigma], [rho])


def atoms_of(report, phi=None):
    """(point, density) pairs of a solve, sorted by value: the atoms of its
    measure, else its variety's points with density None; *phi* maps the
    points."""
    if report.measure is None:
        atoms = [(w, None) for w in report.variety.points]
    else:
        atoms = zip(report.measure.atoms, report.measure.densities)
    return sorted(((image(phi, w) if phi else w, rho) for w, rho in atoms),
                  key=lambda atom: tuple(map(float, atom[0])))


def close(u, v):
    return all(abs(x - y) < 1e-30 for x, y in zip(u, v))


def verdict_of(verdict):
    return verdict.status, verdict.witness, verdict.value


def riesz_verdict(beta, variety):
    """(status, witness, value): the first relation of vanishing_ideal that
    riesz, in Fractions, does not take to 0."""
    relations, complete = vanishing_ideal(variety, beta.degree, beta.d)
    for p in relations.values():
        value = riesz(beta, p)
        assert isinstance(value, F)
        if value != 0:
            return "Inconsistent", p, value
    return ("Consistent" if complete else "Unknown"), None, None
