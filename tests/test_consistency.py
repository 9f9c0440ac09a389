"""Consistency checks, signed representations, and the curve-scenario test."""

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

from conftest import as_float, fixture_path


#: Exact correction polynomial of the curve scenario (vanishes on the eight
#: scenario points; annihilated by a functional iff a measure exists).
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


class TestSignedRepresentation:
    def test_exact_two_atoms(self):
        beta = em.beta_from_atoms([(F(0),), (F(1),)], [F(2), F(3)], degree=2)
        rep = em.signed_representation(
            beta, VarietyReport.of_points([(F(0),), (F(1),)]))
        assert rep.valid
        assert rep.residual == 0.0
        weights = dict(zip(rep.atoms, rep.weights))
        assert weights[(F(0),)] == 2
        assert weights[(F(1),)] == 3

    def test_unit_weights_on_scenario(self, prop61):
        variety = variety_of(prop61)
        rep = em.signed_representation(prop61, variety)
        assert rep.valid
        assert len(rep.weights) == 8
        for wt in rep.weights:
            assert abs(float(wt) - 1.0) < 1e-6

    def test_derivation_part_is_unrepresentable(self, thm62_a8_8):
        rep = em.signed_representation(thm62_a8_8, variety_of(thm62_a8_8))
        assert not rep.valid
        assert rep.residual > 1e-3

    def test_requires_points(self, prop61):
        with pytest.raises(ValueError):
            em.signed_representation(prop61, VarietyReport.of_points([]))


class TestComputeH:
    def test_matches_known_coefficients(self):
        h = em.compute_h(scenario_points_float())
        for idx in set(h.terms) | set(H_TERMS):
            expected = float(H_TERMS.get(idx, 0))
            assert abs(float(h.coefficient(idx)) - expected) < 1e-9

    def test_vanishes_on_the_points(self):
        points = scenario_points_float()
        h = em.compute_h(points)
        for w in points:
            assert abs(float(h.evaluate(w))) < 1e-6

    def test_point_count_enforced(self):
        with pytest.raises(ValueError):
            em.compute_h(scenario_points_float()[:5])


class TestReducedTest:
    def test_measure_exists(self, prop61):
        verdict = em.reduced_consistency_test(prop61)
        assert verdict.status == "MeasureExists"
        assert verdict.value == 0
        assert verdict.witness.terms == H_TERMS

    def test_no_measure(self, thm62_a8_8):
        verdict = em.reduced_consistency_test(thm62_a8_8)
        assert verdict.status == "NoMeasure"
        assert abs(float(verdict.value) - (-405.0 / 128.0)) < 1e-12
        assert verdict.reason is not None

    def test_wrong_shape_not_applicable(self, ex15):
        verdict = em.reduced_consistency_test(ex15)
        assert verdict.status == "NotApplicable"
        assert "degree-6" in verdict.reason

    def test_not_psd_not_applicable(self):
        beta = em.beta_from_atoms([(F(0), F(0))], [F(-1)], degree=6)
        verdict = em.reduced_consistency_test(beta)
        assert verdict.status == "NotApplicable"
        assert "PSD" in verdict.reason

    def test_wrong_rank_not_applicable(self):
        atoms = [(F(0), F(0)), (F(1), F(1)), (F(-1), F(-1)), (F(2), F(8))]
        beta = em.beta_from_atoms(atoms, [F(1)] * 4, degree=6)
        verdict = em.reduced_consistency_test(beta)
        assert verdict.status == "NotApplicable"
        assert "rank" in verdict.reason


class TestSimpleZeroCertificate:
    def test_transversal_circle_line(self):
        r1 = Polynomial(2, {(2, 0): F(1), (0, 2): F(1), (0, 0): F(-1)})
        r2 = Polynomial(2, {(0, 1): F(1), (1, 0): F(-1)})
        s = math.sqrt(0.5)
        verdict = em.simple_zero_certificate(r1, r2, [(s, s), (-s, -s)])
        assert verdict.certified
        assert verdict.reasons == ()

    def test_wrong_point_count(self):
        r1 = Polynomial(2, {(2, 0): F(1), (0, 2): F(1), (0, 0): F(-1)})
        r2 = Polynomial(2, {(0, 1): F(1), (1, 0): F(-1)})
        s = math.sqrt(0.5)
        verdict = em.simple_zero_certificate(r1, r2, [(s, s)])
        assert not verdict.certified
        assert any("count" in r for r in verdict.reasons)

    def test_tangential_meeting_rejected(self):
        r1 = Polynomial(2, {(0, 1): F(1), (2, 0): F(-1)})  # y - x^2
        r2 = Polynomial(2, {(0, 1): F(1)})                 # y
        verdict = em.simple_zero_certificate(r1, r2, [(0.0, 0.0)])
        assert not verdict.certified
        assert any("Jacobian" in r for r in verdict.reasons)

    def test_shared_leading_zero_rejected(self):
        r1 = Polynomial(2, {(2, 0): F(1), (0, 2): F(-1)})  # x^2 - y^2
        r2 = Polynomial(2, {(2, 0): F(1), (0, 2): F(-1), (0, 0): F(1)})
        verdict = em.simple_zero_certificate(r1, r2, [])
        assert not verdict.certified
        assert any("infinity" in r for r in verdict.reasons)


def shifted(beta, s):
    """The data pushed forward by x -> x + s, by binomial sums."""
    return em.Multisequence(beta.d, beta.degree, {
        (i, j): sum(math.comb(i, k) * s**(i - k) * beta[(k, j)]
                    for k in range(i + 1))
        for (i, j) in beta.values})


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


class TestQuotientConsistency:
    @pytest.mark.parametrize("eps", (F(1, 10**9), F(1, 10**12)))
    def test_derivation_part_of_any_size_is_refuted(self, prop61,
                                                    thm62_a8_8, eps):
        # The measure part of thm62_a8_8 plus eps times its derivation part.
        beta = em.multisequence_combine([prop61, thm62_a8_8], [1 - eps, eps])
        report = em.solve_extremal(beta)
        assert (report.status, report.reason) == ("NoMeasure", "Inconsistent")
        assert report.witness.terms == H_TERMS
        assert report.value == F(-405, 128) * eps

    def test_measure_part_alone_is_a_measure(self, prop61, thm62_a8_8):
        beta = em.multisequence_combine([prop61, thm62_a8_8], [1, 0])
        assert em.solve_extremal(beta).status == "Measure"

    def test_shifted_ex71_is_consistent(self, ex71):
        beta = shifted(ex71, F(1, 3))
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
