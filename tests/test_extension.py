"""Recursive moment-matrix extensions, flatness, and tightness."""

from fractions import Fraction as F

import pytest

import extremal_moments as em


#: Exact correction polynomial of the curve scenario; doubles as the
#: degree-four kernel element detected by the tightness derivation witness.
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


def conflict_data():
    # M(2) kernel contains X, yet beta_4 = 1: every derivation path through
    # the relation contradicts the recorded moment.
    return em.Multisequence(1, 4, {(0,): F(1), (1,): F(0), (2,): F(0),
                                   (3,): F(0), (4,): F(1)})


def measure_matrix(measure, m):
    """M(m) of the moments of a finitely-atomic measure."""
    return em.build_moment_matrix(em.beta_from_atoms(
        measure.atoms, measure.densities, measure.d, 2 * m))


def compresses_to(m_n1, m_n):
    """Is the M(n) block of *m_n1* equal to *m_n*?"""
    return all(m_n1.rows[i][j] == m_n.rows[i][j]
               for i in range(m_n.size) for j in range(m_n.size))


class TestExtendViaMeasure:
    def test_matrix_of_atomic_measure(self):
        measure = em.AtomicMeasure(1, ((F(0),), (F(1),)), (F(2), F(3)))
        matrix = measure_matrix(measure, 3)
        assert matrix.n == 3
        assert em.rank_kernel(matrix).rank == 2
        assert em.psd_check(matrix).ok

    def test_consecutive_levels_are_flat(self):
        measure = em.AtomicMeasure(1, ((F(0),), (F(1),)), (F(2), F(3)))
        m2, m3 = measure_matrix(measure, 2), measure_matrix(measure, 3)
        assert compresses_to(m3, m2)
        flatness = em.Pipeline(m3.beta).flatness
        assert flatness.flat
        assert flatness.rank == flatness.rank_previous == 2


class TestPropagate:
    def test_first_step_well_defined_not_flat(self, ex71):
        matrix = em.build_moment_matrix(ex71)
        ext = em.propagate_recursive_extension(matrix, em.rank_kernel(matrix))
        assert ext.source_n == 3
        assert ext.well_defined
        assert ext.conflicts == ()
        assert ext.undetermined == ()
        assert ext.extended.beta.degree == 8
        assert em.rank_kernel(ext.extended.matrix).rank == 9
        assert not ext.flat.flat
        assert ext.psd.ok

    def test_second_step_is_flat(self, ex71):
        matrix = em.build_moment_matrix(ex71)
        first = em.propagate_recursive_extension(matrix,
                                                 em.rank_kernel(matrix))
        second = em.propagate_recursive_extension(
            first.extended.matrix, em.rank_kernel(first.extended.matrix))
        assert second.well_defined
        assert second.flat.flat
        assert em.rank_kernel(second.extended.matrix).rank == 9

    def test_conflicting_paths_reported(self):
        matrix = em.build_moment_matrix(conflict_data())
        ext = em.propagate_recursive_extension(matrix, em.rank_kernel(matrix))
        assert not ext.well_defined
        assert len(ext.conflicts) > 0
        p, s, value = ext.conflicts[0]
        assert p.terms == {(1,): F(1)}
        assert value != 0

    def test_each_conflict_listed_once(self):
        # Every product x^s * p is one equation, however many (row, column)
        # pairs of M(3) it fills: only X^3 * X = X^4 meets beta_4 = 1.
        matrix = em.build_moment_matrix(conflict_data())
        ext = em.propagate_recursive_extension(matrix, em.rank_kernel(matrix))
        assert [s for _, s, _ in ext.conflicts] == [(3,)]

    def test_derivation_data_extends_but_loses_psd(self, thm62_a8_8):
        matrix = em.build_moment_matrix(thm62_a8_8)
        ext = em.propagate_recursive_extension(matrix, em.rank_kernel(matrix))
        assert ext.well_defined
        assert not ext.psd.ok
        assert not ext.flat.flat


class TestFlatExtensionCheck:
    def test_rank_growth_detected(self, ex71):
        matrix = em.build_moment_matrix(ex71)
        ext = em.propagate_recursive_extension(matrix, em.rank_kernel(matrix))
        assert compresses_to(ext.extended.matrix, matrix)
        assert not ext.flat.flat
        assert (ext.flat.rank_previous, ext.flat.rank) == (8, 9)


class TestTightness:
    def test_span_bound_inconclusive(self, prop61, prop61_deg8):
        verdict = em.tightness_check(em.build_moment_matrix(prop61),
                                     em.build_moment_matrix(prop61_deg8))
        assert verdict.status == "Inconclusive"
        assert verdict.dim_next == 7
        assert verdict.bound == 6
        assert "derivation" in verdict.reason

    def test_derivation_witness_refutes_tightness(self, prop61, prop61_deg8):
        # An exact witness decides at any size: a0 = 1e-12 lies far below
        # the float tolerance.
        m_n = em.build_moment_matrix(prop61)
        m_n1 = em.build_moment_matrix(prop61_deg8)
        for a0 in (F(1), F(1, 10**12)):
            derivation = em.Derivation((F(1, 2), F(1, 8)), (F(1), F(3, 4)),
                                       a0)
            verdict = em.tightness_check(m_n, m_n1, derivation=derivation)
            assert verdict.status == "NotTight"
            assert verdict.value == F(-405, 128) * a0
            assert verdict.witness.terms == H_TERMS

    def test_float_derivation_below_tolerance_is_inconclusive(
            self, prop61, prop61_deg8):
        # The float twin of the a0 = 1e-12 witness: a value of about -3e-12
        # is within the float tolerance, so it certifies nothing.
        derivation = em.Derivation((0.5, 0.125), (1.0, 0.75), 1e-12)
        verdict = em.tightness_check(em.build_moment_matrix(prop61),
                                     em.build_moment_matrix(prop61_deg8),
                                     derivation=derivation)
        assert verdict.status == "Inconclusive"

    def test_invalid_derivation_ignored(self, prop61, prop61_deg8):
        # A derivation that fails to annihilate ker M(n) cannot witness.
        derivation = em.Derivation((F(0), F(0)), (F(1), F(0)))
        verdict = em.tightness_check(em.build_moment_matrix(prop61),
                                     em.build_moment_matrix(prop61_deg8),
                                     derivation=derivation)
        assert verdict.status == "Inconclusive"

    def test_single_atom_is_tight(self):
        measure = em.AtomicMeasure(1, ((F(0),),), (F(1),))
        verdict = em.tightness_check(measure_matrix(measure, 1),
                                     measure_matrix(measure, 2))
        assert verdict.status == "Tight"
        assert verdict.dim_next == verdict.bound == 2

    def test_recovered_planar_measure_is_tight(self, ex15):
        report = em.solve_extremal(ex15)
        m3 = measure_matrix(report.measure, 3)
        verdict = em.tightness_check(em.build_moment_matrix(ex15), m3)
        assert verdict.status == "Tight"


class TestExtensionSearch:
    def test_flat_at_level_five(self, ex71):
        search = em.extension_search(ex71, max_steps=3)
        assert search.status == "FlatAt"
        assert search.flat_level == 5
        assert len(search.steps) == 2
        assert search.beta_final.degree == 10
        assert [step.flat.flat for step in search.steps] == [False, True]

    def test_step_budget_exhausts(self, ex71):
        search = em.extension_search(ex71, max_steps=1)
        assert search.status == "Exhausted"
        assert len(search.steps) == 1

    def test_conflict_stops_search(self):
        search = em.extension_search(conflict_data())
        assert search.status == "IllDefined"
        assert len(search.steps) == 1

    def test_psd_failure_stops_search(self, thm62_a8_8):
        search = em.extension_search(thm62_a8_8, max_steps=3)
        assert search.status == "NotPSD"
        assert len(search.steps) == 1

    @pytest.mark.parametrize("values", [
        ("1", "0", "-1"), ("1", "0", "-1", "0", "1"),
        ("1", "2", "3"), (1.0, 0.0, -1.0)],
        ids=["invertible", "kernel", "other invertible", "float"])
    def test_non_psd_input_stops_before_any_step(self, values):
        # With or without a kernel, an M(n) that is not PSD is the
        # certificate, and no extension is tried.
        beta = em.Multisequence(1, len(values) - 1, {
            (i,): F(v) if isinstance(v, str) else v
            for i, v in enumerate(values)})
        search = em.extension_search(beta)
        assert (search.status, search.steps) == ("NotPSD", ())
        assert search.final.beta == beta
        assert not search.final.psd.ok

    def test_invertible_matrix_undetermined(self):
        beta = em.beta_from_atoms([(F(0),), (F(1),), (F(2),)],
                                  [F(1), F(1), F(1)], degree=4)
        search = em.extension_search(beta)
        assert search.status == "Undetermined"
        assert search.steps == ()
