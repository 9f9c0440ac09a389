"""End-to-end solve: decide existence and recover the atomic measure."""

import functools
import math
import random
from fractions import Fraction as F

import pytest

import extremal_moments as em
from extremal_moments import polycore
from extremal_moments.polycore import InputError, monomial_basis

from conftest import as_float, d3_measure, fixture_path


SQRT6 = math.sqrt(6.0)
SQRT15 = math.sqrt(15.0)


def sorted_measure(report):
    pairs = sorted(zip(report.measure.atoms, report.measure.densities),
                   key=lambda ar: tuple(float(x) for x in ar[0]))
    atoms = [tuple(float(x) for x in w) for w, _ in pairs]
    densities = [float(r) for _, r in pairs]
    return atoms, densities


class TestSolveMeasure:
    def test_parabola_circle_data(self, ex15):
        report = em.solve_extremal(ex15)
        assert report.status == "Measure"
        assert report.rank == 4
        assert report.v == 4
        atoms, densities = sorted_measure(report)
        expected_atoms = [(-2.0 - SQRT6, 0.0), (-0.5, -SQRT15 / 2),
                          (-0.5, SQRT15 / 2), (-2.0 + SQRT6, 0.0)]
        for got, want in zip(atoms, expected_atoms):
            assert got == pytest.approx(want, abs=1e-9)
        assert densities == pytest.approx(
            [0.014226196675295889, 0.2, 0.2, 0.5857738033247041], abs=1e-9)
        assert report.residual <= 1e-9
        assert len(report.basis) == 4

    def test_cubic_curve_tiny_density(self, ex44):
        report = em.solve_extremal(ex44)
        assert report.status == "Measure"
        assert report.rank == 7
        atoms, densities = sorted_measure(report)
        xs = [w[0] for w in atoms]
        assert xs == pytest.approx(
            [-8.367479063712, -1.729903459921, -0.996357434703, 0.0,
             0.996357434703, 1.729903459921, 8.367479063712], abs=1e-9)
        expected = [3.3378228919111246e-10, 0.0841543943607385,
                    0.2499802206900946, 0.3317307692307692,
                    0.2499802206900946, 0.0841543943607385,
                    3.3378228919111246e-10]
        for got, want in zip(densities, expected):
            assert got == pytest.approx(want, rel=1e-6)
        # The outermost atoms carry a positive but minuscule density.
        assert 0 < densities[0] < 1e-8
        assert 0 < densities[-1] < 1e-8

    @pytest.mark.parametrize("d, atoms, densities", (
        (1, [(F(0),), (F(1),)], [F(1), F(1, 10**400)]),
        (2, [(F(0), F(0)), (F(1), F(2)), (F(2), F(-1))],
         [F(1), F(1, 10**400), F(3)]),
    ), ids=("d1", "d2"))
    def test_density_below_the_smallest_float(self, d, atoms, densities):
        # 10**-400 reads as 0.0 in floats; exact densities compare exactly.
        beta = em.beta_from_atoms(atoms, densities, d=d, degree=4)
        report = em.solve_extremal(beta)
        assert report.status == "Measure"
        assert dict(zip(report.measure.atoms, report.measure.densities)) \
            == dict(zip(atoms, densities))
        assert report.residual == 0

    def test_curve_scenario_unit_measure(self, prop61):
        report = em.solve_extremal(prop61)
        assert report.status == "Measure"
        assert report.rank == 8
        assert report.v == 8
        for rho in report.measure.densities:
            assert abs(float(rho) - 1.0) < 1e-6

    def test_derivation_data_has_no_measure(self, thm62_a8_8):
        report = em.solve_extremal(thm62_a8_8)
        assert report.status == "NoMeasure"
        assert report.reason == "Inconsistent"
        assert abs(float(report.value) - (-405.0 / 128.0)) < 1e-9
        assert report.witness is not None

    def test_infinite_variety_not_extremal(self, ex42):
        report = em.solve_extremal(ex42)
        assert report.status == "NotExtremal"
        assert report.v == math.inf
        assert report.reason == "infinite variety"
        assert report.witness.terms == {(0, 0): F(-1), (1, 1): F(1)}

    def test_not_psd_is_no_measure(self):
        beta = em.beta_from_atoms([(F(0), F(0))], [F(-1)], degree=2)
        report = em.solve_extremal(beta)
        assert report.status == "NoMeasure"
        assert report.reason == "NotPSD"

    @staticmethod
    def _assert_zero_data_is_the_empty_measure(d, degree):
        # rank M(n) = 0 = card V: the 0-atomic measure represents it.
        beta = em.Multisequence(d, degree,
                                dict.fromkeys(monomial_basis(d, degree), 0))
        report = em.solve_extremal(beta)
        assert report.status == "Measure"
        assert (report.rank, report.v) == (0, 0)
        assert report.measure.size == 0
        assert em.verify_measure(beta, report.measure).exact

    @pytest.mark.parametrize("d", (1, 2))
    def test_zero_data_is_the_empty_measure(self, d):
        self._assert_zero_data_is_the_empty_measure(d, 2)

    @pytest.mark.parametrize("d", (1, 2))
    def test_zero_data_of_degree_0_is_the_empty_measure(self, d):
        # The kernel of M(0) = [0] holds the constant 1, so V is empty.
        self._assert_zero_data_is_the_empty_measure(d, 0)

    def test_invertible_matrix_not_extremal(self):
        beta = em.beta_from_atoms([(F(0),), (F(1),), (F(2),)],
                                  [F(1), F(1), F(1)], degree=4)
        report = em.solve_extremal(beta)
        assert report.status == "NotExtremal"
        assert report.v == math.inf
        assert "invertible" in report.reason


def rank_above_cardinality(d):
    """Exact data with M(2) >= 0 and a finite variety of fewer than rank
    M(2) points, and those points.  d=1: moments 1, 0, 0, 0, 1, so rank 2,
    kernel x and V = {0}.  d=2: the atoms (0, 0) and (1, 0) plus one more
    on the y^4 moment, so rank 3, kernel Y, XY, X^2 - X and V the atoms."""
    if d == 1:
        return em.Multisequence(1, 4, dict(zip(monomial_basis(1, 4),
                                               (1, 0, 0, 0, 1)))), [(0,)]
    atoms = [(F(0), F(0)), (F(1), F(0))]
    beta = em.beta_from_atoms(atoms, [F(1), F(1)], d=2, degree=4)
    return em.Multisequence(2, 4, {**beta.values,
                                   (0, 4): beta[(0, 4)] + 1}), atoms


class TestRankAboveCardinality:
    """rank M(n) <= card V is necessary, so exact data with fewer points
    than the rank has no measure."""

    @pytest.mark.parametrize("d, rank", [(1, 2), (2, 3)])
    def test_exact_data_has_no_measure(self, d, rank):
        beta, points = rank_above_cardinality(d)
        report = em.solve_extremal(beta)
        assert report.status == "NoMeasure"
        assert (report.rank, report.v) == (rank, len(points))
        assert report.reason == (f"RankAboveCardinality: rank {rank} > "
                                 f"variety cardinality {len(points)}")
        assert sorted(report.variety.points) == points
        assert report.psd.ok and report.measure is None

    @pytest.mark.parametrize("d", (1, 2))
    def test_float_data_is_unknown(self, d):
        report = em.solve_extremal(as_float(rank_above_cardinality(d)[0]))
        assert report.status == "Unknown"
        assert report.reason.startswith("FloatVarietyBelowRank")

    @pytest.mark.parametrize("d", (1, 2))
    def test_supplied_points_are_unknown(self, d):
        beta, points = rank_above_cardinality(d)
        report = em.solve_extremal(beta, points=points)
        assert report.status == "Unknown"
        assert report.reason.startswith("RankAboveCardinality")
        assert "part of the variety" in report.reason


def ladder_measure(shapes, seed=1):
    """The last measure of the seeded d=2 ladder drawn through *shapes*:
    distinct atoms with coordinates randint(-9, 9)/randint(1, 4), sorted,
    then densities randint(1, 9)/randint(1, 9)."""
    rng = random.Random(seed)
    for _, count in shapes:
        atoms = set()
        while len(atoms) < count:
            atoms.add((F(rng.randint(-9, 9), rng.randint(1, 4)),
                       F(rng.randint(-9, 9), rng.randint(1, 4))))
        atoms = sorted(atoms)
        densities = [F(rng.randint(1, 9), rng.randint(1, 9))
                     for _ in range(count)]
    return atoms, densities


def d1_measure(count, seed=1):
    """The seeded d=1 measure of *count* atoms, drawn as the d=1 cases of
    the benchmark are: after the measures of every smaller count of
    D1_COUNTS, atoms randint(-40, 40)/randint(1, 4), sorted, then
    densities randint(1, 9)/randint(1, 9)."""
    rng = random.Random(seed)
    for size in D1_COUNTS[:D1_COUNTS.index(count) + 1]:
        atoms = set()
        while len(atoms) < size:
            atoms.add((F(rng.randint(-40, 40), rng.randint(1, 4)),))
        atoms = sorted(atoms)
        densities = [F(rng.randint(1, 9), rng.randint(1, 9))
                     for _ in range(size)]
    return atoms, densities


FIXTURES = ("ex42_hyperbola", "example15", "prop61", "ex44", "prop61_deg8",
            "ex71", "thm62_a8_8")
LADDER = ((3, 8), (4, 12), (5, 18), (6, 24))
D1_COUNTS = (10, 12, 15, 16, 20)


class TestExactLadder:
    """Rational atoms come back exactly, with their exact densities."""

    @staticmethod
    def _assert_recovers_the_generating_measure(stop):
        atoms, densities = ladder_measure(LADDER[:stop])
        n = LADDER[stop - 1][0]
        beta = em.beta_from_atoms(atoms, densities, d=2, degree=2 * n)
        report = em.solve_extremal(beta)
        assert report.status == "Measure"
        assert report.residual == 0.0
        assert all(report.variety.exact_mask)
        assert sorted(zip(report.measure.atoms, report.measure.densities)) \
            == list(zip(atoms, densities))

    def test_ladder_4_12_recovers_the_generating_measure(self):
        self._assert_recovers_the_generating_measure(2)

    def test_ladder_5_18_recovers_the_generating_measure(self):
        self._assert_recovers_the_generating_measure(3)


@functools.lru_cache(maxsize=None)
def _ladder(stop):
    """Exact data of the ladder's *stop*-th instance (its x-mirror has the
    same verdict, a linear change of variables), and its exact status."""
    atoms, densities = ladder_measure(LADDER[:stop])
    n = LADDER[stop - 1][0]
    beta = em.beta_from_atoms(atoms, densities, d=2, degree=2 * n)
    mirrored = em.beta_from_atoms([(-x, y) for x, y in atoms], densities,
                                  d=2, degree=2 * n)
    return beta, mirrored, em.solve_extremal(beta).status


class TestFloatAgreesWithExact:
    """The float twin's status is the exact status or Unknown."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture(self, name):
        path = fixture_path(f"{name}.moments.json")
        want = em.solve_extremal(em.load_multisequence(path)).status
        got = em.solve_extremal(em.load_multisequence(path, "float")).status
        assert got in (want, "Unknown")

    @pytest.mark.parametrize("mirror", (False, True), ids=("x", "-x"))
    @pytest.mark.parametrize("stop", (1, 2, 3, 4),
                             ids=[f"{n}/{count}" for n, count in LADDER])
    def test_ladder(self, stop, mirror):
        beta, mirrored, want = _ladder(stop)
        got = em.solve_extremal(as_float(mirrored if mirror else beta))
        assert got.status in (want, "Unknown")

    @pytest.mark.parametrize("count", D1_COUNTS)
    def test_d1(self, count):
        atoms, densities = d1_measure(count)
        beta = em.beta_from_atoms(atoms, densities, d=1, degree=2 * count)
        want = em.solve_extremal(beta).status
        assert want == "Measure"
        assert em.solve_extremal(as_float(beta)).status in (want, "Unknown")

    def test_atom_far_from_the_origin(self):
        # Moments 1, 1e100, 1e200: the float kernel 1 - 1e-100 X reduces to
        # 1 in the ideal, which certifies no empty variety.
        beta = em.beta_from_atoms([(F(10**100),)], [F(1)], d=1, degree=2)
        assert em.solve_extremal(beta).status == "Measure"
        report = em.solve_extremal(as_float(beta))
        assert report.status == "Unknown"
        assert report.variety.status == "Unknown"

    @pytest.mark.parametrize("d, atoms, degree", [
        (1, [(0,), (F(1, 10**4),), (1,), (2,)], 8),
        (2, [(0, 0), (F(1, 10**4), 0), (1, 1), (-1, 2), (2, -1),
             (F(1, 2), 3)], 6),
    ], ids=("d1", "d2"))
    def test_close_atoms_merged_below_the_rank(self, d, atoms, degree):
        # The float variety merges the two atoms 1e-4 apart into one point
        # (and in d=2 loses more), so it has fewer points than rank M(n):
        # rounding, not the data, refutes, and the answer is Unknown.
        atoms = [tuple(map(F, w)) for w in atoms]
        beta = em.beta_from_atoms(atoms, [F(1)] * len(atoms), d=d,
                                  degree=degree)
        exact = em.solve_extremal(beta)
        assert exact.status == "Measure"
        assert sorted(exact.measure.atoms) == sorted(atoms)
        report = em.solve_extremal(as_float(beta))
        assert report.v < report.rank == len(atoms)
        assert report.status == "Unknown"
        assert report.reason.startswith("FloatVarietyBelowRank")


class TestHigherDimension:
    def test_d3_atoms_solve_without_points(self):
        # Six rational atoms in R^3, degree-4 data: the quotient route finds
        # the variety with no --points and the atoms come back exactly.
        atoms, densities = d3_measure()
        beta = em.beta_from_atoms(atoms, densities, d=3, degree=4)
        report = em.solve_extremal(beta)
        assert report.status == "Measure"
        assert (report.rank, report.v) == (6, 6)
        assert all(report.variety.exact_mask)
        assert sorted(zip(report.measure.atoms, report.measure.densities)) \
            == list(zip(atoms, densities))

    def test_float_d3_atoms_solve_without_points(self):
        # The same data cast to float takes the same route.
        atoms, densities = d3_measure()
        beta = as_float(em.beta_from_atoms(atoms, densities, d=3, degree=4))
        report = em.solve_extremal(beta)
        assert report.status == "Measure"
        assert (report.rank, report.v) == (6, 6)
        got, weights = sorted_measure(report)
        for w, want in zip(got, atoms):
            assert w == pytest.approx([float(x) for x in want], abs=1e-6)
        assert weights == pytest.approx([float(r) for r in densities],
                                        abs=1e-6)


class TestSolveVariants:
    def test_user_supplied_points(self, ex15):
        points = [(-2.0 - SQRT6, 0.0), (-0.5, -SQRT15 / 2),
                  (-0.5, SQRT15 / 2), (-2.0 + SQRT6, 0.0)]
        report = em.solve_extremal(ex15, points=points)
        assert report.status == "Measure"
        _, densities = sorted_measure(report)
        assert densities == pytest.approx(
            [0.014226196675295889, 0.2, 0.2, 0.5857738033247041], abs=1e-6)

    def test_bogus_point_rejected(self, ex15):
        with pytest.raises(InputError):
            em.solve_extremal(ex15, points=[(1.0, 1.0), (-0.5, -SQRT15 / 2),
                                            (-0.5, SQRT15 / 2),
                                            (-2.0 + SQRT6, 0.0)])

    def test_alternate_basis_gives_same_measure(self, ex15):
        default = em.solve_extremal(ex15)
        other = em.solve_extremal(ex15, basis=((0, 0), (1, 0), (0, 1), (0, 2)))
        assert other.status == "Measure"
        for (wa, ra), (wb, rb) in zip(
                sorted(zip(default.measure.atoms, default.measure.densities),
                       key=lambda ar: tuple(map(float, ar[0]))),
                sorted(zip(other.measure.atoms, other.measure.densities),
                       key=lambda ar: tuple(map(float, ar[0])))):
            assert tuple(map(float, wa)) == pytest.approx(
                tuple(map(float, wb)), abs=1e-12)
            assert float(ra) == pytest.approx(float(rb), abs=1e-9)

    def test_supplied_points_never_refute(self):
        # Ladder 3/8: rank 8 and nine points, so NotExtremal.  Seven atoms
        # and the ninth point are eight points on which some relation is
        # not annihilated, but the eight atoms carry a measure.
        atoms, densities = ladder_measure(LADDER[:1])
        beta = em.beta_from_atoms(atoms, densities, d=2, degree=6)
        plain = em.solve_extremal(beta)
        assert (plain.status, plain.rank, plain.v) == ("NotExtremal", 8, 9)
        extra = [w for w in plain.variety.points if w not in atoms]
        assert len(extra) == 1
        report = em.solve_extremal(beta, points=atoms[:7] + extra)
        assert report.status == "Unknown"
        assert report.witness is None
        assert "part of the variety" in report.reason
        assert em.solve_extremal(beta, points=atoms).status == "Measure"

    def test_float_singular_vandermonde(self, ex15):
        # Two of Example 15's points share x = -1/2, so V_B of the basis
        # 1, X, X^2, X^3 has two columns equal up to rounding, which leaves
        # it invertible; the rank test finds it singular.  A point given
        # twice, which would make V_B singular too, is refused.
        beta = as_float(ex15)
        points = sorted(em.solve_extremal(beta).variety.points)
        report = em.solve_extremal(beta, points=points, basis=(
            (0, 0), (1, 0), (2, 0), (3, 0)))
        assert report.status == "Unknown"
        assert report.reason.startswith("SingularVB")
        assert report.measure is None
        with pytest.raises(InputError, match="given twice"):
            em.solve_extremal(beta, points=points[:1] + points[:1]
                              + points[2:])

    def test_singular_supplied_basis_is_unknown(self, ex15):
        # Two of Example 15's points share x = -1/2, so 1, X, X^2, X^3 are
        # dependent on its variety and their V_B is singular, although the
        # data has a measure: only the pivot basis's V_B refutes.
        report = em.solve_extremal(ex15, basis=((0, 0), (1, 0), (2, 0),
                                                (3, 0)))
        assert report.status == "Unknown"
        assert report.reason.startswith("SingularVB")
        assert report.witness is None and report.measure is None
        assert em.solve_extremal(ex15).status == "Measure"

    def test_basis_size_enforced(self, ex15):
        with pytest.raises(ValueError):
            em.solve_extremal(ex15, basis=((0, 0), (1, 0)))


@pytest.mark.parametrize("name", FIXTURES)
def test_exact_verdicts_ignore_the_tolerance(name, monkeypatch):
    # Every zero test of an exact value is exact, so a tolerance that calls
    # every float zero changes no exact verdict.
    beta = em.load_multisequence(fixture_path(f"{name}.moments.json"))
    want = em.solve_extremal(beta)
    monkeypatch.setattr(polycore, "RESIDUAL_TOL", 1e10)
    got = em.solve_extremal(beta)
    assert (got.status, got.reason, got.witness, got.value) \
        == (want.status, want.reason, want.witness, want.value)


class TestVerifyMeasure:
    def test_exact_match(self):
        measure = em.AtomicMeasure(1, ((F(1, 2),),), (F(2),))
        beta = em.beta_from_atoms(measure.atoms, measure.densities, degree=4)
        report = em.verify_measure(beta, measure)
        assert report.ok
        assert report.exact
        assert report.residual == 0.0

    def test_mismatch_reported(self):
        measure = em.AtomicMeasure(1, ((F(1, 2),),), (F(2),))
        beta = em.beta_from_atoms(measure.atoms, (F(3),), degree=4)
        report = em.verify_measure(beta, measure)
        assert not report.ok
        assert not report.exact
        assert report.worst_index is not None

    def test_nan_moment_is_not_ok(self):
        measure = em.AtomicMeasure(1, ((F(0),), (F(1),)), (F(1), F(2)))
        beta = em.beta_from_atoms(measure.atoms, measure.densities, degree=4)
        values = dict(beta.values)
        values[(1,)] = float("nan")
        report = em.verify_measure(em.Multisequence(1, 4, values), measure)
        assert math.isnan(report.residual)
        assert not report.ok
        assert report.worst_index == (1,)

    def test_dimension_mismatch(self, ex15):
        measure = em.AtomicMeasure(1, ((F(0),),), (F(1),))
        with pytest.raises(ValueError):
            em.verify_measure(ex15, measure)


class TestMeasureIO:
    def test_exact_round_trip(self, tmp_path):
        path = tmp_path / "measure.json"
        measure = em.AtomicMeasure(2, ((F(1, 2), F(-3)), (F(0), F(7, 5))),
                                   (F(1, 3), F(2)))
        em.dump_measure(measure, path)
        back = em.load_measure(path, mode="exact")
        assert back == measure

    def test_solver_output_round_trip(self, ex15, tmp_path):
        path = tmp_path / "measure.json"
        report = em.solve_extremal(ex15)
        em.dump_measure(report.measure, path)
        back = em.load_measure(path)
        verification = em.verify_measure(ex15, back)
        assert verification.ok

    def test_load_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[")
        with pytest.raises(InputError):
            em.load_measure(bad)
        missing = tmp_path / "missing.json"
        missing.write_text('{"d": 1}')
        with pytest.raises(InputError):
            em.load_measure(missing)
        arity = tmp_path / "arity.json"
        arity.write_text(
            '{"d": 2, "atoms": [{"point": ["1"], "density": "1"}]}')
        with pytest.raises(InputError):
            em.load_measure(arity)
