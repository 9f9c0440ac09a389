"""Unit tests: multisequences, moment matrices, Riesz functional, property
checks (PSD, rank/kernel, recursiveness, flatness)."""

import json
import random
from fractions import Fraction

import pytest

import extremal_moments as em
from extremal_moments import _linalg
from extremal_moments.polycore import InputError, Polynomial


def F(*args):
    return Fraction(*args)


class TestMultisequence:
    def test_n_and_exactness(self, ex15):
        assert ex15.d == 2 and ex15.degree == 4 and ex15.n == 2
        assert ex15.is_exact

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            em.Multisequence(1, 3, {(0,): F(1), (1,): F(0), (2,): F(1),
                                    (3,): F(0)})

    def test_missing_index_rejected(self):
        with pytest.raises(InputError):
            em.Multisequence(2, 2, {(0, 0): F(1)})

    def test_getitem(self, ex15):
        assert ex15[(2, 0)] == F(1, 2)
        assert ex15[(0, 4)] == F(45, 8)

    def test_combine_is_linear(self, ex15):
        doubled = em.multisequence_combine([ex15, ex15], [F(1), F(1)])
        assert doubled[(2, 2)] == 2 * ex15[(2, 2)]
        zero = em.multisequence_combine([ex15, ex15], [F(1), F(-1)])
        assert all(zero[idx] == 0 for idx in zero.values)

    def test_io_round_trip(self, ex15, tmp_path):
        path = tmp_path / "roundtrip.json"
        em.dump_multisequence(ex15, path)
        back = em.load_multisequence(path)
        assert back.values == ex15.values
        assert back.is_exact


class TestRiesz:
    def test_riesz_monomial(self, ex15):
        p = Polynomial.monomial(2, (2, 2))
        assert em.riesz(ex15, p) == F(3, 8)

    def test_riesz_linearity(self, ex15):
        p = Polynomial(2, {(2, 0): F(2), (0, 0): F(-1)})
        assert em.riesz(ex15, p) == 2 * F(1, 2) - 1

    def test_riesz_rejects_overflow_degree(self, ex15):
        p = Polynomial.monomial(2, (5, 0))
        with pytest.raises(ValueError):
            em.riesz(ex15, p)


class TestMomentMatrix:
    def test_shape_and_symmetry(self, ex15):
        m = em.build_moment_matrix(ex15)
        assert m.n == 2
        assert len(m.rows) == 6
        for i in range(6):
            for j in range(6):
                assert m.rows[i][j] == m.rows[j][i]

    def test_entry_is_summed_index(self, ex15):
        m = em.build_moment_matrix(ex15)
        i = m.basis.index((1, 0))
        j = m.basis.index((1, 1))
        assert m.rows[i][j] == ex15[(2, 1)]

    def test_apply_localizes_polynomial(self, ex15):
        m = em.build_moment_matrix(ex15)
        p = Polynomial(2, {(1, 1): F(1), (0, 1): F(1, 2)})  # YX + (1/2)Y
        image = _linalg.mat_vec(m.rows,
                                [p.coefficient(idx) for idx in m.basis])
        assert all(x == 0 for x in image)

    def test_known_rank_and_kernel(self, ex15):
        report = em.rank_kernel(em.build_moment_matrix(ex15))
        assert report.rank == 4
        assert report.nullity == 2
        assert report.pivots == ((0, 0), (1, 0), (0, 1), (2, 0))
        kernel = {frozenset(p.terms.items()) for p in report.kernel}
        expected = {
            frozenset({((1, 1), F(1)), ((0, 1), F(1, 2))}.items()
                      if False else
                      {((1, 1), F(1)), ((0, 1), F(1, 2))}),
            frozenset({((0, 2), F(1)), ((2, 0), F(1)), ((1, 0), F(4)),
                       ((0, 0), F(-2))}),
        }
        assert kernel == expected

    def test_psd(self, ex15):
        verdict = em.psd_check(em.build_moment_matrix(ex15))
        assert verdict.ok and verdict.status == "PSD"

    def test_not_psd_witness(self):
        beta = em.Multisequence(1, 2, {(0,): F(1), (1,): F(2), (2,): F(1)})
        verdict = em.psd_check(em.build_moment_matrix(beta))
        assert not verdict.ok
        assert verdict.value < 0


def symmetric_matrix(rows):
    """A d = 1 MomentMatrix whose rows are the symmetric *rows*."""
    n = len(rows)
    beta = em.Multisequence(1, 2 * n - 2,
                            {(k,): F(0) for k in range(2 * n - 1)})
    m = em.build_moment_matrix(beta)
    return em.MomentMatrix(m.beta, m.n, m.basis, tuple(map(tuple, rows)))


def ldl_psd(rows) -> bool:
    """Independent PSD decision: symmetric elimination in Fractions on the
    diagonal, in order.  A negative pivot, or a zero pivot with a nonzero
    entry in its row, refutes A >= 0; otherwise A = L D L^T with D >= 0."""
    a = [list(row) for row in rows]
    n = len(a)
    for k in range(n):
        if a[k][k] < 0 or (a[k][k] == 0 and any(a[k][k + 1:])):
            return False
        for i in range(k + 1, n):
            if a[k][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True


def gram_with_dependent_columns(rng, negative):
    """B^T D B for B with r rows and n > r columns, the dependent columns
    (combinations of the columns before them, or zero) placed among the
    independent ones; D > 0, or with one negative entry.  The k-th
    independent column is nonzero at k and zero below, so B has rank r and
    B^T D B has the signs of D."""
    n = rng.randint(2, 7)
    r = rng.randint(1, n - 1)
    independent = sorted(rng.sample(range(n), r))
    columns = []
    for j in range(n):
        if j in independent:
            k = independent.index(j)
            columns.append([F(rng.randint(1, 5), rng.randint(1, 3))
                            if i == k else F(rng.randint(-3, 3)) * (i < k)
                            for i in range(r)])
        else:
            weights = [F(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in columns]
            columns.append([sum((w * c[i] for w, c in zip(weights, columns)),
                                F(0)) for i in range(r)])
    diagonal = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(r)]
    if negative:
        diagonal[rng.randrange(r)] *= -1
    return [[sum((dk * u[k] * v[k] for k, dk in enumerate(diagonal)), F(0))
             for v in columns] for u in columns]


def zero_leading_entry(rng):
    """A symmetric matrix with A[0][0] = 0 and a nonzero A[0][j]."""
    n = rng.randint(2, 6)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = F(rng.randint(-3, 3), rng.randint(1, 2))
    rows[0][0] = F(0)
    rows[0][n - 1] = rows[n - 1][0] = F(1)
    return rows


class TestPsdReadOffTheKernel:
    """An exact M(n) >= 0 is decided by the elimination behind its kernel:
    every pivot comes, in order, from the row of its column and is
    positive."""

    @staticmethod
    def cases():
        rng = random.Random(23)
        for _ in range(40):
            yield gram_with_dependent_columns(rng, negative=False), True
            yield gram_with_dependent_columns(rng, negative=True), False
            yield zero_leading_entry(rng), False
        yield [[F(0), F(1)], [F(1), F(0)]], False
        yield [[F(0), F(0), F(1)], [F(0), F(1), F(0)], [F(1), F(0), F(0)]], \
            False

    def test_read_off_agrees_with_ldl_and_with_a_fresh_check(self):
        for rows, psd in self.cases():
            matrix = symmetric_matrix(rows)
            kernel = em.rank_kernel(matrix)
            verdict = em.psd_check(matrix, kernel)
            assert verdict == em.psd_check(matrix)
            assert verdict.ok == kernel.psd == ldl_psd(rows) == psd, rows
            if not verdict.ok:
                assert verdict.value < 0

    def test_a_psd_read_off_eliminates_nothing(self, monkeypatch):
        matrix = symmetric_matrix(gram_with_dependent_columns(
            random.Random(29), negative=False))
        kernel = em.rank_kernel(matrix)
        monkeypatch.setattr(_linalg, "_eliminate", None)
        assert em.psd_check(matrix, kernel).ok

    def test_float_kernel_reads_nothing(self):
        beta = em.Multisequence(1, 2, {(0,): 1.0, (1,): 2.0, (2,): 1.0})
        matrix = em.build_moment_matrix(beta)
        assert em.rank_kernel(matrix).psd is None
        assert not em.psd_check(matrix, em.rank_kernel(matrix)).ok


class TestRecursiveness:
    def test_positive_case(self, ex15):
        m = em.build_moment_matrix(ex15)
        verdict = em.recursiveness_check(m, em.rank_kernel(m))
        assert verdict.ok

    def test_violation_found(self):
        # d=1 data (1, 0, 0, 0, 1): M(2) has kernel poly x with
        # Lambda(x * x * x^2) = beta_4 = 1 != 0.
        beta = em.Multisequence(1, 4, {(0,): F(1), (1,): F(0), (2,): F(0),
                                       (3,): F(0), (4,): F(1)})
        m = em.build_moment_matrix(beta)
        verdict = em.recursiveness_check(m, em.rank_kernel(m))
        assert not verdict.ok
        p, u, product = verdict.violation
        assert p.terms == {(1,): F(1)}
        assert product == u * p
        # The violation means u*p left the kernel: its matrix image is nonzero.
        assert any(x != 0 for x in _linalg.mat_vec(
            m.rows, [product.coefficient(idx) for idx in m.basis]))

    def test_scenario_data_recursive(self, prop61):
        m = em.build_moment_matrix(prop61)
        verdict = em.recursiveness_check(m, em.rank_kernel(m))
        assert verdict.ok


class TestFlatness:
    def test_ex15_not_flat(self, ex15):
        verdict = em.Pipeline(ex15).flatness
        assert not verdict.flat
        assert verdict.rank_previous == 3 and verdict.rank == 4

    def test_flat_single_atom(self):
        beta = em.beta_from_atoms([(F(1), F(2))], [F(3)], 2, 4)
        verdict = em.Pipeline(beta).flatness
        assert verdict.flat
        assert verdict.rank == 1 and verdict.rank_previous == 1


class TestHankelGuard:
    def test_non_hankel_data_raises(self):
        # Directly corrupt one value so M would not be well defined.
        values = dict(em.beta_from_atoms([(F(1), F(2))], [F(1)], 2, 4).values)
        matrix_ok = em.build_moment_matrix(em.Multisequence(2, 4, values))
        assert matrix_ok is not None
        # The Hankel property is internal: every (i+j) lookup goes through
        # the same table, so two equal index sums can never disagree.
        i = matrix_ok.basis.index((2, 0))
        j = matrix_ok.basis.index((0, 2))
        k = matrix_ok.basis.index((1, 1))
        assert matrix_ok.rows[i][j] == matrix_ok.rows[k][k]


class TestLoadModes:
    def test_float_mode_load(self, tmp_path):
        payload = {"d": 1, "degree": 2,
                   "moments": [{"idx": [0], "value": "1"},
                               {"idx": [1], "value": "0.5"},
                               {"idx": [2], "value": "0.5"}]}
        path = tmp_path / "floaty.json"
        path.write_text(json.dumps(payload))
        beta = em.load_multisequence(path)
        assert not beta.is_exact  # decimal strings default to float
        exact = em.load_multisequence(path, mode="exact")
        assert exact.is_exact and exact[(1,)] == F(1, 2)
