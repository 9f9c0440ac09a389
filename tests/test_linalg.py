"""Unit tests: exact/float row reduction, solving, determinants, PSD."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from extremal_moments import _linalg
from extremal_moments.polycore import all_exact, is_exact


def F(*args):
    return Fraction(*args)


class TestRowReduceExact:
    def test_identity(self):
        red = _linalg.row_reduce([[F(1), F(0)], [F(0), F(1)]])
        assert red.rank == 2 and red.pivots == (0, 1)
        assert red.kernel_basis() == []

    def test_rank_deficient_kernel_delta_form(self):
        # x + 2y + 3z = 0 twice: kernel vectors carry a unit on a free column.
        rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
        red = _linalg.row_reduce(rows)
        assert red.rank == 1 and red.pivots == (0,)
        basis = red.kernel_basis()
        assert len(basis) == 2
        for vec in basis:
            assert all(x == 0 for x in _linalg.mat_vec(rows, vec))
        assert basis[0][1] == 1 and basis[1][2] == 1

    def test_zero_head_rows_rescaled(self):
        # Regression: a checkerboard of zeros once broke the fraction-free
        # elimination because rows with zero head entries were not rescaled.
        rows = [
            [F(1), F(0), F(1), F(0)],
            [F(0), F(2), F(0), F(1)],
            [F(1), F(0), F(3), F(0)],
            [F(0), F(1), F(0), F(5)],
        ]
        red = _linalg.row_reduce(rows)
        sm = sympy.Matrix([[int(x) for x in row] for row in rows])
        assert red.rank == sm.rank()

    def test_randomized_against_sympy(self):
        rng = random.Random(7)
        for _ in range(120):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[F(rng.choice([0, 0, 0, 1, -1, 2, -2, 3, 5]),
                       rng.choice([1, 1, 2])) for _ in range(m)]
                    for _ in range(n)]
            red = _linalg.row_reduce(rows)
            sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                for x in row] for row in rows])
            rref, piv = sm.rref()
            assert red.rank == len(piv)
            assert tuple(red.pivots) == tuple(piv)
            for i in range(red.rank):
                for j in range(m):
                    assert red.rref[i][j] == F(int(rref[i, j].p),
                                               int(rref[i, j].q))
            for vec in red.kernel_basis():
                assert all(x == 0 for x in _linalg.mat_vec(rows, vec))


class TestRowReduceFloat:
    def test_near_dependent_rows_with_threshold(self):
        rows = [[1.0, 2.0], [1.0, 2.0 + 1e-14]]
        red = _linalg.row_reduce(rows)
        assert red.rank == 1

    def test_full_rank_float(self):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        red = _linalg.row_reduce(rows)
        assert red.rank == 2


SCALAR_TYPES = [(3, True), (F(3, 2), True), (True, False), (1.5, False),
                (np.float64(1.5), False), (np.int64(3), False)]
SCALAR_IDS = ["int", "fraction", "bool", "float", "numpy-float",
              "numpy-int"]


class TestExactnessFromTypes:
    """Exactness is read off the entries' types: int and Fraction are exact;
    one entry of any other type sends a reduction or solve down the float
    path."""

    @pytest.mark.parametrize("value, exact", SCALAR_TYPES, ids=SCALAR_IDS)
    def test_is_exact_and_all_exact_agree(self, value, exact):
        assert is_exact(value) is exact
        assert all_exact([value]) is exact
        assert all_exact([F(1), 2, value, F(0)]) is exact
        assert all_exact([]) is True

    @pytest.mark.parametrize("value, exact", SCALAR_TYPES, ids=SCALAR_IDS)
    def test_row_reduce_path(self, value, exact, monkeypatch):
        taken = []
        for name in ("_row_reduce_exact", "_row_reduce_float"):
            def spy(*args, _inner=getattr(_linalg, name), _name=name):
                taken.append(_name)
                return _inner(*args)
            monkeypatch.setattr(_linalg, name, spy)
        red = _linalg.row_reduce([[F(1), 2, F(1, 3)], [F(0), value, F(5)]])
        assert taken == ["_row_reduce_exact" if exact
                         else "_row_reduce_float"]
        assert red.rank == 2
        kinds = {type(x) for row in red.rref for x in row}
        assert kinds == ({Fraction} if exact else {float})

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    @pytest.mark.parametrize("value, exact", SCALAR_TYPES, ids=SCALAR_IDS)
    def test_solve_linear_path(self, value, exact, where, monkeypatch):
        eliminations = []
        inner = _linalg._eliminate
        monkeypatch.setattr(_linalg, "_eliminate", lambda *args: (
            eliminations.append(args), inner(*args))[1])
        rows = [[F(2), value if where == "matrix" else 1], [F(1), 3]]
        rhs = [value if where == "rhs" else 5, F(10)]
        x = _linalg.solve_linear(rows, rhs)
        assert len(eliminations) == int(exact)
        assert {type(v) for v in x} == ({Fraction} if exact else {float})
        assert _linalg.mat_vec(rows, x) == pytest.approx(
            [float(b) for b in rhs])


class TestSolveAndDeterminant:
    def test_solve_exact(self):
        rows = [[F(2), F(1)], [F(1), F(3)]]
        x = _linalg.solve_linear(rows, [F(5), F(10)])
        assert x == [F(1), F(3)]

    def test_solve_singular_raises(self):
        with pytest.raises(_linalg.SingularMatrixError):
            _linalg.solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])

    def test_float_solve_singular_raises(self):
        # 0.1 * 0.9 - 0.3 * 0.3 is 1.4e-17 in floats, not 0; scaling a
        # column changes nothing, and an equilibrated invertible matrix
        # with a column of tiny scale still solves.
        for rows in ([[0.1, 0.3], [0.3, 0.9]], [[0.1, 3e20], [0.3, 9e20]]):
            with pytest.raises(_linalg.SingularMatrixError):
                _linalg.solve_linear(rows, [1.0, 1.0])
        x = _linalg.solve_linear([[1.0, 1e-30], [0.0, 2e-30]], [1.0, 2.0])
        assert x == pytest.approx([0.0, 1e30])

    def test_determinant_exact_sign(self):
        rows = [[F(0), F(1)], [F(1), F(0)]]
        assert _linalg.determinant(rows) == F(-1)

    def test_determinant_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = [[F(rng.randint(-4, 4), rng.choice([1, 2]))
                     for _ in range(n)] for _ in range(n)]
            det = _linalg.determinant(rows)
            sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                for x in row] for row in rows])
            expected = sm.det()
            assert det == F(int(expected.p), int(expected.q))

    def test_solve_randomized(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = [[F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                     for _ in range(n)] for _ in range(n)]
            rhs = [F(rng.randint(-6, 6), rng.choice([1, 5])) for _ in range(n)]
            sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                for x in row] for row in rows])
            if sm.det() == 0:
                with pytest.raises(_linalg.SingularMatrixError):
                    _linalg.solve_linear(rows, rhs)
                continue
            b = sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                              for x in rhs])
            expected = sm.LUsolve(b)
            x = _linalg.solve_linear(rows, rhs)
            assert x == [F(int(v.p), int(v.q)) for v in expected]


def gauss_jordan(rows, ncols):
    """``(pivots, rref, det)`` by plain Fraction Gauss-Jordan elimination on
    the first *ncols* columns; *det* is the determinant when the matrix is
    square."""
    work = [[F(x) for x in row] for row in rows]
    pivots, det, r = [], F(1), 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            det = F(0)
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            det = -det
        head = work[r][c]
        det *= head
        work[r] = [x / head for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(pivots), tuple(map(tuple, work[:r])), det


def _entry(rng, bits):
    return F(rng.getrandbits(bits) - (1 << (bits - 1)),
             rng.getrandbits(bits) + 1)


def _small(rng):
    return F(rng.choice([0, 0, 1, -1, 2, -3]), rng.choice([1, 2, 3]))


def _zero(rng, shape):
    return [[F(0)] * shape[1] for _ in range(shape[0])]


def _of_rank(rng, shape, rank, entry):
    """A product of shape[0] x rank and rank x shape[1] random matrices."""
    left = [[entry(rng) for _ in range(rank)] for _ in range(shape[0])]
    right = [[entry(rng) for _ in range(shape[1])] for _ in range(rank)]
    return [[sum((a * right[k][j] for k, a in enumerate(row)), F(0))
             for j in range(shape[1])] for row in left]


def _wide(rng, shape):
    """r x (r + 1) of rank r: one free column, as for d=1 Hankel kernels."""
    r = shape[0]
    return _of_rank(rng, (r, r + 1), r, _small)


def _hankel(rng, shape):
    """The (k+1) x (k+1) Hankel matrix of k rational atoms: rank k."""
    k = shape[0]
    atoms = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
    weights = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(k)]
    moments = [sum((w * x**e for w, x in zip(weights, atoms)), F(0))
               for e in range(2 * k + 1)]
    return [[moments[i + j] for j in range(k + 1)] for i in range(k + 1)]


def _tall(rng, shape):
    return _of_rank(rng, (shape[0] + shape[1], shape[1]),
                    rng.randint(1, shape[1]), _small)


def _exchanges(rng, shape):
    """Rows permuted so that leading entries are zero: every step of the
    elimination must exchange rows."""
    n = shape[0]
    rows = [[F(0)] * i + [F(rng.randint(1, 5))]
            + [_small(rng) for _ in range(n - i - 1)] for i in range(n)]
    return rows[::-1]


def _big(rng, shape):
    """Entries of 200 to 260 bits, full or deficient rank."""
    bits = rng.randint(200, 260)
    rank = rng.randint(1, min(shape))
    return _of_rank(rng, shape, rank, lambda g: _entry(g, bits))


ORACLE_FAMILIES = [_zero, _wide, _hankel, _tall, _exchanges, _big]


class TestAgainstGaussJordan:
    """The fraction-free elimination and back substitution against plain
    Fraction Gauss-Jordan elimination."""

    @pytest.mark.parametrize("family", ORACLE_FAMILIES,
                             ids=[f.__name__[1:] for f in ORACLE_FAMILIES])
    def test_row_reduce(self, family):
        rng = random.Random(family.__name__)
        for _ in range(25):
            rows = family(rng, (rng.randint(1, 6), rng.randint(1, 6)))
            ncols = len(rows[0])
            pivots, rref, _ = gauss_jordan(rows, ncols)
            red = _linalg._row_reduce_exact(rows, len(rows), ncols)
            assert red == _linalg.row_reduce(rows)
            assert (red.rank, red.pivots, red.rref) == (len(pivots), pivots,
                                                        rref)
            for i, row in enumerate(red.rref):
                assert all(type(x) is Fraction for x in row)
                assert [row[p] for p in red.pivots] == [
                    F(int(i == k)) for k in range(red.rank)]

    def test_rank_zero(self):
        red = _linalg.row_reduce(_zero(None, (3, 4)))
        assert (red.rank, red.pivots, red.rref) == (0, (), ())
        assert red.kernel_basis() == [[F(int(i == j)) for i in range(4)]
                                      for j in range(4)]

    @pytest.mark.parametrize("family", [_exchanges, _big, _hankel],
                             ids=["exchanges", "big", "hankel"])
    def test_solve_and_determinant(self, family):
        rng = random.Random(family.__name__)
        for _ in range(15):
            n = rng.randint(1, 6)
            rows = family(rng, (n, n))
            n = len(rows)
            if family is _big and rng.random() < 0.5:
                rows = _of_rank(rng, (n, n), n, lambda g: _entry(g, 220))
            rhs = [_entry(rng, 210) for _ in range(n)]
            pivots, rref, det = gauss_jordan(
                [row + [b] for row, b in zip(rows, rhs)], n)
            assert _linalg.determinant(rows) == det
            if len(pivots) < n:
                with pytest.raises(_linalg.SingularMatrixError):
                    _linalg.solve_linear(rows, rhs)
                continue
            x = _linalg.solve_linear(rows, rhs)
            assert x == [row[n] for row in rref]
            assert all(type(v) is Fraction for v in x)

    def test_empty_solve(self):
        assert _linalg.solve_linear([], []) == []
        assert _linalg.determinant([]) == 1


class TestPsd:
    def test_psd_exact_accepts_gram(self):
        rows = [[F(2), F(1)], [F(1), F(1)]]
        ok, witness = _linalg.psd_exact(rows)
        assert ok and witness is None

    def test_psd_exact_witness_certifies(self):
        rows = [[F(1), F(2)], [F(2), F(1)]]  # eigenvalues 3, -1
        ok, witness = _linalg.psd_exact(rows)
        assert not ok
        value = _linalg.dot(witness, _linalg.mat_vec(rows, witness))
        assert value < 0

    def test_psd_exact_zero_diagonal_nonzero_off(self):
        rows = [[F(0), F(1)], [F(1), F(0)]]
        ok, witness = _linalg.psd_exact(rows)
        assert not ok
        value = _linalg.dot(witness, _linalg.mat_vec(rows, witness))
        assert value < 0

    def test_psd_exact_psd_singular(self):
        rows = [[F(1), F(1)], [F(1), F(1)]]
        ok, _ = _linalg.psd_exact(rows)
        assert ok

    def test_psd_randomized_gram_matrices(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 5)
            g = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            gram = [[sum(g[i][k] * g[j][k] for k in range(n))
                     for j in range(n)] for i in range(n)]
            ok, _ = _linalg.psd_exact(gram)
            assert ok

    def test_psd_float(self):
        ok, witness = _linalg.psd_float([[1.0, 0.0], [0.0, -1.0]])
        assert not ok and witness is not None
        ok, witness = _linalg.psd_float([[1.0, 0.0], [0.0, 1e-14]])
        assert ok

    def test_psd_float_scales_before_symmetrizing(self):
        # a + a.T overflows to inf here; a / max|a| does not.
        assert _linalg.psd_float([[1e308] * 2] * 2) == (True, None)
        ok, witness = _linalg.psd_float([[1e308, 0.0], [0.0, -1e308]])
        assert not ok and witness is not None


def _gram(rng, n):
    """A rational Gram matrix of size n and rank deficiency 0 to n."""
    rank = n - rng.randint(0, n)
    g = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)]
         for _ in range(n)]
    return [[sum((g[i][k] * g[j][k] for k in range(rank)), F(0))
             for j in range(n)] for i in range(n)]


def _perturbed(rng, n):
    """A Gram matrix with one symmetric pair of entries moved by +-1/7."""
    rows = _gram(rng, n)
    i, j = rng.randrange(n), rng.randrange(n)
    step = F(rng.choice((-1, 1)), 7)
    rows[i][j] += step
    if i != j:
        rows[j][i] += step
    return rows


def _sparse(rng, n):
    """A symmetric matrix with zero diagonal and entries from -2 to 2."""
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rows[i][j] = rows[j][i] = F(rng.randint(-2, 2))
    return rows


class TestPsdAgainstSympy:
    @pytest.mark.parametrize("family", [_gram, _perturbed, _sparse],
                             ids=["gram", "perturbed", "sparse"])
    def test_verdicts_match_and_witnesses_certify(self, family):
        rng = random.Random(family.__name__)
        for _ in range(100):
            rows = family(rng, rng.randint(1, 7))
            ok, witness = _linalg.psd_exact(rows)
            assert ok == sympy.Matrix(rows).is_positive_semidefinite, rows
            if not ok:
                value = sum(witness[i] * rows[i][j] * witness[j]
                            for i in range(len(rows))
                            for j in range(len(rows)))
                assert isinstance(value, Fraction) and value < 0
