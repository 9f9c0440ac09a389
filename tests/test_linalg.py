"""Unit tests: exact/float row reduction, solving, determinants, PSD."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

import extremal_moments as em
from extremal_moments import _linalg, moments, variety
from extremal_moments.polycore import (RANK_TOL, all_exact,
                                       clear_denominators, is_exact)

from conftest import conic_without_real_points


def F(*args):
    return Fraction(*args)


def kernel_vectors(red, ncols):
    """The coefficient vectors of ``kernel_polynomials`` on the labels
    (0,), ..., (ncols - 1,)."""
    labels = [(j,) for j in range(ncols)]
    return [[p.coefficient(m) for m in labels]
            for p in red.kernel_polynomials(labels)]


class TestRowReduceExact:
    def test_identity(self):
        red = _linalg.row_reduce([[F(1), F(0)], [F(0), F(1)]])
        assert red.rank == 2 and red.pivots == (0, 1)
        assert kernel_vectors(red, 2) == []

    def test_rank_deficient_kernel_delta_form(self):
        # x + 2y + 3z = 0 twice: kernel vectors carry a unit on a free column.
        rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
        red = _linalg.row_reduce(rows)
        assert red.rank == 1 and red.pivots == (0,)
        basis = kernel_vectors(red, 3)
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
            for vec in kernel_vectors(red, m):
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


def rowwise_float_reduction(rows, nrows, ncols):
    """The float Gauss-Jordan as a row-by-row loop, the reference whose bits
    ``_row_reduce_float`` must reproduce: (rank, pivots, rref)."""
    work = np.array([[float(x) for x in row] for row in rows], dtype=float)
    scale = float(np.max(np.abs(work)))
    if scale == 0.0:
        return 0, (), ()
    threshold = RANK_TOL * scale
    pivots = []
    r = 0
    for c in range(ncols):
        col = np.abs(work[r:, c])
        best = int(np.argmax(col))
        if col[best] <= threshold:
            continue
        best += r
        if best != r:
            work[[r, best]] = work[[best, r]]
        work[r] = work[r] / work[r, c]
        for i in range(nrows):
            if i != r and work[i, c] != 0.0:
                work[i] = work[i] - work[i, c] * work[r]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    rref = tuple(tuple(float(x) for x in work[i]) for i in range(r))
    return r, tuple(pivots), rref


def _float_entry(rng):
    """Zero (either sign), a small Fraction, or a float of magnitude
    1e-12 to 1e12."""
    kind = rng.random()
    if kind < 0.2:
        return rng.choice((0.0, -0.0))
    if kind < 0.35:
        return F(rng.randint(-40, 40), rng.randint(1, 12))
    return rng.choice((1, -1)) * rng.uniform(1, 10) * 10.0**rng.uniform(-12, 12)


def _float_matrix(rng):
    shape = rng.choice(((rng.randint(1, 6), rng.randint(1, 6)),
                        (rng.randint(1, 4), rng.randint(8, 14)),
                        (rng.randint(8, 14), rng.randint(1, 4))))
    nrows, ncols = shape
    if rng.random() < 0.5:
        rows = [[_float_entry(rng) for _ in range(ncols)]
                for _ in range(nrows)]
    else:  # one magnitude, so that ranks above 1 are common
        rows = [[rng.choice((0.0, F(rng.randint(-9, 9), 7),
                             rng.uniform(-1, 1)))
                 for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.4:  # a dependent row
        a, b = rng.uniform(-3, 3), rng.choice((2.0, F(1, 3)))
        rows[rng.randrange(nrows)] = [a * float(x) + b * y
                                      for x, y in zip(rows[0], rows[1])]
    if rng.random() < 0.3:  # a zero column
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0.0
    return rows


def _hex(rref):
    return [[x.hex() for x in row] for row in rref]


class TestFloatReductionBits:
    """``_row_reduce_float`` clears each pivot column with one masked
    rank-1 update; rank, pivots and every RREF bit, the sign of a zero
    included, must be those of the row-by-row loop."""

    def check(self, rows):
        nrows, ncols = len(rows), len(rows[0])
        red = _linalg._row_reduce_float(rows, nrows, ncols)
        rank, pivots, rref = rowwise_float_reduction(rows, nrows, ncols)
        assert all(type(x) is float for row in red.rref for x in row)
        assert (red.rank, red.pivots) == (rank, pivots)
        assert _hex(red.rref) == _hex(rref)

    def test_seeded_against_the_row_loop(self):
        rng = random.Random(26)
        for _ in range(400):
            self.check(_float_matrix(rng))

    @pytest.mark.parametrize("above", [False, True])
    def test_pivot_at_the_threshold(self, above):
        # After column 0, column 1's largest entry is RANK_TOL * scale
        # exactly: no pivot.  One ulp above it is one.
        tiny = RANK_TOL * 4.0
        if above:
            tiny = math.nextafter(tiny, math.inf)
        rows = [[4.0, 1.0, 2.0], [0.0, tiny, 1.0], [2.0, 0.5, -0.0]]
        self.check(rows)
        red = _linalg._row_reduce_float(rows, 3, 3)
        assert red.pivots == ((0, 1, 2) if above else (0, 2))

    def test_zero_heads_and_signed_zeros(self):
        self.check([[0.0, -0.0, 3.0, 0.0], [-0.0, 2.0, 0.0, -1.5],
                    [1.0, 0.0, -0.0, 0.0], [F(1, 3), -0.0, 1e-12, 0.0]])


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


def ordered_dot(u, v):
    """The products of u and v added in order from Fraction(0)."""
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


class TestDot:
    """Exact entries are summed in integers; a float entry keeps the sum in
    input order, so float bytes cannot move."""

    @staticmethod
    def _exact_entry(rng):
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-10**6, 10**6)
        if kind == 2:
            return F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        return F(rng.randint(-9, 9), 2**rng.randint(0, 40))

    def test_exact_equals_the_fraction_sum(self):
        rng = random.Random(25)
        for _ in range(400):
            length = rng.randint(0, 8)
            u = [self._exact_entry(rng) for _ in range(length)]
            v = [self._exact_entry(rng) for _ in range(length)]
            got = _linalg.dot(iter(u), iter(v))
            assert type(got) is Fraction
            assert got == sum((F(a) * F(b) for a, b in zip(u, v)), F(0))

    def test_float_sum_keeps_input_order(self):
        u, v = [1e16, 1.0, -1e16], [1, 1, 1]
        # The exact sum is 1; added left to right, 1e16 + 1.0 rounds to 1e16.
        assert math.fsum(u) == 1.0
        got = _linalg.dot(u, v)
        assert type(got) is float and got == 0.0 == ordered_dot(u, v)

    @pytest.mark.parametrize("value, exact", SCALAR_TYPES, ids=SCALAR_IDS)
    def test_mixed_entries_match_the_ordered_sum(self, value, exact):
        u, v = [F(1, 3), value, 0.1], [F(7, 5), F(2, 3), 3]
        for a, b in ((u[:2], v[:2]), (u, v), (v, u)):
            got, want = _linalg.dot(a, b), ordered_dot(a, b)
            assert type(got) is type(want) and got == want


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


def _integers(rng, shape):
    """Small integers with a zero column and, when tall enough, a row that
    depends on two others; zero head entries are common."""
    rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3, 5]) for _ in range(shape[1])]
            for _ in range(shape[0])]
    if shape[0] > 2:
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    column = rng.randrange(shape[1])
    for row in rows:
        row[column] = 0
    return rows


class TestIntegerColumns:
    """``integer_columns`` against the Fraction RREF: chosen columns on
    chosen rows, as integers over one positive scale, equal the RREF
    entries cleared of their denominators."""

    FAMILIES = [_integers, _zero, _wide, _hankel, _tall, _exchanges, _big]

    def test_against_cleared_rref(self):
        rng = random.Random(2024)
        negative_last_pivot = 0
        for family in self.FAMILIES * 30:
            rows = family(rng, (rng.randint(1, 7), rng.randint(1, 7)))
            red = _linalg.row_reduce(rows)
            if red.rank:
                negative_last_pivot += red.echelon[-1][red.pivots[-1]] < 0
            columns = sorted(rng.sample(range(red.ncols),
                                        rng.randint(1, red.ncols)))
            chosen = sorted(rng.sample(range(red.rank),
                                       rng.randint(0, red.rank)))
            for rows_arg, picked in ((None, range(red.rank)),
                                     (chosen, chosen)):
                ints, scale = red.integer_columns(columns, rows_arg)
                cleared, lcm = clear_denominators(
                    [red.rref[r][c] for r in picked for c in columns])
                assert scale > 0 and scale == lcm
                assert [x for row in ints for x in row] == cleared
                assert all(type(x) is int for row in ints for x in row)
        assert negative_last_pivot > 10


class TestRankOnlyCallers:
    """Callers that read only a rank stop after the forward elimination:
    no back substitution runs for their reductions."""

    @pytest.fixture
    def spy(self, monkeypatch):
        reductions, substituted = [], []
        row_reduce, back = _linalg.row_reduce, _linalg._back_substitute

        def reduce(rows):
            reductions.append(row_reduce(rows))
            return reductions[-1]

        def substitute(work, *args):
            substituted.append(work)
            return back(work, *args)

        monkeypatch.setattr(_linalg, "row_reduce", reduce)
        monkeypatch.setattr(_linalg, "_back_substitute", substitute)
        return reductions, substituted

    def test_common_factor(self, spy):
        conic = em.rank_kernel(em.build_moment_matrix(
            conic_without_real_points())).kernel
        spy[0].clear()
        spy[1].clear()
        assert variety._common_factor(conic) == conic[0]
        assert len(spy[0]) == 1 and spy[1] == []

    def test_flatness(self, spy, ex71):
        matrix = em.build_moment_matrix(ex71)
        verdict = moments._flatness(matrix, 8)
        assert (verdict.rank, verdict.rank_previous) == (8, 6)
        assert len(spy[0]) == 1 and spy[1] == []

    def test_eval_matrix_rank(self, spy):
        w = em.build_W([(F(1), F(2)), (F(3), F(4)), (F(-1), F(0))], 2)
        assert em.eval_matrix_rank(w) == 3
        assert len(spy[0]) == 1 and spy[1] == []

    def test_tightness_check(self, spy, prop61, prop61_deg8):
        # The kernels of M(n) and M(n+1) are back-substituted; the span of
        # the shifts of ker M(n), whose rank is the bound, is not.
        verdict = em.tightness_check(em.build_moment_matrix(prop61),
                                     em.build_moment_matrix(prop61_deg8))
        assert verdict.bound == 6
        kernels, span = spy[0][:-1], spy[0][-1]
        assert len(kernels) == 2
        assert all(any(w is red.echelon for red in kernels) for w in spy[1])
        assert not any(w is span.echelon for w in spy[1])


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
        assert kernel_vectors(red, 4) == [[F(int(i == j)) for i in range(4)]
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


def _psd_reference(rows, pivots):
    """The witness of ``psd_exact`` given A's pivot columns, each lift
    u_j solved afresh by ``solve_linear`` on the leading block A_k."""
    block = [[rows[i][j] for j in pivots] for i in pivots]
    work, _, _, order = _linalg._eliminate(block, len(pivots))
    size = len(block)
    k = next(k for k in range(size) if order[k] != k or work[k][k] < 0)

    def lift(j):
        head = _linalg.solve_linear([row[:k] for row in block[:k]],
                                    [row[j] for row in block[:k]])
        return [-y for y in head] + [F(int(i == j)) for i in range(k, size)]

    def form(u, v):
        return _linalg.dot(u, _linalg.mat_vec(block, v))

    v = lift(k)
    if form(v, v) == 0:
        u = lift(order[k])
        t = form(v, u) / (abs(form(u, u)) + 1)
        v = [a - t * b for a, b in zip(v, u)]
    witness = [F(0)] * len(rows)
    for pos, i in enumerate(pivots):
        witness[i] = v[pos]
    return witness


def test_psd_witness_lifts_read_the_block_elimination(monkeypatch):
    # Seeded symmetric matrices of the three families, most of them not
    # PSD: the witness is the one the solve_linear lifts give, and A and
    # its block A[P,P] are each eliminated once (the block alone when the
    # pivots are given).
    calls = []
    eliminate = _linalg._eliminate

    def counted(rows, ncols):
        calls.append(len(rows))
        return eliminate(rows, ncols)

    rng = random.Random(30)
    lifted = 0
    for _ in range(150):
        for family in (_gram, _perturbed, _sparse):
            rows = family(rng, rng.randint(1, 7))
            pivots = list(_linalg.row_reduce(rows).pivots)
            monkeypatch.setattr(_linalg, "_eliminate", counted)
            calls.clear()
            ok, witness = _linalg.psd_exact(rows)
            assert len(calls) == (1 if ok else 2)
            calls.clear()
            assert _linalg.psd_exact(rows, pivots) == (ok, witness)
            assert len(calls) == 1
            monkeypatch.setattr(_linalg, "_eliminate", eliminate)
            if not ok:
                lifted += 1
                assert witness == _psd_reference(rows, pivots)
    assert lifted > 150
