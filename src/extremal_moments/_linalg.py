"""Exact (rational) and floating linear algebra used across the package.

Every exact path runs through one fraction-free elimination,
``_eliminate``: each row is scaled to integers and the forward elimination
uses Bareiss one-step updates, so ranks, pivot columns, kernels, solutions,
determinants and the positive-semidefinite decision are computed without
rounding.  The elimination behind a reduction also records whether every
pivot came, in order, from the row of its column and was positive: for a
symmetric matrix that is the PSD decision itself, so a reduction of M(n)
decides M(n) >= 0 and ``psd_exact`` eliminates again only to build a
witness.  The RREF and exact solutions come from one fraction-free back
substitution, ``_back_substitute``, in integers and on chosen columns only
(a solve's one free column is its right-hand side): the last pivot D times
the RREF is an integer matrix, so each entry takes one exact division.  An
exact reduction keeps its integer echelon rows and back-substitutes on
demand, so a caller that reads only the rank stops after the forward pass.
``integer_columns`` gives chosen columns as integers over one positive
scale, the lcm of their reduced denominators, for callers that compute in
integers (the quotient algebra and the Krylov solve of ``variety``); only
``rref``, for callers that print rationals, turns the nonzero free entries
into Fractions over D, once per reduction.  ``kernel_polynomials`` reads
the kernel off the RREF as polynomials in delta form, the one reader for
M(n)'s column relations and the relations of the evaluation matrices.
Float paths delegate to numpy, imported on their first use (exact callers
never load it), and use relative pivot thresholds.  The float reduction,
``_row_reduce_float``, clears each pivot's column with one masked rank-1
update of the rows that have a nonzero entry there; every entry still takes
one multiply and one subtract, unfused and in the same order as a
row-by-row loop, so its bytes are those of that loop.

Pivot columns are always the *first* linearly independent columns in the given
column order; kernel bases carry the delta structure (unit coefficient on one
free column, support otherwise restricted to pivot columns).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

from .polycore import (
    RANK_TOL,
    Polynomial,
    Scalar,
    all_exact,
    field,
    record,
)


class SingularMatrixError(ValueError):
    """A linear solve met a (numerically) singular matrix."""


def matrix_is_exact(rows: Sequence[Sequence[Scalar]]) -> bool:
    return all_exact(chain.from_iterable(rows))


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_vec(rows, vec) -> list:
    """rows times vec, skipping zero entries: integers stay integers."""
    return [sum(a * x for a, x in zip(row, vec) if a) for row in rows]


def dot(u, v):
    """sum u_i * v_i, a Fraction or a float.  Exact entries are summed in
    integers: each product a*b enters as its numerator times L / (its
    denominator), over the lcm L of those denominators, and the value is one
    Fraction over L.  With any float entry the products are added in order
    from Fraction(0), the order that fixes the bytes of a float."""
    pairs = list(zip(u, v))
    if not all_exact(chain.from_iterable(pairs)):
        return sum((a * b for a, b in pairs), Fraction(0))
    dens = [a.denominator * b.denominator for a, b in pairs]
    lcm = math.lcm(*dens)
    return Fraction(sum(a.numerator * b.numerator * (lcm // den)
                        for (a, b), den in zip(pairs, dens)), lcm)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

@record
class LinearReduction:
    """Result of row reduction: rank, pivot columns and echelon rows.

    A float reduction's echelon rows are its RREF.  An exact reduction keeps
    the integer echelon rows of ``_eliminate`` and back-substitutes only on
    demand: ``integer_columns`` reads chosen RREF columns in integers, and
    the Fraction RREF ``rref``, which ``kernel_polynomials`` reads, is
    built on first use, so a caller that reads only the rank runs no back
    substitution."""

    nrows: int
    ncols: int
    rank: int
    pivots: tuple   # pivot column indices, increasing
    echelon: tuple  # rank rows, each of length ncols
    #: Exact reductions: did every step k take a positive pivot from input
    #: row pivots[k] (``_positive_diagonal``)?  For a symmetric matrix that
    #: holds exactly when it is PSD.  None for float reductions.
    positive_diagonal: Optional[bool] = field(default=None, repr=False,
                                              compare=False)

    @cached_property
    def rref(self) -> tuple:
        """The RREF rows, pivot entries 1; an exact reduction's entries are
        Fractions, built by one back substitution on the free columns."""
        if self.positive_diagonal is None:  # a float reduction
            return self.echelon
        pivot_set = set(self.pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        den, xs = _back_substitute(self.echelon, self.pivots, free)
        one, zero = Fraction(1), Fraction(0)
        rref = []
        for i, p in enumerate(self.pivots):
            row = [zero] * self.ncols
            row[p] = one
            for j, x in zip(free, xs[i]):
                if x:
                    row[j] = Fraction(x, den)
            rref.append(tuple(row))
        return tuple(rref)

    def integer_columns(self, columns, rows=None) -> tuple:
        """``(ints, scale)`` for an exact reduction: its RREF entries in
        *columns* on *rows* (increasing row indices, all rows by default)
        as integers over one positive scale, ints[i][t] / scale being
        rref[rows[i]][columns[t]].  With D the last pivot, scale is
        |D| / gcd(D, entries), the lcm of the entries' reduced
        denominators.  The back substitution runs on *columns* alone and
        stops at the first of *rows*."""
        rows = range(self.rank) if rows is None else rows
        den, xs = _back_substitute(self.echelon, self.pivots, columns,
                                   rows[0] if len(rows) else self.rank)
        ints = [xs[i] for i in rows]
        g = math.gcd(den, *chain.from_iterable(ints))
        if den < 0:
            g = -g
        return [[x // g for x in row] for row in ints], den // g

    def kernel_polynomials(self, labels) -> list:
        """The kernel in delta form, one polynomial for each free column f
        in column order: labels[f] - sum_i rref[i][f] * labels[pivots[i]],
        its terms in column order and zero entries skipped.  The columns
        are those of *labels*: a reduction of no rows has ncols 0."""
        row_of = dict(zip(self.pivots, self.rref))
        return [Polynomial(len(labels[f]), {
            m: Fraction(1) if j == f else -row_of[j][f]
            for j, m in enumerate(labels)
            if j == f or j in row_of and row_of[j][f]})
            for f in range(len(labels)) if f not in row_of]


def row_reduce(rows: Sequence[Sequence[Scalar]]) -> LinearReduction:
    """Reduce to RREF; exact when every entry is exact, else float with a
    relative pivot threshold ``RANK_TOL * max|entry|``."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return LinearReduction(nrows, ncols, 0, (), ())
    if matrix_is_exact(rows):
        return _row_reduce_exact(rows, nrows, ncols)
    return _row_reduce_float(rows, nrows, ncols)


def _row_reduce_exact(rows, nrows, ncols) -> LinearReduction:
    work, pivots, _, order = _eliminate(rows, ncols)
    rank = len(pivots)
    return LinearReduction(nrows, ncols, rank, tuple(pivots),
                           tuple(map(tuple, work[:rank])),
                           _positive_diagonal(work, pivots, order))


def _positive_diagonal(work, pivots, order) -> bool:
    """Did every step k of ``_eliminate`` take its pivot from input row
    pivots[k], and was that pivot positive?

    For a symmetric A this holds exactly when A >= 0.  If it holds, the
    pivots are the leading principal minors of A[P,P] (P the pivot columns)
    times positive row scales, so A[P,P] > 0 by Sylvester's criterion, and
    A, of rank |P|, equals A[P,:]^T A[P,P]^-1 A[P,:] >= 0.  Conversely, let
    A >= 0 and c = pivots[k].  A row i < c outside P is, like column i, a
    combination of pivot rows before it, so the first k steps make it
    zero; swaps move only such zero rows, so row c is the first with a
    nonzero entry in column c, and its pivot is a leading principal minor
    of A[P,P] > 0 times positive row scales."""
    return all(order[k] == c and work[k][c] > 0 for k, c in enumerate(pivots))


def _back_substitute(work, pivots, free, first=0):
    """Fraction-free back substitution (Nakos, Turner & Williams 1997) of
    the echelon rows of ``_eliminate`` on the columns *free*.

    Returns ``(den, xs)`` with ``xs[i][t] / den`` the RREF entry of row i in
    column ``free[t]``.  The last pivot *den* is the r x r minor of the
    scaled rows on the pivot columns, so den times the RREF is an integer
    matrix (Cramer's rule).  With E the r echelon rows and U their block on
    the pivot columns (upper triangular), the rows of ``xs`` solve
    U xs = den * E[:, free] from the bottom up, by one exact division per
    entry; a row reads only the rows below it, so the rows above *first*
    are left None.  With no pivot, den is 1 and xs is empty."""
    rank = len(pivots)
    den = work[rank - 1][pivots[-1]] if rank else 1
    xs = [None] * rank
    for i in range(rank - 1, first - 1, -1):
        row = work[i]
        acc = [den * row[j] for j in free]
        for k in range(i + 1, rank):
            u = row[pivots[k]]
            if u:
                acc = [a - u * x for a, x in zip(acc, xs[k])]
        piv = row[pivots[i]]
        xs[i] = [a // piv for a in acc]
    return den, xs


def _eliminate(rows, ncols):
    """Fraction-free forward elimination of exact rows on their first *ncols*
    columns; any further columns (a right-hand side) are carried along.

    Each row is first scaled to integers (row scaling changes neither the row
    space, the kernel, nor the pivot columns), then eliminated with the
    Bareiss one-step formula, so every entry stays an integer and the pivot
    of step k is a k x k minor of the scaled matrix: with no row exchange,
    the leading one.  Returns ``(work, pivots, scale, order)``: the echelon
    rows, the pivot columns, the product of the row scales (positive) and
    the row order, ``order[i]`` being the input row now at position i.
    """
    work = []
    scale = 1
    for row in rows:
        if {*map(type, row)} == {int}:
            work.append(list(row))
            continue
        lcm = math.lcm(*[x.denominator for x in row])
        work.append([x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
    nrows, width = len(work), len(work[0]) if work else 0

    pivots = []
    order = list(range(nrows))
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            order[r], order[pivot_row] = order[pivot_row], order[r]
        row_r = work[r]
        piv = row_r[c]
        for i in range(r + 1, nrows):
            # Every row below must be rescaled at every step, even with a
            # zero head entry, or the next step's division stops being exact.
            row_i = work[i]
            head = row_i[c]
            for j in range(c, width):
                row_i[j] = (row_i[j] * piv - head * row_r[j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots, scale, order


def _row_reduce_float(rows, nrows, ncols) -> LinearReduction:
    """Gauss-Jordan with partial pivoting on floats, a pivot counting when
    it exceeds ``RANK_TOL * max|entry|``.  Each pivot clears its column with
    one masked rank-1 update of the rows whose entry there is nonzero: row i
    becomes ``work[i] - work[i, c] * work[r]``, one rounded multiply and one
    rounded subtract per entry (numpy fuses neither), and no row's update
    reads another updated row.  So the result is bit for bit that of
    updating the rows one at a time."""
    import numpy as np

    work = np.array(rows, dtype=float)
    scale = float(np.max(np.abs(work))) if work.size else 0.0
    if scale == 0.0:
        return LinearReduction(nrows, ncols, 0, (), ())
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
        hit = work[:, c] != 0.0
        hit[r] = False
        work[hit] -= np.outer(work[hit, c], work[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    rank = len(pivots)
    rref = tuple(map(tuple, work[:rank].tolist()))
    return LinearReduction(nrows, ncols, rank, tuple(pivots), rref)


# ---------------------------------------------------------------------------
# solving / determinants
# ---------------------------------------------------------------------------

def solve_linear(rows, rhs):
    """Solve A x = b for square A; exact iff all inputs are exact."""
    if matrix_is_exact([rhs, *rows]):
        n = len(rows)
        work, pivots, _, _ = _eliminate(
            [list(row) + [b] for row, b in zip(rows, rhs)], n)
        if len(pivots) < n:
            raise SingularMatrixError("exact solve: singular matrix")
        den, xs = _back_substitute(work, pivots, [n])
        return [Fraction(row[0], den) for row in xs]
    import numpy as np

    a = np.array([[float(x) for x in row] for row in rows], dtype=float)
    b = np.array([float(x) for x in rhs], dtype=float)
    # Rounding leaves a singular matrix invertible, so its rank is judged
    # too, with its columns scaled to unit length: their scales are no rank.
    norms = np.linalg.norm(a, axis=0)
    try:
        x = np.linalg.solve(a, b)
        sigma = np.linalg.svd(a / np.where(norms > 0.0, norms, 1.0),
                              compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if sigma[-1] <= RANK_TOL * sigma[0]:
        raise SingularMatrixError("float solve: numerically singular matrix")
    return [float(v) for v in x]


def determinant(rows):
    """Determinant; exact (Fraction) iff all entries are exact.  The exact
    value is the last Bareiss pivot over the product of row scales, signed
    by the parity of the row order."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if matrix_is_exact(rows):
        work, pivots, scale, order = _eliminate(rows, n)
        if len(pivots) < n:
            return Fraction(0)
        inversions = sum(a > b for i, a in enumerate(order)
                         for b in order[i + 1:])
        return Fraction((-1) ** inversions * work[n - 1][n - 1], scale)
    import numpy as np

    return float(np.linalg.det(
        np.array([[float(x) for x in row] for row in rows], dtype=float)))


# ---------------------------------------------------------------------------
# positive semidefiniteness
# ---------------------------------------------------------------------------

def psd_exact(rows, pivots=None):
    """Exact PSD decision for a symmetric rational matrix A, read off one
    elimination of A (``_positive_diagonal``); *pivots*, A's pivot columns
    when a reduction of A already found them and found A not PSD, spare it.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness vector
    v satisfies v^T A v < 0.  Only a witness eliminates again: with P the
    pivot columns, A equals A[P,:]^T A[P,P]^-1 A[P,:], so A is not PSD
    exactly when A[P,P] is not positive definite, that is (Sylvester's
    criterion) when the elimination of A[P,P] takes some pivot off the
    diagonal or gets a negative one.  At the first step k that does, the
    lifts u_j = e_j - (A_k^-1 A[:k, j], 0) against the leading block A_k,
    read off that elimination's first k rows by back substitution, have
    u_j^T A u_l = s_jl, the Schur complement.  Either s_kk < 0 and u_k is the
    witness, or s_kk = 0, row l was swapped in with s_kl != 0, and
    u_k - t u_l with t = s_kl / (|s_ll| + 1) is.
    """
    n = len(rows)
    if pivots is None:
        work, pivots, _, order = _eliminate(rows, n)
        if _positive_diagonal(work, pivots, order):
            return True, None
    block = [[rows[i][j] for j in pivots] for i in pivots]
    work, _, _, order = _eliminate(block, len(pivots))
    size = len(block)
    k = next((k for k in range(size) if order[k] != k or work[k][k] < 0),
             None)
    if k is None:
        return True, None

    def lift(j):
        # Steps before k took no row exchange, so the first k echelon rows
        # are those of A_k alone: their RREF column j is A_k^-1 A[:k, j].
        den, xs = _back_substitute(work, range(k), [j])
        return [Fraction(-x, den) for x, in xs] + [
            Fraction(int(i == j)) for i in range(k, size)]

    def form(u, v):
        return dot(u, mat_vec(block, v))

    v = lift(k)
    if form(v, v) == 0:
        u = lift(order[k])
        t = form(v, u) / (abs(form(u, u)) + 1)
        v = [a - t * b for a, b in zip(v, u)]
    witness = [Fraction(0)] * n
    for pos, i in enumerate(pivots):
        witness[i] = v[pos]
    assert dot(witness, mat_vec(rows, witness)) < 0
    return False, witness


def psd_float(rows):
    """Float PSD decision via eigenvalues; returns (ok, witness_or_None)."""
    import numpy as np

    a = np.array([[float(x) for x in row] for row in rows], dtype=float)
    if a.size == 0:
        return True, None
    a = a / max(1.0, float(np.max(np.abs(a))))  # (a + a.T) may overflow
    eigvals, eigvecs = np.linalg.eigh((a + a.T) / 2.0)
    if eigvals[0] >= -RANK_TOL:
        return True, None
    return False, [float(x) for x in eigvecs[:, 0]]
