"""The exact kernels checked against their plain versions, kept here as
oracles: the upper-triangle Bareiss steps of ``_linalg._eliminate`` on
symmetric input against the general loop, and the sparse integer products
of the quotient algebra (``variety._times``) against ``_linalg.mat_vec``.

The module imports neither numpy nor sympy, so it also runs on an install
without them.
"""

import math
import random
from fractions import Fraction as F

import pytest

import extremal_moments as em
from extremal_moments import _linalg, _roots, variety
from extremal_moments.polycore import Polynomial

from conftest import d3_measure, fixture_path

MOMENT_FIXTURES = ("ex42_hyperbola", "ex44", "ex71", "example15",
                   "nonrecursive", "not_psd", "prop61", "prop61_deg8",
                   "thm62_a8_8")


def load(name):
    return em.load_multisequence(fixture_path(f"{name}.moments.json"))


# ---------------------------------------------------------------------------
# the elimination
# ---------------------------------------------------------------------------

def reference_eliminate(rows, ncols):
    """The general Bareiss loop of ``_eliminate``, on every input."""
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


def gram(rng, size, fractions):
    """B^T D B for a seeded integer B with zero and dependent columns and a
    positive diagonal D; with *fractions*, S B^T D B S for a diagonal S of
    fractions, so the rows have different denominators."""
    b = [[rng.randint(-3, 3) for _ in range(size)]
         for _ in range(rng.randint(1, size))]
    for j in range(size):
        kind = rng.random()
        for row in b:
            if kind < 0.2:
                row[j] = 0
            elif kind < 0.4 and j:
                row[j] = row[j - 1] - 2 * row[0]
    weights = [rng.randint(1, 4) for _ in b]
    a = [[sum(w * row[i] * row[j] for w, row in zip(weights, b))
          for j in range(size)] for i in range(size)]
    if fractions:
        s = [F(rng.randint(1, 6), rng.randint(1, 9)) for _ in range(size)]
        a = [[s[i] * x * s[j] for j, x in enumerate(row)]
             for i, row in enumerate(a)]
    return a


def late_negative(rng, size, fractions):
    """A PSD Gram matrix with a negative entry added to its last diagonal
    entry: the elimination goes wrong only at its last steps."""
    a = gram(rng, size, fractions)
    a[-1][-1] -= sum(map(abs, a[-1])) + 1
    return a


def zero_diagonal(rng, size, fractions):
    """A PSD Gram matrix with one diagonal entry set to 0 and its row (and
    column) kept nonzero."""
    a = gram(rng, size, fractions)
    k = rng.randrange(1, size)
    a[k][k] = 0
    a[k][0] = a[0][k] = a[k][0] + 1
    return a


SEEDED = [(kind, size, fractions, seed)
          for kind in (gram, late_negative, zero_diagonal)
          for size in (2, 3, 5, 8) for fractions in (False, True)
          for seed in range(5)]
LITERAL = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
           [[F(1, 2), 0], [0, F(-1, 3)]], [[0, 0], [0, 0]],
           [[1, 0, 0], [0, 0, 0], [0, 0, 1]]]


def seeded_matrices():
    for kind, size, fractions, seed in SEEDED:
        yield kind(random.Random(seed * 100 + size), size, fractions)
    yield from LITERAL


def copy(rows):
    return [list(row) for row in rows]


@pytest.fixture
def reference(monkeypatch):
    """Runs a call with the general loop in place of ``_eliminate``."""
    def run(call, *args):
        with monkeypatch.context() as patch:
            patch.setattr(_linalg, "_eliminate", reference_eliminate)
            return call(*args)
    return run


@pytest.fixture
def symmetric_steps(monkeypatch):
    """``(size, column)`` of each ``_symmetric_steps`` run: the column it
    stopped at, size when it took every step."""
    runs = []
    inner = _linalg._symmetric_steps

    def recorded(work, *args):
        result = inner(work, *args)
        runs.append((len(work), result[0]))
        return result

    monkeypatch.setattr(_linalg, "_symmetric_steps", recorded)
    return runs


def test_symmetric_input_matches_the_general_loop(symmetric_steps):
    # The whole result, zero rows and the full row order included.
    for rows in seeded_matrices():
        size = len(rows)
        assert _linalg._eliminate(copy(rows), size) \
            == reference_eliminate(copy(rows), size), rows
    completed = sum(c == size for size, c in symmetric_steps)
    assert len(symmetric_steps) == len(SEEDED) + len(LITERAL)
    assert 0 < completed < len(symmetric_steps)


def test_reduction_and_psd_flag_match(reference):
    for rows in seeded_matrices():
        got = _linalg.row_reduce(rows)
        want = reference(_linalg.row_reduce, rows)
        assert got == want
        assert got.positive_diagonal is want.positive_diagonal
        assert got.rref == want.rref


def test_determinant_solve_and_witnesses_match(reference):
    rng = random.Random(7)
    witnesses = solved = 0
    for rows in seeded_matrices():
        assert _linalg.determinant(rows) \
            == reference(_linalg.determinant, rows)
        got = _linalg.psd_exact(rows)
        assert got == reference(_linalg.psd_exact, rows)
        witnesses += not got[0]
        rhs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in rows]
        if _linalg.determinant(rows):
            assert _linalg.solve_linear(rows, rhs) \
                == reference(_linalg.solve_linear, rows, rhs)
            solved += 1
    assert witnesses >= 2 * len(SEEDED) // 3 and solved > 10


def test_psd_exact_with_known_pivots_matches(reference):
    for rows in seeded_matrices():
        reduction = _linalg.row_reduce(rows)
        if not reduction.positive_diagonal:
            pivots = list(reduction.pivots)
            assert _linalg.psd_exact(rows, pivots) \
                == reference(_linalg.psd_exact, rows, pivots)


def test_non_symmetric_and_non_square_input_take_the_general_loop(
        symmetric_steps):
    for rows in ([[1, 2], [3, 4]], [[1, 2, 3], [2, 1, 0]],
                 [[F(1, 2), 1], [F(1, 2), 1]]):
        ncols = len(rows[0])
        assert _linalg._eliminate(copy(rows), ncols) \
            == reference_eliminate(copy(rows), ncols)
    assert symmetric_steps == []


def test_every_psd_moment_matrix_takes_the_upper_triangle_steps(
        symmetric_steps):
    # One elimination per M(n), and it takes every step on the upper
    # triangle; the not-PSD M(1) of not_psd stops at its second column.
    for name in MOMENT_FIXTURES:
        symmetric_steps.clear()
        pipe = em.Pipeline(load(name))
        kernel = pipe.kernel
        size = len(pipe.matrix.rows)
        assert pipe.psd.ok is (name != "not_psd")
        if name == "not_psd":
            assert symmetric_steps == [(2, 1), (2, 1)]
        else:
            assert symmetric_steps == [(size, size)], name
            assert kernel.psd


def test_extended_non_psd_moment_matrix_falls_back(symmetric_steps):
    # thm62_a8_8's M(3) is PSD; its extension M(4) is not, and both its
    # reduction and its witness block stop before their last column.
    search = em.extension_search(load("thm62_a8_8"))
    assert search.status == "NotPSD"
    assert (10, 10) in symmetric_steps
    stopped = [(size, c) for size, c in symmetric_steps if size == 15]
    assert stopped and all(c < 15 for _, c in stopped)
    extended = search.steps[-1].extended.matrix.rows
    assert _linalg._eliminate(copy(extended), 15) \
        == reference_eliminate(copy(extended), 15)


# ---------------------------------------------------------------------------
# the sparse products
# ---------------------------------------------------------------------------

def random_matrix(rng, size):
    """Integers of up to 600 bits, either sign, with zero rows and columns
    and many zero entries."""
    zero_row, zero_column = rng.randrange(size), rng.randrange(size)
    return [[0 if i == zero_row or j == zero_column or rng.random() < 0.6
             else rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 600)))
             for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("seed", range(10))
def test_sparse_products_match_mat_vec(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 9)
    matrix = random_matrix(rng, size)
    columns = variety._columns(matrix)
    vectors = [[int(i == k) for i in range(size)] for k in range(size)]
    vectors += [[0] * size, [rng.randint(-2**520, 2**520) for _ in matrix],
                [rng.choice((0, 0, -7, 5)) for _ in matrix]]
    for vector in vectors:
        assert variety._times(columns, vector) \
            == _linalg.mat_vec(matrix, vector)
    other = random_matrix(rng, size)
    assert variety._commute(columns, variety._columns(other), True) is (
        dense_product(matrix, other) == dense_product(other, matrix))
    assert variety._commute(columns, columns, True)


def dense(columns):
    """The matrix of sparse *columns*."""
    rows = [[0] * len(columns) for _ in columns]
    for k, column in enumerate(columns):
        for r, x in column:
            rows[r][k] = x
    return rows


def dense_product(a, b):
    return _linalg.transpose([_linalg.mat_vec(a, col) for col in zip(*b)])


def reference_krylov(matrix, scale, xs):
    """``variety._krylov`` on the dense *matrix*, by ``mat_vec``."""
    vectors, contents = [[0] * (len(matrix) - 1) + [1]], [1]
    for _ in matrix:
        vector = _linalg.mat_vec(matrix, vectors[-1])
        content = math.gcd(*vector) or 1
        vectors.append([x // content for x in vector])
        contents.append(contents[-1] * content)
    reduction = _linalg.row_reduce(_linalg.transpose(vectors + xs))
    k = next(k for k in range(len(vectors)) if k not in reduction.pivots)
    spans = reduction.rank == len(matrix) \
        and reduction.pivots[-1] < len(vectors)
    others = range(len(vectors), len(vectors) + len(xs)) if spans else ()
    ints, den = reduction.integer_columns([k, *others], range(k))
    minimal = [-row[0] * scale**r * (contents[k] // contents[r])
               for r, row in enumerate(ints)] + [den * scale**k]
    if not spans:
        return minimal, None
    h_den = den * scale * contents[k - 1]
    return minimal, [([row[j] * scale**r * (contents[k - 1] // contents[r])
                       for r, row in enumerate(ints)], h_den)
                     for j in range(1, len(xs) + 1)]


def reference_spanning_form(mats, scale):
    """``variety._spanning_form`` on dense matrices, by ``mat_vec``."""
    d, size = len(mats), len(mats[0])
    xs = [[row[-1] for row in m] for m in mats]
    for c in variety._integer_nodes(2 * d * size**2 + 1):
        t = mats[0] if c == 0 else [
            [sum(c**i * m[r][k] for i, m in enumerate(mats))
             for k in range(size)] for r in range(size)]
        t_minimal, h = reference_krylov(t, scale, xs)
        if h is not None or _roots.squarefree_part(t_minimal)[1]:
            return c, t_minimal, h
    return None


def reference_images(mats, size, n):
    """{a: scale**|a| * x^a * 1} for |a| <= n, by ``mat_vec``."""
    d = len(mats)
    images = {(0,) * d: [0] * (size - 1) + [1]}
    for a in em.monomial_basis(d, n)[1:]:
        i = next(i for i, e in enumerate(a) if e)
        images[a] = _linalg.mat_vec(mats[i], images[variety._lower(a)])
    return images


def reference_squarefree_at(basis, matrix, scale, squarefree):
    value = [0] * len(basis)
    for k, a in enumerate(reversed(squarefree)):
        value = _linalg.mat_vec(matrix, value)
        value[-1] += a * scale**k
    return Polynomial(len(basis[0]), dict(zip(basis, value)))


@pytest.fixture
def quotient_calls(monkeypatch):
    """Each call of the quotient stage's product users, with its result."""
    calls = []
    for name in ("_quotient", "_spanning_form", "_krylov", "_squarefree_at"):
        def spy(*args, _inner=getattr(variety, name), _name=name):
            result = _inner(*args)
            calls.append((_name, args, result))
            return result
        monkeypatch.setattr(variety, name, spy)
    return calls


def grid():
    """Four atoms on {0, 1}^2: neither x nor x + y nor x - y separates
    them, so the spanning form combines the matrices."""
    return em.beta_from_atoms([(0, 0), (0, 1), (1, 0), (1, 1)],
                              [F(1), F(2), F(3), F(4)], d=2, degree=4)


def d3_atoms():
    return em.beta_from_atoms(*d3_measure(), d=3, degree=4)


QUOTIENT_INPUTS = {name: lambda name=name: load(name)
                   for name in MOMENT_FIXTURES
                   if name not in ("ex42_hyperbola", "not_psd")}
QUOTIENT_INPUTS.update(grid=grid, d3_atoms=d3_atoms)


@pytest.mark.parametrize("name", QUOTIENT_INPUTS)
def test_quotient_stage_matches_mat_vec(name, quotient_calls, monkeypatch):
    kernel = list(em.Pipeline(QUOTIENT_INPUTS[name]()).kernel.kernel)
    report = variety.compute_variety(kernel)
    # The whole stage again with every sparse product made by mat_vec on
    # the dense matrix: each call and the report, quotient included.
    calls = list(quotient_calls)
    quotient_calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(variety, "_times", lambda columns, vector:
                      _linalg.mat_vec(dense(columns), vector))
        again = variety.compute_variety(kernel)
    assert quotient_calls == calls
    assert (again, again.quotient) == (report, report.quotient)
    seen = {call for call, _, _ in quotient_calls}
    assert {"_quotient", "_spanning_form", "_krylov"} <= seen
    for call, args, result in quotient_calls:
        if call == "_quotient":
            basis, mats, scale, images = result
            n = max(int(p.degree) for p in args[0])
            assert images == reference_images(mats, len(basis), n)
            for a in mats:
                for b in mats:
                    assert dense_product(a, b) == dense_product(b, a)
        elif call == "_spanning_form":
            assert result == reference_spanning_form(
                [dense(m) for m in args[0]], args[1])
        elif call == "_krylov":
            assert result == reference_krylov(dense(args[0]), *args[1:])
        else:
            basis, columns, scale, squarefree = args
            assert result == reference_squarefree_at(
                basis, dense(columns), scale, squarefree)
    if name in ("prop61", "thm62_a8_8"):  # the radical path
        assert [c for c, _, _ in quotient_calls].count("_quotient") == 2
        assert "_squarefree_at" in seen
    if name == "grid":
        assert [r[0] for c, _, r in quotient_calls
                if c == "_spanning_form"] == [2]


@pytest.mark.parametrize("seed", range(5))
def test_combined_columns_match_the_dense_form(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 7)
    mats = [random_matrix(rng, size) for _ in range(rng.randint(1, 3))]
    for c in (-2, -1, 1, 3):
        t = [variety._combine(columns, c)
             for columns in zip(*map(variety._columns, mats))]
        assert dense(t) == [[sum(c**i * m[r][k] for i, m in enumerate(mats))
                             for k in range(size)] for r in range(size)]
