"""Variety computation, evaluation matrices, and Vandermonde reports."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy

import extremal_moments as em
from extremal_moments import _linalg, _roots, variety
from extremal_moments._roots import REFINE_WIDTH
from extremal_moments.cli import run
from extremal_moments.moments import macaulay_rows
from extremal_moments.polycore import (
    InputError,
    Polynomial,
    clear_denominators,
    monomial_basis,
    negligible,
)
from extremal_moments.variety import VarietyReport, vanishing_ideal

from conftest import (
    as_float,
    conic_without_real_points,
    d3_measure,
    fixture_path,
)


FIXTURES = ("ex42_hyperbola", "example15", "prop61", "ex44", "prop61_deg8",
            "ex71", "thm62_a8_8")
SQRT6 = math.sqrt(6.0)
SQRT15 = math.sqrt(15.0)


def kernel_of(beta):
    return em.rank_kernel(em.build_moment_matrix(beta)).kernel


class TestComputeVariety:
    def test_parabola_circle_points(self, ex15):
        report = em.compute_variety(kernel_of(ex15))
        assert report.status == "Finite"
        assert report.v == 4
        xs = sorted(float(w[0]) for w in report.points)
        assert xs == pytest.approx(
            [-2.0 - SQRT6, -0.5, -0.5, -2.0 + SQRT6], abs=1e-9)
        ys = sorted(float(w[1]) for w in report.points)
        assert ys == pytest.approx(
            [-SQRT15 / 2.0, 0.0, 0.0, SQRT15 / 2.0], abs=1e-9)

    def test_points_satisfy_kernel(self, ex15):
        kernel = kernel_of(ex15)
        report = em.compute_variety(kernel)
        for p in kernel:
            for w in report.points:
                assert abs(float(p.evaluate(w))) < 1e-9

    def test_hyperbola_is_infinite(self, ex42):
        report = em.compute_variety(kernel_of(ex42))
        assert report.status == "Infinite"
        assert report.v == math.inf
        assert report.witness is not None
        assert report.witness.terms == {(0, 0): F(-1), (1, 1): F(1)}

    def test_common_factor_without_real_zeros_is_unknown(self):
        # 1 + X^2 + Y^2 divides the kernel but vanishes nowhere in R^2.
        kernel = kernel_of(conic_without_real_points())
        assert [str(p) for p in kernel] == [
            "1 + X^2 + Y^2", "X + X^3 + Y^2X", "Y + YX^2 + Y^3"]
        report = em.compute_variety(kernel)
        assert report.status == "Unknown"
        assert report.witness is None
        assert "common factor 1 + X^2 + Y^2" in report.reason

    @pytest.mark.parametrize("atoms, degree, factor", (
        ([(F(10), F(k)) for k in range(3)], 4,
         {(0, 0): F(-10), (1, 0): F(1)}),
        ([(F(k), F(-7, 2)) for k in range(3)], 4,
         {(0, 0): F(7, 2), (0, 1): F(1)}),
        ([(F(100 - k), F(k)) for k in range(3)], 4,
         {(0, 0): F(-100), (1, 0): F(1), (0, 1): F(1)}),
        ([(F(x, 3), F(k)) for x in (1, 2) for k in range(4)], 6,
         {(0, 0): F(2, 9), (1, 0): F(-1), (2, 0): F(1)}),
    ), ids=("x=10", "y=-7/2", "x+y=100", "x=1/3,2/3"))
    def test_atoms_on_lines_are_infinite(self, atoms, degree, factor):
        # A fixed grid of points can miss these sign changes, so g is
        # sampled around its real roots on the lines y = c and x = c.  For
        # the lines x = 1/3 and x = 2/3, g < 0 only between its roots.
        beta = em.beta_from_atoms(atoms, [F(1)] * len(atoms), degree=degree)
        report = em.compute_variety(kernel_of(beta))
        assert report.status == "Infinite"
        assert report.witness.terms == factor

    def test_cubic_curve_seven_points(self, ex44):
        report = em.compute_variety(kernel_of(ex44))
        assert report.status == "Finite"
        assert report.v == 7
        xs = sorted(float(w[0]) for w in report.points)
        expected = [-8.367479063712, -1.729903459921, -0.996357434703,
                    0.0, 0.996357434703, 1.729903459921, 8.367479063712]
        assert xs == pytest.approx(expected, abs=1e-9)
        # Zero is hit exactly during isolation; the surds are refined.
        by_x = dict(zip((float(w[0]) for w in report.points),
                        report.exact_mask))
        assert by_x[0.0] is True
        assert sum(1 for flag in report.exact_mask if flag) == 1

    def test_coprime_univariate_kernel_is_empty(self):
        kernel = [Polynomial(1, {(1,): F(1), (0,): F(-1)}),
                  Polynomial(1, {(1,): F(1), (0,): F(-2)})]
        report = em.compute_variety(kernel)
        assert report.status == "Finite"
        assert report.points == ()
        assert report.v == 0

    def test_vertical_line_atoms_exact(self):
        # Atoms on the line x = 0: the kernel holds x and y^2 + 2y, which
        # share no factor, so its quotient algebra gives both points.
        beta = em.beta_from_atoms([(F(0), F(0)), (F(0), F(-2))],
                                  [F(2), F(1, 8)], degree=6)
        report = em.compute_variety(kernel_of(beta))
        assert report.status == "Finite"
        assert sorted(report.points) == [(F(0), F(-2)), (F(0), F(0))]
        assert all(report.exact_mask)

    def test_vertical_line_atoms_float(self):
        beta = em.beta_from_atoms([(F(0), F(0)), (F(0), F(-2))],
                                  [F(2), F(1, 8)], degree=6)
        beta_f = em.Multisequence(2, 6, {k: float(v)
                                         for k, v in beta.values.items()})
        report = em.compute_variety(kernel_of(beta_f))
        assert report.status == "Finite"
        got = sorted((round(x, 9), round(y, 9)) for x, y in report.points)
        assert got == [(0.0, -2.0), (0.0, 0.0)]

    def test_coprime_y_free_pair_is_empty(self):
        kernel = [Polynomial(2, {(1, 0): F(1)}),
                  Polynomial(2, {(1, 0): F(1), (0, 0): F(-1)})]
        report = em.compute_variety(kernel)
        assert report.status == "Finite"
        assert report.points == ()

    @pytest.mark.parametrize("one", (F(1), 1.0), ids=("exact", "float"))
    def test_double_root_is_one_multiple_point(self, one):
        # (x - 1)^2: the split eigenvalues of the float double zero are
        # averaged back into the one point that exact mode finds.
        kernel = [Polynomial(1, {(0,): one, (1,): -2 * one, (2,): one})]
        report = em.compute_variety(kernel)
        assert report.status == "Finite"
        [(x,)] = report.points
        assert float(x) == pytest.approx(1, abs=1e-9)
        assert report.multiple_roots

    def test_float_d3_kernel(self):
        # x, y - 1, z^2 - 1 in float mode: the quotient route serves d = 3.
        kernel = [Polynomial(3, {(1, 0, 0): 1.0}),
                  Polynomial(3, {(0, 1, 0): 1.0, (0, 0, 0): -1.0}),
                  Polynomial(3, {(0, 0, 2): 1.0, (0, 0, 0): -1.0})]
        report = em.compute_variety(kernel)
        assert report.status == "Finite"
        assert len(report.points) == 2
        for w, want in zip(report.points, [(0, 1, -1), (0, 1, 1)]):
            assert w == pytest.approx(want, abs=1e-9)
        assert not report.multiple_roots

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            em.compute_variety([])
        with pytest.raises(ValueError):
            em.compute_variety([Polynomial(2, {})])


def _sympy_quotient(kernel):
    """``(basis, [M_i])`` of ``variety._quotient`` for an exact kernel, with
    every Macaulay matrix reduced by sympy's rref and the multiplication
    matrices M_i in Rationals; None when no degree up to 2n + 2 gives one."""
    d = kernel[0].d
    n = max(int(p.degree) for p in kernel)
    for top in range(n + 1, 2 * n + 3):
        columns = monomial_basis(d, top)[::-1]
        rows = _reference_rows([(p, top - int(p.degree)) for p in kernel],
                               columns, False)
        rref, pivots = sympy.Matrix(rows).applyfunc(sympy.Rational).rref()
        row_of = {columns[j]: r for r, j in enumerate(pivots)}
        full = next((e for e in range(top + 1) if all(
            m in row_of for m in columns if sum(m) == e)), None)
        if full is None:
            continue
        free = [j for j, m in enumerate(columns)
                if sum(m) < full and m not in row_of]
        basis = [columns[j] for j in free]
        if any(variety._lower(b) not in basis for b in basis[:-1]):
            continue

        def normal_form(m):
            if m in basis:
                return [int(b == m) for b in basis]
            return [-rref[row_of[m], j] for j in free]

        mats = [sympy.Matrix([normal_form(variety._shift(b, e))
                              for b in basis]).T
                for e in monomial_basis(d, 1)[1:]]
        if any(a * b != b * a for a, b in itertools.combinations(mats, 2)):
            continue
        one = sympy.Matrix([0] * (len(basis) - 1) + [1])

        def image(a):
            vector = one
            for m, e in zip(mats, a):
                vector = m**e * vector
            return vector

        if all(sum((sympy.Rational(c) * image(a) for a, c in p.terms.items()),
                   sympy.zeros(len(basis), 1)) == sympy.zeros(len(basis), 1)
               for p in kernel):
            return basis, mats
    return None


@pytest.mark.parametrize("fixture", FIXTURES)
def test_quotient_against_sympy_rref(fixture):
    # The integer normal forms read off the fraction-free elimination are
    # sympy's Rational ones over the lcm of their denominators.
    kernel = kernel_of(em.load_multisequence(
        fixture_path(f"{fixture}.moments.json")))
    quotient = variety._quotient(kernel, True)
    want = _sympy_quotient(kernel)
    assert (quotient is None) == (want is None)
    if want is None:
        return
    basis, mats, scale, images = quotient
    assert basis == want[0]
    assert scale == math.lcm(*(x.q for m in want[1] for x in m))
    for m, w in zip(mats, want[1]):
        assert sympy.Matrix(m) / scale == w
    for a, vector in images.items():
        power = sympy.Matrix([0] * (len(basis) - 1) + [1])
        for m, e in zip(want[1], a):
            power = m**e * power
        assert sympy.Matrix(vector) == scale**sum(a) * power


def _reference_rows(elements, columns, integers):
    """The rows of ``moments.macaulay_rows`` by polynomial multiplication:
    each Polynomial.monomial(d, s) * p of ``(p, k)`` in *elements*, |s| <=
    k, scattered onto *columns* by tuple lookup, p cleared of its
    denominators first with *integers*."""
    where = {m: j for j, m in enumerate(columns)}
    rows = []
    for p, k in elements:
        if integers:
            p = Polynomial(p.d, dict(zip(
                p.terms, clear_denominators(p.terms.values())[0])))
        for s in monomial_basis(p.d, k):
            rows.append([0] * len(columns))
            for m, c in (Polynomial.monomial(p.d, s) * p).terms.items():
                rows[-1][where[m]] = c
    return rows


def _seeded_kernel(rng, d, exact):
    """One to four polynomials in d variables of degree 1 to 3 with seeded
    supports and nonzero coefficients, rational or float."""
    kernel = []
    for _ in range(rng.randint(1, 4)):
        monomials = monomial_basis(d, rng.randint(1, 3))
        support = rng.sample(monomials[1:], rng.randint(1, len(monomials)
                                                        - 1))
        support += [monomials[0]] * rng.randint(0, 1)
        kernel.append(Polynomial(d, {
            m: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
            if exact else rng.uniform(0.1, 3) * rng.choice((-1, 1))
            for m in support}))
    return kernel


def _assembly_kernels():
    """Every fixture's kernel, its float twin's, and seeded exact and float
    kernels in d = 1, 2 and 3."""
    rng = random.Random(29)
    kernels = []
    for fixture in FIXTURES:
        beta = em.load_multisequence(fixture_path(f"{fixture}.moments.json"))
        kernels += [pytest.param(kernel_of(beta), id=fixture),
                    pytest.param(kernel_of(as_float(beta)),
                                 id=fixture + " float")]
    for d, exact, draw in itertools.product((1, 2, 3), (True, False),
                                            range(3)):
        kernels.append(pytest.param(
            _seeded_kernel(rng, d, exact),
            id=f"d{d} {'exact' if exact else 'float'} #{draw}"))
    return kernels


@pytest.mark.parametrize("kernel", _assembly_kernels())
def test_macaulay_rows_match_the_scattered_products(kernel):
    # Every degree _quotient tries, over descending columns and in
    # integers for an exact kernel; propagation's raw rows over ascending
    # columns up to every such degree (2n + 2 the last); recursiveness's
    # up to n; and _common_factor's shifts of the lowest element followed
    # by the kernel.
    d, exact = kernel[0].d, all(p.is_exact for p in kernel)
    n = max(int(p.degree) for p in kernel)
    for top in range(n, 2 * n + 3):
        elements = [(p, top - int(p.degree)) for p in kernel]
        columns = monomial_basis(d, top)
        assert macaulay_rows(elements, columns, False) \
            == _reference_rows(elements, columns, False)
        assert macaulay_rows(elements, columns[::-1], exact) \
            == _reference_rows(elements, columns[::-1], exact)
    g = min(kernel, key=lambda p: p.degree)
    elements = [(g, n - int(g.degree))] + [(p, 0) for p in kernel]
    columns = monomial_basis(d, n)
    assert macaulay_rows(elements, columns, exact) \
        == _reference_rows(elements, columns, exact)


def _dense_kernel(reduction, labels) -> list:
    """The kernel as dense delta-form vectors gave it: Fraction zeros, 1 on
    the free column and -rref[i][f] on each pivot column whose entry is
    nonzero, made a Polynomial over *labels* (which drops the zeros)."""
    pivots = set(reduction.pivots)
    kernel = []
    for f in (j for j in range(len(labels)) if j not in pivots):
        vec = [F(0)] * len(labels)
        vec[f] = F(1)
        for i, p in enumerate(reduction.pivots):
            if reduction.rref[i][f] != 0:
                vec[p] = -reduction.rref[i][f]
        kernel.append(Polynomial(len(labels[0]), dict(zip(labels, vec))))
    return kernel


def _bytes(polys) -> list:
    """Each polynomial's terms in order, a float as ``float.hex``."""
    return [[(m, type(c), c.hex() if isinstance(c, float) else c)
             for m, c in p.terms.items()] for p in polys]


@pytest.mark.parametrize("mode", ("exact", "float"))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_kernel_polynomials_match_the_dense_vectors(fixture, mode):
    # M(n) of every fixture and its float twin, and W_k of its variety's
    # points for k <= 2n: rank_kernel's kernel and vanishing_ideal's W_k
    # relations, against the dense vectors and against the relations
    # built pivots first with the unit term last (same terms and values).
    beta = em.load_multisequence(fixture_path(f"{fixture}.moments.json"))
    pipe = em.Pipeline(beta if mode == "exact" else as_float(beta))
    matrix = pipe.matrix
    reduction = _linalg.row_reduce(matrix.rows)
    want = _bytes(_dense_kernel(reduction, matrix.basis))
    assert _bytes(reduction.kernel_polynomials(matrix.basis)) == want
    assert _bytes(pipe.kernel.kernel) == want
    assert [next(iter(p.terms.keys() - set(pipe.kernel.pivots)))
            for p in pipe.kernel.kernel] == list(pipe.kernel.free)
    points = pipe.variety.points  # none on the hyperbola
    for k in range(2 * matrix.n + 1) if points else ():
        columns = monomial_basis(matrix.d, k)
        reduction = _linalg.row_reduce(em.build_W(points, k).rows)
        want = _dense_kernel(reduction, columns)
        relations, complete = vanishing_ideal(
            VarietyReport.of_points(points), k, matrix.d)
        assert complete
        assert _bytes(relations.values()) == _bytes(want)
        assert list(relations) == [a for j, a in enumerate(columns)
                                   if j not in reduction.pivots]
        assert relations == {a: Polynomial(matrix.d, {
            **{columns[p]: -row[j]
               for row, p in zip(reduction.rref, reduction.pivots)},
            a: F(1)}) for j, a in enumerate(columns)
            if j not in reduction.pivots}


def test_no_points_make_every_monomial_a_relation():
    # row_reduce(()) has no columns; the relations still cover them all.
    for d, k in ((1, 3), (2, 2), (3, 1)):
        relations, complete = vanishing_ideal(VarietyReport("Finite"), k, d)
        assert complete
        assert relations == {a: Polynomial.monomial(d, a)
                             for a in monomial_basis(d, k)}


def _commute_by_mat_vec(a, b):
    """The float commutation test by ``_linalg.mat_vec``: every entry of
    ab - ba negligible against len(a) * max|a| * max|b|."""
    ab = [_linalg.mat_vec(a, col) for col in zip(*b)]
    ba = [_linalg.mat_vec(b, col) for col in zip(*a)]
    bound = len(a) * max((abs(x) for row in a for x in row), default=0) \
        * max((abs(x) for row in b for x in row), default=0)
    return all(negligible(x - y, bound)
               for u, v in zip(ab, ba) for x, y in zip(u, v))


@pytest.mark.parametrize("seed", range(8))
def test_float_commute_matches_mat_vec(seed):
    # b a polynomial in a commutes; b perturbed by 1e-3 of its size in one
    # entry does not, far above the bound's 1e-7 relative tolerance.
    rng = random.Random(seed)
    size = rng.randint(2, 7)
    a = [[rng.uniform(-4, 4) for _ in range(size)] for _ in range(size)]
    square = _linalg.transpose([_linalg.mat_vec(a, col) for col in zip(*a)])
    c = [rng.uniform(-2, 2) for _ in range(3)]
    b = [[c[0] * (i == j) + c[1] * a[i][j] + c[2] * square[i][j]
          for j in range(size)] for i in range(size)]
    assert variety._commute(a, b, False) is _commute_by_mat_vec(a, b) is True
    i, j = rng.randrange(size), rng.randrange(size)
    b[i][j] += 1e-3 * max(abs(x) for row in b for x in row)
    assert variety._commute(a, b, False) is _commute_by_mat_vec(a, b) \
        is False


@pytest.mark.parametrize("a, b", [([], []), ([[2.5]], [[-1e300]]),
                                  ([[0.0]], [[0.0]])],
                         ids=("empty", "1x1", "1x1 zero"))
def test_float_commute_of_tiny_matrices(a, b):
    # An ideal holding 1 has the empty basis, whose matrices are [].
    assert variety._commute(a, b, False) is _commute_by_mat_vec(a, b) is True


class TestRationalPointsReadOffTheForm:
    """At rational roots of the separating form's minimal polynomial every
    coordinate is h_i(tau): one isolation, no enclosure, and one Krylov
    elimination per form tried, none for a coordinate's own minimal
    polynomial; when x_1 spans A, only x_1's."""

    @staticmethod
    def solve(kernel, monkeypatch):
        calls = {"roots": 0, "enclose": 0, "krylov": 0, "failed": 0,
                 "minimal": 0, "log": []}
        real_roots, enclose, krylov = (_roots.real_roots_exact,
                                       variety._enclose, variety._krylov)

        def counted_roots(*args, **kwargs):
            calls["roots"] += 1
            calls["log"].append("roots")
            return real_roots(*args, **kwargs)

        def counted_enclose(*args):
            calls["enclose"] += 1
            return enclose(*args)

        def counted_krylov(matrix, scale, xs):
            calls["krylov"] += 1
            calls["minimal"] += not xs
            calls["log"].append("krylov" if xs else "minimal")
            minimal, h = krylov(matrix, scale, xs)
            calls["failed"] += bool(xs) and h is None
            return minimal, h

        monkeypatch.setattr(_roots, "real_roots_exact", counted_roots)
        monkeypatch.setattr(variety, "_enclose", counted_enclose)
        monkeypatch.setattr(variety, "_krylov", counted_krylov)
        return em.compute_variety(kernel), calls

    @pytest.mark.parametrize("atoms, failed, krylov", [
        ([(F(-3, 2), F(1)), (F(0), F(2)), (F(1, 4), F(-1)), (F(2), F(0)),
          (F(3), F(5, 2)), (F(-1), F(-3))], 0, 1),
        # t = x, x + y and x - y each take one value at two atoms.
        ([(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(-2)),
          (F(2), F(1)), (F(-1, 2), F(3))], 3, 4),
        ([(F(-2),), (F(1, 3),), (F(5, 2),)], 0, 1),
    ], ids=("distinct-x", "shared-x", "d1"))
    def test_one_isolation_for_rational_points(self, atoms, failed, krylov,
                                               monkeypatch):
        d = len(atoms[0])
        beta = em.beta_from_atoms(atoms, [F(1)] * len(atoms), d=d,
                                  degree=6 if d == 2 else 2 * len(atoms))
        report, calls = self.solve(kernel_of(beta), monkeypatch)
        assert sorted(report.points) == sorted(atoms)
        assert all(report.exact_mask) and not report.multiple_roots
        assert (calls["roots"], calls["enclose"]) == (1, 0)
        assert calls["failed"] == failed
        assert calls["krylov"] == krylov

    def test_double_point_spanned_by_x(self, monkeypatch):
        # A = Q[x]/(x^2 (x - 1)(x - 2)) with y = 9x/2 - 5x^2/2: x spans A,
        # and the double zero at the origin makes A non-reduced, as x's
        # isolation tells.  The radical then needs y's minimal polynomial;
        # x's roots are kept.
        kernel = [Polynomial(2, {(0, 1): F(1), (1, 0): F(-9, 2),
                                 (2, 0): F(5, 2)}),
                  Polynomial(2, {(4, 0): F(1), (3, 0): F(-3), (2, 0): F(2)})]
        report, calls = self.solve(kernel, monkeypatch)
        assert report.status == "Finite" and report.multiple_roots
        assert report.points == ((0, 0), (1, 2), (2, -1))
        assert all(report.exact_mask)
        assert len(report.quotient[0]) == 3  # A/sqrt(I)
        assert calls["log"] == ["krylov", "roots", "minimal", "krylov"]

    def test_irrational_points_build_y_minimal_once(self, ex44, monkeypatch):
        # x spans A, and six of the seven points are irrational: y's
        # minimal polynomial is built and isolated once, on demand.
        report, calls = self.solve(kernel_of(ex44), monkeypatch)
        assert report.exact_mask.count(False) == 6
        assert calls["log"] == ["krylov", "roots", "minimal", "roots"]

    def test_d3_measure(self, monkeypatch):
        atoms, densities = d3_measure()
        beta = em.beta_from_atoms(atoms, densities, d=3, degree=4)
        report, calls = self.solve(kernel_of(beta), monkeypatch)
        assert sorted(report.points) == atoms
        assert (calls["roots"], calls["enclose"]) == (1, 0)
        assert calls["krylov"] == 1 + calls["failed"]
        assert calls["minimal"] == 0


def _poly(expr, x, y):
    """A sympy polynomial in x, y as a Polynomial in d = 2."""
    terms = sympy.Poly(sympy.expand(expr), x, y).terms()
    return Polynomial(2, {m: F(int(c.p), int(c.q)) for m, c in terms})


def _dyadic(rng, low, high):
    return F(rng.randint(low, high), rng.choice((1, 2, 4)))


class TestQuotientRouteAgainstSympy:
    """Exact compute_variety on seeded d = 2 kernels against the real
    solutions of sympy's solve_poly_system."""

    X, Y = sympy.symbols("x y")

    def check(self, exprs, multiple):
        x, y = self.X, self.Y
        report = em.compute_variety([_poly(e, x, y) for e in exprs])
        assert report.status == "Finite"
        assert multiple is None or report.multiple_roots == multiple
        solutions = sympy.solve_poly_system(exprs, x, y) or []
        want = {tuple(s) for s in solutions if all(v.is_real for v in s)}
        assert len(report.points) == len(want)
        for point, exact in zip(report.points, report.exact_mask):
            near = [s for s in want if all(
                abs(sympy.N(sympy.Rational(c.numerator, c.denominator) - v,
                            80)) <= REFINE_WIDTH for c, v in zip(point, s))]
            assert len(near) == 1
            assert exact == all(v.is_rational for v in near[0])
            if exact:
                assert point == tuple(F(int(v.p), int(v.q)) for v in near[0])
        return report

    def test_points_sharing_an_x_coordinate(self):
        # x in {a, +-sqrt(b)}, y = +-sqrt(x - a + s^2): pairs share x, as in
        # example15, so t = x does not separate; (a, +-s) are exact.
        rng = random.Random(31)
        x, y = self.X, self.Y
        for _ in range(2):
            a, s = _dyadic(rng, -6, 6), _dyadic(rng, 1, 6)
            b = F(rng.choice((2, 3, 5, 7)), rng.choice((1, 4)))
            report = self.check([(x - a) * (x**2 - b),
                                 y**2 - (x - a + s**2)], False)
            xs = [w[0] for w in report.points]
            assert any(xs.count(v) == 2 for v in xs)
            assert sum(report.exact_mask) == 2

    def test_double_zero(self):
        # The parabola y = (x - a)^2 touches y = 0 at (a, 0), as in
        # thm62_a8_8, and meets y = b at a +- sqrt(b).
        rng = random.Random(32)
        x, y = self.X, self.Y
        for _ in range(2):
            a = _dyadic(rng, -6, 6)
            b = F(rng.choice((2, 3, 5)), rng.choice((1, 4)))
            report = self.check([y - (x - a)**2, y * (y - b)], True)
            assert (a, F(0)) in report.points

    def test_fat_point(self):
        # (x - a, y - b)^2 is not curvilinear: no t generates A, only
        # A modulo its nilradical.
        x, y = self.X, self.Y
        a, b = F(3, 2), F(-1, 4)
        report = self.check([(x - a)**2, (x - a) * (y - b), (y - b)**2], True)
        assert report.points == ((a, b),)

    @pytest.mark.parametrize("exprs", [
        # 1 lies in I: without k(M)*1 = 0 a phantom (-8/21, 20/21) appears.
        "2 - 2*x**2 - y*x + 2*x**3, -2 - x**2 + y*x, x + 2*y**2",
        # Normal sets read off too early are not connected to 1.
        "-2*y - 2*y**2 - 2*y**3 + x**2*y + 2*x**3, -2*y - 2*x*y, "
        "-x**2 - 2*x**3",
        "-2 + 2*y**2 + 2*x*y - x**3, x*y, 2*x*y**2 + x**3",
        # Their multiplication matrices do not commute.
        "-2*x + x*y + 2*x*y**2 - 2*x**2, 1 + 2*y + 2*y**2 - y**3, "
        "-y**3 + x + x*y + 2*x*y**2 + x**2*y + 2*x**3",
    ], ids=["one-in-ideal", "unconnected", "unconnected-2", "noncommuting"])
    def test_degree_falls(self, exprs):
        # Products of degree <= D combine into members of I of lower degree
        # whose multiples lie beyond D, so early normal sets are wrong.
        self.check(list(sympy.sympify(exprs, locals={"x": self.X,
                                                     "y": self.Y})), None)

    def test_rational_coordinate_at_irrational_form_root(self, monkeypatch):
        # (0, +-sqrt(2)) and (1, 0): t = x does not separate, and t = x + y
        # has the irrational roots +-sqrt(2), where x = 0 must still come
        # back exact.  Each coordinate's own polynomial is isolated once.
        x, y = self.X, self.Y
        calls = []
        real_roots = _roots.real_roots_exact
        monkeypatch.setattr(_roots, "real_roots_exact",
                            lambda *a: calls.append(a) or real_roots(*a))
        report = self.check([x**2 - x, x * y, y**2 + 2 * x - 2], False)
        assert [w[0] for w in report.points] == [F(0), F(0), F(1)]
        assert all(type(w[0]) is F for w in report.points)
        assert report.exact_mask == (False, False, True)
        assert len(calls) == 3  # t, then x and y once each

    def test_kernel_without_real_zeros(self):
        rng = random.Random(33)
        x, y = self.X, self.Y
        for _ in range(2):
            a, b, m = (_dyadic(rng, -6, 6) for _ in range(3))
            e = _dyadic(rng, 1, 6)
            report = self.check([(x - a)**2 + (y - b)**2 + e,
                                 y - m * x - b], False)
            assert report.points == ()


class TestCommonFactor:
    """An exact bivariate kernel's common factor is its one element of
    lowest degree, when that element's products span the kernel."""

    def test_nine_atoms_on_a_cubic(self):
        # Nine atoms at degree 6 lie on one cubic, the whole kernel.
        atoms = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(-1), F(2)),
                 (F(2), F(-1)), (F(1, 2), F(3)), (F(-2), F(-3, 2)),
                 (F(3), F(1, 3)), (F(-1, 3), F(-2))]
        beta = em.beta_from_atoms(atoms, [F(k) for k in range(1, 10)],
                                  degree=6)
        (cubic,) = kernel_of(beta)
        report = em.solve_extremal(beta)
        assert report.status == "NotExtremal"
        assert report.v == math.inf
        assert report.witness == cubic
        assert all(cubic.evaluate(w) == 0 for w in atoms)

    def test_witness_is_the_kernel_element(self):
        # Eight atoms on 2x^2 + xy = 1: the kernel is g, x*g and y*g.
        atoms = [(x, (1 - 2 * x * x) / x) for x in
                 (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(-3))]
        kernel = kernel_of(em.beta_from_atoms(atoms, [F(1)] * 8, degree=6))
        assert len(kernel) == 3
        report = em.compute_variety(kernel)
        assert report.status == "Infinite"
        assert str(report.witness) == "-1 + 2X^2 + YX"

    def test_factor_outside_the_kernel_is_unknown(self, tmp_path):
        # The kernel {YX, Y^2 - Y} has the factor Y, which is no element;
        # the quotient finds no normal set on the x-axis.
        atoms = [(F(1), F(0)), (F(2), F(0)), (F(3), F(0)), (F(0), F(1))]
        beta = em.beta_from_atoms(atoms, [F(1)] * 4, degree=4)
        kernel = kernel_of(beta)
        assert [str(p) for p in kernel] == ["YX", "-Y + Y^2"]
        report = em.compute_variety(kernel)
        assert report.status == "Unknown"
        assert report.reason.startswith("no normal set")
        path = tmp_path / "beta.json"
        em.dump_multisequence(beta, path)
        assert run(["solve", str(path)]) == 3

    def test_degrees_alone_decide_a_tie(self, ex15, monkeypatch):
        kernel = kernel_of(ex15)
        conic = kernel_of(conic_without_real_points())
        assert [p.degree for p in kernel] == [2, 2]
        calls = []
        row_reduce = _linalg.row_reduce
        monkeypatch.setattr(_linalg, "row_reduce",
                            lambda rows: calls.append(rows) or
                            row_reduce(rows))
        assert variety._common_factor(kernel) is None
        assert calls == []
        assert variety._common_factor(conic) == conic[0]
        assert len(calls) == 1


class TestEvalMatrices:
    def test_build_w_rows_and_columns(self):
        w = em.build_W([(F(1), F(2)), (F(3), F(4))], 2)
        assert w.monomials == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        assert w.rows[0] == (1, 1, 2, 1, 2, 4)
        assert w.rows[1] == (1, 3, 4, 9, 12, 16)
        assert all(type(x) is F for row in w.rows for x in row)

    def test_build_w_validations(self):
        with pytest.raises(ValueError):
            em.build_W([], 2)
        with pytest.raises(ValueError):
            em.build_W([(F(1), F(2)), (F(3),)], 2)

    def test_hilbert_function_square_grid(self):
        # H(k) = rank W_k: independent degree <= k monomial evaluations.
        pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
        assert [em.eval_matrix_rank(em.build_W(pts, k))
                for k in range(4)] == [1, 3, 4, 4]

    def test_rank_w_equals_point_count_when_separated(self, ex15):
        report = em.compute_variety(kernel_of(ex15))
        w = em.build_W(report.points, 2)
        assert em.eval_matrix_rank(w) == 4
        # Degree-4 evaluations cannot exceed the number of points.
        assert em.eval_matrix_rank(em.build_W(report.points, 4)) == 4

    def test_injectivity_holds_on_recovered_variety(self, ex15):
        report = em.rank_kernel(em.build_moment_matrix(ex15))
        variety = em.compute_variety(report.kernel)
        verdict = em.injectivity_check(report,
                                       VarietyReport.of_points(variety.points))
        assert verdict.injective
        assert verdict.rank_m == 4
        assert verdict.rank_w == 4
        assert verdict.witness is None

    def test_injectivity_fails_with_too_few_points(self):
        beta = em.beta_from_atoms([(F(0),), (F(1),), (F(2),)],
                                  [F(1), F(1), F(1)], degree=4)
        report = em.rank_kernel(em.build_moment_matrix(beta))
        assert report.rank == 3
        verdict = em.injectivity_check(
            report, VarietyReport.of_points([(F(0),), (F(1),)]))
        assert not verdict.injective
        assert verdict.rank_w == 2
        assert verdict.witness is not None
        assert verdict.witness.evaluate((F(0),)) == 0
        assert verdict.witness.evaluate((F(1),)) == 0


def _general_position(rng):
    """One to six distinct dyadic atoms in the plane, no three collinear,
    with positive densities."""
    while True:
        atoms = {(_dyadic(rng, -6, 6), _dyadic(rng, -6, 6))
                 for _ in range(rng.randint(1, 6))}
        if not any((q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1])
                   * (r[0] - p[0]) for p, q, r in
                   itertools.combinations(atoms, 3)):
            return sorted(atoms), [F(rng.randint(1, 9), rng.randint(1, 9))
                                   for _ in atoms]


class TestVanishingIdealFromQuotient:
    """The relations read off an exact report's quotient A/sqrt(I) equal
    those of the independent W_k elimination at its exact points."""

    X, Y = sympy.symbols("x y")

    def check(self, report, n):
        assert report.quotient is not None and all(report.exact_mask)
        d = len(report.points[0])
        for k in (n, 2 * n):
            assert vanishing_ideal(report, k, d) == vanishing_ideal(
                VarietyReport.of_points(report.points), k, d)

    def test_dyadic_atoms_in_general_position(self):
        rng = random.Random(71)
        for _ in range(8):
            atoms, densities = _general_position(rng)
            beta = em.beta_from_atoms(atoms, densities, degree=6)
            report = em.Pipeline(beta).variety
            assert list(report.points) == atoms
            self.check(report, 3)

    @pytest.mark.parametrize("a, b", [(F(3, 2), F(-1, 4)), (F(-2), F(5))])
    def test_fat_point(self, a, b):
        x, y = self.X, self.Y
        report = em.compute_variety([_poly(e, x, y) for e in (
            (x - a)**2, (x - a) * (y - b), (y - b)**2)])
        assert report.multiple_roots and len(report.quotient[0]) == 1
        self.check(report, 2)

    @pytest.mark.parametrize("a, b", [(F(1, 2), F(3)), (F(-5, 4), F(1, 2))])
    def test_double_zero_with_rational_points(self, a, b):
        x, y = self.X, self.Y
        report = em.compute_variety([_poly(e, x, y) for e in (
            y - (x - a)**2, y * (y - b**2))])
        assert report.multiple_roots
        assert report.points == ((a - b, b**2), (a, 0), (a + b, b**2))
        self.check(report, 2)

    def test_d3_measure(self):
        atoms, densities = d3_measure()
        beta = em.beta_from_atoms(atoms, densities, d=3, degree=4)
        self.check(em.Pipeline(beta).variety, 2)

    @pytest.mark.parametrize("fixture", ("prop61", "thm62_a8_8"))
    def test_multiple_zero_keeps_a_basis_of_the_points(self, fixture):
        # Their kernel ideals have a double zero; the report keeps the
        # quotient modulo the radical, one basis element per point.
        report = em.Pipeline(em.load_multisequence(
            fixture_path(f"{fixture}.moments.json"))).variety
        assert report.multiple_roots
        assert len(report.quotient[0]) == len(report.points) == 8

    @pytest.mark.parametrize("fixture", ("example15", "prop61", "thm62_a8_8"))
    def test_relations_need_no_elimination(self, fixture, monkeypatch):
        report = em.Pipeline(em.load_multisequence(
            fixture_path(f"{fixture}.moments.json"))).variety

        def no_elimination(rows):
            raise AssertionError("row_reduce called")

        monkeypatch.setattr(_linalg, "row_reduce", no_elimination)
        relations, complete = vanishing_ideal(report, 6, 2)
        assert complete and len(relations) == 28 - len(report.points)


class TestVandermonde:
    def test_two_by_two_exact(self):
        report = em.vandermonde_VB([(0,), (1,)], [(F(2),), (F(3),)])
        assert report.rows == ((1, 1), (2, 3))
        assert report.det == 1
        assert report.invertible

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            em.vandermonde_VB([(0,)], [(F(2),), (F(3),)])

    def test_curve_scenario_determinant(self):
        s13 = math.sqrt(13.0)
        points = [(-2.0, -8.0), (0.0, 0.0), (2.0, 8.0), (1.0, 1.0),
                  (-0.5 + s13 / 2, -5.0 + 2 * s13),
                  (-0.5 - s13 / 2, -5.0 - 2 * s13),
                  (-1.0, -1.0), (0.5, 0.125)]
        basis = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1),
                 (1, 2))
        report = em.vandermonde_VB(basis, points)
        expected = 98415.0 / 4.0 * s13
        assert abs(abs(float(report.det)) - expected) <= 1e-9 * expected
        assert report.invertible


class TestPointsIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pts.json"
        points = [(F(1, 2), F(-3)), (F(0), F(7, 5))]
        em.dump_points(points, path)
        back = em.load_points(path, mode="exact")
        assert back == [tuple(w) for w in points]

    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "pts.json"
        em.dump_points([(0.5, -1.25)], path)
        back = em.load_points(path)
        assert back[0][0] == pytest.approx(0.5)
        assert back[0][1] == pytest.approx(-1.25)

    def test_load_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError):
            em.load_points(bad)
        missing = tmp_path / "missing_key.json"
        missing.write_text('{"points": [["1"]]}')
        with pytest.raises(InputError):
            em.load_points(missing)
        arity = tmp_path / "arity.json"
        arity.write_text('{"d": 2, "points": [["1"]]}')
        with pytest.raises(InputError):
            em.load_points(arity)
