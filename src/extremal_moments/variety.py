"""Zero sets of moment-matrix kernels and point-evaluation matrices.

Every kernel, exact or float and in any number of variables, is solved in
the quotient algebra A = R[x]/I of its ideal I, whose multiplication
matrices come from one Macaulay matrix of the kernel's products
(``moments.macaulay_rows``).  Exact kernels read the real points from A
exactly, by the rational univariate representation: a linear form t
separating them gives every coordinate as a polynomial x_i = h_i(t), so the
points are the real roots tau of t's minimal polynomial, isolated first.
At a rational tau each coordinate is h_i(tau), evaluated in integers; only
at an irrational tau is a coordinate's own minimal polynomial isolated
(once), its root that h_i meets on tau's interval being the coordinate:
exact when it is rational, else the midpoint of a refined interval.  An
ideal with a multiple zero, told by the isolation of the first form t whose
powers span A (or by a multiple root of a form that fails to), is replaced
by its radical first.  The exact stage computes in integers: the Macaulay
rows are kernel elements cleared of their denominators once, and the normal
forms and Krylov coordinates are read off the fraction-free elimination as
integers over one scale (``LinearReduction.integer_columns``); Fractions
are made only for the points and the relations that are printed.
In two variables an exact kernel is first tested for a common factor g of
its own: the one element of lowest degree, when its products x^s * g of
degree <= n span the kernel (one exact elimination).  Such a g certifies
an infinite variety when it takes both signs at sampled rational points
(its zero set then separates the plane), and leaves it Unknown otherwise.
A common factor that is no kernel element finds no normal set, Unknown.
Float multiplication matrices commute when the largest entry of one numpy
product ab - ba is negligible against len(a) * max|a| * max|b|.  Float
kernels read the points from the eigenvectors of one generic
combination of the multiplication matrices, average each cluster (a
multiple zero), and filter every real point by the residuals of *all*
kernel elements.  A float kernel whose reduction puts 1 in its ideal
certifies no empty set: rounding alone can do that (one atom at 1e100).
The evaluation matrices W_k and V_B are ``polycore.values_at`` of monomials
or basis polynomials at the points, so exact points are summed in integers;
the relations of W_k are read off its reduction by the one kernel reader,
``LinearReduction.kernel_polynomials``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from . import _linalg, _roots
from .moments import KernelReport, macaulay_rows
from .polycore import (
    RESIDUAL_TOL,
    InputError,
    JsonInput,
    Point,
    Polynomial,
    Scalar,
    all_exact,
    clear_denominators,
    ensure_scalar,
    field,
    format_scalar,
    is_exact,
    magnitude,
    monomial_basis,
    negligible,
    record,
    total_degree,
    values_at,
    write_json,
)

#: Float points closer than this (relative to their size) are one multiple
#: point: the eigenvalues of a double zero split by O(sqrt(noise)).
_CLUSTER_TOL = math.sqrt(RESIDUAL_TOL)

# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@record
class VarietyReport:
    """Common zero set of a kernel basis.

    ``points`` hold Scalars; a True entry in ``exact_mask`` marks a point
    whose coordinates are exact rationals rather than refined approximations
    of irrational algebraic numbers.  ``quotient`` keeps an exact kernel's
    algebra modulo its radical, A/sqrt(I), as (basis, mats, scale, images):
    mats[i] / scale multiplies by x_i on the monomial basis (1 last), and
    images holds scale**|a| * x^a * 1 for the monomials a of degree <= n.
    """

    status: str  # "Finite" | "Infinite" | "Unknown"
    points: tuple = ()
    exact_mask: tuple = ()
    witness: Optional[Polynomial] = None  # common factor when Infinite
    reason: Optional[str] = None
    multiple_roots: bool = False
    quotient: Optional[tuple] = field(default=None, repr=False)

    @classmethod
    def of_points(cls, points: Sequence[Point]) -> VarietyReport:
        """The finite set of *points*, in their order; a point is exact when
        all its coordinates are rational."""
        points = tuple(map(tuple, points))
        return cls("Finite", points, tuple(map(all_exact, points)))

    @property
    def v(self):
        """Cardinality: an int when finite, ``math.inf`` when infinite,
        None when undecided."""
        if self.status == "Finite":
            return len(self.points)
        if self.status == "Infinite":
            return math.inf
        return None


@record
class EvalMatrix:
    """W_k: rows are point evaluations of the degree <= k monomials."""

    k: int
    points: tuple
    monomials: tuple
    rows: tuple


@record
class InjectivityVerdict:
    injective: bool
    rank_m: int
    rank_w: int
    witness: Optional[Polynomial] = None  # vanishes on V but not in ker M(n)


@record
class VandermondeReport:
    """V_B: rows indexed by basis elements, columns by variety points."""

    basis: tuple  # Polynomials
    points: tuple
    rows: tuple
    det: Scalar
    invertible: bool


# ---------------------------------------------------------------------------
# exact bivariate common factor
# ---------------------------------------------------------------------------

def _common_factor(kernel) -> Optional[Polynomial]:
    """The kernel element g that divides every kernel element, or None: g
    is the only element of lowest degree, and the products x^s * g of
    degree <= n span the kernel, which one exact elimination decides.  A
    kernel with two elements of lowest degree has none, since no element
    then generates the rest."""
    low = min(p.degree for p in kernel)
    lowest = [p for p in kernel if p.degree == low]
    if len(lowest) > 1:
        return None
    g = lowest[0]
    n = max(int(p.degree) for p in kernel)
    rows = macaulay_rows([(g, n - low)] + [(p, 0) for p in kernel],
                         monomial_basis(2, n), True)
    shifts = len(rows) - len(kernel)
    return g if _linalg.row_reduce(rows).rank == shifts else None


def _changes_sign(g: Polynomial) -> bool:
    """Is the zero set of the exact bivariate g certainly infinite: does g
    vanish on a line, or take both signs at rational points, so that its
    zeros separate the plane?  The points sampled lie on the lines y = c
    and x = c, c = 0, 1, -1, 2, -2: left of, between and right of g's real
    roots on each."""
    signs = set()
    for c, axis in product(_integer_nodes(5), (0, 1)):
        line = [0] * (int(g.degree) + 1)
        for idx, coeff in g.terms.items():
            line[idx[axis]] += coeff * c**idx[1 - axis]
        if not any(line):
            return True
        xs = [r.value for r in _roots.real_roots_exact(line)[0]] or [0]
        ends = [xs[0] - 2, *xs, xs[-1] + 2]
        signs.update(v > 0 for a, b in zip(ends, ends[1:])
                     if (v := _roots.horner(line, Fraction(a + b, 2))))
        if len(signs) == 2:
            return True
    return False


# ---------------------------------------------------------------------------
# variety computation
# ---------------------------------------------------------------------------

def compute_variety(kernel: Sequence[Polynomial]) -> VarietyReport:
    """Common real zero set of a nonempty kernel basis in any d, from the
    quotient algebra of its ideal; exact rational coordinates are exact,
    irrational ones refined to width ``_roots.REFINE_WIDTH``.  An exact
    bivariate kernel with a ``_common_factor`` g is Infinite (witness g)
    when g changes sign, else Unknown.  No normal set by degree 2n + 2,
    or a float ideal reduced to (1), gives Unknown, not the empty set."""
    kernel = [p for p in kernel]
    if not kernel:
        raise ValueError("compute_variety requires a nonempty kernel list")
    d = kernel[0].d
    if any(p.d != d for p in kernel):
        raise ValueError("kernel polynomials have mixed dimensions")
    if any(p.is_zero for p in kernel):
        raise ValueError("kernel basis must not contain the zero polynomial")
    if any(p.degree == 0 for p in kernel):
        return VarietyReport("Finite")  # a nonzero constant has no zeros
    exact = all(p.is_exact for p in kernel)
    g = _common_factor(kernel) if exact and d == 2 else None
    if g is not None:
        if _changes_sign(g):
            return VarietyReport("Infinite", witness=g)
        return VarietyReport("Unknown", reason=f"the common factor {g} of "
                             "the kernel takes one sign at every sampled "
                             "point, so it may have finitely many real "
                             "zeros")
    quotient = _quotient(kernel, exact)
    if quotient is None:
        return VarietyReport("Unknown", reason="no normal set of the kernel "
                                               "ideal up to degree 2n+2")
    basis, mats, _, _ = quotient
    if not basis:  # 1 lies in I: no zeros at all, when I is exact
        return VarietyReport("Finite") if exact else VarietyReport(
            "Unknown", reason="the float reduction puts 1 in the kernel "
                              "ideal")
    if exact:
        return _variety_exact(kernel, quotient)
    return _variety_float(kernel, mats)


# ---------------------------------------------------------------------------
# the quotient algebra of the kernel ideal
# ---------------------------------------------------------------------------

def _quotient(kernel, exact: bool):
    """``(basis, mats, scale, images)``: a monomial basis B of A = R[x]/I
    (I the ideal of *kernel*; 1 last), matrices, mats[i] / scale the
    multiplication by x_i on B, and the images {a: scale**|a| * x^a * 1}
    on B of the monomials of degree <= n; None when none is found by
    degree 2n + 2.  Exact kernels get integer matrices over an integer
    scale, float kernels float matrices over scale 1.

    For D = n+1, n+2, ... the products x^a*k of degree <= D are reduced
    with columns in descending degree; ``macaulay_rows`` builds them from
    exponents coded in base D + 1.  B is the set of non-pivot monomials
    below the first degree whose monomials are all pivots, and the normal
    forms of the x_i*b give the M_i.  If B is connected to 1 and the M_i
    commute, the relations x_i*b - NF(x_i*b) in I make B a basis of A/J for
    the ideal J they generate (Mourrain 1999); J = I once every
    k(M)*1 = 0.  Float matrices pass both tests up to ``negligible``, the
    commutation test as one numpy product (``_commute``).  An
    exact normal form is read in integers off the rows of the x_i*b, on
    the columns of B (``LinearReduction.integer_columns``)."""
    d = kernel[0].d
    n = max(int(p.degree) for p in kernel)
    for top in range(n + 1, 2 * n + 3):
        columns = monomial_basis(d, top)[::-1]
        reduction = _linalg.row_reduce(macaulay_rows(
            [(p, top - int(p.degree)) for p in kernel], columns, exact))
        row_of = {columns[j]: r for r, j in enumerate(reduction.pivots)}
        full = next((e for e in range(top + 1) if all(
            m in row_of for m in columns if total_degree(m) == e)), None)
        free = [j for j, m in enumerate(columns)
                if total_degree(m) < (full or 0) and m not in row_of]
        basis = [columns[j] for j in free]
        if full is None or any(_lower(b) not in basis for b in basis[:-1]):
            continue
        shifts = [_shift(b, e) for e in monomial_basis(d, 1)[1:]
                  for b in basis]
        rows = sorted({row_of[m] for m in shifts if m in row_of})
        if exact:
            ints, scale = reduction.integer_columns(free, rows)
        else:
            ints = [[reduction.rref[r][f] for f in free] for r in rows]
            scale = 1
        size = len(basis)
        normal_form = {columns[reduction.pivots[r]]: [-x for x in row]
                       for r, row in zip(rows, ints)}
        for k, b in enumerate(basis):
            normal_form[b] = [scale * (k == i) for i in range(size)]
        entries = [x for m in shifts for x in normal_form[m]]
        mats = [[entries[i * size * size + k::size][:size]
                 for k in range(size)] for i in range(d)]
        if not all(_commute(a, b, exact) for a, b in combinations(mats, 2)):
            continue
        images = _images(monomial_basis(d, n), mats,
                         {(0,) * d: [0] * (size - 1) + [1]})
        if _annihilates(kernel, images, scale, exact):
            return basis, mats, scale, images
    return None


def _shift(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _lower(b) -> tuple:
    """b over its first variable."""
    i = next(i for i, e in enumerate(b) if e)
    return b[:i] + (b[i] - 1,) + b[i + 1:]


def _images(monomials, mats, images) -> dict:
    """The known *images* {a: scale**|a| * x^a * 1}, holding 1, extended to
    *monomials*, each listed after its _lower; *images* is not changed."""
    images = dict(images)
    for a in monomials:
        if a not in images:
            images[a] = _linalg.mat_vec(
                mats[next(i for i, e in enumerate(a) if e)],
                images[_lower(a)])
    return images


def _commute(a, b, exact: bool) -> bool:
    """Is ab = ba, up to ``negligible`` against |a||b| for floats?  Float
    matrices are multiplied by numpy, and the largest entry of ab - ba is
    tested (a NaN is never negligible)."""
    if not exact:
        import numpy as np

        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        bound = len(a) * np.max(np.abs(a), initial=0) * np.max(np.abs(b),
                                                                initial=0)
        return negligible(np.max(np.abs(a @ b - b @ a), initial=0),
                          float(bound))
    ab = [_linalg.mat_vec(a, col) for col in zip(*b)]
    ba = [_linalg.mat_vec(b, col) for col in zip(*a)]
    return all(negligible(x - y) for u, v in zip(ab, ba) for x, y in zip(u, v))


def _annihilates(kernel, images, scale, exact: bool) -> bool:
    """Does k(M)*1 = 0 hold for every kernel element k, given the *images*
    scale**|a| * x^a * 1 of its monomials?  Floats compare against
    sum |c_a| * |M^a * 1|."""
    n = max(int(p.degree) for p in kernel)
    for p in kernel:
        coeffs = clear_denominators(p.terms.values())[0] if exact \
            else list(p.terms.values())
        terms = [[c * scale**(n - total_degree(a)) * x for x in images[a]]
                 for a, c in zip(p.terms, coeffs)]
        bound = 1.0 if exact else sum(max(map(abs, t), default=0)
                                       for t in terms)
        if not all(negligible(sum(column), bound)
                   for column in zip(*terms)):
            return False
    return True


# ---------------------------------------------------------------------------
# exact varieties: minimal polynomials and a separating form
# ---------------------------------------------------------------------------

def _variety_exact(kernel, quotient) -> VarietyReport:
    """Real zeros of the ideal I of an exact kernel from A = Q[x]/I
    (Moeller & Stetter 1995) by the rational univariate representation
    (Rouillier 1999): a form t = sum c**i x_i whose powers span A gives
    x_i = h_i(t) mod sqrt(I), and the points are the real roots tau of
    t's minimal polynomial f_t (``_spanning_form``).  At a rational tau
    each x_i is h_i(tau); at an irrational one it is the root of x_i's own
    minimal polynomial, isolated once, that h_i meets on tau's interval.
    A = Q[T]/(f_t) is reduced iff f_t is squarefree, so the isolation of
    f_t is the radical test; a form that fails to span A and whose minimal
    polynomial has a multiple root shows a multiple zero too.  With a
    multiple zero, A becomes A/sqrt(I), sqrt(I) = I + (f_i(x_i)) for f_i
    the squarefree part of x_i's minimal polynomial (Seidenberg 1974),
    kept in the report; t's roots are kept when t spans A/sqrt(I) first,
    since its minimal polynomial there is f_t's squarefree part.  The
    coordinates' minimal polynomials are built only for that radical or
    for an irrational tau."""
    basis, mats, scale, _ = quotient
    d = len(mats)
    form = _spanning_form(mats, scale)
    if form is None:
        return VarietyReport("Unknown", reason="no separating linear form")
    c, t_minimal, h = form
    multiple = h is None
    if h is not None:
        t_roots, multiple = _roots.real_roots_exact(t_minimal)
    minimal = {}
    if multiple:
        minimal = {i: t_minimal if i == c == 0 else _krylov(m, scale, [])[0]
                   for i, m in enumerate(mats)}
        radical = [_squarefree_at(basis, m, scale,
                                  _roots.squarefree_part(minimal[i])[0])
                   for i, m in enumerate(mats)]
        quotient = _quotient(kernel + [p for p in radical if not p.is_zero],
                             True)
        if quotient is None:
            return VarietyReport("Unknown", reason="no normal set of the "
                                                   "radical ideal")
        basis, mats, scale, _ = quotient
        isolated_c = c if h is not None else None
        form = _spanning_form(mats, scale)
        if form is None or form[2] is None:
            return VarietyReport("Unknown", reason="no separating linear "
                                                   "form")
        c, t_minimal, h = form
        if c != isolated_c:
            t_roots = _roots.real_roots_exact(t_minimal)[0]
    isolated = {}
    points, mask = [], []
    for tau in t_roots:
        if tau.exact:
            num, den = tau.value.numerator, tau.value.denominator
            points.append(tuple(
                Fraction(_roots._scaled_value(ints, num, den),
                         h_den * den**(len(ints) - 1))
                for ints, h_den in h))
            mask.append(True)
            continue
        point = [tau] if c == 0 else []
        for i in range(len(point), d):
            if i not in isolated:
                isolated[i] = _roots.real_roots_exact(
                    minimal[i] if i in minimal
                    else _krylov(mats[i], scale, [])[0])[0]
            low, high = _enclose(h[i], tau)
            hits = [r for r in isolated[i] if r.low <= high and low <= r.high]
            if len(hits) != 1:
                return VarietyReport("Unknown", reason="coordinates not "
                                                       "paired by the form")
            point.append(hits[0])
        points.append(tuple(r.value for r in point))
        mask.append(all(r.exact for r in point))
    return _finite(points, mask, multiple, quotient)


def _spanning_form(mats, scale):
    """``(c, f_t, h)`` for the first c of 0, 1, -1, 2, -2, ... whose form
    t = sum c**i x_i spans A, with f_t and h from ``_krylov``, or with h
    None for the first failing form whose minimal polynomial has a
    multiple root, which shows that A is not reduced.  None when no form
    among the first 2 d N**2 + 1 does either: a reduced A of dimension N
    has a spanning one there, since each pair of its N points agrees on
    t for at most d - 1 values of c."""
    d, size = len(mats), len(mats[0])
    xs = [[row[-1] for row in m] for m in mats]  # scale * x_i * 1
    for c in _integer_nodes(2 * d * size**2 + 1):
        t = mats[0] if c == 0 else [
            [sum(c**i * m[r][k] for i, m in enumerate(mats))
             for k in range(size)] for r in range(size)]
        t_minimal, h = _krylov(t, scale, xs)
        if h is not None or _roots.squarefree_part(t_minimal)[1]:
            return c, t_minimal, h
    return None


def _integer_nodes(count: int) -> list:
    """0, 1, -1, 2, -2, ... (*count* integers)."""
    return [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(count)]


def _krylov(matrix, scale, xs) -> tuple:
    """``(f, h)``: f a positive integer multiple of the minimal polynomial
    of t = matrix / scale on A, ascending, and h the coordinates of each
    vector of *xs* / scale on 1, t, t**2, ..., each a pair (ints, den) of
    the integer list ints over the positive den, or None when these do not
    span A.  It runs on the primitive integer vectors
    w_j = scale**j / C_j * t**j * 1, C_j the product of the contents
    removed so far; the RREF of the columns w_j and *xs* is read in
    integers (``integer_columns``), on the first free column alone when
    they do not span A."""
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


def _squarefree_at(basis, matrix, scale, squarefree) -> Polynomial:
    """scale**deg(f) * f(x_i) * 1 on *basis* as a polynomial, by Horner:
    f the integer list *squarefree*, x_i = matrix / scale."""
    value = [0] * len(basis)
    for k, a in enumerate(reversed(squarefree)):
        value = _linalg.mat_vec(matrix, value)
        value[-1] += a * scale**k
    return Polynomial(len(basis[0]), dict(zip(basis, value)))


def _enclose(h, root) -> tuple:
    """Bounds on the polynomial h = (ints, den), ints / den, over the
    interval of *root*: its value at the midpoint, widened by the
    half-width times sum k*|c_k|*R**(k-1) with R >= |x| there (centered
    form)."""
    ints, den = h
    bound = math.ceil(max(abs(root.low), abs(root.high)))
    spread = (root.high - root.low) / 2 * sum(
        k * abs(c) * bound**(k - 1) for k, c in enumerate(ints[1:], 1)) / den
    center = _roots.horner(ints, root.value) / den
    return center - spread, center + spread


# ---------------------------------------------------------------------------
# float varieties: joint eigenvectors of the multiplication matrices
# ---------------------------------------------------------------------------

def _variety_float(kernel, mats) -> VarietyReport:
    """Real zeros of a float kernel's ideal from A: each left eigenvector v
    of t = sum e**-i M_i is an evaluation vector (b(w))_b, and since 1 is
    the last element of B, w_i = v.M_i[:, -1] / v[-1] (Moeller & Stetter
    1995).  Points within ``_CLUSTER_TOL`` are one multiple point, their
    mean (Corless, Gianni & Trager 1997); the real ones are kept when every
    kernel element vanishes there."""
    import numpy as np

    mats = [np.array(m, dtype=float) for m in mats]
    t = sum(math.exp(-i) * m for i, m in enumerate(mats))
    vectors = np.linalg.eig(t.T)[1].T
    clusters: list = []
    for v in vectors:
        if v[-1] == 0:
            continue
        w = np.array([v @ m[:, -1] for m in mats]) / v[-1]
        near = _CLUSTER_TOL * max(1.0, float(np.max(np.abs(w))))
        cluster = next((c for c in clusters
                        if np.max(np.abs(c[0] - w)) <= near), None)
        if cluster is None:
            clusters.append([w])
        else:
            cluster.append(w)
    points = []
    for cluster in clusters:
        w = np.mean(cluster, axis=0)
        if negligible(np.max(np.abs(w.imag)),
                      max(1.0, float(np.max(np.abs(w))))):
            point = tuple(float(x) for x in w.real)
            if all(_residual_ok(p, point) for p in kernel):
                points.append(point)
    return _finite(points, [False] * len(points),
                   any(len(c) > 1 for c in clusters))


def _residual_ok(p: Polynomial, point) -> bool:
    """Does p vanish at *point*: exactly when its value there is exact,
    else within ``negligible`` of sum |c_a| * max(1, |w|_inf)**|a|?  A
    point where that sum or p's value overflows the float range is too
    far out to judge, and fails."""
    size = magnitude(point)
    try:
        value = p.evaluate(point)
        if is_exact(value):
            return value == 0
        scale = sum(abs(float(c)) * size**total_degree(idx)
                    for idx, c in p.terms.items())
    except OverflowError:
        return False
    return math.isfinite(scale) and negligible(value, scale)


def adopt_points(report: KernelReport,
                 points: Sequence[Point]) -> VarietyReport:
    """Supplied points as the variety, after checking that each satisfies
    every kernel relation and differs from the points before it: a
    repeated point would count twice in card V.  A rational point at which
    an exact kernel vanishes exactly stays exact; any other point, such as
    a refined midpoint of an irrational one, is adopted as its float
    approximation once the relations vanish there within tolerance."""
    adopted = []
    exact_kernel = all(p.is_exact for p in report.kernel)
    for w in points:
        w = tuple(ensure_scalar(x) for x in w)
        shown = _show_point(w)
        if len(w) != report.d:
            raise InputError(f"supplied point {shown} does not have "
                             f"dimension {report.d}")
        if not (exact_kernel and all_exact(w) and all(
                _residual_ok(p, w) for p in report.kernel)):
            w = tuple(float(x) for x in w)
        for p in report.kernel:
            if not _residual_ok(p, w):
                raise InputError(f"supplied point {shown} does not satisfy "
                                 f"kernel relation {p}")
        if w in adopted:
            raise InputError(f"supplied point {shown} is given twice")
        adopted.append(w)
    return VarietyReport.of_points(adopted)


def _show_point(point) -> str:
    """*point* as messages show it: an exact coordinate as p/q when both
    are below 10**12, any other as its shortest float."""
    return "(" + ", ".join(
        format_scalar(x) if is_exact(x) and abs(x.numerator) < 10**12
        and x.denominator < 10**12 else repr(float(x)) for x in point) + ")"


def _finite(points, mask, multiple_roots: bool,
            quotient: Optional[tuple] = None) -> VarietyReport:
    """A Finite report with its points in ascending float order."""
    order = sorted(range(len(points)),
                   key=lambda i: tuple(float(x) for x in points[i]))
    return VarietyReport("Finite", tuple(points[i] for i in order),
                         tuple(mask[i] for i in order),
                         multiple_roots=multiple_roots, quotient=quotient)


# ---------------------------------------------------------------------------
# evaluation matrices: W_k, the vanishing ideal, injectivity and V_B
# ---------------------------------------------------------------------------

def build_W(points: Sequence[Point], k: int, d: Optional[int] = None) -> EvalMatrix:
    """Point-evaluation matrix W_k: one row per point, one column per
    monomial of degree <= k (degree-lex order)."""
    if not points:
        raise ValueError("build_W requires at least one point")
    if d is None:
        d = len(points[0])
    monomials = tuple(monomial_basis(d, k))
    columns = values_at([Polynomial.monomial(d, m) for m in monomials], points)
    return EvalMatrix(k, tuple(map(tuple, points)), monomials,
                      tuple(zip(*columns)))


def eval_matrix_rank(matrix: EvalMatrix) -> int:
    return _linalg.row_reduce(matrix.rows).rank


def vanishing_ideal(variety: VarietyReport, k: int, d: int) -> tuple:
    """``(relations, complete)``: the x^a - NF(x^a) of degree <= k vanishing
    on *variety*, one for each monomial a outside the degree-lex normal
    set, NF(x^a) over the normal monomials before a.

    An exact report's basis of A/sqrt(I) is that normal set: each pivot of
    its Macaulay matrix leads an element of sqrt(I), so the normal set lies
    among the non-pivots that form the basis, and both have dim A/sqrt(I)
    elements.  So NF(x^a) is read off the image scale**|a| * x^a * 1 with
    no elimination.  If dim A/sqrt(I) > card V (non-real zeros) the
    relations vanish on V but need not span its ideal, and ``complete`` is
    False unless the points are exact and decide.  Otherwise NF(x^a) comes
    from the pivot columns of the evaluations W_k before a."""
    images = _relation_images(variety, k, d)
    if images is not None:
        return {a: _relation(variety.quotient, a, image)
                for a, image in images.items()}, \
            len(variety.quotient[0]) == len(variety.points)
    # W_k; no point at all is the empty set
    columns = monomial_basis(d, k)
    reduction = _linalg.row_reduce(build_W(variety.points, k, d).rows
                                   if variety.points else ())
    free = [a for j, a in enumerate(columns) if j not in reduction.pivots]
    return dict(zip(free, reduction.kernel_polynomials(columns))), True


def _relation_images(variety: VarietyReport, k: int, d: int):
    """``{a: scale**|a| * x^a * 1}`` on the basis of A/sqrt(I), for the
    monomials a of degree <= k outside that basis in degree-lex order, when
    the relations of degree <= k are read off the report's quotient; None
    when they come from W_k: no quotient, or exact points that decide
    beside non-real zeros."""
    quotient = variety.quotient
    if quotient is None or (len(quotient[0]) != len(variety.points)
                            and all(variety.exact_mask)):
        return None
    basis, mats, _, images = quotient
    normal = set(basis)
    monomials = monomial_basis(d, k)
    images = _images(monomials, mats, images)
    return {a: images[a] for a in monomials if a not in normal}


def _relation(quotient, a, image) -> Polynomial:
    """x^a - NF(x^a) from the image scale**|a| * x^a * 1 of x^a on the
    basis of *quotient*."""
    basis, _, scale, _ = quotient
    den = scale**total_degree(a)
    return Polynomial(len(a), {**{b: -Fraction(x, den) for b, x in
                                  zip(basis[::-1], image[::-1])},
                               a: Fraction(1)})


def injectivity_check(report: KernelReport,
                      variety: VarietyReport) -> InjectivityVerdict:
    """Decide rank M(n) = rank W_n, i.e. whether point evaluations separate
    the column space, from ``vanishing_ideal``.  When they do not, returns
    a polynomial vanishing on the variety that is not in the kernel of
    M(n)."""
    relations, complete = vanishing_ideal(variety, report.n, report.d)
    if not complete:  # sqrt(I) is not all: rank W at the refined points
        relations, _ = vanishing_ideal(
            VarietyReport.of_points(variety.points), report.n, report.d)
    rank_w = len(report.basis) - len(relations)
    if rank_w == report.rank:
        return InjectivityVerdict(True, report.rank, rank_w)
    # Kernel polynomials are in delta form: unit coefficient on one free
    # monomial, in column order.
    free_of = list(zip(report.free, report.kernel))
    for candidate in relations.values():
        reduced = candidate
        for idx, p in free_of:
            c = reduced.coefficient(idx)
            if c != 0:
                reduced = reduced - p.scale(c)
        if not all(map(negligible, reduced.terms.values())):
            return InjectivityVerdict(False, report.rank, rank_w, candidate)
    return InjectivityVerdict(False, report.rank, rank_w)


def vandermonde_rows(basis, points: Sequence[Point]) -> tuple:
    """``(polys, rows)``: the basis elements (monomial tuples or
    polynomials) as polynomials, and V_B[i][j] = b_i(w_j)."""
    polys = tuple(b if isinstance(b, Polynomial)
                  else Polynomial.monomial(len(points[0]), b) for b in basis)
    return polys, tuple(map(tuple, values_at(polys, points)))


def vandermonde_VB(basis, points: Sequence[Point]) -> VandermondeReport:
    """V_B[i][j] = b_i(w_j) for basis elements b_i (monomial tuples or
    polynomials) and points w_j; reports determinant and invertibility."""
    if len(basis) != len(points):
        raise ValueError(
            f"basis size {len(basis)} != number of points {len(points)}")
    polys, rows = vandermonde_rows(basis, points)
    det = _linalg.determinant(rows)
    invertible = det != 0 if _linalg.matrix_is_exact(rows) \
        else _linalg.row_reduce(rows).rank == len(points)
    return VandermondeReport(polys, tuple(tuple(w) for w in points),
                             rows, det, invertible)


# ---------------------------------------------------------------------------
# points file format
# ---------------------------------------------------------------------------

def load_points(path, mode: Optional[str] = None) -> list:
    """Read {"d": d, "points": [[coord, ...], ...]} with scalar strings."""
    f = JsonInput(path, "points", ("d", "points"), mode)
    d = f.integer(f.data["d"], "d", 1)
    return [f.scalars(raw, "point", d)
            for raw in f.array(f.data["points"], "points")]


def dump_points(points: Sequence[Point], path) -> None:
    if not points:
        raise ValueError("no points to write")
    payload = {
        "d": len(points[0]),
        "points": [[format_scalar(x) for x in point] for point in points],
    }
    write_json(payload, path)
