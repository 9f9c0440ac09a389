"""Zero sets of moment-matrix kernels and point-evaluation matrices.

Every kernel, exact or float and in any number of variables, is solved in
the quotient algebra A = R[x]/I of its ideal I, whose multiplication
matrices come from one Macaulay matrix of the kernel's products.  Exact
kernels read the real points from A exactly, by the rational univariate
representation: a linear form t separating them gives every coordinate as
a polynomial x_i = h_i(t), so the points are the real roots tau of t's
minimal polynomial, isolated first.  At a rational tau each coordinate is
h_i(tau), evaluated in integers; only at an irrational tau is a
coordinate's own minimal polynomial isolated (once), its root that h_i
meets on tau's interval being the coordinate: exact when it is rational,
else the midpoint of a refined interval.  An ideal with a multiple zero,
told by the isolation of x_1 when its powers span A and else by the
squarefree parts of the coordinates' minimal polynomials, is replaced by
its radical first.
In two variables a nonconstant gcd of an exact kernel first certifies an
infinite variety when it takes both signs at sampled rational points (its
zero set then separates the plane), and leaves it Unknown otherwise; this
module only converts the kernel polynomials to and from the integer lists
of ``_roots``, whose primitive remainder sequence finds the gcd.
Float kernels read the points from the eigenvectors of one generic
combination of the multiplication matrices, average each cluster (a
multiple zero), and filter every real point by the residuals of *all*
kernel elements.  A float kernel whose reduction puts 1 in its ideal
certifies no empty set: rounding alone can do that (one atom at 1e100).
The evaluation matrices W_k and V_B are ``polycore.values_at`` of monomials
or basis polynomials at the points, so exact points are summed in integers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from . import _linalg, _roots
from .moments import KernelReport, kernel_products
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
    format_scalar,
    is_exact,
    magnitude,
    monomial_basis,
    negligible,
    total_degree,
    values_at,
)

#: Float points closer than this (relative to their size) are one multiple
#: point: the eigenvalues of a double zero split by O(sqrt(noise)).
_CLUSTER_TOL = math.sqrt(RESIDUAL_TOL)

# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarietyReport:
    """Common zero set of a kernel basis.

    ``points`` hold Scalars; a True entry in ``exact_mask`` marks a point
    whose coordinates are exact rationals rather than refined approximations
    of irrational algebraic numbers.  ``quotient`` keeps an exact kernel's
    algebra modulo its radical, A/sqrt(I), as (basis, mats, scale):
    mats[i] / scale multiplies by x_i on the monomial basis (1 last).
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


@dataclass(frozen=True)
class EvalMatrix:
    """W_k: rows are point evaluations of the degree <= k monomials."""

    k: int
    points: tuple
    monomials: tuple
    rows: tuple

    @property
    def is_exact(self) -> bool:
        return all(all_exact(row) for row in self.rows)


@dataclass(frozen=True)
class InjectivityVerdict:
    injective: bool
    rank_m: int
    rank_w: int
    witness: Optional[Polynomial] = None  # vanishes on V but not in ker M(n)


@dataclass(frozen=True)
class VandermondeReport:
    """V_B: rows indexed by basis elements, columns by variety points."""

    basis: tuple  # Polynomials
    points: tuple
    rows: tuple
    det: Scalar
    invertible: bool


# ---------------------------------------------------------------------------
# exact bivariate gcd (primitive PRS in (Z[x])[y], in ``_roots``)
# ---------------------------------------------------------------------------

def bivariate_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact gcd in Q[x,y], normalized to unit leading degree-lex
    coefficient: ``_roots._gcd_y`` on integer multiples of p and q."""
    if p.is_zero or q.is_zero:
        return _normalize_gcd(p + q)
    g = _roots._gcd_y(_y_rows(p), _y_rows(q))
    return _normalize_gcd(Polynomial(2, {
        (i, j): c for j, row in enumerate(g) for i, c in enumerate(row)}))


def _y_rows(p: Polynomial) -> list:
    """A positive integer multiple of the exact p as a polynomial in y over
    Z[x]: the integer lists in x of its y**0, y**1, ... coefficients."""
    ints = clear_denominators(p.terms.values())[0]
    rows: list = [[] for _ in range(1 + max(j for _, j in p.terms))]
    for (i, j), c in sorted(zip(p.terms, ints)):
        rows[j] += [0] * (i - len(rows[j])) + [c]
    return rows


def _normalize_gcd(p: Polynomial) -> Polynomial:
    if p.is_zero:
        return p
    lead_idx = max(p.terms, key=lambda idx: (total_degree(idx), idx))
    return p.scale(1 / Fraction(p.terms[lead_idx]))


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
    irrational ones refined to width ``_roots.REFINE_WIDTH``.  A float
    kernel whose ideal reduces to (1) gives Unknown, not the empty set."""
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
    if exact and d == 2:
        g = kernel[0]
        for p in kernel[1:]:
            g = bivariate_gcd(g, p)
            if g.degree == 0:
                break
        if g.degree >= 1:
            if _changes_sign(g):
                return VarietyReport("Infinite", witness=g)
            return VarietyReport("Unknown", reason=f"the common factor {g} "
                                 "of the kernel takes one sign at every "
                                 "sampled point, so it may have finitely "
                                 "many real zeros")
    quotient = _quotient(kernel, exact)
    if quotient is None:
        return VarietyReport("Unknown", reason="no normal set of the kernel "
                                               "ideal up to degree 2n+2")
    basis, mats, scale = quotient
    if not basis:  # 1 lies in I: no zeros at all, when I is exact
        return VarietyReport("Finite") if exact else VarietyReport(
            "Unknown", reason="the float reduction puts 1 in the kernel "
                              "ideal")
    if exact:
        return _variety_exact(kernel, basis, mats, scale)
    return _variety_float(kernel, mats)


# ---------------------------------------------------------------------------
# the quotient algebra of the kernel ideal
# ---------------------------------------------------------------------------

def _quotient(kernel, exact: bool):
    """``(basis, mats, scale)``: a monomial basis B of A = R[x]/I (I the
    ideal of *kernel*; 1 last) and matrices, mats[i] / scale the
    multiplication by x_i on B; None when none is found by degree 2n + 2.
    Exact kernels get integer matrices over an integer scale, float kernels
    float matrices over scale 1.

    For D = n+1, n+2, ... the products x^a*k of degree <= D are reduced
    with columns in descending degree.  B is the set of non-pivot monomials
    below the first degree whose monomials are all pivots, and the normal
    forms of the x_i*b give the M_i.  If B is connected to 1 and the M_i
    commute, the relations x_i*b - NF(x_i*b) in I make B a basis of A/J for
    the ideal J they generate (Mourrain 1999); J = I once every
    k(M)*1 = 0.  Float matrices pass both tests up to ``negligible``."""
    d = kernel[0].d
    n = max(int(p.degree) for p in kernel)
    for top in range(n + 1, 2 * n + 3):
        columns = monomial_basis(d, top)[::-1]
        where = {m: j for j, m in enumerate(columns)}
        rows = []
        for _, _, terms in kernel_products(kernel, top):
            rows.append([0] * len(columns))
            for m, c in terms.items():
                rows[-1][where[m]] = c
        reduction = _linalg.row_reduce(rows)
        pivots = {columns[j] for j in reduction.pivots}
        full = next((e for e in range(top + 1) if all(
            m in pivots for m in columns if total_degree(m) == e)), None)
        free = [j for j, m in enumerate(columns)
                if total_degree(m) < (full or 0) and m not in pivots]
        basis = [columns[j] for j in free]
        if full is None or any(_lower(b) not in basis for b in basis[:-1]):
            continue
        normal_form = {columns[j]: [-row[f] for f in free]
                       for j, row in zip(reduction.pivots, reduction.rref)}
        for k, b in enumerate(basis):
            normal_form[b] = [int(k == i) for i in range(len(basis))]
        entries = [x for e in monomial_basis(d, 1)[1:] for b in basis
                   for x in normal_form[_shift(b, e)]]
        ints, scale = clear_denominators(entries) if exact else (entries, 1)
        size = len(basis)
        mats = [[ints[i * size * size + k::size][:size] for k in range(size)]
                for i in range(d)]
        if all(_commute(a, b, exact) for a, b in combinations(mats, 2)) \
                and _annihilates(kernel, mats, scale, exact):
            return basis, mats, scale
    return None


def _shift(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _lower(b) -> tuple:
    """b over its first variable."""
    i = next(i for i, e in enumerate(b) if e)
    return b[:i] + (b[i] - 1,) + b[i + 1:]


def _images(monomials, mats, vector) -> dict:
    """scale**|a| * x^a * vector for monomials a listed after their _lower."""
    images = {}
    for a in monomials:
        images[a] = _linalg.mat_vec(
            mats[next(i for i, e in enumerate(a) if e)],
            images[_lower(a)]) if any(a) else vector
    return images


def _commute(a, b, exact: bool) -> bool:
    """Is ab = ba, up to ``negligible`` against |a||b| for floats?"""
    ab = [_linalg.mat_vec(a, col) for col in zip(*b)]
    ba = [_linalg.mat_vec(b, col) for col in zip(*a)]
    bound = 1.0 if exact else len(a) * max(
        (abs(x) for row in a for x in row), default=0) * max(
        (abs(x) for row in b for x in row), default=0)
    return all(negligible(x - y, bound)
               for u, v in zip(ab, ba) for x, y in zip(u, v))


def _annihilates(kernel, mats, scale, exact: bool) -> bool:
    """Does k(M)*1 = 0 hold for every kernel element k?  Floats compare
    against sum |c_a| * |M^a * 1|."""
    n = max(int(p.degree) for p in kernel)
    images = _images(monomial_basis(len(mats), n), mats,
                     [0] * (len(mats[0]) - 1) + [1])
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

def _variety_exact(kernel, basis, mats, scale) -> VarietyReport:
    """Real zeros of the ideal I of an exact kernel from A = Q[x]/I
    (Moeller & Stetter 1995) by the rational univariate representation
    (Rouillier 1999): a form t = sum c**i x_i whose powers span A gives
    x_i = h_i(t) mod sqrt(I), and the points are the real roots tau of
    t's minimal polynomial.  At a rational tau each x_i is h_i(tau); at
    an irrational one it is the root of x_i's own minimal polynomial,
    isolated once, that h_i meets on tau's interval.  The try c = 0 gives
    x_1's minimal polynomial f; when it spans A, A = Q[T]/(f) is reduced
    iff f is squarefree, so the isolation of f is the radical test, and
    the other coordinates' minimal polynomials are built only when that
    test fails, when c = 0 does not span A (a multiple root of any x_i's
    minimal polynomial then tells a multiple zero), or for an irrational
    tau.  With a
    multiple zero, A becomes A/sqrt(I), sqrt(I) = I + (f_i(x_i)) for f_i
    the squarefree part of x_i's minimal polynomial (Seidenberg 1974),
    kept in the report; x_1's roots are kept, since its minimal
    polynomial there is f's squarefree part."""
    d = len(mats)
    xs = _coordinates(mats, scale)
    t_minimal, h = _krylov(mats[0], scale, xs)
    minimal = [t_minimal]
    t_roots = None
    if h is not None:
        t_roots, multiple = _roots.real_roots_exact(t_minimal)
    if h is None or multiple:
        minimal += [_krylov(m, scale, [])[0] for m in mats[1:]]
        squarefree, flags = zip(*map(_roots.squarefree_part, minimal))
        multiple = any(flags)
    if multiple:
        radical = [_squarefree_at(basis, m, scale, f)
                   for m, f in zip(mats, squarefree)]
        quotient = _quotient(kernel + [p for p in radical if not p.is_zero],
                             True)
        if quotient is None:
            return VarietyReport("Unknown", reason="no normal set of the "
                                                   "radical ideal")
        basis, mats, scale = quotient
        xs = _coordinates(mats, scale)
        t_minimal, h = _krylov(mats[0], scale, xs)
    nodes = iter(_integer_nodes(2 * d * len(basis)**2 + 1))
    c = next(nodes)
    while h is None:
        c = next(nodes, None)
        if c is None:
            return VarietyReport("Unknown", reason="no separating linear "
                                                   "form")
        t = [[sum(c**i * m[r][k] for i, m in enumerate(mats))
              for k in range(len(basis))] for r in range(len(basis))]
        t_minimal, h = _krylov(t, scale, xs)
    if t_roots is None:
        t_roots = _roots.real_roots_exact(t_minimal)[0]
    cleared = [clear_denominators(h_i) for h_i in h]
    isolated = {}
    points, mask = [], []
    for tau in t_roots:
        if tau.exact:
            num, den = tau.value.numerator, tau.value.denominator
            points.append(tuple(
                Fraction(_roots._scaled_value(ints, num, den),
                         lcm * den**(len(ints) - 1))
                for ints, lcm in cleared))
            mask.append(True)
            continue
        point = [tau] if c == 0 else []
        for i in range(len(point), d):
            if i not in isolated:
                isolated[i] = _roots.real_roots_exact(
                    minimal[i] if i < len(minimal)
                    else _krylov(mats[i], scale, [])[0])[0]
            low, high = _enclose(h[i], tau)
            hits = [r for r in isolated[i] if r.low <= high and low <= r.high]
            if len(hits) != 1:
                return VarietyReport("Unknown", reason="coordinates not "
                                                       "paired by the form")
            point.append(hits[0])
        points.append(tuple(r.value for r in point))
        mask.append(all(r.exact for r in point))
    return _finite(points, mask, multiple, (basis, mats, scale))


def _coordinates(mats, scale) -> list:
    """x_i * 1 on the basis of A, for each multiplication matrix."""
    return [[Fraction(row[-1], scale) for row in m] for m in mats]


def _integer_nodes(count: int) -> list:
    """0, 1, -1, 2, -2, ... (*count* integers)."""
    return [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(count)]


def _krylov(matrix, scale, xs) -> tuple:
    """The minimal polynomial of t = matrix / scale on A, ascending and
    monic, and the coordinates of each vector of *xs* on 1, t, t**2, ...,
    or None when these do not span A.  It runs on the primitive integer
    vectors w_j = lifts[j] * t**j * 1."""
    vectors, lifts = [[0] * (len(matrix) - 1) + [1]], [Fraction(1)]
    for _ in matrix:
        vector = _linalg.mat_vec(matrix, vectors[-1])
        content = math.gcd(*vector) or 1
        vectors.append([x // content for x in vector])
        lifts.append(lifts[-1] * scale / content)
    reduction = _linalg.row_reduce(_linalg.transpose(vectors + xs))
    k = next(k for k in range(len(vectors)) if k not in reduction.pivots)
    minimal = [-reduction.rref[r][k] * lifts[r] / lifts[k]
               for r in range(k)] + [Fraction(1)]
    if reduction.rank < len(matrix) or reduction.pivots[-1] >= len(vectors):
        return minimal, None
    return minimal, [[reduction.rref[r][j] * lifts[r] for r in range(k)]
                     for j in range(len(vectors), len(vectors) + len(xs))]


def _squarefree_at(basis, matrix, scale, squarefree) -> Polynomial:
    """scale**deg(f) * f(x_i) * 1 on *basis* as a polynomial, by Horner:
    f the integer list *squarefree*, x_i = matrix / scale."""
    value = [0] * len(basis)
    for k, a in enumerate(reversed(squarefree)):
        value = _linalg.mat_vec(matrix, value)
        value[-1] += a * scale**k
    return Polynomial(len(basis[0]), dict(zip(basis, value)))


def _enclose(coeffs, root) -> tuple:
    """Bounds on a rational polynomial over the interval of *root*: its
    value at the midpoint, widened by the half-width times
    sum k*|c_k|*R**(k-1) with R >= |x| there (centered form)."""
    bound = math.ceil(max(abs(root.low), abs(root.high)))
    spread = (root.high - root.low) / 2 * sum(
        k * abs(c) * bound**(k - 1) for k, c in enumerate(coeffs[1:], 1))
    center = _roots.horner(coeffs, root.value)
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
    else within ``negligible`` of sum |c_a| * max(1, |w|_inf)**|a|?"""
    value, size = p.evaluate(point), magnitude(point)
    return negligible(value, 1.0 if is_exact(value) else sum(
        abs(float(c)) * size**total_degree(idx) for idx, c in p.terms.items()))


def adopt_points(report: KernelReport,
                 points: Sequence[Point]) -> VarietyReport:
    """Supplied points as the variety, after checking that each satisfies
    every kernel relation.  A rational point at which an exact kernel
    vanishes exactly stays exact; any other point, such as a refined
    midpoint of an irrational one, is adopted as its float approximation
    once the relations vanish there within tolerance."""
    adopted = []
    exact_kernel = all(p.is_exact for p in report.kernel)
    for w in points:
        w = tuple(ensure_scalar(x) for x in w)
        if len(w) != report.d:
            raise InputError(f"supplied point {tuple(float(x) for x in w)} "
                             f"does not have dimension {report.d}")
        if not (exact_kernel and all_exact(w) and all(
                _residual_ok(p, w) for p in report.kernel)):
            w = tuple(float(x) for x in w)
        for p in report.kernel:
            if not _residual_ok(p, w):
                raise InputError(
                    f"supplied point {w} does not satisfy kernel "
                    f"relation {p}")
        adopted.append(w)
    return VarietyReport.of_points(adopted)


def _finite(points, mask, multiple_roots: bool,
            quotient: Optional[tuple] = None) -> VarietyReport:
    """A Finite report with its points in ascending float order."""
    order = sorted(range(len(points)),
                   key=lambda i: tuple(float(x) for x in points[i]))
    return VarietyReport("Finite", tuple(points[i] for i in order),
                         tuple(mask[i] for i in order),
                         multiple_roots=multiple_roots, quotient=quotient)


# ---------------------------------------------------------------------------
# evaluation matrices and Hilbert function
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


def hilbert_function(points: Sequence[Point], k: int) -> int:
    """H_I(k): number of independent degree <= k monomial evaluations."""
    return eval_matrix_rank(build_W(points, k))


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
    return {a: Polynomial(d, {**{columns[p]: -row[j] for row, p in
                                 zip(reduction.rref, reduction.pivots)},
                              a: Fraction(1)})
            for j, a in enumerate(columns) if j not in reduction.pivots}, True


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
    basis, mats, _ = quotient
    normal = set(basis)
    images = _images(monomial_basis(d, k), mats, [0] * (len(basis) - 1) + [1])
    return {a: image for a, image in images.items() if a not in normal}


def _relation(quotient, a, image) -> Polynomial:
    """x^a - NF(x^a) from the image scale**|a| * x^a * 1 of x^a on the
    basis of *quotient*."""
    basis, _, scale = quotient
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
    # Kernel polynomials are in delta form: unit coefficient on one
    # non-pivot monomial.
    free_of = {next(idx for idx, c in p.terms.items()
                    if idx not in report.pivots and c == 1): p
               for p in report.kernel}
    for candidate in relations.values():
        reduced = candidate
        for idx, p in free_of.items():
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
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
