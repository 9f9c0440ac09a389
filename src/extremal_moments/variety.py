"""Zero sets of moment-matrix kernels and point-evaluation matrices.

For one variable the variety of the kernel is read off the gcd of its
elements.  For two variables: a nonconstant gcd of all kernel elements
certifies an infinite variety; otherwise two low-degree kernel elements are
intersected via a Sylvester resultant (eliminating whichever variable yields
the lower-degree resultant), roots are isolated, back-substituted, and every
candidate is filtered by the residuals of *all* kernel elements.  Exact
kernels run the whole chain in rational arithmetic, with irrational
coordinates returned as rational midpoints of refined isolating intervals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import _linalg, _roots
from .moments import KernelReport
from .polycore import (
    MERGE_TOL,
    RANK_TOL,
    RESIDUAL_TOL,
    InputError,
    JsonInput,
    Point,
    Polynomial,
    Scalar,
    all_exact,
    ensure_scalar,
    format_scalar,
    monomial_basis,
    negligible,
    total_degree,
)

#: Error raised for kernels in three or more variables.
UNSUPPORTED_DIMENSION = ("variety computation is implemented for d in {1, 2}; "
                         "supply points explicitly for higher dimension")

#: Float roots closer than this are one root.  Near-double roots split by
#: O(sqrt(noise)), far beyond the exact-duplicate radius MERGE_TOL; float
#: mode clusters at that scale and flags the event.
_CLUSTER_TOL = max(MERGE_TOL, math.sqrt(RESIDUAL_TOL))

# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarietyReport:
    """Common zero set of a kernel basis.

    ``points`` hold Scalars; a True entry in ``exact_mask`` marks a point
    whose coordinates are exact rationals rather than refined approximations
    of irrational algebraic numbers.
    """

    status: str  # "Finite" | "Infinite" | "Unknown"
    points: tuple = ()
    exact_mask: tuple = ()
    witness: Optional[Polynomial] = None  # common factor when Infinite
    reason: Optional[str] = None
    multiple_roots: bool = False

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
# univariate views of bivariate polynomials
# ---------------------------------------------------------------------------

def _swap_vars(p: Polynomial) -> Polynomial:
    return Polynomial(2, {(j, i): c for (i, j), c in p.terms.items()})


def _as_y_poly(p: Polynomial) -> list:
    """Coefficients in y: list (ascending y-degree) of x-coefficient lists."""
    deg_y = max((j for (_, j) in p.terms), default=0)
    out = [[] for _ in range(deg_y + 1)]
    for (i, j), c in p.terms.items():
        coeffs = out[j]
        while len(coeffs) <= i:
            coeffs.append(Fraction(0))
        coeffs[i] = Fraction(c)
    return [_roots.strip(c) for c in out]


def _from_y_poly(ypoly: Sequence) -> Polynomial:
    terms = {}
    for j, coeffs in enumerate(ypoly):
        for i, c in enumerate(coeffs):
            if c != 0:
                terms[(i, j)] = c
    return Polynomial(2, terms)


def _ystrip(ypoly: list) -> list:
    while ypoly and not ypoly[-1]:
        ypoly.pop()
    return ypoly


def _uni_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _roots.strip(out)


def _uni_sub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _roots.strip(out)


def _substitute_x(p: Polynomial, x0: Fraction) -> list:
    """p(x0, y) as an ascending univariate coefficient list in y."""
    out: list = []
    for (i, j), c in p.terms.items():
        while len(out) <= j:
            out.append(Fraction(0))
        out[j] += Fraction(c) * x0**i
    return _roots.strip(out)


def _univariate_coeffs(p: Polynomial) -> list:
    """Coefficient list of a d=1 polynomial."""
    out = [Fraction(0)] * (int(p.degree) + 1 if not p.is_zero else 0)
    for (e,), c in p.terms.items():
        out[e] = Fraction(c)
    return _roots.strip(out)


# ---------------------------------------------------------------------------
# exact bivariate gcd (primitive PRS in (Q[x])[y])
# ---------------------------------------------------------------------------

def _ypoly_content(ypoly) -> list:
    content: list = []
    for coeffs in ypoly:
        if coeffs:
            content = _roots.poly_gcd(content, coeffs) if content else \
                [c / coeffs[-1] for c in coeffs]
    return content


def _ypoly_divide_uni(ypoly, divisor) -> list:
    out = []
    for coeffs in ypoly:
        if not coeffs:
            out.append([])
            continue
        quot, rem = _roots.poly_divmod(coeffs, divisor)
        assert not rem, "content division must be exact"
        out.append(_roots.strip(quot))
    return out


def _ypoly_prem(a, b) -> list:
    """Pseudo-remainder of a by b in (Q[x])[y] (deg_y b >= 1)."""
    a = [list(c) for c in a]
    db = len(b) - 1
    lead_b = b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        lead_a = a[-1]
        scaled = [_uni_mul(c, lead_b) for c in a]
        shift = da - db
        for i, bc in enumerate(b):
            scaled[shift + i] = _uni_sub(scaled[shift + i],
                                         _uni_mul(lead_a, bc))
        a = _ystrip(scaled[:da])  # top coefficient cancels exactly
    return a


def bivariate_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact gcd in Q[x,y], normalized to unit leading degree-lex coefficient."""
    if p.is_zero:
        return _normalize_gcd(q)
    if q.is_zero:
        return _normalize_gcd(p)
    a, b = _as_y_poly(p), _as_y_poly(q)
    if len(a) - 1 == 0 and len(b) - 1 == 0:
        g = _roots.poly_gcd(a[0], b[0])
        return _normalize_gcd(_from_y_poly([g]))
    if len(a) - 1 == 0:
        g = _roots.poly_gcd(a[0], _ypoly_content(b))
        return _normalize_gcd(_from_y_poly([g]))
    if len(b) - 1 == 0:
        g = _roots.poly_gcd(b[0], _ypoly_content(a))
        return _normalize_gcd(_from_y_poly([g]))
    content_a, content_b = _ypoly_content(a), _ypoly_content(b)
    content_gcd = _roots.poly_gcd(content_a, content_b)
    a = _ypoly_divide_uni(a, content_a)
    b = _ypoly_divide_uni(b, content_b)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _ypoly_prem(a, b)
        if not r:
            primitive = _ypoly_divide_uni(b, _ypoly_content(b))
            break
        if len(r) - 1 == 0:
            primitive = [[Fraction(1)]]
            break
        a, b = b, _ypoly_divide_uni(r, _ypoly_content(r))
    result = _from_y_poly(primitive) * _from_y_poly([content_gcd])
    return _normalize_gcd(result)


def _normalize_gcd(p: Polynomial) -> Polynomial:
    if p.is_zero:
        return p
    lead_idx = max(p.terms, key=lambda idx: (total_degree(idx), idx))
    return p.scale(1 / Fraction(p.terms[lead_idx]))


# ---------------------------------------------------------------------------
# Sylvester resultants
# ---------------------------------------------------------------------------

def _sylvester_entries(p: Polynomial, q: Polynomial):
    """Sylvester matrix for eliminating y; entries are x-coefficient lists."""
    a, b = _as_y_poly(p), _as_y_poly(q)
    m, k = len(a) - 1, len(b) - 1
    size = m + k
    matrix = [[[] for _ in range(size)] for _ in range(size)]
    for row in range(k):
        for i, coeffs in enumerate(reversed(a)):  # a_m ... a_0
            matrix[row][row + i] = coeffs
    for row in range(m):
        for i, coeffs in enumerate(reversed(b)):
            matrix[k + row][row + i] = coeffs
    return matrix, m, k


def _deg_x(p: Polynomial) -> int:
    return max((i for (i, _) in p.terms), default=0)


def _deg_y(p: Polynomial) -> int:
    return max((j for (_, j) in p.terms), default=0)


def resultant_eliminate_y(p: Polynomial, q: Polynomial) -> list:
    """Res_y(p, q) as an ascending coefficient list in x, computed by
    evaluating the fixed-size Sylvester determinant at integer nodes and
    interpolating (degree bound deg_y(p)*deg_x(q) + deg_y(q)*deg_x(p))."""
    a, b = _as_y_poly(p), _as_y_poly(q)
    m, k = len(a) - 1, len(b) - 1
    if m == 0 or k == 0:
        base = a[0] if m == 0 else b[0]
        power = k if m == 0 else m
        out = [Fraction(1)]
        for _ in range(power):
            out = _uni_mul(out, base)
        return out
    matrix, m, k = _sylvester_entries(p, q)
    bound = m * _deg_x(q) + k * _deg_x(p)
    nodes = _integer_nodes(bound + 1)
    exact = p.is_exact and q.is_exact
    values = []
    for t in nodes:
        cell = [[_roots.horner(entry, Fraction(t) if exact else float(t))
                 if entry else (Fraction(0) if exact else 0.0)
                 for entry in row] for row in matrix]
        values.append(_linalg.determinant(cell))
    if exact:
        return _interpolate_exact([Fraction(t) for t in nodes], values)
    coeffs = np.polynomial.polynomial.polyfit(
        np.array(nodes, dtype=float), np.array([float(v) for v in values]),
        bound)
    return [float(c) for c in coeffs]


def _integer_nodes(count: int) -> list:
    nodes = [0]
    step = 1
    while len(nodes) < count:
        nodes.append(step)
        if len(nodes) < count:
            nodes.append(-step)
        step += 1
    return nodes[:count]


def _interpolate_exact(xs, ys) -> list:
    """Newton divided differences, expanded to ascending coefficients."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for i in range(n - 2, -1, -1):
        new = [Fraction(0)] * (len(poly) + 1)
        for pos, c in enumerate(poly):
            new[pos + 1] += c
            new[pos] -= xs[i] * c
        new[0] += coef[i]
        poly = new
    return _roots.strip(poly)


# ---------------------------------------------------------------------------
# variety computation
# ---------------------------------------------------------------------------

def compute_variety(kernel: Sequence[Polynomial]) -> VarietyReport:
    """Common real zero set of a nonempty kernel basis (d = 1 or 2); exact
    irrational coordinates are refined to width ``_roots.REFINE_WIDTH``."""
    kernel = [p for p in kernel]
    if not kernel:
        raise ValueError("compute_variety requires a nonempty kernel list")
    d = kernel[0].d
    if any(p.d != d for p in kernel):
        raise ValueError("kernel polynomials have mixed dimensions")
    if any(p.is_zero for p in kernel):
        raise ValueError("kernel basis must not contain the zero polynomial")
    if d not in (1, 2):
        raise InputError(UNSUPPORTED_DIMENSION)
    if any(p.degree == 0 for p in kernel):
        return VarietyReport("Finite")  # a nonzero constant has no zeros
    exact = all(p.is_exact for p in kernel)
    if d == 1:
        return _variety_1d(kernel, exact)
    if exact:
        return _variety_2d_exact(kernel)
    return _variety_2d_float(kernel)


def _variety_1d(kernel, exact) -> VarietyReport:
    if exact:
        g: list = []
        for p in kernel:
            coeffs = _univariate_coeffs(p)
            g = _roots.poly_gcd(g, coeffs) if g else coeffs
            if len(g) == 1:
                return VarietyReport("Finite")
        roots, multiple = _roots.real_roots_exact(g)
        points = tuple((r.value,) for r in roots)
        mask = tuple(r.exact for r in roots)
        return VarietyReport("Finite", points, mask, multiple_roots=multiple)
    base = min(kernel, key=lambda p: p.degree)
    coeffs = [0.0] * (int(base.degree) + 1)
    for (e,), c in base.terms.items():
        coeffs[e] = float(c)
    roots, isolated = _roots.real_roots_float(coeffs, _CLUSTER_TOL)
    if not isolated:
        return VarietyReport("Unknown",
                             reason="near-multiple roots in float mode")
    points = [(r,) for r in roots
              if all(_residual_ok(p, (r,), False) for p in kernel)]
    return VarietyReport("Finite", tuple(points),
                         tuple(False for _ in points))


def _ordered_pairs(kernel):
    order = sorted(range(len(kernel)), key=lambda i: (kernel[i].degree, i))
    pairs = list(combinations(order, 2))
    pairs.sort(key=lambda ij: (kernel[ij[0]].degree + kernel[ij[1]].degree,
                               ij[0], ij[1]))
    return pairs


def _variety_2d_exact(kernel) -> VarietyReport:
    g = kernel[0]
    for p in kernel[1:]:
        g = bivariate_gcd(g, p)
        if g.degree == 0:
            break
    if g.degree >= 1:
        return VarietyReport("Infinite", witness=g)

    for i, j in _ordered_pairs(kernel):
        p, q = kernel[i], kernel[j]
        options = []
        if _deg_y(p) == 0 and _deg_y(q) == 0:
            # Res_y of two y-free polynomials is the empty-Sylvester constant
            # and says nothing; their common x-values are the gcd roots.
            g = _roots.poly_gcd(_as_y_poly(p)[0], _as_y_poly(q)[0])
            options.append((len(g), 0, g))
        else:
            res_x = _roots.strip(resultant_eliminate_y(p, q))  # poly in x
            if res_x:
                options.append((len(res_x), 0, res_x))
        sp, sq = _swap_vars(p), _swap_vars(q)
        if _deg_y(sp) == 0 and _deg_y(sq) == 0:
            g = _roots.poly_gcd(_as_y_poly(sp)[0], _as_y_poly(sq)[0])
            options.append((len(g), 1, g))
        else:
            res_y = _roots.strip(resultant_eliminate_y(sp, sq))  # poly in y
            if res_y:
                options.append((len(res_y), 1, res_y))
        if not options:
            continue  # the pair shares a factor; try the next pair
        options.sort(key=lambda t: (t[0], t[1]))
        _, kept_var, res = options[0]
        oriented = kernel if kept_var == 0 else [_swap_vars(r) for r in kernel]
        report = _assemble_points_exact(oriented, res)
        if kept_var == 1:
            report = VarietyReport(
                report.status,
                tuple((y, x) for (x, y) in report.points),
                report.exact_mask, report.witness, report.reason,
                report.multiple_roots)
        return _sort_report(report)
    return VarietyReport(
        "Unknown",
        reason="every candidate pair of kernel elements has an identically "
               "zero resultant")


def _assemble_points_exact(kernel, resultant) -> VarietyReport:
    if len(resultant) == 1:
        return VarietyReport("Finite")  # nonzero constant: no common zeros
    roots, multiple = _roots.real_roots_exact(resultant)
    points = []
    mask = []
    for root in roots:
        x0 = root.value
        y_candidates = []
        for p in sorted(kernel, key=lambda p_: p_.degree):
            sub = _substitute_x(p, x0)
            if not sub:
                continue  # vanishes identically at x0; consult the next one
            if len(sub) == 1:
                # No y can satisfy this kernel element at x0 when the value
                # is genuinely nonzero; residual filtering handles round-off
                # from approximate x0, so just skip as a candidate source.
                continue
            sub_roots, sub_multiple = _roots.real_roots_exact(sub)
            multiple = multiple or sub_multiple
            y_candidates.extend(sub_roots)
            break
        for y_root in y_candidates:
            point = (x0, y_root.value)
            point_exact = root.exact and y_root.exact
            if all(_residual_ok(p, point, point_exact) for p in kernel):
                points.append(point)
                mask.append(point_exact)
    points, mask, _ = _merge_points(points, mask, MERGE_TOL)
    return VarietyReport("Finite", tuple(points), tuple(mask),
                         multiple_roots=multiple)


def _variety_2d_float(kernel) -> VarietyReport:
    for i, j in _ordered_pairs(kernel):
        p, q = kernel[i], kernel[j]
        if _deg_y(p) == 0 and _deg_y(q) == 0:
            continue  # Res_y degenerates for two y-free polynomials
        res_x = resultant_eliminate_y(p, q)
        scale = max((abs(c) for c in res_x), default=0.0)
        if scale <= RANK_TOL:
            continue
        roots, isolated = _roots.real_roots_float(
            [c / scale for c in res_x])
        if not isolated:
            return VarietyReport(
                "Unknown", reason="near-multiple resultant roots in float mode")
        points = []
        for x0 in roots:
            for base in sorted(kernel, key=lambda p_: p_.degree):
                sub = [0.0] * (max((jj for (_, jj) in base.terms), default=0) + 1)
                for (ii, jj), c in base.terms.items():
                    sub[jj] += float(c) * x0**ii
                sub = [c for c in sub]
                while sub and abs(sub[-1]) <= 1e-13 * max(map(abs, sub)):
                    sub.pop()
                if len(sub) <= 1:
                    continue
                y_roots, _ = _roots.real_roots_float(sub)
                for y0 in y_roots:
                    cand = _newton_polish_2d(p, q, float(x0), float(y0))
                    if all(_residual_ok(r, cand, False) for r in kernel):
                        points.append(cand)
                break
        points, mask, clustered = _merge_points(
            points, [False] * len(points), _CLUSTER_TOL)
        return _sort_report(VarietyReport("Finite", tuple(points),
                                          tuple(mask),
                                          multiple_roots=clustered))
    return VarietyReport("Unknown",
                         reason="no informative resultant pair in float mode")


def _newton_polish_2d(p, q, x, y, iterations: int = 12):
    px, py = p.partial(0), p.partial(1)
    qx, qy = q.partial(0), q.partial(1)
    for _ in range(iterations):
        f = float(p.evaluate((x, y)))
        g = float(q.evaluate((x, y)))
        j11, j12 = float(px.evaluate((x, y))), float(py.evaluate((x, y)))
        j21, j22 = float(qx.evaluate((x, y))), float(qy.evaluate((x, y)))
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            break
        dx = (f * j22 - g * j12) / det
        dy = (g * j11 - f * j21) / det
        x, y = x - dx, y - dy
        if abs(dx) + abs(dy) < 1e-15 * (1 + abs(x) + abs(y)):
            break
    return (x, y)


def _residual_ok(p: Polynomial, point, point_exact: bool) -> bool:
    exact = point_exact and p.is_exact
    scale = 0.0
    if not exact:  # the exact test needs no scale
        for idx, c in p.terms.items():
            term = abs(float(c))
            for x, e in zip(point, idx):
                term *= abs(float(x))**e
            scale += term
    return negligible(p.evaluate(point), max(1.0, scale), exact)


def adopt_points(report: KernelReport,
                 points: Sequence[Point]) -> VarietyReport:
    """Supplied points as the variety, after checking that each satisfies
    every kernel relation; exact where point and kernel are both exact."""
    adopted = []
    mask = []
    exact_kernel = all(p.is_exact for p in report.kernel)
    for w in points:
        w = tuple(ensure_scalar(x) for x in w)
        if len(w) != report.d:
            raise InputError(f"supplied point {tuple(float(x) for x in w)} "
                             f"does not have dimension {report.d}")
        point_exact = all_exact(w) and exact_kernel
        for p in report.kernel:
            if not _residual_ok(p, w, point_exact):
                raise InputError(
                    f"supplied point {tuple(float(x) for x in w)} does not "
                    f"satisfy kernel relation {p}")
        adopted.append(w)
        mask.append(point_exact)
    return VarietyReport("Finite", tuple(adopted), tuple(mask))


def _merge_points(points, mask, merge_tol):
    """Collapse points closer than *merge_tol* per coordinate.  Float
    clusters are averaged (the centroid of a noise-split double zero is
    second-order accurate); clusters containing an exact point keep it.
    Returns (points, mask, merged_any)."""
    kept: list = []
    kept_mask: list = []
    counts: list = []
    merged_any = False
    for point, exact in zip(points, mask):
        placed = False
        for i, seen in enumerate(kept):
            if all(abs(float(a) - float(b)) <= merge_tol
                   for a, b in zip(point, seen)):
                if not (kept_mask[i] or exact):
                    k = counts[i]
                    kept[i] = tuple((float(a) * k + float(b)) / (k + 1)
                                    for a, b in zip(seen, point))
                elif exact and not kept_mask[i]:
                    kept[i] = tuple(point)
                counts[i] += 1
                kept_mask[i] = kept_mask[i] or exact
                merged_any = True
                placed = True
                break
        if not placed:
            kept.append(tuple(point))
            kept_mask.append(exact)
            counts.append(1)
    return kept, kept_mask, merged_any


def _sort_report(report: VarietyReport) -> VarietyReport:
    if report.status != "Finite":
        return report
    order = sorted(range(len(report.points)),
                   key=lambda i: tuple(float(x) for x in report.points[i]))
    return VarietyReport(
        report.status,
        tuple(report.points[i] for i in order),
        tuple(report.exact_mask[i] for i in order),
        report.witness, report.reason, report.multiple_roots)


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
    rows = []
    for w in points:
        if len(w) != d:
            raise ValueError(f"point {w} does not have dimension {d}")
        row = []
        for idx in monomials:
            value: Scalar = Fraction(1)
            for x, e in zip(w, idx):
                if e:
                    value = value * x**e
            row.append(value)
        rows.append(tuple(row))
    return EvalMatrix(k, tuple(tuple(w) for w in points), monomials, tuple(rows))


def eval_matrix_rank(matrix: EvalMatrix) -> int:
    return _linalg.row_reduce(matrix.rows).rank


def hilbert_function(points: Sequence[Point], k: int) -> int:
    """H_I(k): number of independent degree <= k monomial evaluations."""
    return eval_matrix_rank(build_W(points, k))


def injectivity_check(report: KernelReport,
                      points: Sequence[Point]) -> InjectivityVerdict:
    """Decide rank M(n) = rank W_n, i.e. whether point evaluations separate
    the column space.  When they do not, returns a polynomial vanishing on
    the points that is not in the kernel of M(n)."""
    w_matrix = build_W(points, report.n, report.d)
    reduction = _linalg.row_reduce(w_matrix.rows)
    rank_w = reduction.rank
    if rank_w == report.rank:
        return InjectivityVerdict(True, report.rank, rank_w)
    witness = None
    free_of = {}
    for p in report.kernel:
        # Kernel polynomials are in delta form: unit coefficient on one
        # non-pivot monomial.
        for idx, c in p.terms.items():
            if idx not in report.pivots and c == 1:
                free_of[idx] = p
                break
    for vec in reduction.kernel_basis():
        candidate = Polynomial(report.d,
                               dict(zip(w_matrix.monomials, vec)))
        reduced = candidate
        for idx, p in free_of.items():
            c = reduced.coefficient(idx)
            if c != 0:
                reduced = reduced - p.scale(c)
        if not all(negligible(c, exact=reduced.is_exact)
                   for c in reduced.terms.values()):
            witness = candidate
            break
    return InjectivityVerdict(False, report.rank, rank_w, witness)


def vandermonde_VB(basis, points: Sequence[Point]) -> VandermondeReport:
    """V_B[i][j] = b_i(w_j) for basis elements b_i (monomial tuples or
    polynomials) and points w_j; reports determinant and invertibility."""
    if len(basis) != len(points):
        raise ValueError(
            f"basis size {len(basis)} != number of points {len(points)}")
    polys = [b if isinstance(b, Polynomial)
             else Polynomial.monomial(len(points[0]), b) for b in basis]
    rows = tuple(
        tuple(b.evaluate(w) for w in points) for b in polys
    )
    det = _linalg.determinant(rows)
    if all(all_exact(row) for row in rows):
        invertible = det != 0
    else:
        rank = _linalg.row_reduce(rows).rank
        invertible = rank == len(points)
    return VandermondeReport(tuple(polys), tuple(tuple(w) for w in points),
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
