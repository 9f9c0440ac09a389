"""Consistency of moment data with its variety, and the curve-scenario test.

A multisequence is consistent when every polynomial of degree <= 2n vanishing
on the variety is annihilated by the Riesz functional.  The check runs over a
kernel basis of the point-evaluation matrix W_{2n}.  Signed representations
realize the functional as a combination of point evaluations with (possibly
negative) weights obtained from a row basis of W_{2n}.

The reduced test covers the planar curve scenario with column relation
X^3 = Y, eight variety points and basis B = {1, X, Y, X^2, YX, Y^2, YX^2,
Y^2X}: a single auxiliary polynomial h (degree-four correction of Y^2X^2 in
span B, vanishing on the variety) decides existence — a measure exists iff
the functional annihilates h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _linalg, _roots
from .moments import Multisequence, riesz
from .polycore import (
    RANK_TOL,
    MultiIndex,
    Point,
    Polynomial,
    Scalar,
    all_exact,
    monomial_basis,
    negligible,
    significant,
)
from .variety import VarietyReport, bivariate_gcd, build_W

#: Pivot basis of the curve scenario (degree-lex restriction).
SCENARIO_BASIS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2))
#: Target monomial corrected by h in the curve scenario: Y^2 X^2.
SCENARIO_TARGET = (2, 2)


@dataclass(frozen=True)
class ConsistencyVerdict:
    status: str  # "Consistent" | "Inconsistent" | "Unknown"
    witness: Optional[Polynomial] = None  # vanishes on V, Lambda(witness) != 0
    value: Optional[Scalar] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "Consistent"


@dataclass(frozen=True)
class SignedRepresentation:
    atoms: tuple
    weights: tuple
    residual: float
    valid: bool


@dataclass(frozen=True)
class ReducedVerdict:
    status: str  # "MeasureExists" | "NoMeasure" | "NotApplicable" | "Unknown"
    value: Optional[Scalar] = None  # Lambda(h)
    witness: Optional[Polynomial] = None  # h
    reason: Optional[str] = None


@dataclass(frozen=True)
class CertificateVerdict:
    certified: bool
    reasons: tuple = ()


def _variety_points(variety) -> tuple:
    if isinstance(variety, VarietyReport):
        if variety.status != "Finite":
            return ()
        return variety.points
    return tuple(tuple(w) for w in variety)


def _points_exact(variety, points) -> bool:
    """True when the points are the variety, not refined approximations.
    Reports carry that distinction in their mask; a raw point list is taken
    at face value when every coordinate is exact."""
    if isinstance(variety, VarietyReport):
        return bool(variety.exact_mask) and all(variety.exact_mask)
    return all(all_exact(w) for w in points)


def _column_order(w_matrix, exact_points: bool) -> list:
    """Column order of W for exact elimination.  At refined points the
    relations of the variety hold only to the refinement width, so the
    pivots of the float reduction go first: no column independent by that
    much alone becomes a pivot."""
    order = list(range(len(w_matrix.monomials)))
    if not exact_points and w_matrix.is_exact:
        first = _linalg.row_reduce(
            [[float(x) for x in row] for row in w_matrix.rows]).pivots
        order = [*first, *(j for j in order if j not in first)]
    return order


def consistency_check(beta: Multisequence, variety) -> ConsistencyVerdict:
    """Check Lambda(p) = 0 for every p of degree <= 2n vanishing on the
    variety (kernel basis of W_{2n}); Unknown when the variety is not a
    finite point list.  An empty point list says nothing of the variety and
    is Unknown; a Finite report with no points is the empty set."""
    if isinstance(variety, VarietyReport):
        if variety.status != "Finite":
            return ConsistencyVerdict(
                "Unknown",
                reason=f"variety is {variety.status}; the vanishing ideal "
                       "cannot be enumerated from points")
        if not variety.points:
            # Every polynomial vanishes on the empty set, so each monomial
            # whose moment is nonzero is a witness.
            for idx in monomial_basis(beta.d, beta.degree):
                if beta[idx] != 0:
                    return ConsistencyVerdict(
                        "Inconsistent", Polynomial.monomial(beta.d, idx),
                        beta[idx])
            return ConsistencyVerdict("Consistent")
    points = _variety_points(variety)
    if not points:
        return ConsistencyVerdict("Unknown", reason="no variety points")
    exact_points = _points_exact(variety, points)
    w_matrix = build_W(points, beta.degree, beta.d)
    order = _column_order(w_matrix, exact_points)
    reduction = _linalg.row_reduce(
        [[row[j] for j in order] for row in w_matrix.rows])
    monomials = [w_matrix.monomials[j] for j in order]
    scale = beta.scale()
    for vec in reduction.kernel_basis():
        p = Polynomial(beta.d, dict(zip(monomials, vec)))
        value = riesz(beta, p)
        if significant(value, scale,
                       beta.is_exact and p.is_exact and exact_points):
            return ConsistencyVerdict("Inconsistent", p, value)
    return ConsistencyVerdict("Consistent")


def signed_representation(beta: Multisequence,
                          variety) -> SignedRepresentation:
    """Weights alpha with Lambda = sum alpha_i * evaluation at w_i on all
    monomials of degree <= 2n, supported on a row basis of W_{2n}."""
    points = _variety_points(variety)
    if not points:
        raise ValueError("signed_representation needs a finite point list")
    w_matrix = build_W(points, beta.degree, beta.d)
    # Independent rows of W = pivot columns of its transpose.
    row_pick = _linalg.row_reduce(_linalg.transpose(w_matrix.rows)).pivots
    rows = [w_matrix.rows[i] for i in row_pick]
    order = _column_order(w_matrix, _points_exact(variety, points))
    col_pick = [order[j] for j in _linalg.row_reduce(
        [[row[j] for j in order] for row in rows]).pivots]
    square = [[rows[i][j] for i in range(len(row_pick))] for j in col_pick]
    target = [beta[w_matrix.monomials[j]] for j in col_pick]
    weights = _linalg.solve_linear(square, target)
    residual = 0.0
    for j, idx in enumerate(w_matrix.monomials):
        predicted = sum((w * rows[i][j] for i, w in enumerate(weights)),
                        start=Fraction(0))
        residual = max(residual, abs(float(predicted - beta[idx])))
    valid = negligible(residual, beta.scale())
    atoms = tuple(points[i] for i in row_pick)
    return SignedRepresentation(atoms, tuple(weights), residual, valid)


# ---------------------------------------------------------------------------
# curve scenario: h from points, k from the moment data
# ---------------------------------------------------------------------------

def compute_h(points: Sequence[Point],
              basis: Sequence[MultiIndex] = SCENARIO_BASIS,
              target: MultiIndex = SCENARIO_TARGET) -> Polynomial:
    """Interpolation correction h = target - sum alpha_i b_i vanishing on the
    given points (as many points as basis elements)."""
    if len(points) != len(basis):
        raise ValueError(
            f"need exactly {len(basis)} points, got {len(points)}")
    d = len(points[0])
    rows = []
    rhs = []
    target_poly = Polynomial.monomial(d, target)
    basis_polys = [Polynomial.monomial(d, idx) for idx in basis]
    for w in points:
        rows.append([b.evaluate(w) for b in basis_polys])
        rhs.append(target_poly.evaluate(w))
    alpha = _linalg.solve_linear(rows, rhs)
    h = target_poly
    for a, b in zip(alpha, basis_polys):
        h = h - b.scale(a)
    return h


def _curve_reduce(idx: MultiIndex) -> MultiIndex:
    """Reduce a monomial modulo the relation X^3 = Y."""
    i, j = idx
    while i >= 3:
        i -= 3
        j += 1
    return (i, j)


def compute_k_from_extension(beta: Multisequence) -> Polynomial:
    """Curve-scenario candidate k = target - sum alpha_i b_i computed from
    the moment data alone: the degree-eight products target*b_i are reduced
    along X^3 = Y into the degree-2n range, and alpha solves the compressed
    system J alpha = v with J = [Lambda(b_i b_j)]."""
    if beta.d != 2 or beta.degree != 6:
        raise ValueError("the curve scenario needs d=2, degree-6 data")
    basis_polys = [Polynomial.monomial(2, idx) for idx in SCENARIO_BASIS]
    j_rows = []
    for bi in basis_polys:
        row = []
        for bj in basis_polys:
            row.append(riesz(beta, bi * bj))
        j_rows.append(row)
    v = []
    for idx in SCENARIO_BASIS:
        prod = tuple(a + b for a, b in zip(SCENARIO_TARGET, idx))
        v.append(beta[_curve_reduce(prod)])
    alpha = _linalg.solve_linear(j_rows, v)
    k = Polynomial.monomial(2, SCENARIO_TARGET)
    for a, b in zip(alpha, basis_polys):
        k = k - b.scale(a)
    return k


def reduced_consistency_test(beta: Multisequence, *,
                             pipe=None) -> ReducedVerdict:
    """Decide measure existence in the curve scenario via Lambda(h).

    Preconditions checked: d=2, degree 6, M(3) PSD with rank 8, pivot basis
    SCENARIO_BASIS (so X^3 = Y is a column relation), finite variety of
    exactly eight points.  Outside the scenario: NotApplicable.  *pipe*, a
    pipeline of beta, lends the stages it has already computed.
    """
    from .pipeline import solver_pipeline  # the pipeline imports this module

    pipe = solver_pipeline(beta, pipe)
    if beta.d != 2 or beta.degree != 6:
        return ReducedVerdict("NotApplicable",
                              reason="scenario needs d=2, degree-6 data")
    if not pipe.psd.ok:
        return ReducedVerdict("NotApplicable", reason="M(3) is not PSD")
    report = pipe.kernel
    if report.rank != 8 or report.pivots != SCENARIO_BASIS:
        return ReducedVerdict(
            "NotApplicable",
            reason=f"scenario needs rank 8 with pivot basis "
                   f"{SCENARIO_BASIS}, got rank {report.rank}")
    variety = pipe.variety
    if variety.status != "Finite" or len(variety.points) != 8:
        return ReducedVerdict(
            "Unknown",
            reason=f"variety status {variety.status} with "
                   f"{len(variety.points)} points; scenario needs 8")

    # Exact route.  The data-derived candidate k solves J alpha = v in
    # rational arithmetic; the first equation of that system already forces
    # Lambda(k) = 0, so the functional value of k itself carries no
    # information.  The discriminator is whether k vanishes on the variety:
    # under any representing measure the compressed system pins k to the
    # interpolation correction h (which vanishes), so a certified
    # non-vanishing point rules a measure out, while vanishing identifies
    # k = h and Lambda(h) = Lambda(k) = 0 settles existence.
    if beta.is_exact:
        k = compute_k_from_extension(beta)
        if _vanishes_on(k, variety):
            return ReducedVerdict("MeasureExists", riesz(beta, k), k)
        h = compute_h(variety.points)
        return ReducedVerdict(
            "NoMeasure", riesz(beta, h), h,
            reason="data-derived correction fails to vanish on the "
                   "variety; any representing measure would force it to")

    h = compute_h(variety.points)
    value = riesz(beta, h)
    status = "MeasureExists" if negligible(value, beta.scale()) \
        else "NoMeasure"
    return ReducedVerdict(status, value, h)


def _vanishes_on(k: Polynomial, variety: VarietyReport) -> bool:
    """Does the exact polynomial k vanish on every variety point?  Exact at
    rational points; at refined irrational points the threshold is tied to
    the refinement width, far below any honest nonzero value."""
    slack = float(_roots.REFINE_WIDTH) * 1e20
    for w, exact_pt in zip(variety.points, variety.exact_mask):
        if exact_pt and k.is_exact:
            if k.evaluate(w) != 0:
                return False
            continue
        scale = max(1.0, sum(
            abs(float(c)) * _monomial_abs(w, idx)
            for idx, c in k.terms.items()))
        if abs(float(k.evaluate(w))) > slack * scale:
            return False
    return True


def _monomial_abs(point, idx) -> float:
    out = 1.0
    for x, e in zip(point, idx):
        out *= abs(float(x)) ** e
    return out


# ---------------------------------------------------------------------------
# simple-zero certificate
# ---------------------------------------------------------------------------

def simple_zero_certificate(r1: Polynomial, r2: Polynomial,
                            points: Sequence[Point]) -> CertificateVerdict:
    """Certify that the two generators meet transversally in exactly
    deg(r1)*deg(r2) simple real points:

    (a) the leading forms share no real zero besides the origin,
    (b) the point count matches the product of the degrees,
    (c) the Jacobian has rank 2 at every point.
    """
    reasons = []
    lf1, lf2 = r1.leading_form(), r2.leading_form()
    if lf1.is_exact and lf2.is_exact:
        g = bivariate_gcd(lf1, lf2)
        if g.degree >= 1 and _form_has_real_zero(g):
            reasons.append("leading forms share a real zero at infinity")
    else:
        reasons.append("leading forms are not exact; zeros at infinity "
                       "not decidable")
    expected = int(r1.degree) * int(r2.degree)
    if len(points) != expected:
        reasons.append(
            f"point count {len(points)} != deg(r1)*deg(r2) = {expected}")
    j11, j12 = r1.partial(0), r1.partial(1)
    j21, j22 = r2.partial(0), r2.partial(1)
    for w in points:
        det = j11.evaluate(w) * j22.evaluate(w) \
            - j12.evaluate(w) * j21.evaluate(w)
        scale = max(1.0, *(abs(float(p.evaluate(w)))
                           for p in (j11, j12, j21, j22)))
        if abs(float(det)) <= RANK_TOL * scale:
            reasons.append(
                f"Jacobian rank < 2 at point "
                f"({float(w[0]):.6g}, {float(w[1]):.6g})")
    return CertificateVerdict(not reasons, tuple(reasons))


def _form_has_real_zero(form: Polynomial) -> bool:
    """Does a nonconstant homogeneous binary form vanish on a real direction?"""
    # Direction (0, 1): the form must be divisible by x.
    if all(i >= 1 for (i, _) in form.terms):
        return True
    # Directions (1, t): real roots of form(1, t).
    top = int(form.degree)
    return _roots.real_root_count(
        [form.coefficient((top - j, j)) for j in range(top + 1)]) > 0
