"""Consistency of moment data with its variety, and the curve-scenario test.

A multisequence is consistent when every polynomial of degree <= 2n vanishing
on the variety is annihilated by the Riesz functional.  The check runs over
the relations x^a - NF(x^a) of ``variety.vanishing_ideal``.  For exact data
they are read off the normal forms in the quotient algebra modulo the
radical of the kernel ideal, and each is tested as an integer identity
between the image scale**|a| * x^a * 1 of x^a and the moments cleared of
their denominators; only the first relation that fails becomes a
polynomial, the witness.  Float data, supplied points and exact points
beside non-real zeros read the relations from the point-evaluation matrix
W_{2n}.

The reduced test covers the planar curve scenario with column relation
X^3 = Y, eight variety points and basis B = {1, X, Y, X^2, YX, Y^2, YX^2,
Y^2X}: a single auxiliary polynomial h (degree-four correction of Y^2X^2 in
span B, vanishing on the variety) decides existence — a measure exists iff
the functional annihilates h, the relation of Y^2X^2 among those above.
"""

from __future__ import annotations

from typing import Optional, Sequence

# pipeline imports this module: Pipeline is read from it at call time.
from . import _linalg, pipeline
from .moments import Multisequence, riesz
from .polycore import (
    MultiIndex,
    Point,
    Polynomial,
    Scalar,
    clear_denominators,
    is_exact,
    negligible,
    record,
    significant,
    total_degree,
    values_at,
)
from .variety import (
    VarietyReport,
    _relation,
    _relation_images,
    _residual_ok,
    vanishing_ideal,
)

#: Pivot basis of the curve scenario (degree-lex restriction).
SCENARIO_BASIS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2))
#: Target monomial corrected by h in the curve scenario: Y^2 X^2.
SCENARIO_TARGET = (2, 2)


@record
class ConsistencyVerdict:
    status: str  # "Consistent" | "Inconsistent" | "Unknown"
    witness: Optional[Polynomial] = None  # vanishes on V, Lambda(witness) != 0
    value: Optional[Scalar] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "Consistent"


@record
class ReducedVerdict:
    status: str  # "MeasureExists" | "NoMeasure" | "NotApplicable" | "Unknown"
    value: Optional[Scalar] = None  # Lambda(h)
    witness: Optional[Polynomial] = None  # h
    reason: Optional[str] = None


def consistency_check(beta: Multisequence,
                      variety: VarietyReport) -> ConsistencyVerdict:
    """Check Lambda(p) = 0 for every p of degree <= 2n vanishing on the
    variety: the first relation of ``vanishing_ideal`` that Lambda does not
    annihilate is the witness.  Exact data whose relations are read off
    the report's quotient tests each x^a - NF(x^a) as the integer identity
    scale**|a| * B_a = sum_b img_a[b] * B_b, for B the moments times the
    lcm of their denominators and img_a = scale**|a| * x^a * 1 on the
    basis b; only a failing relation becomes a polynomial.  Unknown when
    the variety is not finite (a Finite report with no points is the empty
    set), when the relations need not span the ideal, and when a float
    witness fails ``variety._residual_ok`` at some point."""
    if variety.status != "Finite":
        return ConsistencyVerdict(
            "Unknown",
            reason=f"variety is {variety.status}; the vanishing ideal "
                   "cannot be enumerated from points")
    images = _relation_images(variety, beta.degree, beta.d)
    if images is not None and beta.is_exact:
        basis, _, scale = variety.quotient
        moments = dict(zip(beta.values,
                           clear_denominators(beta.values.values())[0]))
        powers = [scale**e for e in range(beta.degree + 1)]
        for a, image in images.items():
            if powers[total_degree(a)] * moments[a] != sum(
                    x * moments[b] for b, x in zip(basis, image) if x):
                p = _relation(variety.quotient, a, image)
                return ConsistencyVerdict("Inconsistent", p, riesz(beta, p))
        complete = len(basis) == len(variety.points)
    else:
        relations, complete = vanishing_ideal(variety, beta.degree, beta.d)
        scale = beta.scale()
        for p in relations.values():
            value = riesz(beta, p)
            if significant(value, scale):
                if not is_exact(value) and not all(_residual_ok(p, w)
                                                   for w in variety.points):
                    return ConsistencyVerdict(
                        "Unknown", reason="the float witness does not "
                                          "vanish at every variety point")
                return ConsistencyVerdict("Inconsistent", p, value)
    if complete:
        return ConsistencyVerdict("Consistent")
    return ConsistencyVerdict(
        "Unknown", reason="Lambda annihilates the radical of the kernel "
                          "ideal, which has non-real zeros, and refined "
                          "points cannot decide the rest")


# ---------------------------------------------------------------------------
# curve scenario: h from points, and the reduced test
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
    target_poly = Polynomial.monomial(d, target)
    basis_polys = [Polynomial.monomial(d, idx) for idx in basis]
    *columns, rhs = values_at([*basis_polys, target_poly], points)
    alpha = _linalg.solve_linear(_linalg.transpose(columns), rhs)
    h = target_poly
    for a, b in zip(alpha, basis_polys):
        h = h - b.scale(a)
    return h


def reduced_consistency_test(beta) -> ReducedVerdict:
    """Decide measure existence in the curve scenario via Lambda(h).

    Preconditions checked: d=2, degree 6, M(3) PSD with rank 8, pivot basis
    SCENARIO_BASIS (so X^3 = Y is a column relation), finite variety of
    exactly eight points.  Outside the scenario: NotApplicable.  *beta* is
    the data, or a Pipeline of it whose computed stages the test reads.
    """
    pipe = pipeline.Pipeline.of(beta)
    beta = pipe.beta
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

    # h = X^2Y^2 - NF(X^2Y^2) is the relation that reduces the target over
    # the pivots before it.  It vanishes on the variety, so Lambda(h) != 0
    # rules a measure out; when those pivots are the scenario basis and the
    # relations span the vanishing ideal, h is the interpolation correction
    # and Lambda(h) = 0 settles existence.
    relations, complete = vanishing_ideal(variety, sum(SCENARIO_TARGET), 2)
    h = relations.get(SCENARIO_TARGET)
    if h is None or not set(h.terms) <= {*SCENARIO_BASIS, SCENARIO_TARGET}:
        return ReducedVerdict("Unknown", reason="Y^2X^2 has no normal form "
                                                "over the scenario basis")
    value = riesz(beta, h)
    if not negligible(value, beta.scale()):
        return ReducedVerdict("NoMeasure", value, h, reason="Lambda(h) != 0 "
                              "for the correction h vanishing on the variety")
    if not complete:
        return ReducedVerdict("Unknown", value, h, reason="non-real zeros")
    return ReducedVerdict("MeasureExists", value, h)
