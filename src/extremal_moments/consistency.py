"""Consistency of moment data with its variety.

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

The paper's curve scenario (column relation X^3 = Y, eight variety points,
basis B = {1, X, Y, X^2, YX, Y^2, YX^2, Y^2X}) needs no special case: its
auxiliary polynomial h, the degree-four correction of Y^2X^2 in span B, is
the relation of Y^2X^2 among those above, and the paper's decision
Lambda(h) = 0 is this check.  Where Lambda(h) != 0, as for the data of the
paper's Theorem 6.2 (fixture ``thm62_a8_8``), h is the first relation that
fails and so the witness."""

from __future__ import annotations

from typing import Optional

from .moments import Multisequence, riesz
from .polycore import (
    Polynomial,
    Scalar,
    clear_denominators,
    is_exact,
    record,
    significant,
    total_degree,
)
from .variety import (
    VarietyReport,
    _relation,
    _relation_images,
    _residual_ok,
    vanishing_ideal,
)


@record
class ConsistencyVerdict:
    status: str  # "Consistent" | "Inconsistent" | "Unknown"
    witness: Optional[Polynomial] = None  # vanishes on V, Lambda(witness) != 0
    value: Optional[Scalar] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "Consistent"


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
        basis, _, scale, _ = variety.quotient
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
