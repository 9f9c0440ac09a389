"""The extremal solver: rank M(n) = card variety, unique atomic candidate.

Pipeline: positivity of M(n), rank/kernel, variety of the kernel (read from
the quotient algebra of the kernel ideal for exact and float data alike, in
any number of variables), the extremal comparison r = v, consistency, then
the Vandermonde system V_B rho = Lambda(B) over the pivot basis for the
densities.  For exact data
the verdict is the paper's theorem: PSD, r = v and the exact consistency
check of the quotient algebra decide, and the densities' residual only
guards the measure (a failure is Unknown); v < r refutes, since r <= v is
necessary.  Float data accepts a candidate
whose moments interpolate the data, and looks for an inconsistency witness
when they do not.  Rational coordinates enter exact densities exactly,
irrational ones as midpoints of isolating intervals of width REFINE_WIDTH.
Supplied points may be only part of the variety, so they never refute;
nor does a singular V_B of a supplied basis: a measure on V makes the
pivot columns independent on V, hence their V_B invertible, but a supplied
basis may be dependent on V whatever the data.
``solve_extremal`` takes the data or its ``Pipeline``, and reads every stage
it needs from that one object.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Sequence

from . import _linalg
from .moments import KernelReport, Multisequence, PsdVerdict, riesz
from .pipeline import Pipeline
from .polycore import (
    JsonInput,
    Point,
    Polynomial,
    Scalar,
    compact_scalar,
    ensure_scalar,
    is_exact,
    negligible,
    record,
    write_json,
)
from .synth import moments_of_atoms
from .variety import VarietyReport, vandermonde_rows


@record
class AtomicMeasure:
    d: int
    atoms: tuple
    densities: tuple

    def __post_init__(self):
        if len(self.atoms) != len(self.densities):
            raise ValueError("atoms and densities differ in length")
        object.__setattr__(self, "atoms",
                           tuple(tuple(ensure_scalar(x) for x in w)
                                 for w in self.atoms))
        object.__setattr__(self, "densities",
                           tuple(ensure_scalar(r) for r in self.densities))

    @property
    def size(self) -> int:
        return len(self.atoms)


@record
class VerificationReport:
    residual: float
    ok: bool
    exact: bool  # residual is identically zero in rational arithmetic
    worst_index: Optional[tuple] = None


@record
class SolveReport:
    status: str  # "Measure" | "NoMeasure" | "NotExtremal" | "Unknown"
    rank: Optional[int] = None
    v: Optional[float] = None  # int, math.inf, or None
    measure: Optional[AtomicMeasure] = None
    residual: Optional[float] = None
    witness: Optional[Polynomial] = None
    value: Optional[Scalar] = None
    reason: Optional[str] = None
    variety: Optional[VarietyReport] = None
    kernel: Optional[KernelReport] = None
    psd: Optional[PsdVerdict] = None
    basis: tuple = ()


def verify_measure(beta: Multisequence,
                   measure: AtomicMeasure) -> VerificationReport:
    """Compare the moments of the measure against beta on every index."""
    if measure.d != beta.d:
        raise ValueError("dimension mismatch between measure and data")
    predicted = moments_of_atoms(beta.d, beta.degree,
                                 measure.atoms, measure.densities)
    residual = 0.0
    worst = None
    exact = True
    for idx, value in predicted.items():
        diff = value - beta[idx]
        if not (is_exact(diff) and diff == 0):
            exact = False
        err = abs(float(diff))
        if err > residual or math.isnan(err):  # a NaN residual sticks
            residual = err
            worst = idx
    return VerificationReport(residual, negligible(residual, beta.scale()),
                              exact, worst)


def solve_extremal(beta: Multisequence | Pipeline,
                   points: Optional[Sequence[Point]] = None,
                   basis: Optional[Sequence] = None) -> SolveReport:
    """Decide solvability in the extremal case and recover the measure.

    *beta* is the data, or its Pipeline, whose computed stages the
    solver reads; supplied *points* become the variety of a new Pipeline
    of the data, so a given Pipeline takes none."""
    if isinstance(beta, Pipeline):
        if points is not None:
            raise ValueError("points cannot be supplied with a Pipeline")
        pipe = beta
    else:
        pipe = Pipeline(beta, points)
    beta = pipe.beta
    psd = pipe.psd
    if not psd.ok:
        return SolveReport("NoMeasure", reason="NotPSD",
                           witness=psd.witness, value=psd.value, psd=psd)
    kernel_report = pipe.kernel
    r = kernel_report.rank
    report = partial(SolveReport, rank=r, kernel=kernel_report, psd=psd)
    variety = pipe.variety
    if variety is None:
        return report("NotExtremal", v=math.inf,
                      reason="M(n) is invertible, so the variety is all of "
                             "R^d")

    report = partial(report, variety=variety)
    if variety.status == "Infinite":
        return report("NotExtremal", v=math.inf, reason="infinite variety",
                      witness=variety.witness)
    if variety.status == "Unknown":
        return report("Unknown", reason=variety.reason)
    v = len(variety.points)
    report = partial(report, v=v)
    if v < r and not beta.is_exact:
        return report("Unknown", reason=f"FloatVarietyBelowRank: rank {r} "
                      f"> float variety cardinality {v}; rounding may have "
                      "merged or lost points")
    if v < r:
        # The paper's necessary condition rank M(n) <= card V fails; an
        # exact variety's count is exact.
        return _refuted(report, pipe, reason=f"RankAboveCardinality: rank "
                        f"{r} > variety cardinality {v}")
    if v > r:
        return report("NotExtremal",
                      reason=f"rank {r} != variety cardinality {v}")

    basis_elems = tuple(basis) if basis is not None else kernel_report.pivots
    if len(basis_elems) != r:
        raise ValueError(f"basis must have {r} elements, got {len(basis_elems)}")
    if beta.is_exact:
        # The paper's theorem: PSD, r = card V and consistency decide.
        if not pipe.consistency.ok:
            return _from_consistency(report, pipe)
    polys, rows = vandermonde_rows(basis_elems, variety.points)
    try:
        densities = _linalg.solve_linear(rows, [riesz(beta, b)
                                                for b in polys])
    except _linalg.SingularMatrixError:
        if basis is not None:  # it may be dependent on V
            return report("Unknown", reason="SingularVB: V_B of the "
                          "supplied basis is singular on the variety; only "
                          "that of the pivot basis refutes")
        return _refuted(report, pipe, reason="SingularVB",
                        witness=pipe.injectivity.witness)
    measure = AtomicMeasure(beta.d, variety.points, tuple(densities))
    verification = verify_measure(beta, measure)
    report = partial(report, residual=verification.residual)
    if not verification.ok:
        # Exact data is consistent here; float data looks for an
        # inconsistency witness on the variety's vanishing ideal.
        if not beta.is_exact and pipe.consistency.status == "Inconsistent":
            return _from_consistency(report, pipe)
        return report("Unknown", reason="interpolation failed without an "
                                        "inconsistency witness")
    if any(rho <= 0 for rho in densities):
        return report("Unknown",
                      reason="interpolation verified but a density is "
                             "nonpositive; numerically inconclusive")
    return report("Measure", measure=measure, basis=polys)


def _from_consistency(report, pipe) -> SolveReport:
    """The verdict of a consistency check that is not Consistent."""
    cons = pipe.consistency
    if cons.status == "Inconsistent":
        return _refuted(report, pipe, reason="Inconsistent",
                        witness=cons.witness, value=cons.value)
    return report("Unknown", reason=cons.reason)


def _refuted(report, pipe, **certificate) -> SolveReport:
    """NoMeasure with its *certificate*, found from the variety; Unknown
    when that is supplied points, which may be only part of V."""
    if pipe.points is not None:
        return report("Unknown", reason=f"{certificate['reason']} at the "
                      "supplied points, which may be only part of the "
                      "variety")
    return report("NoMeasure", **certificate)


# ---------------------------------------------------------------------------
# measure file format
# ---------------------------------------------------------------------------

def load_measure(path, mode: Optional[str] = None) -> AtomicMeasure:
    """Read {"d": d, "atoms": [{"point": [...], "density": ...}]}."""
    f = JsonInput(path, "measure", ("d", "atoms"), mode)
    d = f.integer(f.data["d"], "d", 1)
    atoms = []
    densities = []
    for item in f.array(f.data["atoms"], "atoms"):
        entry = f.object(item, ("point", "density"), "atom")
        atoms.append(f.scalars(entry["point"], "point", d))
        densities.append(f.scalar(entry["density"]))
    return AtomicMeasure(d, tuple(atoms), tuple(densities))


def dump_measure(measure: AtomicMeasure, path) -> None:
    payload = {
        "d": measure.d,
        "atoms": [
            {
                "point": [compact_scalar(x) for x in w],
                "density": compact_scalar(rho),
            }
            for w, rho in zip(measure.atoms, measure.densities)
        ],
    }
    write_json(payload, path)
