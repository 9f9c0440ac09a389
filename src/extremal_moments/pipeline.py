"""The decision chain for one data set, each stage computed once.

The paper decides a truncated moment problem along one chain: positivity of
M(n), its column relations, the variety V, the extremal comparison
rank M(n) = card V, then consistency.  A ``Pipeline`` holds that chain for
one beta: each stage is computed by its module-level function on
first use and kept, so every subcommand reads M(n), its kernel and the
variety from one object and no stage runs twice for a command.  Supplied
points take the place of the computed variety; every later stage reads
them the same way.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .consistency import ConsistencyVerdict, consistency_check
from .moments import (
    FlatnessVerdict,
    KernelReport,
    MomentMatrix,
    Multisequence,
    PsdVerdict,
    RecursivenessVerdict,
    _flatness,
    build_moment_matrix,
    psd_check,
    rank_kernel,
    recursiveness_check,
)
from .polycore import Point
from .variety import (
    InjectivityVerdict,
    VarietyReport,
    adopt_points,
    compute_variety,
    injectivity_check,
)


class Pipeline:
    """Lazily evaluated stages of M(n) for *beta*; supplied *points* are
    its variety once they satisfy every kernel relation."""

    def __init__(self, beta: Multisequence,
                 points: Optional[Sequence[Point]] = None):
        self.beta = beta
        self.points = points

    @cached_property
    def matrix(self) -> MomentMatrix:
        return build_moment_matrix(self.beta)

    @cached_property
    def psd(self) -> PsdVerdict:
        """Exact M(n) reads the decision off its kernel stage's
        elimination."""
        return psd_check(self.matrix,
                         self.kernel if self.matrix.is_exact else None)

    @cached_property
    def kernel(self) -> KernelReport:
        return rank_kernel(self.matrix)

    @cached_property
    def recursiveness(self) -> RecursivenessVerdict:
        return recursiveness_check(self.matrix, self.kernel)

    @cached_property
    def flatness(self) -> Optional[FlatnessVerdict]:
        """M(n) against its M(n-1) block; None for n = 0."""
        if self.matrix.n < 1:
            return None
        return _flatness(self.matrix, self.kernel.rank)

    @cached_property
    def variety(self) -> Optional[VarietyReport]:
        """The supplied points, or the zero set of the kernel in any d;
        None when neither is there (no points and a trivial kernel)."""
        if self.points is not None:
            return adopt_points(self.kernel, self.points)
        if self.kernel.nullity == 0:
            return None
        return compute_variety(list(self.kernel.kernel))

    @cached_property
    def consistency(self) -> Optional[ConsistencyVerdict]:
        if self.variety is None:
            return None
        return consistency_check(self.beta, self.variety)

    @cached_property
    def injectivity(self) -> Optional[InjectivityVerdict]:
        """Do the variety's point evaluations separate the columns of M(n)?
        None unless the variety is a nonempty finite set."""
        variety = self.variety
        if variety is None or variety.status != "Finite" \
                or not variety.points:
            return None
        return injectivity_check(self.kernel, variety)
