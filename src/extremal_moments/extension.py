"""Rank-preserving and recursively generated extensions M(n) -> M(n+1).

Propagation treats every kernel element p as a column relation that must
persist: in M(n+1) each column x^u*p with deg(u*p) <= n+1 must vanish
against each row x^t of degree <= n+1, so the functional must annihilate
every product x^s*p with deg(s) <= 2n+2 - deg p, each one row of
``moments.macaulay_rows``, written once.  A worklist solves these
equations for the unknown degree 2n+1 and 2n+2 moments; a moment is well
defined only when *every* derivation path agrees, and a disagreement is a
certificate that no representing measure exists (a measure supported on
the kernel's variety would satisfy all paths).  The
extended matrix is rebuilt from the extended multisequence, so it is Hankel
by construction; it is the ``extended`` Pipeline's ``matrix``, and a step's
flatness compares that pipeline's kernel rank with the rank of M(n).  The
search ends ``NotPSD`` before any step when M(n) itself is not PSD.
"""

from __future__ import annotations

from typing import Optional

from . import _linalg
from .moments import (
    FlatnessVerdict,
    KernelReport,
    MomentMatrix,
    Multisequence,
    PsdVerdict,
    macaulay_rows,
    rank_kernel,
)
from .pipeline import Pipeline
from .polycore import (
    RANK_TOL,
    Polynomial,
    Scalar,
    is_exact,
    magnitude,
    monomial_basis,
    record,
    significant,
    total_degree,
)
from .synth import Derivation


@record
class ExtensionReport:
    source_n: int
    well_defined: bool
    conflicts: tuple      # (kernel poly p, shift s, value) per x^s*p
    undetermined: tuple   # moment indices left undetermined
    extended: Optional[Pipeline] = None  # stages of M(n+1) when determined
    flat: Optional[FlatnessVerdict] = None
    psd: Optional[PsdVerdict] = None


@record
class TightnessVerdict:
    status: str  # "Tight" | "NotTight" | "Inconclusive"
    dim_next: int   # dim of the degree <= n+1 kernel of M(n+1)
    bound: int      # rank of the monomial-multiple span of ker M(n)
    witness: Optional[Polynomial] = None
    value: Optional[Scalar] = None
    reason: Optional[str] = None


@record
class ExtensionSearchReport:
    steps: tuple
    status: str  # "FlatAt" | "IllDefined" | "Undetermined" | "NotPSD" | "Exhausted"
    flat_level: Optional[int] = None
    final: Optional[Pipeline] = None  # stages of the last matrix reached

    @property
    def beta_final(self) -> Optional[Multisequence]:
        return self.final.beta if self.final else None


def propagate_recursive_extension(matrix: MomentMatrix,
                                  report: KernelReport) -> ExtensionReport:
    """Determine the degree 2n+1 and 2n+2 moments forced by the column
    relations, checking that all derivation paths agree."""
    d, n = matrix.d, matrix.n
    beta = matrix.beta
    known = dict(beta.values)

    # A row's nonzero entries, in column order, are p's terms in p's own
    # (degree-lex) order, so each dot below sums them in that order.
    columns = monomial_basis(d, 2 * n + 2)
    elements = [(p, 2 * n + 2 - int(p.degree)) for p in report.kernel]
    shifts = [(p, s) for p, k in elements for s in monomial_basis(d, k)]
    equations = [({columns[j]: c for j, c in enumerate(row) if c}, source)
                 for row, source in zip(macaulay_rows(elements, columns,
                                                      False), shifts)]

    changed = True
    while changed:
        changed = False
        for coeffs, _source in equations:
            missing = [idx for idx in coeffs if idx not in known]
            if len(missing) != 1:
                continue
            target = missing[0]
            c0 = coeffs[target]
            if not is_exact(c0) and abs(float(c0)) <= RANK_TOL:
                continue
            others = [idx for idx in coeffs if idx != target]
            rest = _linalg.dot(map(coeffs.get, others), map(known.get, others))
            known[target] = -rest / c0
            changed = True

    wanted = [idx for idx in columns if total_degree(idx) > 2 * n]
    undetermined = tuple(idx for idx in wanted if idx not in known)

    scale = magnitude(known.values())
    conflicts = []
    for coeffs, source in equations:
        if any(idx not in known for idx in coeffs):
            continue
        value = _linalg.dot(coeffs.values(), map(known.__getitem__, coeffs))
        if significant(value, scale):
            conflicts.append((*source, value))

    well_defined = not conflicts and not undetermined
    if undetermined:
        return ExtensionReport(n, well_defined, tuple(conflicts), undetermined)
    # The M(n) block of M(n+1) is *matrix* itself, so flatness compares the
    # two kernel ranks.
    extended = Pipeline(Multisequence(d, 2 * n + 2, known))
    rank = extended.kernel.rank
    return ExtensionReport(n, well_defined, tuple(conflicts), undetermined,
                           extended, FlatnessVerdict(rank == report.rank,
                                                     rank, report.rank),
                           extended.psd)


def tightness_check(m_n: MomentMatrix, m_n1: MomentMatrix,
                    derivation: Optional[Derivation] = None
                    ) -> TightnessVerdict:
    """Compare the degree <= n+1 kernel of M(n+1) against the span of
    monomial multiples of ker M(n) (a lower bound for the degree-(n+1) part
    of the generated ideal).  Equality certifies tightness.  A supplied
    derivation that annihilates every kernel element of M(n) but not some
    kernel element of M(n+1) certifies the opposite."""
    k_n = rank_kernel(m_n)
    k_n1 = rank_kernel(m_n1)
    dim_next = k_n1.nullity
    bound = _linalg.row_reduce(macaulay_rows(
        [(p, m_n.n + 1 - int(p.degree)) for p in k_n.kernel], m_n1.basis,
        False)).rank

    witness = None
    value = None
    if derivation is not None:
        valid = True
        for p in k_n.kernel:
            at_point = p.evaluate(derivation.point)
            derived = derivation.apply(p)
            if significant(at_point) or significant(derived):
                valid = False
                break
        if valid:
            for q in k_n1.kernel:
                derived = derivation.apply(q)
                if significant(derived):
                    witness = q
                    value = derived
                    break
        else:
            derivation = None  # unusable witness generator

    if witness is not None:
        # A tight extension cannot coexist with a derivation witness.
        assert bound < dim_next, \
            "derivation witness contradicts an exact tightness bound"
        return TightnessVerdict("NotTight", dim_next, bound, witness, value)
    if bound == dim_next:
        return TightnessVerdict("Tight", dim_next, bound)
    return TightnessVerdict(
        "Inconclusive", dim_next, bound,
        reason="monomial-multiple span is smaller than the kernel and no "
               "derivation witness was supplied" if derivation is None
        else "derivation annihilates every kernel element of M(n+1)")


def extension_search(beta: Multisequence,
                     max_steps: int = 3) -> ExtensionSearchReport:
    """Iterate recursive propagation until a flat extension, a certificate,
    or exhaustion of the step budget; an M(n) that is not PSD is the
    certificate before any step.  Each step's M(n+1) pipeline is the next
    step's M(n) and, at a flat extension, the handoff solve's input."""
    current = Pipeline(beta)
    if not current.psd.ok:
        return ExtensionSearchReport((), "NotPSD", None, current)
    steps = []
    for _ in range(max_steps):
        if current.kernel.nullity == 0:
            return ExtensionSearchReport(
                tuple(steps), "Undetermined", None, current)
        ext = propagate_recursive_extension(current.matrix, current.kernel)
        steps.append(ext)
        if ext.conflicts:
            return ExtensionSearchReport(tuple(steps), "IllDefined",
                                         None, current)
        if ext.undetermined:
            return ExtensionSearchReport(tuple(steps), "Undetermined",
                                         None, current)
        if not ext.psd.ok:
            return ExtensionSearchReport(tuple(steps), "NotPSD",
                                         None, ext.extended)
        if ext.flat.flat:
            return ExtensionSearchReport(tuple(steps), "FlatAt",
                                         current.matrix.n + 1, ext.extended)
        current = ext.extended
    return ExtensionSearchReport(tuple(steps), "Exhausted", None, current)
