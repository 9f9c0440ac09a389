"""Moment multisequences, the Riesz functional, and moment matrices.

A multisequence of degree 2n in d variables assigns a scalar to every
exponent tuple of total degree <= 2n.  The Riesz functional extends it
linearly to polynomials; the moment matrix M(n) is indexed by monomials of
degree <= n with entries beta[i + j], so that <M(n) p, q> equals the
functional applied to p*q (a Hankel-type structure: each entry is looked
up by its index sum, so equal sums can never disagree).

Kernel polynomials p come from one reader,
``LinearReduction.kernel_polynomials``, and their products x^s * p from
one builder, ``macaulay_rows``, which recursiveness here, ``extension``
and ``variety`` read.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from . import _linalg
from .polycore import (
    InputError,
    JsonInput,
    Polynomial,
    Scalar,
    all_exact,
    clear_denominators,
    ensure_scalar,
    field,
    format_scalar,
    in_float_range,
    magnitude,
    monomial_basis,
    record,
    significant,
    total_degree,
    write_json,
)

# ---------------------------------------------------------------------------
# multisequences
# ---------------------------------------------------------------------------

@record
class Multisequence:
    """Complete moment data: every |idx| <= degree has a value."""

    d: int
    degree: int
    values: Mapping
    #: Whether every value is exact, decided once from the normalised values.
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise InputError(f"d must be >= 1, got {self.d}")
        if self.degree < 0 or self.degree % 2 != 0:
            raise InputError(f"degree must be even and >= 0, got {self.degree}")
        clean = {}
        for idx, value in self.values.items():
            idx = tuple(int(e) for e in idx)
            if len(idx) != self.d or any(e < 0 for e in idx):
                raise InputError(f"bad moment index {idx} for d={self.d}")
            if total_degree(idx) > self.degree:
                raise InputError(
                    f"moment index {idx} exceeds degree {self.degree}")
            clean[idx] = ensure_scalar(value)
        # Distinct valid indices, as many as there are: so none is missing.
        # Counting lists no index, however large a d the data claims.
        needed = math.comb(self.d + self.degree, self.degree)
        if len(clean) != needed:
            raise InputError(f"{len(clean)} moments given, but d={self.d} "
                             f"and degree={self.degree} need {needed}")
        object.__setattr__(self, "values", clean)
        object.__setattr__(self, "is_exact", all_exact(clean.values()))

    @property
    def n(self) -> int:
        return self.degree // 2

    def __getitem__(self, idx) -> Scalar:
        return self.values[tuple(idx)]

    def scale(self) -> float:
        """Magnitude reference for relative tolerances."""
        return magnitude(self.values.values())


def multisequence_combine(parts: Sequence, coeffs: Sequence) -> Multisequence:
    """Scalar linear combination of multisequences of equal shape."""
    if not parts:
        raise ValueError("need at least one multisequence")
    d, degree = parts[0].d, parts[0].degree
    for p in parts:
        if (p.d, p.degree) != (d, degree):
            raise ValueError("multisequence shapes differ")
    return Multisequence(d, degree, {
        idx: _linalg.dot(map(ensure_scalar, coeffs),
                         (part[idx] for part in parts))
        for idx in monomial_basis(d, degree)})


def riesz(beta: Multisequence, p: Polynomial) -> Scalar:
    """Apply the Riesz functional of *beta* to *p*."""
    if p.d != beta.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {beta.d}")
    if p.degree > beta.degree:
        raise ValueError(
            f"polynomial degree {p.degree} exceeds data degree {beta.degree}")
    return _linalg.dot(p.terms.values(), map(beta.__getitem__, p.terms))


# ---------------------------------------------------------------------------
# moment matrices
# ---------------------------------------------------------------------------

@record
class MomentMatrix:
    """M(n): rows/columns indexed by monomials of degree <= n."""

    beta: Multisequence
    n: int
    basis: tuple  # MultiIndex labels, degree-lex
    rows: tuple   # square array of Scalars

    @property
    def d(self) -> int:
        return self.beta.d

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def is_exact(self) -> bool:
        return self.beta.is_exact


def build_moment_matrix(beta: Multisequence) -> MomentMatrix:
    """Assemble M(n) from *beta*, n = degree // 2."""
    basis = tuple(monomial_basis(beta.d, beta.n))
    rows = tuple(tuple(beta[tuple(a + b for a, b in zip(i, j))]
                       for j in basis) for i in basis)
    return MomentMatrix(beta, beta.n, basis, rows)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@record
class PsdVerdict:
    status: str  # "PSD" | "NotPSD"
    witness: Optional[Polynomial] = None  # Lambda(witness^2) < 0 when NotPSD
    value: Optional[Scalar] = None

    @property
    def ok(self) -> bool:
        return self.status == "PSD"


@record
class KernelReport:
    d: int
    n: int
    basis: tuple   # matrix column labels
    rank: int
    pivots: tuple  # pivot monomials (MultiIndex), the first independent columns
    kernel: tuple  # Polynomials in delta form: unit coefficient on a free monomial
    #: Exact M(n): is M(n) >= 0, read off the elimination that found the
    #: kernel (``_linalg._positive_diagonal``)?  None for float M(n).
    psd: Optional[bool] = field(default=None, repr=False, compare=False)

    @property
    def nullity(self) -> int:
        return len(self.kernel)

    @property
    def free(self) -> tuple:
        """The free monomials in column order: kernel[i] has coefficient 1
        on free[i]."""
        return tuple(m for m in self.basis if m not in self.pivots)


@record
class RecursivenessVerdict:
    status: str  # "RecursivelyGenerated" | "Violation"
    violation: Optional[tuple] = None  # (p, multiplier, product)

    @property
    def ok(self) -> bool:
        return self.status == "RecursivelyGenerated"


@record
class FlatnessVerdict:
    flat: bool
    rank: int
    rank_previous: int


def psd_check(matrix: MomentMatrix,
              kernel: Optional[KernelReport] = None) -> PsdVerdict:
    """Decide M(n) >= 0; NotPSD carries a polynomial witness with
    Lambda(witness^2) < 0 (exact witness in exact mode).  An exact M(n)
    reads the decision from *kernel*, its ``rank_kernel``, if given, and
    eliminates again only to build a witness."""
    if matrix.is_exact:
        if kernel is not None and kernel.psd:
            return PsdVerdict("PSD")
        pivots = None if kernel is None else [
            matrix.basis.index(m) for m in kernel.pivots]
        ok, vec = _linalg.psd_exact(matrix.rows, pivots)
    else:
        ok, vec = _linalg.psd_float(matrix.rows)
    if ok:
        return PsdVerdict("PSD")
    witness = Polynomial(matrix.d, dict(zip(matrix.basis, vec)))
    value = _linalg.dot(vec, _linalg.mat_vec(matrix.rows, vec))
    return PsdVerdict("NotPSD", witness, value)


def rank_kernel(matrix: MomentMatrix) -> KernelReport:
    """Rank, pivot monomials (first independent columns in degree-lex), and a
    kernel basis in delta form."""
    reduction = _linalg.row_reduce(matrix.rows)
    return KernelReport(matrix.d, matrix.n, matrix.basis, reduction.rank,
                        tuple(matrix.basis[j] for j in reduction.pivots),
                        tuple(reduction.kernel_polynomials(matrix.basis)),
                        reduction.positive_diagonal)


def macaulay_rows(elements, columns, integers: bool) -> list:
    """One row x^s * p over the monomial *columns* for each ``(p, k)`` of
    *elements* and each shift s of degree <= k, in that order and s in
    degree-lex order: the kernel products that recursiveness, propagation,
    tightness and the quotient algebra read.  Exponents are coded as
    integers in base top + 1, top the highest column degree, so that
    x^s * x^a has the code code(s) + code(a): each p's support is coded
    once, and each row is filled by integer adds and lookups.  A row holds
    p's coefficients, cleared of their denominators with *integers*."""
    base = 1 + max(map(sum, columns))

    def code(a) -> int:
        value = 0
        for e in a:
            value = value * base + e
        return value

    where = {code(m): j for j, m in enumerate(columns)}
    rows = []
    for p, k in elements:
        coeffs = clear_denominators(p.terms.values())[0] if integers \
            else list(p.terms.values())
        support = list(zip(map(code, p.terms), coeffs))
        for s in map(code, monomial_basis(p.d, k)):
            row = [0] * len(columns)
            for a, c in support:
                row[where[s + a]] = c
            rows.append(row)
    return rows


def recursiveness_check(matrix: MomentMatrix,
                        report: KernelReport) -> RecursivenessVerdict:
    """Check that p in ker M(n) forces (u*p) in ker M(n) for every monomial u
    with deg(u*p) <= n: M(n) times each row x^s * p, s != 0, vanishes."""
    scale = matrix.beta.scale()  # M(n) holds every moment
    elements = [(p, matrix.n - int(p.degree)) for p in report.kernel]
    shifts = [(p, s) for p, k in elements for s in monomial_basis(matrix.d, k)]
    for (p, s), row in zip(shifts, macaulay_rows(elements, matrix.basis,
                                                 False)):
        if any(s) and any(significant(x, scale)
                          for x in _linalg.mat_vec(matrix.rows, row)):
            u = Polynomial.monomial(matrix.d, s)
            return RecursivenessVerdict("Violation", (p, u, u * p))
    return RecursivenessVerdict("RecursivelyGenerated")


def _flatness(matrix: MomentMatrix, rank_n: int) -> FlatnessVerdict:
    """Flatness of M(n), given its rank, against its M(n-1) block."""
    prev_size = len(monomial_basis(matrix.d, matrix.n - 1))
    block = [row[:prev_size] for row in matrix.rows[:prev_size]]
    rank_prev = _linalg.row_reduce(block).rank
    return FlatnessVerdict(rank_n == rank_prev, rank_n, rank_prev)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def load_multisequence(path, mode: Optional[str] = None) -> Multisequence:
    """Read the moments file format: {"d", "degree", "moments": [{"idx", "value"}]}.

    Values parse as exact rationals ("p/q", integers) or floats (decimals);
    mode "exact"/"float" forces the scalar type.
    """
    f = JsonInput(path, "moments", ("d", "degree", "moments"), mode)
    d = f.integer(f.data["d"], "d", 1)
    values = {}
    for item in f.array(f.data["moments"], "moments"):
        entry = f.object(item, ("idx", "value"), "moment entry")
        idx = tuple(f.integer(e, "index entry")
                    for e in f.array(entry["idx"], "idx", d))
        if idx in values:
            raise f.error(f"duplicate index {idx}")
        values[idx] = f.scalar(entry["value"])
    return Multisequence(d, f.integer(f.data["degree"], "degree"), values)


def dump_multisequence(beta: Multisequence, path=None) -> None:
    """Write the moments file of *beta*, to stdout when *path* is None;
    every value round-trips exactly.  A value that is not a finite float
    once converted is an ``InputError`` and nothing is written: the loader
    would reject it."""
    for idx, value in beta.values.items():
        if not in_float_range(value):
            raise InputError(f"moment {idx} is not finite or lies beyond "
                             f"the float range")
    moments = [
        {"idx": list(idx), "value": format_scalar(beta[idx])}
        for idx in monomial_basis(beta.d, beta.degree)
    ]
    payload = {"d": beta.d, "degree": beta.degree, "moments": moments}
    write_json(payload, path)
