"""Synthesis of moment data: atomic combinations, signed functionals with a
first-order derivation term, and the complex unit-circle family with its
transform to real planar moments.

Complex moments gamma[(i, j)] carry the conjugate exponent first:
gamma[(i, j)] applies the underlying functional to conj(z)^i * z^j.  Values
are (real, imaginary) scalar pairs so that exact rational data stays exact
through the transform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import _linalg
from .moments import Multisequence
from .polycore import (
    InputError,
    JsonInput,
    Polynomial,
    Scalar,
    all_exact,
    clear_denominators,
    ensure_scalar,
    is_exact,
    monomial_basis,
    record,
    values_at,
)


# ---------------------------------------------------------------------------
# atomic combinations and signed functionals
# ---------------------------------------------------------------------------

def moments_of_atoms(d: int, degree: int, atoms, densities) -> dict:
    """Raw moment dict of a finitely-atomic (possibly signed) combination.

    Exact atoms and densities are summed in integers: each coordinate over
    its common denominator and the densities over theirs, with one power
    table per atom and coordinate, and one Fraction per moment.  Any float
    takes the Scalar loop, whose operations fix the float results."""
    basis = monomial_basis(d, degree)
    if not (len(atoms) == len(densities) and all_exact(densities)
            and all(len(w) == d and all_exact(w) for w in atoms)):
        return _moments_of_scalar_atoms(basis, atoms, densities)
    weights, den = clear_denominators(densities)
    tables, scales = [], []
    for coords in zip(*atoms):
        nums, scale = clear_denominators(coords)
        tables.append([[x**e for e in range(degree + 1)] for x in nums])
        scales.append([scale**e for e in range(degree + 1)])
    values = {}
    for idx in basis:
        total = 0
        for atom, term in enumerate(weights):
            for table, e in zip(tables, idx):
                term *= table[atom][e]
            total += term
        scale = den
        for powers, e in zip(scales, idx):
            scale *= powers[e]
        values[idx] = Fraction(total, scale)
    return values


def _moments_of_scalar_atoms(basis, atoms, densities) -> dict:
    values = {}
    for idx in basis:
        total: Scalar = Fraction(0)
        for w, rho in zip(atoms, densities):
            term = ensure_scalar(rho)
            for x, e in zip(w, idx):
                if e:
                    try:
                        term = term * ensure_scalar(x)**e
                    except OverflowError:
                        raise InputError(f"moment {idx} overflows the "
                                         f"float range") from None
            total = total + term
        values[idx] = total
    return values


def beta_from_atoms(atoms: Sequence, densities: Sequence,
                    d: Optional[int] = None,
                    degree: int = 2) -> Multisequence:
    """Moments through the given degree of sum(densities[i] * delta at
    atoms[i]); negative weights are allowed (signed combinations)."""
    if not atoms:
        raise InputError("need at least one atom")
    if len(atoms) != len(densities):
        raise ValueError("atoms and densities differ in length")
    if d is None:
        d = len(atoms[0])
    return Multisequence(d, degree, moments_of_atoms(d, degree, atoms, densities))


@record
class Derivation:
    """First-order term a0 * <direction, grad p>(point)."""

    point: tuple
    direction: tuple
    a0: Scalar = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "point",
                           tuple(ensure_scalar(x) for x in self.point))
        object.__setattr__(self, "direction",
                           tuple(ensure_scalar(x) for x in self.direction))
        object.__setattr__(self, "a0", ensure_scalar(self.a0))

    def apply(self, p: Polynomial) -> Scalar:
        axes = [i for i, c in enumerate(self.direction) if c != 0]
        grad = values_at([p.partial(i) for i in axes], [self.point])
        return self.a0 * _linalg.dot([self.direction[i] for i in axes],
                                     [row[0] for row in grad])


@record
class SignedFunctional:
    """sum_i weights[i] * evaluation at atoms[i], plus an optional
    derivation term."""

    d: int
    atoms: tuple
    weights: tuple
    derivation: Optional[Derivation] = None

    def __post_init__(self):
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights differ in length")
        object.__setattr__(self, "atoms",
                           tuple(tuple(ensure_scalar(x) for x in w)
                                 for w in self.atoms))
        object.__setattr__(self, "weights",
                           tuple(ensure_scalar(w) for w in self.weights))

    def apply(self, p: Polynomial) -> Scalar:
        total = _linalg.dot(self.weights, values_at([p], self.atoms)[0])
        if self.derivation is not None:
            total = total + self.derivation.apply(p)
        return total


def beta_from_functional(functional: SignedFunctional,
                         degree: int) -> Multisequence:
    """Moments of a signed functional through the given degree."""
    values = {}
    for idx in monomial_basis(functional.d, degree):
        values[idx] = functional.apply(
            Polynomial.monomial(functional.d, idx))
    return Multisequence(functional.d, degree, values)


# ---------------------------------------------------------------------------
# complex family on the unit circle
# ---------------------------------------------------------------------------

@record
class ComplexMomentData:
    """Complex moments gamma[(i, j)] = functional of conj(z)^i z^j for
    i + j <= 2n, stored as (real, imag) scalar pairs; must be hermitian."""

    n: int
    values: Mapping

    def __post_init__(self):
        clean = {}
        for key, pair in self.values.items():
            i, j = int(key[0]), int(key[1])
            if i < 0 or j < 0 or i + j > 2 * self.n:
                raise InputError(f"bad complex moment index {(i, j)}")
            re, im = pair
            clean[(i, j)] = (ensure_scalar(re), ensure_scalar(im))
        for i in range(2 * self.n + 1):
            for j in range(2 * self.n + 1 - i):
                if (i, j) not in clean:
                    raise InputError(f"missing complex moment {(i, j)}")
                re, im = clean[(i, j)]
                re2, im2 = clean[(j, i)]
                if re != re2 or im != -im2:
                    raise InputError(
                        f"complex moments are not hermitian at {(i, j)}")
        object.__setattr__(self, "values", clean)

    def __getitem__(self, key):
        return self.values[tuple(key)]


def example14_gamma(n: int, a) -> ComplexMomentData:
    """The one-parameter circle family: gamma_ii = 1, the two conjugate
    extremes gamma_{0,2n-1} = gamma_{2n-1,0} = a and gamma_{0,2n} =
    gamma_{2n,0} = 1 - a^2, everything else zero."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    a = ensure_scalar(a)
    zero = (Fraction(0), Fraction(0))
    values = {}
    for i in range(2 * n + 1):
        for j in range(2 * n + 1 - i):
            values[(i, j)] = zero
    for i in range(n + 1):
        values[(i, i)] = (Fraction(1), Fraction(0))
    values[(0, 2 * n - 1)] = (a, Fraction(0))
    values[(2 * n - 1, 0)] = (a, Fraction(0))
    values[(0, 2 * n)] = (1 - a * a, Fraction(0))
    values[(2 * n, 0)] = (1 - a * a, Fraction(0))
    return ComplexMomentData(n, values)


def _rotate_neg_i(pair, times: int):
    """Multiply the complex pair by (-i)^times."""
    re, im = pair
    for _ in range(times % 4):
        re, im = im, -re
    return re, im


def complex_to_real(gamma: ComplexMomentData) -> Multisequence:
    """Real moments of x = (z + conj z)/2, y = (z - conj z)/(2i).

    beta[(k, j)] = 2^-(k+j) * (-i)^j * sum_{s,t} C(k,s) C(j,t) (-1)^(j-t)
                   gamma[(k-s)+(j-t), s+t]; hermitian data makes every
    imaginary part vanish, which is asserted.
    """
    n = gamma.n
    values = {}
    for k, j in monomial_basis(2, 2 * n):
        re_acc, im_acc = Fraction(0), Fraction(0)
        for s in range(k + 1):
            for t in range(j + 1):
                c = math.comb(k, s) * math.comb(j, t) * (-1) ** (j - t)
                re, im = gamma[((k - s) + (j - t), s + t)]
                re_acc = re_acc + c * re
                im_acc = im_acc + c * im
        re_acc, im_acc = _rotate_neg_i((re_acc, im_acc), j)
        scale = Fraction(1, 2 ** (k + j))
        re_acc, im_acc = scale * re_acc, scale * im_acc
        if is_exact(im_acc):
            if im_acc != 0:
                raise InputError(
                    f"transform of non-hermitian data: residual imaginary "
                    f"part at beta[{(k, j)}]")
        elif abs(float(im_acc)) > 1e-9 * max(1.0, abs(float(re_acc))):
            raise InputError(
                f"transform of non-hermitian data: residual imaginary "
                f"part at beta[{(k, j)}]")
        values[(k, j)] = re_acc
    return Multisequence(2, 2 * n, values)


# ---------------------------------------------------------------------------
# functional file format
# ---------------------------------------------------------------------------

def load_functional(path, mode: Optional[str] = None) -> SignedFunctional:
    """Read {"d", "atoms", "weights", "derivation"?: {"a0", "point",
    "direction"}} with scalar strings."""
    f = JsonInput(path, "functional", ("d", "atoms", "weights"), mode)
    d = f.integer(f.data["d"], "d", 1)
    atoms = tuple(f.scalars(raw, "atom", d)
                  for raw in f.array(f.data["atoms"], "atoms"))
    weights = f.scalars(f.data["weights"], "weights", len(atoms))
    derivation = None
    if f.data.get("derivation") is not None:
        block = f.object(f.data["derivation"], ("a0", "point", "direction"),
                         "derivation")
        derivation = Derivation(
            f.scalars(block["point"], "derivation point", d),
            f.scalars(block["direction"], "derivation direction", d),
            f.scalar(block["a0"]))
    return SignedFunctional(d, atoms, weights, derivation)

