"""Univariate real-root location.

Exact path: Sturm chains with a power-of-two Cauchy bound, bisection down to a
requested interval width, and exact detection of roots hit by a (dyadic)
bisection midpoint — such roots are returned as exact rationals and deflated
before continuing.  Signs along the chain are evaluated in integers.  Float
path: numpy companion-matrix roots with Newton polish and near-real filtering.

Coefficient lists are ascending: ``coeffs[i]`` multiplies ``x**i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polycore import MERGE_TOL, clear_denominators

#: Interval width for high-precision refinement of irrational roots, so of
#: every irrational variety coordinate.  Wide enough margins survive
#: Vandermonde solves with condition numbers near 1e8 while keeping
#: densities of order 1e-10 at the correct sign.
REFINE_WIDTH = Fraction(1, 10**40)

# ---------------------------------------------------------------------------
# exact polynomial helpers (ascending Fraction coefficient lists)
# ---------------------------------------------------------------------------

def strip(coeffs):
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(coeffs) -> int:
    return len(coeffs) - 1


def horner(coeffs, x):
    total = Fraction(0) if isinstance(x, Fraction) else 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def poly_divmod(num, den):
    num = list(num)
    den = strip(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        coeff = num[i + len(den) - 1] / den[-1]
        quot[i] = coeff
        if coeff != 0:
            for j, d in enumerate(den):
                num[i + j] -= coeff * d
    return quot, strip(num)


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over the rationals."""
    a, b = strip(a), strip(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def squarefree_part(coeffs):
    """p / gcd(p, p'); returns (squarefree_coeffs, had_multiple_roots)."""
    coeffs = strip(coeffs)
    if degree(coeffs) <= 1:
        return coeffs, False
    g = poly_gcd(coeffs, derivative(coeffs))
    if degree(g) == 0:
        return coeffs, False
    sf, rem = poly_divmod(coeffs, g)
    assert not rem
    return strip(sf), True


# ---------------------------------------------------------------------------
# Sturm isolation
# ---------------------------------------------------------------------------

def sturm_chain(coeffs):
    """Sturm chain of *coeffs* with each member cleared of denominators: a
    positive multiple, so every sign along the chain is kept."""
    chain = [strip(coeffs), strip(derivative(coeffs))]
    while chain[-1]:
        _, rem = poly_divmod(chain[-2], chain[-1])
        rem = strip(rem)
        if not rem:
            break
        chain.append([-c for c in rem])
    return [clear_denominators(c)[0] for c in chain if c]


def _values_at(chain, x) -> list:
    """den**m * p(num/den) for each integer polynomial p of degree m in
    *chain*: the signs of p at x = num/den, by integer Horner."""
    num, den = x.numerator, x.denominator
    powers = [1]
    for _ in range(max(map(len, chain)) - 1):
        powers.append(powers[-1] * den)
    values = []
    for ints in chain:
        m = len(ints) - 1
        total = 0
        for i in range(m, -1, -1):
            total = total * num + ints[i] * powers[m - i]
        values.append(total)
    return values


def sign_variations(chain, x) -> int:
    """Sign changes along a ``sturm_chain`` at the rational x."""
    signs = [v > 0 for v in _values_at(chain, Fraction(x)) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_bound(coeffs) -> Fraction:
    """Power-of-two bound B with every real root in (-B, B); dyadic so all
    bisection midpoints are dyadic and exact rational roots get detected."""
    coeffs = strip(coeffs)
    lead = coeffs[-1]
    raw = 1 + max(abs(c / lead) for c in coeffs[:-1]) if len(coeffs) > 1 \
        else Fraction(1)
    bound = Fraction(1)
    while bound < raw:
        bound *= 2
    return bound


def real_root_count(coeffs) -> int:
    """Number of distinct real roots of a nonzero rational polynomial."""
    coeffs = strip(coeffs)
    if degree(coeffs) < 1:
        return 0
    chain = sturm_chain(coeffs)
    bound = cauchy_bound(coeffs)
    return sign_variations(chain, -bound) - sign_variations(chain, bound)


@dataclass(frozen=True)
class IsolatedRoot:
    """One real root: exact rational, or an enclosing interval midpoint."""

    value: Fraction
    exact: bool
    low: Fraction
    high: Fraction


def real_roots_exact(coeffs, width=REFINE_WIDTH) -> tuple:
    """All real roots of a nonzero rational polynomial.

    Returns ``(roots, had_multiple)`` with roots sorted ascending; multiple
    roots are reported once (squarefree reduction) with the flag set.
    """
    coeffs = strip(coeffs)
    if not coeffs:
        raise ValueError("zero polynomial has every point as a root")
    width = Fraction(width)
    sf, had_multiple = squarefree_part(coeffs)
    roots = _roots_squarefree(sf, width)
    roots.sort(key=lambda r: r.value)
    return roots, had_multiple


def _roots_squarefree(coeffs, width):
    if degree(coeffs) == 0:
        return []
    if degree(coeffs) == 1:
        value = -coeffs[0] / coeffs[1]
        return [IsolatedRoot(value, True, value, value)]
    chain = sturm_chain(coeffs)
    bound = cauchy_bound(coeffs)
    roots = []
    # Intervals are half-open (a, b]; the Cauchy bound keeps all roots inside.
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        count = sign_variations(chain, a) - sign_variations(chain, b)
        if count == 0:
            continue
        mid = (a + b) / 2
        if _values_at(chain[:1], mid)[0] == 0:
            # Exact (dyadic) root: deflate and restart isolation on the
            # quotient.  Roots already accumulated are roots of the quotient
            # too, so only the exact hit and the recursion are returned.
            quot, rem = poly_divmod(coeffs, [-mid, Fraction(1)])
            assert not rem
            return ([IsolatedRoot(mid, True, mid, mid)]
                    + _roots_squarefree(strip(quot), width))
        if count == 1:
            roots.append(_refine(chain[:1], a, b, width))
        else:
            stack.append((a, mid))
            stack.append((mid, b))
    return roots


def _refine(p, a, b, width):
    """Bisect the isolating interval (a, b] of the one-member chain *p*."""
    fb, = _values_at(p, b)
    if fb == 0:
        return IsolatedRoot(b, True, b, b)
    fa, = _values_at(p, a)
    assert fa != 0 and (fa > 0) != (fb > 0)
    while b - a > width:
        mid = (a + b) / 2
        fm, = _values_at(p, mid)
        if fm == 0:
            return IsolatedRoot(mid, True, mid, mid)
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return IsolatedRoot((a + b) / 2, False, a, b)


# ---------------------------------------------------------------------------
# float path
# ---------------------------------------------------------------------------

def real_roots_float(coeffs: Sequence[float],
                     merge_tol: float = MERGE_TOL) -> tuple:
    """Real roots of a float polynomial via the companion matrix.

    Returns ``(roots, well_isolated)``; ``well_isolated`` is False when two
    roots landed closer than *merge_tol* (near-multiple cluster) and was
    merged, in which case callers should treat the result with suspicion.
    """
    c = np.asarray([float(x) for x in coeffs], dtype=float)
    while c.size and c[-1] == 0.0:
        c = c[:-1]
    if c.size == 0:
        raise ValueError("zero polynomial has every point as a root")
    if c.size == 1:
        return [], True
    scale = float(np.max(np.abs(c)))
    c = c / scale
    all_roots = np.roots(c[::-1])
    deriv = np.polyder(c[::-1])
    polished = []
    for z in all_roots:
        for _ in range(8):
            dz = np.polyval(deriv, z)
            if dz == 0:
                break
            z = z - np.polyval(c[::-1], z) / dz
        polished.append(z)
    spread = max(1.0, max(abs(z) for z in polished))
    reals = sorted(
        float(z.real) for z in polished if abs(z.imag) <= 1e-7 * spread
    )
    merged = []
    well_isolated = True
    for r in reals:
        if merged and abs(r - merged[-1]) <= merge_tol * max(1.0, abs(r)):
            well_isolated = False
            merged[-1] = (merged[-1] + r) / 2.0
        else:
            merged.append(r)
    return merged, well_isolated
