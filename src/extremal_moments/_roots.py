"""Univariate real-root location.

Exact path: Sturm chains with a power-of-two Cauchy bound, bisection down to a
requested interval width, and exact detection of roots hit by a (dyadic)
bisection midpoint — such roots are returned as exact rationals and deflated
before continuing.  It runs in plain integers: the Sturm chain, the gcd and
the squarefree part come from one primitive remainder sequence on integer
polynomials, signs along the chain are evaluated by integer Horner, and
refinement keeps its dyadic endpoints as integer numerators over one power of
two.  The same sequence, run in (Z[x])[y] with contents taken out in Z[x],
gives the bivariate gcd that ``variety`` uses to find a common factor of a
kernel.  Float data never comes here: float varieties are read from the
eigenvectors of multiplication matrices (see ``variety``).

Coefficient lists are ascending: ``coeffs[i]`` multiplies ``x**i``.  A
polynomial in (Z[x])[y] is a list of such integer lists, one per power of y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .polycore import clear_denominators

#: Interval width for high-precision refinement of irrational roots, so of
#: every irrational variety coordinate.  Wide enough margins survive
#: Vandermonde solves with condition numbers near 1e8 while keeping
#: densities of order 1e-10 at the correct sign.
REFINE_WIDTH = Fraction(1, 10**40)

# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def horner(coeffs, x):
    total = Fraction(0) if isinstance(x, Fraction) else 0.0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


# ---------------------------------------------------------------------------
# primitive integer remainder sequences
# ---------------------------------------------------------------------------

def _content_free(ints) -> list:
    """*ints* stripped of trailing zeros and divided by their positive
    content."""
    ints = list(ints)
    while ints and ints[-1] == 0:
        ints.pop()
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _primitive(coeffs) -> list:
    """The primitive integer polynomial that is a positive multiple of the
    rational polynomial *coeffs*."""
    return _content_free(clear_denominators(coeffs)[0])


def _primitive_rem(a, b) -> list:
    """Primitive remainder of a by b (integer lists, deg a >= deg b >= 0).

    Each pseudo-division step multiplies by |lc(b)| rather than lc(b), so the
    result is a positive multiple of the rational remainder and keeps its
    signs (Collins 1967, Brown 1971)."""
    r = list(a)
    n = len(b) - 1
    scale, flip = abs(b[-1]), b[-1] < 0
    for top in range(len(r) - 1, n - 1, -1):
        q = r.pop()
        if q == 0:
            continue
        if flip:
            q = -q
        if scale != 1:
            r = [c * scale for c in r]
        shift = top - n
        for j in range(n):
            r[shift + j] -= q * b[j]
    return _content_free(r)


def _mul(a, b) -> list:
    """a*b for integer lists."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _primitive_y(rows) -> tuple:
    """``(primitive, content)`` of a polynomial in (Z[x])[y], given as
    *rows*, the integer lists in x (no trailing zeros) of y**0, y**1, ...:
    the content is the primitive gcd in Z[x] of the rows, up to sign, and
    the primitive part is *rows* over it and over their integer content."""
    content: list = []
    for c in rows:
        if c and len(content) != 1:
            content = _gcd(content, _content_free(c))
    if len(content) > 1:
        rows = [_exact_quotient(c, content) if c else [] for c in rows]
    g = math.gcd(*(x for c in rows for x in c))
    return [[x // g for x in c] for c in rows], content


def _primitive_rem_y(a, b) -> list:
    """Primitive remainder of a by b in (Z[x])[y] (rows as in
    ``_primitive_y``, deg_y a >= deg_y b >= 0): each pseudo-division step
    multiplies by lc(b), which the primitive part takes out again."""
    r = list(a)
    n = len(b) - 1
    for top in range(len(r) - 1, n - 1, -1):
        q = r.pop()
        if not q:
            continue
        r = [_mul(c, b[-1]) for c in r]
        shift = top - n
        for j in range(n):
            row = [x - y for x, y in zip_longest(r[shift + j], _mul(q, b[j]),
                                                  fillvalue=0)]
            while row and row[-1] == 0:
                row.pop()
            r[shift + j] = row
    while r and not r[-1]:
        r.pop()
    return _primitive_y(r)[0]


def _gcd(a, b, rem=_primitive_rem) -> list:
    """Primitive gcd of two primitive polynomials, up to sign: integer
    lists, or rows in (Z[x])[y] with ``rem=_primitive_rem_y``."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, rem(a, b)
    return a


def _gcd_y(a, b) -> list:
    """A gcd of two nonzero polynomials in (Z[x])[y], up to a rational
    factor: the gcd of their contents times that of their primitive parts
    (Collins 1967, Brown 1971)."""
    (a, content_a), (b, content_b) = _primitive_y(a), _primitive_y(b)
    content = _gcd(content_a, content_b)
    return [_mul(c, content) for c in _gcd(a, b, _primitive_rem_y)]


def _exact_quotient(a, b) -> list:
    """a / b for integer lists where b divides a in Q[x] and b is
    primitive, so the quotient has integer coefficients (Gauss)."""
    r = list(a)
    n = len(b) - 1
    quot = [0] * (len(r) - n)
    for i in range(len(r) - 1 - n, -1, -1):
        c, rest = divmod(r[i + n], b[-1])
        assert not rest, "divisor does not divide"
        quot[i] = c
        if c:
            for j in range(n):
                r[i + j] -= c * b[j]
    assert not any(r[:n]), "division must be exact"
    return quot


def squarefree_part(coeffs):
    """p / gcd(p, p') as a primitive integer polynomial, a positive multiple
    of p's squarefree part; returns (squarefree_coeffs, had_multiple_roots)."""
    p = _primitive(coeffs)
    if len(p) <= 2:
        return p, False
    g = _gcd(p, _content_free(derivative(p)))
    if len(g) == 1:
        return p, False
    if g[-1] < 0:
        g = [-c for c in g]
    return _exact_quotient(p, g), True


# ---------------------------------------------------------------------------
# Sturm isolation
# ---------------------------------------------------------------------------

def sturm_chain(coeffs):
    """Sturm chain of *coeffs* as primitive integer polynomials, each a
    positive multiple of the rational member, so every sign is kept."""
    chain = [_primitive(coeffs)]
    chain.append(_content_free(derivative(chain[0])))
    while len(chain[-1]) > 1:
        rem = _primitive_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


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
    p = _primitive(coeffs)
    lead = abs(p[-1])
    top = lead + max(map(abs, p[:-1]), default=0)
    bound = 1
    while bound * lead < top:
        bound *= 2
    return Fraction(bound)


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
    sf, had_multiple = squarefree_part(coeffs)
    if not sf:
        raise ValueError("zero polynomial has every point as a root")
    roots = _roots_squarefree(sf, Fraction(width))
    roots.sort(key=lambda r: r.value)
    return roots, had_multiple


def _roots_squarefree(coeffs, width):
    """Roots of the squarefree primitive integer polynomial *coeffs*."""
    if len(coeffs) == 1:
        return []
    if len(coeffs) == 2:
        value = Fraction(-coeffs[0], coeffs[1])
        return [IsolatedRoot(value, True, value, value)]
    chain = sturm_chain(coeffs)
    p = chain[0]
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
        if _values_at([p], mid)[0] == 0:
            # Exact (dyadic) root: deflate and restart isolation on the
            # quotient.  Roots already accumulated are roots of the quotient
            # too, so only the exact hit and the recursion are returned.
            quot = _exact_quotient(p, [-mid.numerator, mid.denominator])
            return ([IsolatedRoot(mid, True, mid, mid)]
                    + _roots_squarefree(quot, width))
        if count == 1:
            roots.append(_refine(p, a, b, width))
        else:
            stack.append((a, mid))
            stack.append((mid, b))
    return roots


def _dyadic_value(p, num, shift) -> int:
    """2**(shift*m) * p(num / 2**shift) for the integer polynomial p of
    degree m, by Horner with shifts in place of denominator powers."""
    m = len(p) - 1
    total = 0
    for i in range(m, -1, -1):
        total = total * num + (p[i] << (shift * (m - i)))
    return total


def _refine(p, a, b, width):
    """Bisect the isolating interval (a, b] of the integer polynomial *p*.

    The dyadic endpoints are kept as integer numerators lo, hi over one
    denominator 2**k, so each step is integer shifts and one evaluation."""
    assert all(d & (d - 1) == 0 for d in (a.denominator, b.denominator))
    k = max(a.denominator, b.denominator).bit_length() - 1
    lo = a.numerator << (k - a.denominator.bit_length() + 1)
    hi = b.numerator << (k - b.denominator.bit_length() + 1)
    fb = _dyadic_value(p, hi, k)
    if fb == 0:
        return IsolatedRoot(b, True, b, b)
    fa = _dyadic_value(p, lo, k)
    assert fa != 0 and (fa > 0) != (fb > 0)
    positive = fa > 0
    wnum, wden = width.numerator, width.denominator
    while (hi - lo) * wden > wnum << k:
        lo, hi, k = lo << 1, hi << 1, k + 1
        mid = (lo + hi) >> 1
        fm = _dyadic_value(p, mid, k)
        if fm == 0:
            value = Fraction(mid, 1 << k)
            return IsolatedRoot(value, True, value, value)
        if (fm > 0) == positive:
            lo = mid
        else:
            hi = mid
    return IsolatedRoot(Fraction(lo + hi, 2 << k), False,
                        Fraction(lo, 1 << k), Fraction(hi, 1 << k))
