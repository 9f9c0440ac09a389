"""Univariate real-root location.

Exact path: one bisection walk over integer dyadic intervals (lo, hi] / 2**k,
from (-B, B] for a power-of-two root bound B (the tighter of Cauchy's and
Fujiwara's, ``root_bound``), with Sturm counts at the ends that are passed
down, so a split counts only at its midpoint.  Every cell of the walk is a
cell of one dyadic grid for any power-of-two B, so the bound moves no root
and no cell, only the number of splits above the roots.  An interval that
holds more than one root is split in two; one that holds one is refined on
the same grid of cells.  A root is exact iff it is rational, and then it is
N / |lead| (rational root theorem): the interval is refined to its first
cell of width <= 1 / (2 |lead|), and N, rounded from that cell's midpoint,
is tested by one integer evaluation of lead**m * p(N / lead).  An irrational
root's refinement goes on from that cell to its cell of the requested width
by quadratic interval refinement (Abbott 2006), whose secant steps cut the
~133 evaluations of bisection to a few dozen.  Everything runs in plain
integers: the Sturm chain is a primitive remainder sequence on integer
polynomials, and its last member, gcd(p, p'), gives the multiple-root test
and the squarefree part, so a squarefree p runs one sequence per
isolation; every sign is an integer Horner evaluation at num / 2**k.
That sequence is the module's one remainder routine, ``_primitive_rem``.
Float data never comes here: float varieties are read from the
eigenvectors of multiplication matrices (see ``variety``).

Coefficient lists are ascending: ``coeffs[i]`` multiplies ``x**i``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polycore import clear_denominators, record

#: Interval width for high-precision refinement of irrational roots, so of
#: every irrational variety coordinate.  Wide enough margins survive
#: Vandermonde solves with condition numbers near 1e8 while keeping
#: densities of order 1e-10 at the correct sign.  Every interval of the
#: walk and of its refinement is a cell of one dyadic grid, and refinement
#: stops at the first cell of width <= 1e-40, 2**-133: an inexact root's
#: interval is the 2**-133 cell that holds it, whatever the bound, the path
#: of the walk and the secant steps that reached it.
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
    of p's squarefree part; returns (squarefree_coeffs, had_multiple_roots).
    The gcd is the last member of p's ``sturm_chain``."""
    return _squarefree(sturm_chain(coeffs))


def _squarefree(chain):
    """``squarefree_part`` of the polynomial p whose ``sturm_chain`` is
    *chain*: its last member is gcd(p, p') up to sign, a constant when p is
    squarefree (and p itself when p is a constant)."""
    if not chain:
        return [], False
    p, g = chain[0], chain[-1]
    if len(g) == 1:
        return p, False
    return _exact_quotient(p, g if g[-1] > 0 else [-c for c in g]), True


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


def sign_variations(chain, num, shift) -> int:
    """Sign changes along a ``sturm_chain`` at the dyadic num / 2**shift."""
    signs = [v > 0 for v in (_dyadic_value(p, num, shift) for p in chain)
             if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(coeffs) -> int:
    """Power-of-two bound B >= 1 with every real root in (-B, B), so every
    interval of the bisection is a cell of a dyadic grid.

    B is the first power of two that passes either Cauchy's test,
    B |a_m| >= |a_m| + max |a_i|, or Fujiwara's (1916) with strict
    inequalities, |a_(m-i)| < |a_m| (B/2)**i for 0 < i < m and
    |a_0| < 2 |a_m| (B/2)**m.  So it is never looser than Cauchy's bound,
    and far tighter when the coefficients grow with the degree, as they do
    for a polynomial whose roots are all of moderate size."""
    p = _primitive(coeffs)
    m, lead = len(p) - 1, abs(p[-1])
    top = lead + max(map(abs, p[:-1]), default=0)
    tail = [abs(c) << i for i, c in enumerate(reversed(p[:-1]), 1)]
    if tail:
        tail[-1] >>= 1
    e = 0
    while (lead << e) < top and any(
            a >= lead << (e * i) for i, a in enumerate(tail, 1)):
        e += 1
    return 1 << e


@record
class IsolatedRoot:
    """One real root: exact iff rational, else an enclosing cell's midpoint."""

    value: Fraction
    exact: bool
    low: Fraction
    high: Fraction


def real_roots_exact(coeffs, width=REFINE_WIDTH) -> tuple:
    """All real roots of a nonzero rational polynomial.

    Returns ``(roots, had_multiple)`` with roots sorted ascending; multiple
    roots are reported once (squarefree reduction) with the flag set.  The
    Sturm chain of the input also gives the multiple-root test, so a
    squarefree polynomial runs one remainder sequence and any other two.
    """
    chain = sturm_chain(coeffs)
    sf, had_multiple = _squarefree(chain)
    if not sf:
        raise ValueError("zero polynomial has every point as a root")
    if had_multiple:
        chain = sturm_chain(sf)
    roots = _roots_squarefree(sf, chain, Fraction(width))
    roots.sort(key=lambda r: r.value)
    return roots, had_multiple


def _roots_squarefree(p, chain, width):
    """Roots of the squarefree primitive integer polynomial *p*, whose
    ``sturm_chain`` is *chain*, by the walk of the module docstring.  The
    Sturm count of (lo, hi] leaves out a root at lo, so an interval whose
    left end is a root is split, not refined."""
    bound = root_bound(p)
    roots = []
    stack = [(-bound, bound, 0, sign_variations(chain, -bound, 0),
              sign_variations(chain, bound, 0))]
    while stack:
        lo, hi, k, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1 and _dyadic_value(p, lo, k) != 0:
            roots.append(_isolate(p, lo, hi, k, width))
        elif v_lo > v_hi:
            mid = lo + hi
            v_mid = sign_variations(chain, mid, k + 1)
            stack.append((lo << 1, mid, k + 1, v_lo, v_mid))
            stack.append((mid, hi << 1, k + 1, v_mid, v_hi))
    return roots


def _isolate(p, lo, hi, k, width):
    """The root of p in (lo, hi] / 2**k: exact if rational, else its grid
    cell of *width*.  A rational root is N / |lead| (rational root theorem),
    and N rounds from the midpoint of the first cell of width
    <= 1 / (2 |lead|); an irrational root's refinement goes on from there,
    or takes the ancestor of that cell when it is already finer."""
    lead = abs(p[-1])
    size = hi - lo  # every cell of the walk is size / 2**k wide
    start = k
    lo, hi, k, fa, fb = _refine(p, lo, hi, k, _dyadic_value(p, lo, k),
                                _dyadic_value(p, hi, k),
                                _level(size, Fraction(1, 2 * lead), k))
    if fb == 0:
        value = Fraction(hi, 1 << k)
        return IsolatedRoot(value, True, value, value)
    num = ((lo + hi) * lead + (1 << k)) >> (k + 1)
    if lo * lead <= num << k <= hi * lead and _scaled_value(p, num, lead) == 0:
        value = Fraction(num, lead)
        return IsolatedRoot(value, True, value, value)
    level = _level(size, width, start)
    if level <= k:
        lo = ((lo >> (k - level)) // size) * size
        hi, k = lo + size, level
    else:
        lo, hi, k, fa, fb = _refine(p, lo, hi, k, fa, fb, level)
    return IsolatedRoot(Fraction(lo + hi, 2 << k), False,
                        Fraction(lo, 1 << k), Fraction(hi, 1 << k))


def _level(size, width, k) -> int:
    """The first level >= k whose cells, size / 2**level wide, are at most
    *width* wide."""
    cells = -(-size * width.denominator // width.numerator)
    return max(k, (cells - 1).bit_length())


def _dyadic_value(p, num, shift) -> int:
    """2**(shift*m) * p(num / 2**shift) for the integer polynomial p of
    degree m, by Horner with shifts in place of denominator powers."""
    m = len(p) - 1
    total = 0
    for i in range(m, -1, -1):
        total = total * num + (p[i] << (shift * (m - i)))
    return total


def _scaled_value(p, num, den) -> int:
    """den**m * p(num / den) = sum p_i num**i den**(m-i) for the integer
    polynomial p of degree m."""
    total, scale = 0, 1
    for c in reversed(p):
        total = total * num + c * scale
        scale *= den
    return total


def _refine(p, lo, hi, k, fa, fb, level):
    """Refine the isolating cell (lo, hi] / 2**k of p, whose ends have the
    scaled values fa != 0 and fb (``_dyadic_value``), to its cell at
    *level*, by quadratic interval refinement (Abbott 2006): the secant
    through the ends picks sub-cell j of the cell's 2**s at level k + s; if
    the signs at its ends hold the root it becomes the cell and s doubles,
    else s halves and the cell is bisected once.  s never passes the levels
    left, so every cell is one of the bisection's grid.  A zero at an end
    is a dyadic root, returned as the right end of a cell with fb == 0.
    Returns ``(lo, hi, k, fa, fb)``."""
    m = len(p) - 1
    size = hi - lo
    s = 2
    while fb and k < level:
        s = min(s, level - k)
        j = (fa << s) // (fa - fb)
        left = (lo << s) + j * size
        fl = _dyadic_value(p, left, k + s) if j else fa << (s * m)
        fr = _dyadic_value(p, left + size, k + s) if j + 1 < 1 << s \
            else fb << (s * m)
        if fl == 0:
            return left - size, left, k + s, fa, 0
        if (fl > 0) == (fa > 0) and (fr == 0 or (fr > 0) != (fa > 0)):
            lo, hi, k, fa, fb = left, left + size, k + s, fl, fr
            s *= 2
            continue
        s = max(s // 2, 1)
        lo, k, fa, fb = lo << 1, k + 1, fa << m, fb << m
        mid = lo + size
        fm = _dyadic_value(p, mid, k)
        if fm and (fm > 0) == (fa > 0):
            lo, fa = mid, fm
        else:
            fb = fm
        hi = lo + size
    return lo, hi, k, fa, fb
