"""Unit tests: univariate real-root location (exact Sturm route and float
route)."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from extremal_moments import _roots, beta_from_atoms, solve_extremal
from extremal_moments._roots import IsolatedRoot, horner


def F(*args):
    return Fraction(*args)


class TestExactIsolation:
    def test_exact_dyadic_roots_found_exactly(self):
        # p(x) = x (x + 1/2)(x - 1)(x - 2): all roots dyadic.
        p = [F(0), F(1), F(1, 2), F(-5, 2), F(1)]
        roots, multiple = _roots.real_roots_exact(p)
        assert [r.value for r in roots] == [F(-1, 2), F(0), F(1), F(2)]
        assert all(r.exact for r in roots)
        assert not multiple

    def test_irrational_roots_isolated_to_width(self):
        width = F(1, 10**15)
        roots, _ = _roots.real_roots_exact([F(-2), F(0), F(1)], width=width)
        assert len(roots) == 2
        for r in roots:
            assert r.high - r.low <= width
            assert not r.exact
        assert abs(float(roots[1].value) - 2 ** 0.5) < 1e-14

    def test_multiple_root_flagged(self):
        roots, multiple = _roots.real_roots_exact([F(1), F(-2), F(1)])
        assert [r.value for r in roots] == [F(1)]
        assert multiple

    def test_no_real_roots(self):
        roots, _ = _roots.real_roots_exact([F(1), F(0), F(1)])
        assert roots == []

    def test_non_dyadic_rational_root_still_tight(self):
        # 3x - 1: linear case is solved exactly even off the dyadic grid.
        roots, _ = _roots.real_roots_exact([F(-1), F(0), F(-3), F(9)])
        # 9x^3 - 3x^2 - 1 has one real root (irrational)
        assert len(roots) == 1 and not roots[0].exact

    def test_randomized_against_sympy(self):
        rng = random.Random(3)
        x = sympy.symbols("x")
        for _ in range(30):
            deg = rng.randint(1, 5)
            coeffs = [F(rng.randint(-5, 5)) for _ in range(deg)] + [F(1)]
            roots, _ = _roots.real_roots_exact(coeffs, width=F(1, 10**20))
            expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                       for i, c in enumerate(coeffs))
            expected = sorted(
                float(r) for r in sympy.Poly(expr, x).real_roots())
            got = sorted(float(r.value) for r in roots)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert abs(a - b) < 1e-12


def sympy_poly(coeffs):
    """The integer sympy polynomial with the roots of *coeffs*."""
    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(coeffs))
    return sympy.Poly(expr, x).clear_denoms()[1]


def from_roots(roots, lead, square=None):
    """Ascending coefficients of lead * prod (x - r), times x^2 - square."""
    coeffs = [lead]
    factors = [[-r, F(1)] for r in roots]
    if square is not None:
        factors.append([-square, F(0), F(1)])
    for factor in factors:
        out = [F(0)] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return coeffs


#: The 34 roots (2j+1)/16 and 1/3: the primitive polynomial's lead is
#: 3 * 2**136, so rounding the midpoint of the 2**-133 cell of 1/3 misses
#: it, and a copy of the cell must be bisected further.
BIG_LEAD = from_roots([F(2 * j + 1, 16) for j in range(34)] + [F(1, 3)],
                      F(1))


def assert_isolated_like_sympy(coeffs, width):
    """sympy counts as many distinct real roots; each reported root is a
    root (exact) or the only one in its interval of at most *width*."""
    roots, _ = _roots.real_roots_exact(coeffs, width=width)
    poly = sympy_poly(coeffs)
    assert len(roots) == poly.count_roots()
    for prev, r in zip(roots, roots[1:]):
        assert prev.high <= r.low
    for r in roots:
        low, high = (sympy.Rational(v.numerator, v.denominator)
                     for v in (r.low, r.high))
        if r.exact:
            assert low == high and poly.eval(low) == 0
        else:
            assert r.high - r.low <= width
            assert poly.count_roots(low, high) == 1
    return roots


def multiply(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_product(rng, bits, repeat):
    """A product of 1-3 random factors of degree 1-3 with coefficients of
    *bits* bits, each raised to a power up to *repeat*."""
    coeffs = [F(1)]
    for _ in range(rng.randint(1, 3)):
        factor = [F(rng.getrandbits(bits) - 2 ** (bits - 1),
                    rng.getrandbits(bits) + 1)
                  for _ in range(rng.randint(1, 3))] + [F(rng.choice((-1, 1)))]
        for _ in range(rng.randint(1, repeat)):
            coeffs = multiply(coeffs, factor)
    return coeffs


def ascending(poly):
    """Ascending Fraction coefficients of a univariate sympy polynomial."""
    return [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def primitive_gcd(a, b):
    """Primitive gcd of two primitive integer lists, up to sign: Euclid's
    algorithm on ``_roots._primitive_rem``."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _roots._primitive_rem(a, b)
    return a


def constant_multiple(a, b):
    """The c with a == c * b, or None (Fraction lists)."""
    if len(a) != len(b):
        return None
    c = F(a[-1]) / b[-1]
    return c if all(x == c * y for x, y in zip(a, b)) else None


class TestAgainstSympy:
    def test_sturm_chain_is_primitive_positive_multiple(self):
        # sympy's chain starts from the monic squarefree part, so it is this
        # chain divided by a constant of the sign of the leading coefficient.
        rng = random.Random(13)
        cases = [random_product(rng, bits, repeat=1)
                 for bits in (4, 520) for _ in range(8)]
        # Odd and even polynomials: their pseudo-divisions skip zero quotient
        # terms, so a remainder scaled by lc(b) rather than |lc(b)| would
        # flip sign when lc(b) < 0.
        for lead in (F(-3), F(2, 5)):
            for odd in (False, True):
                coeffs = [F(0), lead] if odd else [lead]
                for k in (2, 3, -5):
                    coeffs = multiply(coeffs, [F(-k), F(0), F(1)])
                cases.append(coeffs)
        for coeffs in cases:
            chain = _roots.sturm_chain(coeffs)
            expected = sympy.sturm(sympy_poly(coeffs))
            assert len(chain) == len(expected)
            sign = 1 if coeffs[-1] > 0 else -1
            for member, want in zip(chain, expected):
                assert all(type(c) is int for c in member)
                assert math.gcd(*member) == 1
                c = constant_multiple(member, ascending(want))
                assert c is not None and c * sign > 0

    def test_gcd_and_squarefree_part(self):
        rng = random.Random(14)
        for bits in (4, 520):
            for _ in range(8):
                a = random_product(rng, bits, repeat=3)
                b = multiply(a, random_product(rng, bits, repeat=1)) \
                    if rng.random() < 0.5 else random_product(rng, bits, 3)
                pa, pb = sympy_poly(a), sympy_poly(b)
                g = primitive_gcd(_roots._primitive(a), _roots._primitive(b))
                assert constant_multiple(
                    g, ascending(sympy.gcd(pa, pb))) is not None
                sf, multiple = _roots.squarefree_part(a)
                want = sympy.sqf_part(pa)
                assert constant_multiple(sf, ascending(want)) is not None
                assert multiple == (want.degree() < pa.degree())

    def test_real_roots_exact_on_repeated_factors(self):
        rng = random.Random(15)
        for bits in (4, 520):
            for _ in range(8):
                coeffs = random_product(rng, bits, repeat=3)
                roots, _ = _roots.real_roots_exact(coeffs)
                assert len(roots) == sympy_poly(coeffs).count_roots()

    def test_exact_roots_are_the_rational_roots(self):
        # Rational roots with small and with 70-bit denominators (a lead
        # beyond 2**133) next to random factors: exactly the rational roots
        # come back exact, every other one in its 2**-133 grid cell.
        rng = random.Random(17)
        cell = F(1, 2**133)
        inexact = 0
        for bits in (3, 3, 3, 70, 70):
            rational = {F(rng.randint(-2**bits, 2**bits),
                          rng.randint(1, 2**bits))
                        for _ in range(rng.randint(2, 4))}
            coeffs = multiply(from_roots(rational, F(1)),
                              random_product(rng, 4, repeat=1))
            lead = _roots.squarefree_part(coeffs)[0][-1]
            assert (abs(lead) > 2**133) == (bits == 70)
            roots, _ = _roots.real_roots_exact(coeffs)
            inexact += sum(not r.exact for r in roots)
            poly = sympy_poly(coeffs)
            want = {F(int(r.p), int(r.q)) for r in poly.real_roots()
                    if r.is_Rational}
            assert rational <= want
            assert {r.value for r in roots if r.exact} == want
            for r in roots:
                if not r.exact:
                    assert r.high - r.low == cell
                    assert (r.low / cell).denominator == 1
                    assert poly.count_roots(
                        *(sympy.Rational(v.numerator, v.denominator)
                          for v in (r.low, r.high))) == 1
        assert inexact

    def test_coefficients_over_500_bits(self):
        rng = random.Random(11)
        for _ in range(6):
            deg = rng.randint(2, 6)
            coeffs = [F(rng.getrandbits(520) - 2**519,
                        rng.getrandbits(520) + 1) for _ in range(deg + 1)]
            assert max(abs(c.numerator).bit_length() for c in coeffs) > 500
            assert_isolated_like_sympy(coeffs, F(1, 10**40))

    def test_dyadic_rational_roots(self):
        # Dyadic roots are hit exactly by a bisection midpoint; thirds and
        # square roots must still be isolated around them.
        rng = random.Random(12)
        for _ in range(20):
            dyadic = {F(rng.randint(-64, 64), 2 ** rng.randint(0, 6))
                      for _ in range(rng.randint(1, 5))}
            thirds = {F(rng.randint(-9, 9), 3)
                      for _ in range(rng.randint(0, 2))}
            square = F(rng.randint(2, 7)) if rng.random() < 0.5 else None
            lead = F(rng.randint(1, 9), rng.randint(1, 9))
            coeffs = from_roots(dyadic | thirds, lead, square)
            roots = assert_isolated_like_sympy(coeffs, F(1, 10**40))
            assert dyadic <= {r.value for r in roots if r.exact}


class TestWalk:
    """One bisection walk over dyadic intervals (lo, hi] / 2**k."""

    def test_one_sturm_chain_per_call(self, monkeypatch):
        # Squarefree, with several dyadic roots, some of them hit by split
        # points, next to a third and two square roots; the rational roots
        # are exact.
        calls = []
        chain = _roots.sturm_chain
        monkeypatch.setattr(_roots, "sturm_chain",
                            lambda p: calls.append(p) or chain(p))
        dyadic = {F(-1, 2), F(0), F(1), F(2), F(3, 4), F(-5, 8)}
        coeffs = from_roots(dyadic | {F(1, 3)}, F(3), F(2))
        roots, multiple = _roots.real_roots_exact(coeffs)
        assert len(calls) == 1 and not multiple
        assert len(roots) == 9
        assert dyadic | {F(1, 3)} == {r.value for r in roots if r.exact}

    def test_refined_roots_are_cells_of_one_grid(self):
        # An inexact root's interval is the 2**-133 cell that holds it,
        # whatever the bound and the path: an extra dyadic root moves none.
        rng = random.Random(16)
        cell = F(1, 2**133)
        for _ in range(12):
            dyadic = {F(rng.randint(-64, 64), 2 ** rng.randint(0, 6))
                      for _ in range(rng.randint(0, 3))}
            thirds = {F(rng.randint(-9, 9), 3)
                      for _ in range(rng.randint(0, 2))}
            square = F(rng.randint(2, 7)) if rng.random() < 0.7 else None
            coeffs = multiply(from_roots(dyadic | thirds, F(1), square),
                              random_product(rng, 4, repeat=1))
            roots, _ = _roots.real_roots_exact(coeffs)
            for r in roots:
                if not r.exact:
                    assert r.high - r.low == cell
                    assert (r.low / cell).denominator == 1
            extra, _ = _roots.real_roots_exact(
                multiply(coeffs, [F(-5, 8), F(1)]))
            assert IsolatedRoot(F(5, 8), True, F(5, 8), F(5, 8)) in extra
            assert ([r for r in extra if r.value != F(5, 8)]
                    == [r for r in roots if r.value != F(5, 8)])

    @pytest.mark.parametrize("coeffs, exact", [
        (from_roots([F(1, 3), F(1, 2), F(1)], F(1)), [True] * 3),
        (from_roots([F(1, 3), F(2, 3)], F(1)), [True] * 2),
        (multiply([F(-1, 3), F(1)], [F(1), F(0), F(1)]), [True]),
        (from_roots([F(1, 3)], F(1), F(2)), [False, True, False]),
        (BIG_LEAD, [True] * 35),
        ([F(-1), F(3)], [True]),
    ], ids=["thirds-half-one", "thirds", "third-beside-complex",
            "third-between-root-2", "138-bit-lead", "linear"])
    def test_exact_iff_rational(self, coeffs, exact):
        # A root is exact iff it is rational; +-sqrt(2) keep their cells.
        roots, _ = _roots.real_roots_exact(coeffs)
        assert [r.exact for r in roots] == exact
        for r in roots:
            if r.exact:
                assert horner(coeffs, r.value) == 0
                assert r.low == r.value == r.high
            else:
                assert r.low < r.value < r.high
                assert r.high - r.low == F(1, 2**133)
        assert F(1, 3) in {r.value for r in roots if r.exact}

    def test_rational_atoms_solve_with_exact_densities(self):
        atoms = [(F(1, 3),), (F(1, 2),), (F(1),)]
        beta = beta_from_atoms(atoms, [F(1), F(2), F(3)], d=1, degree=6)
        report = solve_extremal(beta)
        assert report.status == "Measure"
        assert report.measure.atoms == tuple(atoms)
        assert report.measure.densities == (F(1), F(2), F(3))
        assert report.residual == 0.0
        assert report.variety.exact_mask == (True, True, True)


def bisection_isolate(p, lo, hi, k, width):
    """The bisection refinement that quadratic interval refinement replaced,
    kept as a reference: refine to *width* (and, for a lead over
    1 / (2 width), a copy to 1 / (2 |lead|)), then round N / |lead| from the
    midpoint and test it by Fraction evaluation."""
    root = bisection_refine(p, lo, hi, k, width)
    lead = abs(p[-1])
    near = root if 2 * lead * width <= 1 \
        else bisection_refine(p, lo, hi, k, F(1, 2 * lead))
    value = F(round(near.value * lead), lead)
    if near.low <= value <= near.high and horner(p, value) == 0:
        return IsolatedRoot(value, True, value, value)
    return root


def bisection_refine(p, lo, hi, k, width):
    fa, fb = _roots._dyadic_value(p, lo, k), _roots._dyadic_value(p, hi, k)
    while fb and (hi - lo) * width.denominator > width.numerator << k:
        lo, hi, k = lo << 1, hi << 1, k + 1
        mid = (lo + hi) >> 1
        fm = _roots._dyadic_value(p, mid, k)
        if fm and (fm > 0) == (fa > 0):
            lo = mid
        else:
            hi, fb = mid, fm
    if fb == 0:
        value = F(hi, 1 << k)
        return IsolatedRoot(value, True, value, value)
    return IsolatedRoot(F(lo + hi, 2 << k), False, F(lo, 1 << k),
                        F(hi, 1 << k))


def count_values(monkeypatch):
    """A list that grows by one entry per ``_dyadic_value`` call."""
    calls = []
    value = _roots._dyadic_value
    monkeypatch.setattr(_roots, "_dyadic_value",
                        lambda *args: calls.append(args) or value(*args))
    return calls


def mixed_product(rng):
    """Dyadic roots, thirds, a quadratic irrational pair and a complex pair
    (x^2 + c), in random combination."""
    dyadic = {F(rng.randint(-64, 64), 2 ** rng.randint(0, 8))
              for _ in range(rng.randint(0, 4))}
    thirds = {F(rng.randint(-30, 30), 3) for _ in range(rng.randint(0, 2))}
    square = F(rng.randint(2, 30), rng.randint(1, 5)) \
        if rng.random() < 0.7 else None
    coeffs = from_roots(dyadic | thirds | {F(rng.randint(-9, 9), 7)},
                        F(rng.randint(1, 9), rng.randint(1, 9)), square)
    if rng.random() < 0.5:
        coeffs = multiply(coeffs, [F(rng.randint(1, 9)), F(0), F(1)])
    return coeffs


def refinement_cases():
    rng = random.Random(21)
    return [mixed_product(rng) for _ in range(25)] + [
        random_product(rng, 4, repeat=2) for _ in range(10)] + [
        BIG_LEAD, multiply(BIG_LEAD, [F(-2), F(0), F(1)])]


class TestRefinement:
    """Quadratic interval refinement lands on the bisection's grid cells."""

    @pytest.mark.parametrize("width", [F(1, 10**40), F(1, 10**20), F(1, 3),
                                       F(1, 2**50)],
                             ids=["1e-40", "1e-20", "third", "2**-50"])
    def test_same_roots_as_bisection(self, width, monkeypatch):
        cases = refinement_cases()
        found = [_roots.real_roots_exact(c, width) for c in cases]
        monkeypatch.setattr(_roots, "_isolate", bisection_isolate)
        assert found == [_roots.real_roots_exact(c, width) for c in cases]
        assert any(not r.exact for roots, _ in found for r in roots)

    def test_same_roots_from_the_cauchy_bound(self, monkeypatch):
        # Every cell of the walk is a cell of one dyadic grid for any
        # power-of-two bound, so the looser Cauchy bound gives the same
        # roots and cells.
        cases = refinement_cases()
        assert any(_roots.root_bound(c) < cauchy_bound(c) for c in cases)
        found = [_roots.real_roots_exact(c) for c in cases]
        monkeypatch.setattr(_roots, "root_bound", cauchy_bound)
        assert found == [_roots.real_roots_exact(c) for c in cases]

    @pytest.mark.parametrize("p, lo, hi, k, root", [
        ([-1, 4], 0, 1, 0, F(1, 4)), ([-3, 4], 0, 1, 0, F(3, 4)),
        ([-1, 4], -1, 1, 1, F(1, 4))])
    def test_zero_at_a_sub_cell_end(self, p, lo, hi, k, root):
        # The secant of 4x - 1 on (0, 1] picks the quarter (1/4, 1/2],
        # whose left end is the root: it comes back as the right end of
        # its cell, with fb == 0 (cells are half-open, (lo, hi]).
        fa, fb = (_roots._dyadic_value(p, x, k) for x in (lo, hi))
        lo, hi, k, fa, fb = _roots._refine(p, lo, hi, k, fa, fb, 10)
        assert fb == 0 and F(hi, 1 << k) == root
        assert F(lo, 1 << k) < root

    def test_quadratic_count(self, monkeypatch):
        # sqrt(2) in (0, 4] to its 2**-133 cell: bisection evaluates p at
        # 133 and more points, the secant steps at 23 (35 if s grew by one
        # level per hit rather than doubling).
        p = [-2, 0, 1]
        calls = count_values(monkeypatch)
        root = _roots._isolate(p, 0, 8, 1, _roots.REFINE_WIDTH)
        assert root.high - root.low == F(1, 2**133)
        assert len(calls) <= 30
        calls.clear()
        assert bisection_isolate(p, 0, 8, 1, _roots.REFINE_WIDTH) == root
        assert len(calls) >= 133


def cauchy_bound(coeffs):
    """The first power of two B with B |lead| >= |lead| + max |a_i|."""
    p = _roots._primitive(coeffs)
    lead = abs(p[-1])
    bound = 1
    while bound * lead < lead + max(map(abs, p[:-1]), default=0):
        bound *= 2
    return bound


class TestRootBound:
    """Every real root lies strictly inside (-B, B), and B is never looser
    than Cauchy's bound."""

    def assert_bounds(self, coeffs):
        bound = _roots.root_bound(coeffs)
        assert bound & (bound - 1) == 0 and bound >= 1
        assert bound <= cauchy_bound(coeffs)
        poly = sympy_poly(coeffs)
        assert poly.eval(bound) != 0 and poly.eval(-bound) != 0
        assert poly.count_roots(-bound, bound) == poly.count_roots()
        return bound

    @pytest.mark.parametrize("k", [0, 1, 3, 10, 40])
    def test_roots_at_powers_of_two(self, k):
        # A root at +-2**k sits on the edge of a power-of-two bound 2**k:
        # the bound must pass it.
        for roots in ([F(2**k)], [F(-2**k)], [F(2**k), F(-2**k)],
                      [F(2**k), F(1, 3), F(-1)]):
            for lead in (F(1), F(3), F(-1, 5)):
                assert self.assert_bounds(from_roots(roots, lead)) > 2**k

    def test_linear_polynomials(self):
        for a in (F(1), F(-7), F(1, 9), F(2**60)):
            for b in (F(0), F(1), F(-8), F(5, 3), F(-2**30)):
                self.assert_bounds([b, a])

    def test_big_lead(self):
        self.assert_bounds(BIG_LEAD)
        self.assert_bounds(multiply(BIG_LEAD, [F(-2), F(0), F(1)]))

    def test_random_products(self):
        rng = random.Random(5)
        for _ in range(40):
            self.assert_bounds(mixed_product(rng))
            self.assert_bounds(random_product(rng, 8, repeat=2))

    def test_tighter_than_cauchy_on_moderate_roots(self):
        # Roots -9..2 at degree 12: Cauchy's bound is 2**20, Fujiwara's
        # 2 * |a_11 / a_12| = 2 * 42 rounds up to 2**7.
        coeffs = from_roots([F(j) for j in range(-9, 3)], F(1))
        assert cauchy_bound(coeffs) == 2**20
        assert self.assert_bounds(coeffs) == 2**7


class TestHelpers:
    def test_sturm_sign_count_interval(self):
        chain = _roots.sturm_chain([F(-2), F(0), F(1)])  # x^2 - 2
        # Counts at the dyadic num / 2**shift: sqrt(2) is in (0, 2] and in
        # (5/4, 3/2], and not in (0, 5/4].
        assert (_roots.sign_variations(chain, 0, 0)
                - _roots.sign_variations(chain, 2, 0)) == 1
        assert (_roots.sign_variations(chain, 5, 2)
                - _roots.sign_variations(chain, 3, 1)) == 1
        assert (_roots.sign_variations(chain, 0, 0)
                - _roots.sign_variations(chain, 5, 2)) == 0
        assert (_roots.sign_variations(chain, -2, 0)
                - _roots.sign_variations(chain, 2, 0)) == 2

    def test_root_bound_is_power_of_two(self):
        bound = _roots.root_bound([F(-2), F(0), F(1)])
        assert bound >= 2
        assert bound.denominator == 1
        n = int(bound)
        assert n & (n - 1) == 0

    def test_squarefree_part(self):
        # (x - 1)^2 (x + 2) = x^3 - 3x + 2
        sf, had = _roots.squarefree_part([F(2), F(-3), F(0), F(1)])
        assert had
        assert len(sf) - 1 == 2


def gcd_route(coeffs):
    """``real_roots_exact`` by a separate gcd(p, p') before the Sturm chain
    of the squarefree part: ``(roots, had_multiple)`` and that part."""
    p = _roots._primitive(coeffs)
    g = primitive_gcd(p, _roots._content_free(_roots.derivative(p))) \
        if len(p) > 2 else [1]
    if len(g) > 1:
        p = _roots._exact_quotient(p, g if g[-1] > 0 else [-c for c in g])
    roots, multiple = _roots.real_roots_exact(p)
    assert not multiple
    return (roots, len(g) > 1), p


class TestOneRemainderSequence:
    """The Sturm chain is the only remainder sequence: its last member,
    gcd(p, p'), gives the multiple-root test and the squarefree part."""

    def test_squarefree_input_runs_one_sequence(self, monkeypatch):
        calls = {"sturm_chain": 0}
        for name in calls:
            original = getattr(_roots, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(_roots, name, counted)
        coeffs = from_roots({F(-1, 2), F(0), F(3, 4)}, F(3), F(2))
        roots, multiple = _roots.real_roots_exact(coeffs)
        assert len(roots) == 5 and not multiple
        assert calls == {"sturm_chain": 1}
        calls["sturm_chain"] = 0
        roots, multiple = _roots.real_roots_exact(
            multiply(coeffs, [F(-3, 4), F(1)]))
        assert len(roots) == 5 and multiple
        assert calls == {"sturm_chain": 2}

    def test_same_roots_and_flag_as_a_separate_gcd(self):
        rng = random.Random(19)
        cases = [[F(5)], [F(-2, 3)], [F(1), F(-3)], [F(0), F(7, 2)],
                 [F(1), F(-2), F(1)],
                 multiply(from_roots([F(1, 2)] * 2 + [F(-3)] * 3, F(-2)),
                          [F(-2), F(0), F(1)]),
                 from_roots([F(2, 3)] * 4, F(1), F(5))]
        cases += [random_product(rng, bits, repeat=3)
                  for bits in (4, 60) for _ in range(10)]
        multiple = 0
        for coeffs in cases:
            want, part = gcd_route(coeffs)
            assert _roots.real_roots_exact(coeffs) == want
            assert _roots.squarefree_part(coeffs) == (part, want[1])
            multiple += want[1]
        assert 0 < multiple < len(cases)

    @pytest.mark.parametrize("coeffs", [[F(0)], [F(0), F(0), F(0)]])
    def test_zero_polynomial_raises(self, coeffs):
        with pytest.raises(ValueError):
            _roots.real_roots_exact(coeffs)
