"""Unit tests: scalars, monomial orders, polynomial arithmetic."""

import itertools
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from extremal_moments.moments import KernelReport, Multisequence
from extremal_moments.polycore import (
    InputError,
    JsonInput,
    MINUS_INFINITY,
    Polynomial,
    format_scalar,
    magnitude,
    monomial_basis,
    monomial_to_string,
    negligible,
    parse_scalar,
    poly_to_string,
    significant,
    total_degree,
    values_at,
)
from extremal_moments.variety import VarietyReport


class TestScalars:
    def test_parse_fraction_and_int(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-7") == Fraction(-7)
        assert isinstance(parse_scalar("-7"), Fraction)

    def test_parse_decimal_defaults_to_float(self):
        x = parse_scalar("0.5")
        assert isinstance(x, float) and x == 0.5

    def test_parse_decimal_exact_mode_is_exact(self):
        x = parse_scalar("0.1", mode="exact")
        assert x == Fraction(1, 10)

    def test_parse_scientific_exact_mode(self):
        assert parse_scalar("2.5e-3", mode="exact") == Fraction(1, 400)

    def test_parse_float_mode_forces_float(self):
        x = parse_scalar("3/4", mode="float")
        assert isinstance(x, float) and x == 0.75

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_scalar("one half")

    def test_parse_rejects_values_beyond_the_float_range(self, tmp_path):
        for text in [str(10**400), f"-{10**400}/3", "1e400"]:
            for mode in (None, "exact", "float"):
                with pytest.raises(InputError, match="float range"):
                    parse_scalar(text, mode)
        # A JSON number is read as its decimal text, so it is rejected alike.
        path = tmp_path / "huge.json"
        path.write_text(f'{{"value": {10**400}}}')
        data = JsonInput(path, "test", ("value",))
        with pytest.raises(InputError, match="float range"):
            data.scalar(data.data["value"])
        assert parse_scalar(f"1/{10**400}") == Fraction(1, 10**400)

    def test_magnitude_saturates(self):
        assert magnitude([]) == magnitude([Fraction(1, 2)]) == 1.0
        assert magnitude([Fraction(-3), 2.0]) == 3.0
        assert magnitude([Fraction(10**400), 1.0]) == sys.float_info.max

    def test_format_round_trip(self):
        for text in ["3/4", "-7", "0"]:
            assert format_scalar(parse_scalar(text)) == text


class TestZeroTests:
    """The value decides: exact values compare exactly, floats within
    RESIDUAL_TOL * scale, and NaN is neither zero nor nonzero."""

    @pytest.mark.parametrize("value, zero, nonzero", [
        (Fraction(1, 10**50), False, True),
        (1e-50, True, False),
        (0, True, False),
        (Fraction(0), True, False),
        (0.0, True, False),
        (float("nan"), False, False),
    ], ids=["tiny-fraction", "tiny-float", "int-zero", "fraction-zero",
            "float-zero", "nan"])
    def test_negligible_and_significant(self, value, zero, nonzero):
        assert negligible(value) is zero
        assert significant(value) is nonzero

    def test_scale_moves_only_the_float_threshold(self):
        assert not negligible(Fraction(1, 10**50), 1e60)
        assert significant(Fraction(1, 10**50), 1e60)
        assert negligible(1e-3, 1e5) and not significant(1e-3, 1e5)
        assert significant(1e-3) and not negligible(1e-3)


class TestMonomials:
    def test_degree_lex_order_d2(self):
        assert monomial_basis(2, 2) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_degree_lex_order_d3_head(self):
        basis = monomial_basis(3, 1)
        assert basis == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_degree_lex_order_is_the_sorted_order(self):
        # Ascending total degree, then descending powers of the first
        # variable, the second, and so on.
        for d in range(1, 5):
            for k in range(6):
                indices = [idx for idx in itertools.product(range(k + 1),
                                                            repeat=d)
                           if sum(idx) <= k]
                assert monomial_basis(d, k) == sorted(
                    indices, key=lambda idx: (sum(idx), [-e for e in idx]))

    def test_many_variables(self):
        # One walk, not one recursion level per variable.
        assert monomial_basis(3000, 1) == [(0,) * 3000] + [
            (0,) * i + (1,) + (0,) * (2999 - i) for i in range(3000)]

    def test_total_degree(self):
        assert total_degree((2, 3)) == 5

    def test_monomial_strings(self):
        assert monomial_to_string((0, 0)) == "1"
        assert monomial_to_string((1, 0)) == "X"
        assert monomial_to_string((0, 1)) == "Y"
        assert monomial_to_string((1, 2)) == "Y^2X"
        assert monomial_to_string((2, 1)) == "YX^2"


class TestPolynomial:
    def test_zero_degree_is_minus_infinity(self):
        assert Polynomial(2, {}).degree == MINUS_INFINITY

    def test_canonicalization_drops_zero_terms(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert (1, 0) not in p.terms
        assert p.degree == 1

    def test_arith_and_evaluate(self):
        x = Polynomial.monomial(2, (1, 0))
        y = Polynomial.monomial(2, (0, 1))
        p = x * x + y.scale(Fraction(-3)) + Polynomial.monomial(2, (0, 0))
        assert p.evaluate((Fraction(2), Fraction(1))) == Fraction(2)
        q = p * p
        assert q.degree == 4
        assert q.evaluate((Fraction(2), Fraction(1))) == Fraction(4)

    def test_partial_derivative(self):
        x = Polynomial.monomial(2, (1, 0))
        y = Polynomial.monomial(2, (0, 1))
        p = x * x * y  # d/dx = 2xy, d/dy = x^2
        assert p.partial(0) == x.scale(Fraction(2)) * y
        assert p.partial(1) == x * x

    def test_sorted_terms_ascending_degree_lex(self):
        p = Polynomial(2, {(0, 2): Fraction(1), (1, 0): Fraction(2),
                           (0, 0): Fraction(3)})
        assert [idx for idx, _ in p.sorted_terms()] == [(0, 0), (1, 0), (0, 2)]

    def test_poly_to_string(self):
        p = Polynomial(2, {(0, 2): Fraction(1), (1, 0): Fraction(-4),
                           (0, 0): Fraction(2)})
        assert poly_to_string(p) == "2 - 4X + Y^2"


def _fraction_value(p, point):
    """p(point) summed in Fractions, the reference of exact values."""
    total = Fraction(0)
    for idx, c in p.terms.items():
        term = Fraction(c)
        for x, e in zip(point, idx):
            term *= Fraction(x)**e
        total += term
    return total


def _term_loop_value(p, point):
    """The term loop that evaluated polynomials before ``values_at``, the
    reference of float bytes."""
    total = Fraction(0)
    for idx, coeff in p.terms.items():
        value = coeff
        for x, e in zip(point, idx):
            if e:
                value = value * x**e
        total = total + value
    return total


def _random_coordinate(rng):
    return rng.choice((
        Fraction(0), Fraction(rng.randint(-9, 9)),
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 50)),
        Fraction(rng.randint(-10**15, 10**15), 10**12 + rng.randint(0, 999)),
        Fraction(rng.choice((-1, 1)), 3**rng.randint(26, 40))))


def _random_polys(rng, d, count, coefficient):
    """*count* polynomials of degree <= 6: constants, the zero polynomial,
    monomials and sums of up to six terms."""
    polys = [Polynomial(d, {}),
             Polynomial.monomial(d, (0,) * d, coefficient(rng))]
    while len(polys) < count:
        terms = {tuple(rng.randint(0, 5 // d + 1) for _ in range(d)):
                 coefficient(rng) for _ in range(rng.randint(1, 6))}
        polys.append(Polynomial(d, terms))
    return polys


def _exact_coefficient(rng):
    return rng.choice((Fraction(rng.randint(-20, 20)),
                       Fraction(rng.randint(-10**9, 10**9),
                                rng.randint(1, 10**13))))


def _float_coefficient(rng):
    return rng.uniform(-5.0, 5.0)


class TestValuesAt:
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_exact_values_are_the_fraction_sums(self, d):
        rng = random.Random(d)
        polys = _random_polys(rng, d, 12, _exact_coefficient)
        points = [tuple(_random_coordinate(rng) for _ in range(d))
                  for _ in range(10)]
        points.append((0,) * d)  # integers are exact too
        rows = values_at(polys, points)
        for p, row in zip(polys, rows):
            for w, value in zip(points, row):
                assert type(value) is Fraction
                assert value == _fraction_value(p, w)
                assert p.evaluate(w) == value

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_float_and_mixed_values_keep_their_bytes(self, d):
        rng = random.Random(10 + d)
        polys = _random_polys(rng, d, 6, _exact_coefficient) \
            + _random_polys(rng, d, 6, _float_coefficient)
        exact = [tuple(_random_coordinate(rng) for _ in range(d))
                 for _ in range(4)]
        floats = [tuple(rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0)))
                        for _ in range(d)) for _ in range(4)]
        mixed = [tuple(rng.choice((float(x), x)) for x in w) for w in exact]
        points = exact + floats + mixed
        rows = values_at(polys, points)
        for p, row in zip(polys, rows):
            for w, value in zip(points, row):
                assert repr(value) == repr(_term_loop_value(p, w))
                assert repr(p.evaluate(w)) == repr(value)

    def test_numpy_floats_take_the_float_path(self):
        p = Polynomial(1, {(2,): Fraction(1, 3), (0,): Fraction(1)})
        value = values_at([p], [(np.float64(0.1),)])[0][0]
        assert type(value) is float
        assert repr(value) == repr(_term_loop_value(p, (0.1,)))

    def test_rejects_points_of_the_wrong_dimension(self):
        with pytest.raises(ValueError, match="2 coordinates, expected 3"):
            values_at([Polynomial.monomial(3, (0, 0, 0))], [(1, 2)])
        with pytest.raises(InputError):
            values_at([Polynomial.monomial(1, (0,))], [("1",)])



def _kernel_reports():
    """Two KernelReports that differ only in ``psd``, a field left out of
    == and hash."""
    fields = (1, 0, ((0,),), 1, ((0,),), ())
    return KernelReport(*fields, psd=True), KernelReport(*fields, psd=False)


_X = Polynomial(1, {(1,): 1})
#: name -> (the error the call raises, or None if it returns True, call)
RECORD_CHECKS = {
    "assign": (AttributeError, lambda: setattr(_X, "d", 2)),
    "assign-new": (AttributeError, lambda: setattr(_X, "cache", 1)),
    "delete": (AttributeError, lambda: delattr(_X, "terms")),
    "missing": (TypeError, lambda: Polynomial(1)),
    "missing-keyword": (TypeError, lambda: VarietyReport(points=())),
    "unexpected": (TypeError, lambda: Polynomial(1, {}, degree=2)),
    "repeated": (TypeError, lambda: Polynomial(1, {}, d=1)),
    "too-many": (TypeError, lambda: Polynomial(1, {}, 2)),
    "not-an-argument": (TypeError, lambda: Multisequence(
        1, 0, {(0,): 1}, is_exact=False)),
    "keywords": (None, lambda: Polynomial(terms={(1,): 1}, d=1) == _X),
    "compare": (None, lambda: Polynomial(1, {(1,): 2}) != _X
                and _X != (1, {(1,): 1})),
    "compare-false": (None, lambda: _kernel_reports()[0]
                      == _kernel_reports()[1]
                      and len({*_kernel_reports()}) == 1),
    "repr": (None, lambda: repr(_X)
             == "Polynomial(d=1, terms={(1,): Fraction(1, 1)})"),
    "repr-false": (None, lambda: repr(VarietyReport(
        "Finite", ((0,),), quotient=("q",))) == (
        "VarietyReport(status='Finite', points=((0,),), exact_mask=(), "
        "witness=None, reason=None, multiple_roots=False)")),
    "defaults": (None, lambda: VarietyReport("Unknown").quotient is None),
    "post-init": (None, lambda: Polynomial(
        2, {(1, 0): 0, (0, 1): 3, (0, 0): 0.0}).terms
        == {(0, 1): Fraction(3)}),
    "post-init-hidden-field": (None, lambda: Multisequence(
        1, 0, {(0,): 1}).is_exact
        and not Multisequence(1, 0, {(0,): 1.0}).is_exact),
}


@pytest.mark.parametrize("error, call", RECORD_CHECKS.values(),
                         ids=RECORD_CHECKS.keys())
def test_record_semantics(error, call):
    # polycore.record: frozen fields, checked arguments, == and hash over
    # the compared fields, repr over the shown ones, __post_init__ run.
    if error is None:
        assert call()
    else:
        with pytest.raises(error):
            call()
