"""Unit tests: scalars, monomial orders, polynomial arithmetic."""

import sys
from fractions import Fraction

import pytest

from extremal_moments.polycore import (
    InputError,
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
)


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

    def test_parse_rejects_values_beyond_the_float_range(self):
        for text in [str(10**400), f"-{10**400}/3", "1e400"]:
            for mode in (None, "exact", "float"):
                if text == "1e400" and mode != "exact":
                    continue  # a float literal that overflows is inf
                with pytest.raises(InputError, match="float range"):
                    parse_scalar(text, mode)
        with pytest.raises(InputError, match="float range"):
            parse_scalar(10**400)
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
        assert Polynomial.zero(2).degree == MINUS_INFINITY

    def test_canonicalization_drops_zero_terms(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert (1, 0) not in p.terms
        assert p.degree == 1

    def test_arith_and_evaluate(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        p = x * x + y.scale(Fraction(-3)) + Polynomial.constant(2, Fraction(1))
        assert p.evaluate((Fraction(2), Fraction(1))) == Fraction(2)
        q = p * p
        assert q.degree == 4
        assert q.evaluate((Fraction(2), Fraction(1))) == Fraction(4)

    def test_partial_derivative(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        p = x * x * y  # d/dx = 2xy, d/dy = x^2
        assert p.partial(0) == x.scale(Fraction(2)) * y
        assert p.partial(1) == x * x

    def test_sorted_terms_ascending_degree_lex(self):
        p = Polynomial(2, {(0, 2): Fraction(1), (1, 0): Fraction(2),
                           (0, 0): Fraction(3)})
        assert [idx for idx, _ in p.sorted_terms()] == [(0, 0), (1, 0), (0, 2)]

    def test_leading_form(self):
        p = Polynomial(2, {(0, 2): Fraction(1), (2, 0): Fraction(-1),
                           (1, 0): Fraction(5)})
        assert set(p.leading_form().terms) == {(0, 2), (2, 0)}

    def test_poly_to_string(self):
        p = Polynomial(2, {(0, 2): Fraction(1), (1, 0): Fraction(-4),
                           (0, 0): Fraction(2)})
        assert poly_to_string(p) == "2 - 4X + Y^2"
