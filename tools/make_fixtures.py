#!/usr/bin/env python3
"""Regenerate the JSON fixtures under fixtures/.

Literal moment tables are written verbatim; the eight-point curve data
(prop61 / thm62 families) is recomputed with sympy in exact arithmetic from
the point list, so every surd cancellation is certified before freezing.

Run from the repository root:  python3 tools/make_fixtures.py
"""

from __future__ import annotations

import json
import pathlib
import sys

from fractions import Fraction

import sympy

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "fixtures"


def degree_lex(d: int, bound: int):
    if d == 1:
        return [(k,) for k in range(bound + 1)]
    if d != 2:
        raise ValueError("only d=1 and d=2 fixtures are generated here")
    return [(total - j, j) for total in range(bound + 1)
            for j in range(total + 1)]


def write_moments(name: str, d: int, degree: int, values: dict):
    payload = {
        "d": d,
        "degree": degree,
        "moments": [{"idx": list(idx), "value": values[idx]}
                    for idx in degree_lex(d, degree)],
    }
    path = OUT / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 \
        else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# literal tables
# ---------------------------------------------------------------------------

EXAMPLE15 = {
    (0, 0): "1", (1, 0): "0", (0, 1): "0",
    (2, 0): "1/2", (1, 1): "0", (0, 2): "3/2",
    (3, 0): "-5/4", (2, 1): "0", (1, 2): "-3/4", (0, 3): "0",
    (4, 0): "45/8", (3, 1): "0", (2, 2): "3/8", (1, 3): "0", (0, 4): "45/8",
}

EX42_HYPERBOLA = {
    (0, 0): "1", (1, 0): "0", (0, 1): "0",
    (2, 0): "1", (1, 1): "1", (0, 2): "2",
    (3, 0): "0", (2, 1): "0", (1, 2): "0", (0, 3): "0",
    (4, 0): "3", (3, 1): "1", (2, 2): "1", (1, 3): "2", (0, 4): "5",
    (5, 0): "0", (4, 1): "0", (3, 2): "0", (2, 3): "0", (1, 4): "0",
    (0, 5): "0",
    (6, 0): "14", (5, 1): "3", (4, 2): "1", (3, 3): "1", (2, 4): "2",
    (1, 5): "5", (0, 6): "33",
}

EX44 = {
    (0, 0): "1", (1, 0): "0", (0, 1): "0",
    (2, 0): "1", (1, 1): "2", (0, 2): "5",
    (3, 0): "0", (2, 1): "0", (1, 2): "0", (0, 3): "0",
    (4, 0): "2", (3, 1): "5", (2, 2): "14", (1, 3): "42", (0, 4): "200",
    (5, 0): "0", (4, 1): "0", (3, 2): "0", (2, 3): "0", (1, 4): "0",
    (0, 5): "0",
    (6, 0): "5", (5, 1): "14", (4, 2): "42", (3, 3): "200", (2, 4): "5868",
    (1, 5): "386568", (0, 6): "26992856",
}

#: d=1: M(2) has the kernel element x, but x * x leaves the kernel, since
#: Lambda(x^4) = 1: the data is not recursively generated.
NONRECURSIVE = {(0,): "1", (1,): "0", (2,): "0", (3,): "0", (4,): "1"}

#: d=1: M(1) is invertible but not PSD, Lambda(x^2) = -1.
NOT_PSD = {(0,): "1", (1,): "0", (2,): "-1"}

EX71 = {
    (0, 0): "1", (1, 0): "0", (0, 1): "0",
    (2, 0): "1", (1, 1): "2", (0, 2): "5",
    (3, 0): "0", (2, 1): "0", (1, 2): "0", (0, 3): "0",
    (4, 0): "2", (3, 1): "5", (2, 2): "14", (1, 3): "42", (0, 4): "132",
    (5, 0): "0", (4, 1): "0", (3, 2): "0", (2, 3): "0", (1, 4): "0",
    (0, 5): "0",
    (6, 0): "5", (5, 1): "14", (4, 2): "42", (3, 3): "132", (2, 4): "429",
    (1, 5): "2000", (0, 6): "338881",
}


# ---------------------------------------------------------------------------
# eight-point curve family (y = x^3)
# ---------------------------------------------------------------------------

S13 = sympy.sqrt(13)
CURVE_POINTS = [
    (sympy.Integer(-2), sympy.Integer(-8)),
    (sympy.Integer(0), sympy.Integer(0)),
    (sympy.Integer(2), sympy.Integer(8)),
    (sympy.Integer(1), sympy.Integer(1)),
    (sympy.Rational(-1, 2) + S13 / 2, -5 + 2 * S13),
    (sympy.Rational(-1, 2) - S13 / 2, -5 - 2 * S13),
    (sympy.Integer(-1), sympy.Integer(-1)),
    (sympy.Rational(1, 2), sympy.Rational(1, 8)),
]
DERIVATION_POINT = (sympy.Rational(1, 2), sympy.Rational(1, 8))
DERIVATION_DIRECTION = (sympy.Integer(1), sympy.Rational(3, 4))


def curve_moments(weights, degree, derivation_scale=None) -> dict:
    """Exact rational moments of sum_i w_i * evaluation at CURVE_POINTS[i],
    optionally plus derivation_scale times the directional derivative at
    DERIVATION_POINT along DERIVATION_DIRECTION."""
    xs, ys = sympy.symbols("xs ys")
    values = {}
    for idx in degree_lex(2, degree):
        i, j = idx
        total = sum(sympy.sympify(w) * px**i * py**j
                    for w, (px, py) in zip(weights, CURVE_POINTS))
        if derivation_scale is not None:
            mono = xs**i * ys**j
            dx, dy = DERIVATION_DIRECTION
            total += sympy.sympify(derivation_scale) * (
                dx * sympy.diff(mono, xs) + dy * sympy.diff(mono, ys)
            ).subs({xs: DERIVATION_POINT[0], ys: DERIVATION_POINT[1]})
        total = sympy.expand(total)
        if not total.is_Rational:
            total = sympy.simplify(total)
        assert total.is_Rational, f"moment {idx} did not collapse: {total}"
        values[idx] = frac_str(Fraction(int(total.p), int(total.q)))
    return values


def point_str(value) -> str:
    """Exact rationals as fraction strings, surds as 30-digit decimals."""
    if sympy.sympify(value).is_Rational:
        return frac_str(Fraction(int(sympy.sympify(value).p),
                                 int(sympy.sympify(value).q)))
    return str(sympy.N(value, 30))


def write_functional(name: str, weights, derivation_scale=None):
    payload = {
        "d": 2,
        "atoms": [[point_str(px), point_str(py)] for px, py in CURVE_POINTS],
        "weights": [frac_str(Fraction(int(w))) for w in weights],
    }
    if derivation_scale is not None:
        payload["derivation"] = {
            "a0": frac_str(Fraction(int(derivation_scale))),
            "point": [point_str(x) for x in DERIVATION_POINT],
            "direction": [point_str(x) for x in DERIVATION_DIRECTION],
        }
    path = OUT / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    write_moments("example15.moments.json", 2, 4, EXAMPLE15)
    write_moments("ex42_hyperbola.moments.json", 2, 6, EX42_HYPERBOLA)
    write_moments("ex44.moments.json", 2, 6, EX44)
    write_moments("ex71.moments.json", 2, 6, EX71)
    write_moments("nonrecursive.moments.json", 1, 4, NONRECURSIVE)
    write_moments("not_psd.moments.json", 1, 2, NOT_PSD)

    unit = [1] * 8
    write_moments("prop61.moments.json", 2, 6, curve_moments(unit, 6))
    write_moments("prop61_deg8.moments.json", 2, 8, curve_moments(unit, 8))
    write_moments("thm62_a8_8.moments.json", 2, 6,
                  curve_moments([1, 1, 1, 1, 1, 1, 1, 8], 6,
                                derivation_scale=1))
    write_functional("prop61.functional.json", unit)
    write_functional("thm62.functional.json", [1, 1, 1, 1, 1, 1, 1, 8],
                     derivation_scale=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
