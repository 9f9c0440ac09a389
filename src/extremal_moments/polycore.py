"""Scalars, multi-indices, and sparse multivariate polynomials.

Scalars are either exact rationals (``fractions.Fraction``) or IEEE doubles
(``float``).  Arithmetic between two exact scalars stays exact; any float
operand demotes the result to float, so exactness is a property one can read
off the values themselves (see :func:`is_exact`).

Monomials are represented by exponent tuples (``MultiIndex``); polynomials are
sparse maps from exponent tuples to scalar coefficients.  All orderings use
*degree-lex*: ascending total degree, and within a degree descending powers of
the first variable, then the second, and so on.  For two variables this lists
``1, X, Y, X^2, XY, Y^2, ...``.  One routine, :func:`values_at`, evaluates
polynomials at points: in integers, into one Fraction per value, when both
are exact, else term by term as coeff * x**e * ..., which fixes float bytes.
Polynomials and the package's report types are frozen records made by
:func:`record`, which installs shared methods and generates no code.
"""

from __future__ import annotations

import json
import math
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[Fraction, float]
MultiIndex = tuple  # tuple[int, ...]
Point = tuple  # tuple[Scalar, ...]

#: Degree of the zero polynomial.  A genuine minus infinity so that degree
#: comparisons (max, <=) behave; never confuse with a valid degree.
MINUS_INFINITY = float("-inf")


class InputError(ValueError):
    """Malformed user-supplied data (files, CLI arguments)."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def ensure_scalar(value) -> Scalar:
    """Normalize *value* to a Scalar of type Fraction or float: ints become
    exact rationals, and float subclasses (numpy's floats) plain floats."""
    if isinstance(value, bool):
        raise InputError(f"not a scalar: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return float(value)
    raise InputError(f"not a scalar: {value!r}")


def is_exact(value: Scalar) -> bool:
    """True when *value* carries exact (rational) provenance: its type is
    int or Fraction.  bool, float and numpy's scalars are not exact."""
    return type(value) in (int, Fraction)


def all_exact(values: Iterable[Scalar]) -> bool:
    """``is_exact`` of every value, read off the set of their types."""
    return {*map(type, values)} <= {int, Fraction}


def clear_denominators(values: Iterable[Scalar]) -> tuple:
    """``(ints, scale)``: the exact *values* times ``scale``, the lcm of
    their denominators, so ``ints`` are integers with the same signs."""
    fracs = [x if type(x) in (int, Fraction) else Fraction(x)
             for x in values]
    scale = math.lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs], scale


def parse_scalar(text: str, mode: str | None = None) -> Scalar:
    """Parse a scalar from its file/CLI representation.

    ``"p/q"`` and integer strings are exact; strings with a decimal point or
    exponent are floats by default.  ``mode="exact"`` converts decimal strings
    to the exact rational they denote; ``mode="float"`` forces a double.
    """
    text = text.strip()
    if mode not in (None, "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        if "/" in text:
            value: Scalar = Fraction(text)
        elif _is_integer_literal(text):
            value = Fraction(int(text))
        else:
            # decimal / scientific literal
            if mode == "exact":
                value = Fraction(Decimal(text))
            else:
                value = float(text)
    except (ValueError, ZeroDivisionError, InvalidOperation,
            OverflowError) as exc:  # Fraction(Decimal("Infinity")) overflows
        raise InputError(f"cannot parse scalar {text!r}") from exc
    # Every printed value and residual is a float, so a scalar beyond the
    # float range is rejected in both modes.
    if not in_float_range(value):
        raise InputError(f"scalar beyond the float range: {text!r}")
    if mode == "float":
        return float(value)
    return value


def in_float_range(value: Scalar) -> bool:
    """Is *value* a finite float once converted?  Infinities, NaN and exact
    values beyond the largest float are not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_integer_literal(text: str) -> bool:
    body = text[1:] if text[:1] in "+-" else text
    return body.isdigit()


def format_scalar(value: Scalar) -> str:
    """Deterministic file/CLI representation (round-trips via parse_scalar)."""
    value = ensure_scalar(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


def compact_scalar(value: Scalar) -> str:
    """Display and measure-file form: ``format_scalar`` for exact values
    with denominators below 10**12, else the shortest round-trip decimal.
    Refined approximants carry astronomically long exact denominators."""
    if is_exact(value) and value.denominator < 10**12:
        return format_scalar(value)
    return repr(float(value))


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

#: Float pivot and eigenvalue threshold, relative to the largest entry.
RANK_TOL = 1e-10
#: Residual threshold for moment and annihilation checks of float values.
RESIDUAL_TOL = 1e-7


def magnitude(values: Iterable[Scalar]) -> float:
    """max(1, largest |v|) as a float, the reference of relative
    tolerances; it saturates at the largest float."""
    try:
        return max(1.0, max((abs(float(v)) for v in values), default=1.0))
    except OverflowError:
        return sys.float_info.max


def negligible(value: Scalar, scale: float = 1.0) -> bool:
    """Is *value* zero: ``value == 0`` when it is exact, else within
    ``RESIDUAL_TOL * scale``?  NaN is not negligible."""
    if is_exact(value):
        return value == 0
    return abs(float(value)) <= RESIDUAL_TOL * scale


def significant(value: Scalar, scale: float = 1.0) -> bool:
    """Is *value* certainly nonzero?  The complement of ``negligible``,
    exact or not, except that NaN is neither: it certifies nothing."""
    if is_exact(value):
        return value != 0
    return abs(float(value)) > RESIDUAL_TOL * scale


# ---------------------------------------------------------------------------
# JSON files
# ---------------------------------------------------------------------------

class JsonInput:
    """One JSON input file: an object with required keys, read field by field.

    Every accessor raises InputError naming the file when a value has the
    wrong shape, so malformed input never escapes as a TypeError.  Scalars
    follow one rule: a string, or a JSON number read as its decimal text
    (NaN and Infinity too), goes through ``parse_scalar`` in the file's mode.
    """

    def __init__(self, path, kind: str, required: Sequence[str],
                 mode: str | None = None):
        self.where = f"{kind} file {path}"
        self.mode = mode
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle, parse_float=str, parse_constant=str)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read {self.where}: {exc}") from exc
        self.data = self.object(data, required, "top level")

    def error(self, message: str) -> InputError:
        return InputError(f"{self.where}: {message}")

    def object(self, value, required: Sequence[str], what: str) -> dict:
        if not isinstance(value, dict):
            raise self.error(f"{what} must be an object, got {value!r}")
        for key in required:
            if key not in value:
                raise self.error(f"{what}: missing key {key!r}")
        return value

    def array(self, value, what: str, length: int | None = None) -> list:
        if not isinstance(value, list):
            raise self.error(f"{what} must be a list, got {value!r}")
        if length is not None and len(value) != length:
            raise self.error(f"{what} {value} must have {length} entries")
        return value

    def integer(self, value, what: str, minimum: int = 0) -> int:
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < minimum:
            raise self.error(
                f"{what} must be an integer >= {minimum}, got {value!r}")
        return value

    def scalar(self, value) -> Scalar:
        if type(value) is int:  # a JSON number without a point or exponent
            value = str(value)
        if not isinstance(value, str):
            raise self.error(f"not a scalar: {value!r}")
        return parse_scalar(value, self.mode)

    def scalars(self, value, what: str, length: int | None = None) -> tuple:
        return tuple(self.scalar(x) for x in self.array(value, what, length))


def write_json(payload: dict, path=None) -> None:
    """Write *payload* as every file of the package is written: indented
    by two spaces, with a final newline; to stdout when *path* is None.
    A file that cannot be written raises InputError."""
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# multi-indices
# ---------------------------------------------------------------------------

def total_degree(idx: MultiIndex) -> int:
    return sum(idx)


def monomial_basis(d: int, k: int) -> list:
    """All exponent tuples with ``|idx| <= k`` in degree-lex order.

    One walk, with no recursion however large d is: the next tuple moves
    one unit from the last nonzero entry before the final one to its right
    neighbour, which also takes the final entry; after (0, ..., 0, t) comes
    (t + 1, 0, ..., 0)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    basis = []
    idx = [0] * d
    while True:
        basis.append(tuple(idx))
        i = d - 2
        while i >= 0 and not idx[i]:
            i -= 1
        last = idx[-1]
        idx[-1] = 0
        if i >= 0:
            idx[i] -= 1
            idx[i + 1] = last + 1
        elif last < k:
            idx[0] = last + 1
        else:
            return basis


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

_MISSING = object()
_setattr = object.__setattr__


class field:
    """Options of one record field: its *default*, and whether ``__init__``
    takes it (*init*), ``repr`` shows it (*repr*) and ``==`` and ``hash``
    read it (*compare*)."""

    __slots__ = ("default", "init", "repr", "compare")

    def __init__(self, default=_MISSING, *, init=True, repr=True,
                 compare=True):
        self.default = default
        self.init = init
        self.repr = repr
        self.compare = compare


def record(cls):
    """Make *cls* a frozen record of the fields its own annotations name,
    in order.  A plain class attribute is a field's default; a
    :class:`field` sets its options.  The methods are shared functions, so
    no code is generated:

    - ``__init__`` sets the ``init`` fields, in order, from its positional
      then keyword arguments, else their defaults, then calls
      ``__post_init__`` if the class has one (it sets fields with
      ``object.__setattr__``);
    - assigning or deleting an attribute raises AttributeError;
    - ``==`` and ``hash`` read the compared fields, ``repr`` the shown
      ones, as ``Name(field=value, ...)``.
    """
    specs = {}
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(spec)
        elif spec.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        specs[name] = spec
    names = tuple(name for name, spec in specs.items() if spec.init)
    defaults = tuple(specs[name].default for name in names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if kwargs or len(args) != len(names):
            _set_others(self, names, defaults, args, kwargs)
        if post_init is not None:
            post_init(self)

    compared = tuple(name for name, spec in specs.items() if spec.compare)
    shown = tuple(name for name, spec in specs.items() if spec.repr)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self, compared) == _values(other, compared)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self, compared))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in shown) + ")"

    cls.__init__ = __init__
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    return cls


def _set_others(self, names, defaults, args, kwargs) -> None:
    """Set the fields *names* of *self* after the positional *args*: from
    *kwargs*, else from *defaults*."""
    what = type(self).__qualname__
    if len(args) > len(names):
        raise TypeError(f"{what}() takes {len(names)} arguments but "
                        f"{len(args)} were given")
    for name, default in zip(names[len(args):], defaults[len(args):]):
        value = kwargs.pop(name, default)
        if value is _MISSING:
            raise TypeError(f"{what}() is missing the argument {name!r}")
        _setattr(self, name, value)
    if kwargs:
        raise TypeError(f"{what}() got an unexpected or repeated argument "
                        f"{next(iter(kwargs))!r}")


def _values(obj, names) -> tuple:
    return tuple(getattr(obj, name) for name in names)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a record")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a record")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

@record
class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero scalar coefficient."""

    d: int
    terms: Mapping

    def __post_init__(self):
        clean = {}
        for idx, coeff in self.terms.items():
            idx = tuple(int(e) for e in idx)
            if len(idx) != self.d or any(e < 0 for e in idx):
                raise ValueError(f"bad exponent tuple {idx} for d={self.d}")
            coeff = ensure_scalar(coeff)
            if coeff != 0:
                clean[idx] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def monomial(d: int, idx: MultiIndex, c=1) -> "Polynomial":
        return Polynomial(d, {tuple(idx): c})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree; MINUS_INFINITY for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(total_degree(idx) for idx in self.terms)

    @property
    def is_exact(self) -> bool:
        return all_exact(self.terms.values())

    def coefficient(self, idx: MultiIndex) -> Scalar:
        return self.terms.get(tuple(idx), Fraction(0))

    def sorted_terms(self) -> list:
        """(idx, coeff) pairs in ascending degree-lex order."""
        return sorted(
            self.terms.items(),
            key=lambda item: (total_degree(item[0]), tuple(-e for e in item[0])),
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, 0) + c
        return Polynomial(self.d, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.d, {idx: -c for idx, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dim(other)
            terms: dict = {}
            for i1, c1 in self.terms.items():
                for i2, c2 in other.terms.items():
                    idx = tuple(a + b for a, b in zip(i1, i2))
                    terms[idx] = terms.get(idx, 0) + c1 * c2
            return Polynomial(self.d, terms)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = ensure_scalar(c)
        return Polynomial(self.d, {idx: c * v for idx, v in self.terms.items()})

    def evaluate(self, point: Sequence) -> Scalar:
        return values_at([self], [point])[0][0]

    def partial(self, i: int) -> "Polynomial":
        if not 0 <= i < self.d:
            raise ValueError(f"variable index {i} out of range for d={self.d}")
        terms: dict = {}
        for idx, coeff in self.terms.items():
            e = idx[i]
            if e == 0:
                continue
            new_idx = idx[:i] + (e - 1,) + idx[i + 1:]
            terms[new_idx] = terms.get(new_idx, 0) + e * coeff
        return Polynomial(self.d, terms)

    def _check_dim(self, other: "Polynomial") -> None:
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")

    def __str__(self) -> str:
        return poly_to_string(self)


def values_at(polys: Sequence[Polynomial], points: Sequence) -> list:
    """``rows[i][j] = polys[i](points[j])``, the one routine that evaluates
    polynomials at points.  An exact p of degree t at an exact point is
    summed in integers: over the lcms L of p's denominators and D of the
    point's, x = N/D, each term c*x^a enters as L*c * N^a * D^(t-|a|), and
    the value is one Fraction over L*D^t.  Any other value is summed from
    Fraction(0) as coeff * x**e * ..., term by term, the order that fixes
    the bytes of a float."""
    # ensure_scalar leaves coefficients and coordinates Fractions or floats.
    cleared = [float not in map(type, p.terms.values()) and (
        *clear_denominators(p.terms.values()), max(p.degree, 0))
        for p in polys]
    rows: list = [[] for _ in polys]
    for point in points:
        point = [ensure_scalar(x) for x in point]
        nums, den = clear_denominators(point) \
            if float not in map(type, point) else (None, 1)
        for p, exact, row in zip(polys, cleared, rows):
            if len(point) != p.d:
                raise ValueError(f"point has {len(point)} coordinates, "
                                 f"expected {p.d}")
            if exact and nums:
                ints, lcm, top = exact
                total = 0
                for idx, c in zip(p.terms, ints):
                    for x, e in zip(nums, idx):
                        c *= x**e
                    total += c * den**(top - sum(idx))
                row.append(Fraction(total, lcm * den**top))
                continue
            total = Fraction(0)
            for idx, value in p.terms.items():
                for x, e in zip(point, idx):
                    if e:
                        value = value * x**e
                total = total + value
            row.append(total)
    return rows


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_VAR_NAMES_2D = ("X", "Y")


def monomial_to_string(idx: MultiIndex) -> str:
    """Human-readable monomial: for d=2 the Y-power is written first,
    e.g. (1, 2) -> ``Y^2X``, matching the column labels of moment matrices."""
    idx = tuple(idx)
    if not any(idx):
        return "1"
    d = len(idx)
    if d == 1:
        names = ("X",)
        order = (0,)
    elif d == 2:
        names = _VAR_NAMES_2D
        order = (1, 0)  # Y before X
    else:
        names = tuple(f"X{i + 1}" for i in range(d))
        order = tuple(range(d))
    parts = []
    for i in order:
        e = idx[i]
        if e == 0:
            continue
        parts.append(names[i] if e == 1 else f"{names[i]}^{e}")
    return "".join(parts)


def poly_to_string(p: Polynomial) -> str:
    """Deterministic rendering, terms in ascending degree-lex order."""
    if p.is_zero:
        return "0"
    pieces = []
    for idx, coeff in p.sorted_terms():
        mono = monomial_to_string(idx)
        if isinstance(coeff, Fraction):
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if mono == "1":
                body = format_scalar(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{format_scalar(mag)}{mono}" if mag.denominator == 1 \
                    else f"({format_scalar(mag)}){mono}"
        else:
            negative = coeff < 0
            mag = abs(coeff)
            body = format_scalar(mag) if mono == "1" else f"{format_scalar(mag)}{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
