"""Shared fixtures: paths and loaded moment data."""

import pathlib
import random
from fractions import Fraction as F

import pytest

import extremal_moments as em
from extremal_moments import _linalg
from extremal_moments.polycore import ensure_scalar

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def multisequence_combine(parts, coeffs):
    """Scalar linear combination of multisequences of equal shape."""
    if not parts:
        raise ValueError("need at least one multisequence")
    d, degree = parts[0].d, parts[0].degree
    for p in parts:
        if (p.d, p.degree) != (d, degree):
            raise ValueError("multisequence shapes differ")
    return em.Multisequence(d, degree, {
        idx: _linalg.dot(map(ensure_scalar, coeffs),
                         (part[idx] for part in parts))
        for idx in em.monomial_basis(d, degree)})


def eval_matrix_rank(matrix) -> int:
    """The rank of the evaluation matrix W_k."""
    return _linalg.row_reduce(matrix.rows).rank


def as_float(beta):
    """The float twin of *beta*: the same moments cast to float."""
    return em.Multisequence(beta.d, beta.degree,
                            {idx: float(v) for idx, v in beta.values.items()})


def d3_measure():
    """Six seeded rational atoms in R^3, sorted, with their densities."""
    rng = random.Random(3)
    atoms = set()
    while len(atoms) < 6:
        atoms.add(tuple(F(rng.randint(-4, 4), rng.choice((1, 2)))
                        for _ in range(3)))
    atoms = sorted(atoms)
    return atoms, [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in atoms]


def conic_without_real_points():
    """Degree-6 data with the kernel {1+X^2+Y^2, X+X^3+Y^2X, Y+YX^2+Y^3}:
    the real part of point evaluation, with weights 1..10, at ten
    Gaussian-rational points (a + bi, c + di) of x^2 + y^2 + 1 = 0."""
    points = [((0, 1), (0, 0)), ((0, 0), (0, 1)), ((0, F(3, 5)), (0, F(4, 5))),
              ((F(3, 4), 0), (0, F(5, 4))), ((0, F(4, 5)), (0, F(3, 5))),
              ((F(4, 3), 0), (0, F(5, 3))), ((0, F(5, 4)), (F(3, 4), 0)),
              ((F(12, 5), 0), (0, F(13, 5))), ((0, F(5, 13)), (0, F(12, 13))),
              ((0, F(13, 12)), (F(5, 12), 0))]

    def power(z, e):
        a, b = F(1), F(0)
        for _ in range(e):
            a, b = a * z[0] - b * z[1], a * z[1] + b * z[0]
        return a, b

    values = {}
    for i, j in em.monomial_basis(2, 6):
        total = F(0)
        for weight, (x, y) in enumerate(points, 1):
            (a, b), (c, d) = power(x, i), power(y, j)
            total += weight * (a * c - b * d)
        values[(i, j)] = total
    return em.Multisequence(2, 6, values)


@pytest.fixture(scope="session")
def ex15():
    return em.load_multisequence(fixture_path("example15.moments.json"))


@pytest.fixture(scope="session")
def ex42():
    return em.load_multisequence(fixture_path("ex42_hyperbola.moments.json"))


@pytest.fixture(scope="session")
def ex44():
    return em.load_multisequence(fixture_path("ex44.moments.json"))


@pytest.fixture(scope="session")
def ex71():
    return em.load_multisequence(fixture_path("ex71.moments.json"))


@pytest.fixture(scope="session")
def prop61():
    return em.load_multisequence(fixture_path("prop61.moments.json"))


@pytest.fixture(scope="session")
def prop61_deg8():
    return em.load_multisequence(fixture_path("prop61_deg8.moments.json"))


@pytest.fixture(scope="session")
def thm62_a8_8():
    return em.load_multisequence(fixture_path("thm62_a8_8.moments.json"))
