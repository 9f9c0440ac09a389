"""Shared fixtures: paths and loaded moment data."""

import pathlib
import random
from fractions import Fraction as F

import pytest

import extremal_moments as em

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


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
