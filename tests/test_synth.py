"""Synthesis of moment data: atoms, signed functionals, complex families."""

import json
import random
from fractions import Fraction as F

import pytest

import extremal_moments as em
from extremal_moments.polycore import (InputError, Polynomial,
                                       monomial_basis)

from conftest import fixture_path


class TestAtoms:
    def test_moments_of_single_atom(self):
        beta = em.beta_from_atoms([(F(1), F(2))], [F(3)], degree=2)
        assert beta[(0, 0)] == 3
        assert beta[(1, 0)] == 3
        assert beta[(0, 1)] == 6
        assert beta[(2, 0)] == 3
        assert beta[(1, 1)] == 6
        assert beta[(0, 2)] == 12

    def test_signed_weights_allowed(self):
        beta = em.beta_from_atoms([(F(0),), (F(1),)], [F(1), F(-1)], degree=2)
        assert beta[(0,)] == 0
        assert beta[(1,)] == -1

    def test_validations(self):
        with pytest.raises(ValueError):
            em.beta_from_atoms([], [], degree=2)
        with pytest.raises(ValueError):
            em.beta_from_atoms([(F(0),)], [F(1), F(2)], degree=2)


def naive_moments(d, degree, atoms, densities):
    """sum_i densities[i] * atoms[i]**idx term by term, in the order of
    the Scalar loop: a Fraction zero plus each density times its powers."""
    values = {}
    for idx in monomial_basis(d, degree):
        total = F(0)
        for w, rho in zip(atoms, densities):
            term = rho
            for x, e in zip(w, idx):
                if e:
                    term = term * x**e
            total = total + term
        values[idx] = total
    return values


def random_atoms(rng, d, count):
    atoms = [tuple(F(rng.randint(-40, 40), rng.randint(1, 12))
                   for _ in range(d)) for _ in range(count)]
    return atoms, [F(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(count)]


class TestMomentsOfAtoms:
    """Exact atoms are summed in integers, to the same Fractions."""

    @pytest.mark.parametrize("d, degree", [(1, 16), (2, 8), (3, 6)])
    def test_exact_equals_fraction_loop(self, d, degree):
        rng = random.Random(d)
        for count in (1, 3, 9):
            atoms, densities = random_atoms(rng, d, count)
            assert any(rho < 0 for rho in densities) or count == 1
            got = em.moments_of_atoms(d, degree, atoms, densities)
            want = naive_moments(d, degree, atoms, densities)
            assert list(got) == list(want)
            assert all(type(v) is F and v == want[idx]
                       for idx, v in got.items())

    def test_integer_entries_are_exact(self):
        got = em.moments_of_atoms(2, 4, [(1, F(1, 2)), (-3, 2)], [2, F(-1, 3)])
        assert got == naive_moments(2, 4, [(F(1), F(1, 2)), (F(-3), F(2))],
                                    [F(2), F(-1, 3)])
        assert all(type(v) is F for v in got.values())

    @pytest.mark.parametrize("d, degree", [(1, 16), (2, 8), (3, 6)])
    def test_float_and_mixed_bit_identical(self, d, degree):
        rng = random.Random(10 + d)
        atoms, densities = random_atoms(rng, d, 7)
        floats = ([tuple(float(x) for x in w) for w in atoms],
                  [float(r) for r in densities])
        mixed = ([(float(atoms[0][0]),) + atoms[0][1:]] + atoms[1:],
                 densities)
        float_densities = (atoms, [float(r) for r in densities])
        for data in (floats, mixed, float_densities):
            got = em.moments_of_atoms(d, degree, *data)
            want = naive_moments(d, degree, *data)
            assert list(got) == list(want)
            for idx, value in got.items():
                assert type(value) is type(want[idx])
                assert value == want[idx]
            assert type(got[(degree,) + (0,) * (d - 1)]) is float


class TestSignedFunctional:
    def test_apply_with_derivation(self):
        functional = em.SignedFunctional(
            1, ((F(1),),), (F(2),),
            em.Derivation((F(2),), (F(1),), F(3)))
        p = Polynomial(1, {(2,): F(1)})  # x^2
        # 2 * 1^2 + 3 * d/dx[x^2](2) = 2 + 12
        assert functional.apply(p) == 14

    def test_derivation_directional(self):
        derivation = em.Derivation((F(1), F(2)), (F(3), F(4)), F(1, 2))
        p = Polynomial(2, {(2, 1): F(1)})  # x^2 y
        # grad = (2xy, x^2) = (4, 1); <dir, grad> = 12 + 4 = 16; a0 = 1/2
        assert derivation.apply(p) == 8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            em.SignedFunctional(1, ((F(0),),), (F(1), F(2)))

    def test_beta_from_functional_matches_atoms(self):
        functional = em.SignedFunctional(1, ((F(0),), (F(1),)), (F(2), F(3)))
        direct = em.beta_from_atoms([(F(0),), (F(1),)], [F(2), F(3)],
                                    degree=4)
        assert em.beta_from_functional(functional, 4) == direct


class TestFunctionalFixtures:
    def test_unit_weight_functional_reproduces_fixture(self, prop61):
        functional = em.load_functional(
            fixture_path("prop61.functional.json"))
        beta = em.beta_from_functional(functional, 6)
        scale = prop61.scale()
        for idx in prop61.values:
            assert abs(float(beta[idx]) - float(prop61[idx])) <= 1e-8 * scale

    def test_derivation_functional_reproduces_fixture(self, thm62_a8_8):
        functional = em.load_functional(
            fixture_path("thm62.functional.json"))
        assert functional.derivation is not None
        assert functional.derivation.a0 == 1
        beta = em.beta_from_functional(functional, 6)
        scale = thm62_a8_8.scale()
        for idx in thm62_a8_8.values:
            assert abs(float(beta[idx])
                       - float(thm62_a8_8[idx])) <= 1e-8 * scale


class TestCircleFamily:
    def test_gamma_structure(self):
        gamma = em.example14_gamma(2, F(1, 2))
        assert gamma[(0, 0)] == (F(1), F(0))
        assert gamma[(1, 1)] == (F(1), F(0))
        assert gamma[(2, 2)] == (F(1), F(0))
        assert gamma[(0, 3)] == (F(1, 2), F(0))
        assert gamma[(3, 0)] == (F(1, 2), F(0))
        assert gamma[(0, 4)] == (F(3, 4), F(0))
        assert gamma[(1, 2)] == (F(0), F(0))
        with pytest.raises(ValueError):
            em.example14_gamma(0, F(1, 2))

    def test_hermitian_validation(self):
        values = {(0, 0): (F(1), F(0)), (1, 0): (F(0), F(1)),
                  (0, 1): (F(0), F(1)), (2, 0): (F(0), F(0)),
                  (0, 2): (F(0), F(0)), (1, 1): (F(1), F(0))}
        with pytest.raises(InputError):
            em.ComplexMomentData(1, values)  # imag parts fail conjugacy
        with pytest.raises(InputError):
            em.ComplexMomentData(1, {(0, 0): (F(1), F(0))})  # missing
        with pytest.raises(InputError):
            em.ComplexMomentData(1, {(5, 5): (F(1), F(0))})  # out of range

    def test_transform_is_exact(self):
        beta = em.complex_to_real(em.example14_gamma(2, F(1, 2)))
        assert beta.d == 2
        assert beta.degree == 4
        assert beta.is_exact
        assert beta[(0, 0)] == 1
        assert beta[(1, 0)] == 0
        assert beta[(0, 1)] == 0
        # x^2 + y^2 pulls back to z conj(z).
        assert beta[(2, 0)] + beta[(0, 2)] == 1

    def test_family_n2_measure_on_circle(self):
        beta = em.complex_to_real(em.example14_gamma(2, F(1, 2)))
        report = em.solve_extremal(beta)
        assert report.status == "Measure"
        assert report.rank == 4
        assert report.v == 4
        for w in report.measure.atoms:
            assert abs(float(w[0]) ** 2 + float(w[1]) ** 2 - 1.0) < 1e-12
        circle = Polynomial(2, {(2, 0): F(1), (0, 2): F(1), (0, 0): F(-1)})
        assert any(p.terms == circle.terms for p in report.kernel.kernel)

    def test_family_n3_measure_on_circle(self):
        beta = em.complex_to_real(em.example14_gamma(3, F(1, 2)))
        report = em.solve_extremal(beta)
        assert report.status == "Measure"
        assert report.rank == 6
        assert report.v == 6
        for w in report.measure.atoms:
            assert abs(float(w[0]) ** 2 + float(w[1]) ** 2 - 1.0) < 1e-12
        for rho in report.measure.densities:
            assert float(rho) > 0


class TestFunctionalIO:
    def test_round_trip_with_derivation(self, tmp_path):
        path = tmp_path / "functional.json"
        functional = em.SignedFunctional(
            2, ((F(1, 2), F(1, 8)), (F(0), F(0))), (F(8), F(1)),
            em.Derivation((F(1, 2), F(1, 8)), (F(1), F(3, 4)), F(1)))
        path.write_text(json.dumps({
            "d": 2, "atoms": [["1/2", "1/8"], ["0", "0"]],
            "weights": ["8", "1"],
            "derivation": {"a0": "1", "point": ["1/2", "1/8"],
                           "direction": ["1", "3/4"]}}))
        back = em.load_functional(path, mode="exact")
        assert back == functional

    def test_load_rejects_malformed(self, tmp_path):
        missing = tmp_path / "missing.json"
        missing.write_text('{"d": 1, "atoms": [["0"]]}')
        with pytest.raises(InputError):
            em.load_functional(missing)
        arity = tmp_path / "arity.json"
        arity.write_text('{"d": 2, "atoms": [["0"]], "weights": ["1"]}')
        with pytest.raises(InputError):
            em.load_functional(arity)
        der = tmp_path / "derivation.json"
        der.write_text('{"d": 1, "atoms": [["0"]], "weights": ["1"], '
                       '"derivation": {"a0": "1"}}')
        with pytest.raises(InputError):
            em.load_functional(der)
