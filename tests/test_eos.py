"""Equation of state: pressure, internal energy, Bregman divergence."""

import numpy as np
import pytest

from machfv import GasLaw


def test_pressure_values():
    gas = GasLaw(2.0)
    assert gas.pressure(np.array([1.0]))[0] == pytest.approx(1.0)
    assert gas.pressure(np.array([1.5]))[0] == pytest.approx(2.25)
    assert GasLaw(1.4).pressure(np.array([1.0]))[0] == pytest.approx(1.0)


def test_pressure_derivative_values():
    gas = GasLaw(2.0)
    assert gas.pressure_derivative(np.array([1.0]))[0] == pytest.approx(2.0)
    assert gas.pressure_derivative(np.array([0.5]))[0] == pytest.approx(1.0)
    assert GasLaw(1.4).pressure_derivative(np.array([1.0]))[0] == pytest.approx(1.4)


def test_pressure_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    for gamma in (1.4, 2.0, 3.0):
        gas = GasLaw(gamma)
        z = rng.uniform(0.1, 10.0, 50)
        h = 1e-6 * z
        fd = (gas.pressure(z + h) - gas.pressure(z - h)) / (2.0 * h)
        np.testing.assert_allclose(gas.pressure_derivative(z), fd, rtol=1e-6)


def test_internal_energy_values_and_identity():
    gas = GasLaw(2.0)
    assert gas.internal_energy(np.array([1.0]))[0] == pytest.approx(1.0)
    assert gas.internal_energy(np.array([2.0]))[0] == pytest.approx(4.0)
    # z P'(z) - p(z) = P(z), the barotropic potential identity
    for gamma in (1.4, 2.0, 5.0 / 3.0):
        gas = GasLaw(gamma)
        z = np.geomspace(1e-3, 1e3, 200)
        pot_prime = gamma / (gamma - 1.0) * z ** (gamma - 1.0)
        lhs = z * pot_prime - gas.pressure(z)
        np.testing.assert_allclose(lhs, gas.internal_energy(z), rtol=1e-13)


def test_relative_internal_energy_bregman():
    gas = GasLaw(2.0)
    # gamma = 2: Pi(z1|z2) = (z1 - z2)^2 exactly
    assert gas.relative_internal_energy(np.array([2.0]), 1.0)[0] == pytest.approx(1.0)
    rng = np.random.default_rng(13)
    z1 = rng.uniform(0.1, 10.0, 100)
    z2 = rng.uniform(0.1, 10.0, 100)
    # absolute floor covers cancellation noise ~ eps * P(z) when z1 ~ z2
    np.testing.assert_allclose(gas.relative_internal_energy(z1, z2),
                               (z1 - z2) ** 2, rtol=1e-12, atol=1e-13)
    for gamma in (1.4, 2.0):
        gas = GasLaw(gamma)
        vals = gas.relative_internal_energy(z1, z2)
        assert (vals >= 0.0).all()
        np.testing.assert_allclose(gas.relative_internal_energy(z1, z1), 0.0,
                                   atol=1e-14)


def test_gamma_must_exceed_one():
    with pytest.raises(ValueError):
        GasLaw(1.0)
    with pytest.raises(ValueError):
        GasLaw(0.5)


@pytest.mark.parametrize("container", [list, tuple])
def test_sequence_input_matches_array(container):
    gas = GasLaw(1.4)
    values = [0.5, 1.0, 2.0]
    for fn in (gas.pressure, gas.pressure_derivative, gas.internal_energy):
        result = fn(container(values))
        expected = fn(np.array(values))
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)
    np.testing.assert_array_equal(
        gas.relative_internal_energy(container(values), container(values[::-1])),
        gas.relative_internal_energy(np.array(values), np.array(values[::-1])))
