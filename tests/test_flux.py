"""Stabilised upwind flux assembly tests."""

import numpy as np
import pytest

from machfv import (GasLaw, assemble_fluxes, build_mesh, density_faces,
                    face_average_normal, face_jump, flux_divergence, gather_to_faces,
                    mass_flux, momentum_flux, split_normal_velocity,
                    stabilisation_velocity)
from machfv.flux import VISCOUS_SCALE as s  # the jump penalty of both fluxes


def test_stabilisation_velocity_single_jump():
    mesh = build_mesh(4, 4, 2.0, 2.0)  # hx = 0.5
    p = np.ones(mesh.n_cells)
    f = 0, 0  # first x-face: K = cell 0, L = cell 1
    p[1] = 2.0
    delta = stabilisation_velocity(mesh, face_jump(mesh, p), eta=1.0, dt=0.1, eps=1.0)
    assert delta[f] == pytest.approx(0.2)  # 0.1 * (2 - 1) / 0.5
    # doubling eta doubles delta_u exactly
    np.testing.assert_array_equal(
        stabilisation_velocity(mesh, face_jump(mesh, p), eta=2.0, dt=0.1, eps=1.0),
        2.0 * delta)
    # uniform pressure gives exactly zero
    assert (stabilisation_velocity(mesh, face_jump(mesh, np.ones(mesh.n_cells)), 1.0, 0.1, 1.0)
            == 0.0).all()


def test_split_normal_velocity_cases():
    assert split_normal_velocity(0.0, 0.0) == (0.0, 0.0)
    w_plus, w_minus = split_normal_velocity(0.3, 0.5)
    assert (w_plus, w_minus) == (0.3, -0.5)
    assert w_plus + w_minus == pytest.approx(0.3 - 0.5)
    assert split_normal_velocity(-1.0, 0.0) == (0.0, -1.0)


def test_split_normal_velocity_properties():
    rng = np.random.default_rng(19)
    u = rng.normal(size=200)
    d = rng.normal(size=200)
    w_plus, w_minus = split_normal_velocity(u, d)
    assert (w_plus >= 0.0).all() and (w_minus <= 0.0).all()
    np.testing.assert_allclose(w_plus + w_minus, u - d, atol=1e-15)


def test_mass_flux_values():
    # F = rho_K (w_plus + s) + rho_L (w_minus - s)
    flux, plus, minus = mass_flux(1.0, 1.0, 0.0, 0.0)
    assert (flux, plus, minus) == (0.0, s, -s)
    flux, _, _ = mass_flux(2.0, 1.0, 1.0, 0.0)
    assert flux == pytest.approx(2 * (1 + s) + 1 * (0 - s))
    flux, _, _ = mass_flux(1.0, 2.0, 0.0, -1.0)
    assert flux == pytest.approx(1 * (0 + s) + 2 * (-1 - s))


def test_mass_flux_sign_split():
    rng = np.random.default_rng(23)
    rho_k = rng.uniform(0.1, 3.0, 500)
    rho_l = rng.uniform(0.1, 3.0, 500)
    w_plus, w_minus = split_normal_velocity(rng.normal(size=500),
                                            rng.normal(size=500))
    flux, plus, minus = mass_flux(rho_k, rho_l, w_plus, w_minus)
    assert (plus >= 0.0).all() and (minus <= 0.0).all()
    np.testing.assert_array_equal(flux, plus + minus)


def test_momentum_flux_values():
    u = np.array([0.7, -0.2])
    np.testing.assert_allclose(momentum_flux(1.0, -1.0, u, u), np.zeros(2),
                               atol=1e-15)
    g = momentum_flux(2.0, 0.0, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(g, [2 * 1 + 0 * 0 - s * (0 - 1), 0.0])
    # with equal velocities the viscous jump vanishes: G = (F+ + F-) u
    rng = np.random.default_rng(29)
    fp = rng.uniform(0.0, 2.0, 50)
    fm = rng.uniform(-2.0, 0.0, 50)
    uu = rng.normal(size=(50, 2))
    np.testing.assert_allclose(momentum_flux(fp[:, None], fm[:, None], uu, uu),
                               (fp + fm)[:, None] * uu, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_momentum_flux_is_elementwise_in_the_inputs_dtype(dtype):
    # One component: a cell array as the K side against (2, n) face arrays.
    rng = np.random.default_rng(67)
    fp = rng.uniform(0.0, 2.0, (2, 30)).astype(dtype)
    fm = rng.uniform(-2.0, 0.0, (2, 30)).astype(dtype)
    u_k = rng.normal(size=30).astype(dtype)
    u_l = rng.normal(size=(2, 30)).astype(dtype)
    g = momentum_flux(fp, fm, u_k, u_l)
    assert g.shape == (2, 30) and g.dtype == dtype
    for b, i in np.ndindex(g.shape):
        assert g[b, i] == momentum_flux(fp[b, i], fm[b, i], u_k[i], u_l[b, i])


def test_assemble_uniform_state_zero_fluxes(mesh44):
    gas = GasLaw(2.0)
    rho = np.full(mesh44.n_cells, 1.3)
    u = np.tile(np.array([0.0, 0.0]), (mesh44.n_cells, 1))
    fl = assemble_fluxes(mesh44, rho, face_average_normal(mesh44, u),
                         density_faces(mesh44, gas, rho), eta=3.3, dt=0.01, eps=1.0)
    assert (fl.mass == 0.0).all()
    u_k, u_l = gather_to_faces(mesh44, u)
    assert (momentum_flux(fl.mass_plus[..., None], fl.mass_minus[..., None], u_k, u_l)
            == 0.0).all()
    assert (fl.delta_u == 0.0).all()


def test_assemble_single_face_composition():
    # the one-face manual case traced through the full assembly path
    mesh = build_mesh(4, 4, 2.0, 2.0)
    gas = GasLaw(2.0)
    f, k, l = (0, 0), 0, 1  # first x-face joins cell 0 to its right neighbour
    rho = np.ones(mesh.n_cells)
    rho[l] = 2.0 ** 0.5  # p_L = 2
    u = np.zeros((mesh.n_cells, 2))
    u[k, 0] = 0.4
    u[l, 0] = 0.2  # face average 0.3
    fl = assemble_fluxes(mesh, rho, face_average_normal(mesh, u),
                         density_faces(mesh, gas, rho), eta=1.0, dt=0.1, eps=1.0)
    assert fl.delta_u[f] == pytest.approx(0.2)
    w_plus, w_minus = split_normal_velocity(0.3, 0.2)
    assert fl.w_plus[f] == pytest.approx(w_plus)
    assert fl.w_minus[f] == pytest.approx(w_minus)
    expected, _, _ = mass_flux(rho[k], rho[l], w_plus, w_minus)
    assert fl.mass[f] == pytest.approx(expected)
    expected_g = momentum_flux(fl.mass_plus[f], fl.mass_minus[f], u[k], u[l])
    u_k, u_l = gather_to_faces(mesh, u)
    np.testing.assert_allclose(
        momentum_flux(fl.mass_plus[..., None], fl.mass_minus[..., None], u_k, u_l)[f],
        expected_g)


def test_assemble_upwind_consistency(mesh44):
    # with delta_u = 0 and positive advection the transported density is rho_K
    gas = GasLaw(2.0)
    rng = np.random.default_rng(31)
    rho = rng.uniform(0.5, 2.0, mesh44.n_cells)
    u = np.tile(np.array([0.8, 0.0]), (mesh44.n_cells, 1))
    p = np.ones(mesh44.n_cells)  # uniform pressure: no stabilisation
    faces = gather_to_faces(mesh44, rho)[1], face_jump(mesh44, p)
    fl = assemble_fluxes(mesh44, rho, face_average_normal(mesh44, u), faces,
                         eta=3.3, dt=0.01, eps=1.0)
    # x-face i + nx j (block 0) joins cell i + nx j to cell (i + 1) % nx + nx j
    k = np.arange(mesh44.n_cells)
    l = (k % 4 + 1) % 4 + 4 * (k // 4)
    advective = fl.mass[0] + s * (rho[l] - rho[k])  # strip the jump penalty -s [[rho]]
    np.testing.assert_allclose(advective, rho[k] * 0.8, rtol=1e-13)


def test_assemble_mass_flux_telescopes(mesh88):
    gas = GasLaw(1.4)
    rng = np.random.default_rng(37)
    rho = rng.uniform(0.5, 2.0, mesh88.n_cells)
    u = rng.normal(size=(mesh88.n_cells, 2))
    fl = assemble_fluxes(mesh88, rho, face_average_normal(mesh88, u),
                         density_faces(mesh88, gas, rho), eta=3.3, dt=0.005, eps=0.5)
    total = mesh88.cell_volume * flux_divergence(mesh88, fl.mass).sum()
    scale = mesh88.hx * np.abs(fl.mass).sum()  # sum of |face| |flux|
    assert abs(total) <= 1e-12 * scale
    u_k, u_l = gather_to_faces(mesh88, u)
    momentum = momentum_flux(fl.mass_plus[..., None], fl.mass_minus[..., None], u_k, u_l)
    total_mom = mesh88.cell_volume * flux_divergence(mesh88, momentum).sum(axis=0)
    mom_scale = mesh88.hx * np.abs(momentum).sum()
    assert np.abs(total_mom).max() <= 1e-12 * mom_scale
