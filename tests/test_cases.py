"""Benchmark initial data: rotating-column vortex and well-prepared states."""

import numpy as np
import pytest
from scipy.integrate import quad

from machfv import (VortexSpec, angular_velocity, build_mesh, cell_divergence,
                    incompressible_pressure, project,
                    vortex_compressible_init, vortex_incompressible_exact,
                    well_prepared_perturbation)

SPEC = VortexSpec()


def test_vortex_spec_constants():
    assert SPEC.a1 == pytest.approx(0.5)       # amplitude / r1
    assert SPEC.a2 == pytest.approx(0.2)       # -amplitude r2 / (r1 - r2)
    assert SPEC.a3 == pytest.approx(-0.5)      # amplitude / (r1 - r2)
    with pytest.raises(ValueError):
        VortexSpec(r1=0.4, r2=0.2)


def test_angular_velocity_profile():
    assert angular_velocity(0.0) == 0.0
    assert angular_velocity(SPEC.r1) == pytest.approx(0.1)   # peak = amplitude
    assert angular_velocity(0.1) == pytest.approx(0.05)
    assert angular_velocity(0.3) == pytest.approx(0.05)      # a2 + 0.3 a3
    assert angular_velocity(SPEC.r2) == pytest.approx(0.0, abs=1e-15)
    assert angular_velocity(0.7) == 0.0
    # continuity at both radii
    for r in (SPEC.r1, SPEC.r2):
        left = angular_velocity(r - 1e-12)
        right = angular_velocity(r + 1e-12)
        assert left == pytest.approx(right, abs=1e-10)


def test_incompressible_pressure_closed_form_matches_quadrature():
    def integrand(s):
        return angular_velocity(s) ** 2 / s if s > 0.0 else 0.0

    radii = np.linspace(1e-3, 0.8, 100)
    for r in radii:
        breaks = [p for p in (SPEC.r1, SPEC.r2) if p < r]
        ref, err = quad(integrand, 0.0, r, points=breaks or None, limit=200)
        assert incompressible_pressure(r) == pytest.approx(ref, abs=1e-10)
    assert incompressible_pressure(0.0) == 0.0
    assert incompressible_pressure(SPEC.r1) == pytest.approx(0.005)


def test_incompressible_pressure_plateau_and_monotonicity():
    plateau = incompressible_pressure(SPEC.r2)
    # closed form of pi(r2): -0.02 + 0.04 ln 2
    assert plateau == pytest.approx(-0.02 + 0.04 * np.log(2.0), rel=1e-13)
    for r in (0.4, 0.5, 1.0, 10.0):
        assert incompressible_pressure(r) == pytest.approx(plateau, rel=1e-13)
    r = np.linspace(0.0, 0.6, 400)
    vals = incompressible_pressure(r)
    assert (np.diff(vals) >= -1e-15).all()


def test_compressible_init_center_and_corner():
    mesh = build_mesh(5, 5, 1.0, 1.0)  # odd: one cell centre hits the centre
    state = vortex_compressible_init(mesh, gamma=2.0, eps=1.0)
    center = 2 + 5 * 2
    assert state.rho[center] == pytest.approx(1.0)
    np.testing.assert_allclose(state.u[center], [0.0, 0.0], atol=1e-15)
    corner = 0  # cell centre (0.1, 0.1), r ~ 0.57 > r2
    plateau = incompressible_pressure(10.0)
    gamma, eps = 2.0, 1.0
    expected = (1.0 + gamma * eps ** 2 / (gamma - 1.0) * plateau) ** (1.0 / (gamma - 1.0))
    assert state.rho[corner] == pytest.approx(expected, rel=1e-13)
    np.testing.assert_allclose(state.u[corner], [0.0, 0.0], atol=1e-15)


def test_compressible_init_velocity_is_tangential():
    mesh = build_mesh(32, 32, 1.0, 1.0)
    state = vortex_compressible_init(mesh, gamma=2.0, eps=1.0)
    x, y = mesh.cell_centers()
    dx, dy = x - 0.5, y - 0.5
    radial = state.u[:, 0] * dx + state.u[:, 1] * dy
    np.testing.assert_allclose(radial, 0.0, atol=1e-14)
    r = np.hypot(dx, dy)
    speed = np.hypot(state.u[:, 0], state.u[:, 1])
    np.testing.assert_allclose(speed, angular_velocity(r), atol=1e-13)


def test_compressible_init_well_prepared_density():
    mesh = build_mesh(32, 32, 1.0, 1.0)
    # gamma = 2 collapses the exponent: rho - 1 = 2 eps^2 pi exactly
    x, y = mesh.cell_centers()
    r = np.hypot(x - 0.5, y - 0.5)
    for eps in (1.0, 0.1):
        state = vortex_compressible_init(mesh, gamma=2.0, eps=eps)
        np.testing.assert_allclose(state.rho - 1.0,
                                   2.0 * eps ** 2 * incompressible_pressure(r),
                                   rtol=1e-12, atol=1e-16)
    # generic gamma: the deviation scales like eps^2
    sups = []
    for eps in (0.1, 0.01):
        state = vortex_compressible_init(mesh, gamma=1.4, eps=eps)
        sups.append(np.abs(state.rho - 1.0).max() / eps ** 2)
    assert sups[0] == pytest.approx(sups[1], rel=0.02)


def test_compressible_init_radial_pressure_gradient():
    # The density profile integrates (gamma/(gamma-1)) pi into rho^(gamma-1),
    # so its exact radial identity is
    #   (1/eps^2) d/dr p(rho) = (gamma/(gamma-1))^2 rho u_theta^2 / r;
    # the plain centripetal balance holds up to that constant factor.
    for gamma, eps in ((2.0, 1.0), (1.4, 0.3)):
        cfac = gamma * eps ** 2 / (gamma - 1.0)

        def rho_of(r):
            return (1.0 + cfac * incompressible_pressure(r)) ** (1.0 / (gamma - 1.0))

        h = 1e-6
        for r in (0.1, 0.15, 0.25, 0.3, 0.35):
            dp = (rho_of(r + h) ** gamma - rho_of(r - h) ** gamma) / (2.0 * h)
            lhs = dp / eps ** 2
            rhs = (gamma / (gamma - 1.0)) ** 2 * rho_of(r) \
                * angular_velocity(r) ** 2 / r
            assert lhs == pytest.approx(rhs, rel=1e-5)


def test_incompressible_exact_fields():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    v1, pi1 = vortex_incompressible_exact(mesh)
    v2, pi2 = vortex_incompressible_exact(mesh)  # steady: identical every call
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(pi1, pi2)
    assert mesh.cell_volume * pi1.sum() == pytest.approx(0.0, abs=1e-15)
    state = vortex_compressible_init(mesh, gamma=2.0, eps=1.0)
    np.testing.assert_allclose(v1, state.u, atol=1e-14)


def test_incompressible_exact_discrete_divergence_refines():
    norms = {}
    for n in (16, 32, 64, 128):
        mesh = build_mesh(n, n, 1.0, 1.0)
        v, _ = vortex_incompressible_exact(mesh)
        div = cell_divergence(mesh, v)
        norms[n] = np.sqrt(mesh.cell_volume * (div ** 2).sum())
    # the angular profile has derivative kinks at the two radii, so the
    # cell-average divergence only decays at about half order in L2
    assert norms[16] > norms[32] > norms[64] > norms[128]
    assert norms[16] / norms[64] > 1.5
    assert norms[32] / norms[128] > 1.5


def test_well_prepared_perturbation_sizes():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    v0, _ = vortex_incompressible_exact(mesh)
    state = well_prepared_perturbation(mesh, v0, eps=0.1)
    assert np.abs(state.rho - 1.0).max() == pytest.approx(0.01, rel=1e-12)
    assert np.abs(state.u - v0).max() == pytest.approx(0.1, rel=1e-12)
    # the velocity perturbation is discretely divergence-free
    w = state.u - v0
    np.testing.assert_allclose(cell_divergence(mesh, w), 0.0, atol=1e-12)


def test_initial_data_have_no_projection_or_amplitude_options():
    # the midpoint projection and unit amplitudes are the only ones
    mesh = build_mesh(8, 8, 1.0, 1.0)
    v0, _ = vortex_incompressible_exact(mesh)
    for build in (lambda: vortex_compressible_init(mesh, 2.0, 1.0, rule="midpoint"),
                  lambda: vortex_incompressible_exact(mesh, rule="midpoint"),
                  lambda: well_prepared_perturbation(mesh, v0, 0.1, amplitudes=(1.0, 1.0))):
        with pytest.raises(TypeError):
            build()
