"""Benchmark initial data: rotating-column vortex, at rest and moving, and
well-prepared states."""

import numpy as np
import pytest
from scipy.integrate import quad

from machfv import (MOVING_VELOCITY, RunConfig, SchemeParams,
                    angular_velocity, build_mesh, cell_divergence,
                    density_residual, incompressible_pressure, moving_vortex,
                    run_case, step, vortex_compressible_init, vortex_density,
                    vortex_incompressible_exact, well_prepared_perturbation)
from machfv.cases import A1, A2, A3, R1, R2, peak_density
from machfv.mesh import cell_grid
from machfv.driver import initial_state


def test_vortex_spec_constants():
    assert A1 == pytest.approx(0.5)       # AMPLITUDE / R1
    assert A2 == pytest.approx(0.2)       # -AMPLITUDE R2 / (R1 - R2)
    assert A3 == pytest.approx(-0.5)      # AMPLITUDE / (R1 - R2)


def test_angular_velocity_profile():
    assert angular_velocity(0.0) == 0.0
    assert angular_velocity(R1) == pytest.approx(0.1)   # peak = amplitude
    assert angular_velocity(0.1) == pytest.approx(0.05)
    assert angular_velocity(0.3) == pytest.approx(0.05)      # a2 + 0.3 a3
    assert angular_velocity(R2) == pytest.approx(0.0, abs=1e-15)
    assert angular_velocity(0.7) == 0.0
    # continuity at both radii
    for r in (R1, R2):
        left = angular_velocity(r - 1e-12)
        right = angular_velocity(r + 1e-12)
        assert left == pytest.approx(right, abs=1e-10)


def test_incompressible_pressure_closed_form_matches_quadrature():
    def integrand(s):
        return angular_velocity(s) ** 2 / s if s > 0.0 else 0.0

    radii = np.linspace(1e-3, 0.8, 100)
    for r in radii:
        breaks = [p for p in (R1, R2) if p < r]
        ref, err = quad(integrand, 0.0, r, points=breaks or None, limit=200)
        assert incompressible_pressure(r) == pytest.approx(ref, abs=1e-10)
    assert incompressible_pressure(0.0) == 0.0
    assert incompressible_pressure(R1) == pytest.approx(0.005)


def test_incompressible_pressure_plateau_and_monotonicity():
    plateau = incompressible_pressure(R2)
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
    state = well_prepared_perturbation(mesh, eps=0.1)
    assert np.abs(state.rho - 1.0).max() == pytest.approx(0.01, rel=1e-12)
    assert np.abs(state.u - v0).max() == pytest.approx(0.1, rel=1e-12)
    # the velocity perturbation is discretely divergence-free
    w = state.u - v0
    np.testing.assert_allclose(cell_divergence(mesh, w), 0.0, atol=1e-12)


def test_initial_data_have_no_projection_or_amplitude_options():
    # the midpoint projection, unit amplitudes and the paper's vortex geometry
    # are the only ones
    mesh = build_mesh(8, 8, 1.0, 1.0)
    v0, _ = vortex_incompressible_exact(mesh)
    for build in (lambda: vortex_compressible_init(mesh, 2.0, 1.0, rule="midpoint"),
                  lambda: vortex_incompressible_exact(mesh, rule="midpoint"),
                  lambda: well_prepared_perturbation(mesh, 0.1, amplitudes=(1.0, 1.0)),
                  lambda: well_prepared_perturbation(mesh, v0, 0.1),
                  lambda: vortex_compressible_init(mesh, 2.0, 1.0, spec=None),
                  lambda: moving_vortex(mesh, 2.0, 1.0, 0.0, spec=None),
                  lambda: vortex_incompressible_exact(mesh, spec=None),
                  lambda: angular_velocity(0.1, spec=None),
                  lambda: incompressible_pressure(0.1, spec=None),
                  lambda: peak_density("vortex", 2.0, 1.0, spec=None)):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("init", [vortex_compressible_init, moving_vortex])
def test_vortex_constructors_refuse_gamma_at_most_one(init, gamma):
    # both densities have the exponent 1/(gamma - 1); the moving vortex used
    # to divide by zero at gamma = 1 and return a state at gamma = 0.5
    with pytest.raises(ValueError, match="gamma"):
        init(build_mesh(8, 8, 1.0, 1.0), gamma, 1.0)


def test_moving_vortex_at_t_is_the_initial_state_shifted_by_u_t():
    # U t = (1, 0.5) at t = 1 and (0.125, 0.0625) at t = 1/8: whole numbers of
    # 16^2 cells, so the shifted fields are the t = 0 fields rolled periodically
    mesh = build_mesh(16, 16, 1.0, 1.0)
    s0 = moving_vortex(mesh, 1.4, 0.3)
    assert MOVING_VELOCITY == (1.0, 0.5)
    for t, (sx, sy) in ((1.0, (16, 8)), (0.125, (2, 1))):
        st = moving_vortex(mesh, 1.4, 0.3, t)
        assert st.time == t
        for now, then in ((st.rho, s0.rho), (st.u, s0.u)):
            np.testing.assert_allclose(
                cell_grid(mesh, now),
                np.roll(cell_grid(mesh, then), (sy, sx), axis=(0, 1)), rtol=0, atol=1e-14)


def test_moving_vortex_initial_state_is_the_vortex_plus_u():
    mesh = build_mesh(24, 20, 1.0, 1.0)
    s0 = moving_vortex(mesh, 2.0, 0.5)
    v, _ = vortex_incompressible_exact(mesh)
    np.testing.assert_allclose(s0.u, v + np.array(MOVING_VELOCITY), rtol=0, atol=1e-15)
    assert s0.time == 0.0
    # at gamma = 2 the balanced deviation is rho - 1 = eps^2 pi / 2, a quarter
    # of the printed vortex's
    x, y = mesh.cell_centers()
    pi = incompressible_pressure(np.hypot(x - 0.5, y - 0.5))
    np.testing.assert_allclose(s0.rho - 1.0, 0.125 * pi, rtol=0, atol=1e-15)
    printed = vortex_compressible_init(mesh, 2.0, 0.5)
    np.testing.assert_allclose(printed.rho - 1.0, 4.0 * (s0.rho - 1.0), rtol=0, atol=1e-15)


def test_balanced_density_is_in_radial_equilibrium():
    # (1/eps^2) d/dr p(rho) = rho u_theta^2 / r, the centripetal balance,
    # which the printed density misses by (gamma/(gamma-1))^2
    for gamma, eps in ((2.0, 1.0), (1.4, 0.3), (1.01, 1.0)):
        def rho_of(r):
            return vortex_density(incompressible_pressure(r), gamma, eps, balanced=True)

        h = 1e-6
        for r in (0.1, 0.15, 0.25, 0.3, 0.35):
            dp = (rho_of(r + h) ** gamma - rho_of(r - h) ** gamma) / (2.0 * h)
            assert dp / eps ** 2 == pytest.approx(
                rho_of(r) * angular_velocity(r) ** 2 / r, rel=1e-5)


def test_moving_vortex_first_step_residual_refines():
    # The exact density at the first step's dt nearly solves the implicit
    # mass balance: the L2 residual falls with h (measured 1.99e-2, 1.58e-2,
    # 1.06e-2).  The max norm does not fall (5.6e-2 to 9.8e-2): the profile
    # has kinks at r1 and r2.
    params = SchemeParams(gamma=2.0, eps=1.0)
    norms = []
    for n in (16, 32, 64):
        mesh = build_mesh(n, n, 1.0, 1.0)
        s0 = moving_vortex(mesh, 2.0, 1.0)
        _, diag = step(mesh, s0, params)
        exact = moving_vortex(mesh, 2.0, 1.0, diag.dt_used)
        res = density_residual(mesh, exact.rho, s0, diag.dt_used, params, diag.eta_used)
        norms.append(np.sqrt(mesh.cell_volume * (res ** 2).sum()))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] == pytest.approx(1.06e-2, rel=0.01)


@pytest.mark.parametrize("eps, steps", [(1.0, 63), (1e-2, 63), (1e-4, 101)])
def test_moving_vortex_runs_with_inequalities_asserted(eps, steps):
    cfg = RunConfig(case="moving_vortex", nx=32, ny=32, final_time=0.1,
                    params=SchemeParams(gamma=2.0, eps=eps))
    result = run_case(cfg, assert_inequalities=True, write_outputs=False)
    assert len(result.diags) == steps
    assert result.final_state.time == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("case", ["vortex", "moving_vortex", "well_prepared"])
def test_peak_density_is_the_initial_density_maximum(case):
    # cells outside r2 sit on the pressure plateau, and g reaches 1 on the grid
    mesh = build_mesh(16, 16, 1.0, 1.0)
    for gamma, eps in ((2.0, 0.5), (1.4, 0.1), (1.05, 0.9)):
        rho0 = initial_state(RunConfig(case=case, params=SchemeParams(gamma=gamma, eps=eps)),
                             mesh).rho
        assert peak_density(case, gamma, eps) == pytest.approx(rho0.max(), rel=1e-15)
    # the printed density overflows near gamma = 1; the balanced one does not
    assert peak_density("vortex", 1.001, 1.0) == np.inf
    assert peak_density("moving_vortex", 1.001, 1.0) < 1.0 + 1e-2
