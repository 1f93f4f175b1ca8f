"""Semi-implicit step tests: residual, solver, velocity update, conditions."""

import numpy as np
import pytest

from machfv import (GasLaw, SchemeParams, SolverError, State, advance,
                    auto_eta, build_mesh, cell_gradient, compute_dt,
                    density_jacobian, density_residual, energy_report,
                    enforce_conditions, solve_density, step, update_velocity,
                    vortex_compressible_init)
from machfv.stepper import _dt_third_cfl_cap
from machfv import assemble_fluxes

from oracles import dense_newton, loop_residual


def uniform_state(mesh, rho0=1.2, u0=(0.0, 0.0)):
    rho = np.full(mesh.n_cells, rho0)
    u = np.tile(np.asarray(u0, dtype=float), (mesh.n_cells, 1))
    return State(time=0.0, rho=rho, u=u)


def test_state_validation(mesh44):
    with pytest.raises(ValueError):
        State(time=0.0, rho=np.ones(5), u=np.zeros((4, 2)))
    with pytest.raises(Exception):
        State(time=0.0, rho=-np.ones(16), u=np.zeros((16, 2)))
    with pytest.raises(ValueError):
        State(time=0.0, rho=np.full(16, np.nan), u=np.zeros((16, 2)))


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(gamma=1.0)
    with pytest.raises(ValueError):
        SchemeParams(beta=0.4)
    with pytest.raises(ValueError):
        SchemeParams(eta_mode="fixed")  # needs eta_value
    with pytest.raises(ValueError):
        SchemeParams(cfl_safety=0.0)


def test_uniform_state_residual_is_zero(mesh44):
    state = uniform_state(mesh44)
    params = SchemeParams()
    res = density_residual(mesh44, state.rho.copy(), state, dt=0.01,
                           params=params, eta=3.3)
    assert (res == 0.0).all()


def test_residual_matches_face_loop_oracle():
    # handcrafted small state, cross-checked against the independent loop
    nx, ny, lx, ly = 4, 3, 1.0, 0.75
    mesh = build_mesh(nx, ny, lx, ly)
    rho_old = np.array([1.0, 1.1, 0.9, 1.2,
                        1.3, 0.8, 1.05, 0.95,
                        1.15, 1.0, 0.85, 1.25])
    u_old = np.stack([np.linspace(-0.4, 0.5, 12),
                      np.linspace(0.3, -0.6, 12)], axis=1)
    rho_new = rho_old * (1.0 + 0.05 * np.cos(np.arange(12)))
    state = State(time=0.0, rho=rho_old, u=u_old)
    params = SchemeParams(gamma=1.4, eps=0.5)
    for eta, dt in ((3.3, 0.01), (6.0, 0.004)):
        mine = density_residual(mesh, rho_new, state, dt, params, eta)
        ref = loop_residual(rho_new, rho_old, u_old, nx, ny, lx, ly,
                            gamma=1.4, eps=0.5, eta=eta, dt=dt)
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-12)


def test_analytic_jacobian_matches_directional_differences():
    # away from upwind switches the semi-smooth Jacobian is the derivative
    mesh = build_mesh(4, 3, 1.0, 0.75)
    n = mesh.n_cells
    rho = 1.0 + 0.1 * np.arange(n) / n  # all face jumps bounded away from 0
    u = np.stack([0.3 + 0.01 * np.arange(n), -0.2 - 0.02 * np.arange(n)],
                 axis=1)
    state = State(time=0.0, rho=rho, u=u)
    params = SchemeParams(gamma=2.0, eps=1.0)
    dt, eta = 0.01, 3.3
    jac = density_jacobian(mesh, rho, state, dt, params, eta)
    assert jac.nnz == 5 * n
    rng = np.random.default_rng(41)
    for _ in range(5):
        direction = rng.normal(size=n)
        h = 1e-7
        plus = density_residual(mesh, rho + h * direction, state, dt, params, eta)
        minus = density_residual(mesh, rho - h * direction, state, dt, params, eta)
        fd = (plus - minus) / (2.0 * h)
        np.testing.assert_allclose(jac @ direction, fd, rtol=1e-5, atol=1e-7)


def test_solve_density_uniform_converges_immediately(mesh44):
    state = uniform_state(mesh44)
    params = SchemeParams()
    rho, iters, norm, _ = solve_density(mesh44, params.gas(), state, 0.01,
                                        params, eta=3.3)
    assert iters <= 1
    np.testing.assert_array_equal(rho, state.rho)


def test_solve_density_matches_dense_oracle_on_vortex():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1.0, newton_tol=1e-12)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    eta = auto_eta(mesh, state.rho, params.eta_safety)
    dt = compute_dt(mesh, params.gas(), state, params, eta)
    rho, _, norm, _ = solve_density(mesh, params.gas(), state, dt, params, eta)
    assert norm <= 1e-10
    ref, _, _ = dense_newton(state.rho, state.u, 16, 16, 1.0, 1.0,
                             gamma=2.0, eps=1.0, eta=eta, dt=dt)
    assert np.abs(rho - ref).max() <= 1e-8


def test_solve_density_conserves_mass(mesh88):
    rng = np.random.default_rng(43)
    rho_old = rng.uniform(0.8, 1.4, mesh88.n_cells)
    u_old = 0.3 * rng.normal(size=(mesh88.n_cells, 2))
    state = State(time=0.0, rho=rho_old, u=u_old)
    params = SchemeParams(gamma=1.4, eps=0.8)
    rho, _, _, fluxes = solve_density(mesh88, params.gas(), state, 0.002,
                                      params, eta=4.0)
    mass_old = mesh88.cell_volume * rho_old.sum()
    mass_new = mesh88.cell_volume * rho.sum()
    assert abs(mass_new - mass_old) <= 1e-12 * abs(mass_old)


def test_solve_density_reports_nonconvergence():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1e-3, newton_max_iter=1,
                          newton_tol=1e-14)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    with pytest.raises(SolverError):
        # one iteration cannot absorb an O(1) residual at this dt
        solve_density(mesh, params.gas(), state, 0.05, params, eta=3.3)


def test_update_velocity_uniform_is_identity(mesh44):
    state = uniform_state(mesh44, u0=(0.4, -0.3))
    params = SchemeParams()
    gas = params.gas()
    p = gas.pressure(state.rho)
    fluxes = assemble_fluxes(mesh44, state.rho, state.u, p, 3.3, 0.01, 1.0)
    u_next = update_velocity(mesh44, gas, state, state.rho, fluxes, 0.01, 1.0)
    np.testing.assert_allclose(u_next, state.u, atol=1e-15)


def test_update_velocity_pressure_gradient_row():
    # zero velocity: u_next = -dt (grad p)/(eps^2 rho_next), hand-checkable
    mesh = build_mesh(4, 3, 1.0, 0.75)
    pattern = np.array([1.0, 1.2, 1.0, 0.8])
    rho_next = np.tile(pattern, 3)
    state = State(time=0.0, rho=np.ones(mesh.n_cells),
                  u=np.zeros((mesh.n_cells, 2)))
    params = SchemeParams(gamma=2.0, eps=0.5)
    gas = params.gas()
    dt = 0.01
    fluxes = assemble_fluxes(mesh, rho_next, state.u, gas.pressure(rho_next),
                             3.3, dt, params.eps)
    u_next = update_velocity(mesh, gas, state, rho_next, fluxes, dt, params.eps)
    p = pattern ** 2.0
    grad_x = (np.roll(p, -1) - np.roll(p, 1)) / (2.0 * mesh.hx)
    expected = -dt * np.tile(grad_x, 3) / (params.eps ** 2 * rho_next)
    np.testing.assert_allclose(u_next[:, 0], expected, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(u_next[:, 1], 0.0, atol=1e-14)
    # the same gradient comes out of the generic cell-gradient operator
    np.testing.assert_allclose(cell_gradient(mesh, np.tile(p, 3))[:, 0],
                               np.tile(grad_x, 3), rtol=1e-12, atol=1e-14)


def test_update_velocity_conserves_momentum(mesh88):
    rng = np.random.default_rng(47)
    state = State(time=0.0, rho=rng.uniform(0.8, 1.3, mesh88.n_cells),
                  u=0.4 * rng.normal(size=(mesh88.n_cells, 2)))
    params = SchemeParams(gamma=1.4, eps=1.0)
    gas = params.gas()
    rho_next, _, _, fluxes = solve_density(mesh88, gas, state, 0.002, params,
                                           eta=4.0)
    u_next = update_velocity(mesh88, gas, state, rho_next, fluxes, 0.002, 1.0)
    mom_old = mesh88.cell_volume * (state.rho[:, None] * state.u).sum(axis=0)
    mom_new = mesh88.cell_volume * (rho_next[:, None] * u_next).sum(axis=0)
    scale = mesh88.cell_volume * (np.abs(state.rho[:, None] * state.u)).sum()
    assert np.abs(mom_new - mom_old).max() <= 1e-12 * max(scale, 1.0)


def test_compute_dt_uniform_rest_hits_cap(mesh44):
    state = uniform_state(mesh44, u0=(0.0, 0.0))
    params = SchemeParams(dt_max=0.07)
    dt = compute_dt(mesh44, params.gas(), state, params, eta=3.3)
    assert dt == 0.07


def test_compute_dt_unit_advection_gives_h_over_16():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    state = uniform_state(mesh, rho0=1.0, u0=(1.0, 0.0))
    params = SchemeParams(cfl_safety=1.0, dt_max=1.0)
    dt = compute_dt(mesh, params.gas(), state, params, eta=3.3)
    assert dt == pytest.approx(mesh.hx / 16.0, rel=1e-14)


def test_compute_dt_monotone_in_eta():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    params = SchemeParams()
    state = vortex_compressible_init(mesh, 2.0, 1.0)
    dts = [compute_dt(mesh, params.gas(), state, params, eta)
           for eta in (3.3, 6.6, 13.2)]
    assert dts[0] >= dts[1] >= dts[2]


def test_auto_eta_uniform_unit_density(mesh44):
    assert auto_eta(mesh44, np.ones(mesh44.n_cells), 1.1) == pytest.approx(3.3)
    # eta must dominate 3 * max face average of 1/rho
    rng = np.random.default_rng(53)
    rho = rng.uniform(0.5, 2.0, mesh44.n_cells)
    from machfv import face_average
    assert auto_eta(mesh44, rho, 1.1) > 3.0 * face_average(mesh44, 1.0 / rho).max()


def test_enforce_conditions_dt_threshold():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(beta=0.1)
    gas = params.gas()
    rho = np.ones(mesh.n_cells)
    u = np.zeros((mesh.n_cells, 2))
    fluxes = assemble_fluxes(mesh, rho, u, gas.pressure(rho), 3.3, 0.001, 1.0)
    dt_crit = (1.0 / 3.0 - params.beta) * mesh.hx / 4.0
    ok = enforce_conditions(mesh, gas, rho, rho, fluxes, 0.99 * dt_crit,
                            params, eta=3.3)
    bad = enforce_conditions(mesh, gas, rho, rho, fluxes, 1.01 * dt_crit,
                             params, eta=3.3)
    assert ok.dt_cfl_ok and not bad.dt_cfl_ok
    # uniform state: zero fluxes satisfy the flux CFL for any dt
    assert ok.flux_cfl_ok and bad.flux_cfl_ok
    # eta threshold: with rho = 1 the bound is eta > 3
    assert enforce_conditions(mesh, gas, rho, rho, fluxes, 0.001, params,
                              eta=2.9).eta_ok is False
    assert ok.eta_ok


def test_step_uniform_resting_state_is_stationary(mesh44):
    state = uniform_state(mesh44, rho0=1.5)
    params = SchemeParams()
    new_state, diag = step(mesh44, state, params)
    np.testing.assert_array_equal(new_state.rho, state.rho)
    np.testing.assert_array_equal(new_state.u, state.u)
    assert diag.energy_decrement == 0.0
    assert diag.entropy_decrement == 0.0
    assert diag.conditions.all_ok


def test_step_first_vortex_step_regression():
    # frozen first-step values for the 16^2 unit-Mach vortex
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams()
    state = vortex_compressible_init(mesh, 2.0, 1.0)
    new_state, diag = step(mesh, state, params)
    assert diag.dt_used == pytest.approx(0.003986320495605469, rel=1e-12)
    assert diag.eta_used == pytest.approx(3.2983894582723283, rel=1e-12)
    assert diag.newton_iters == 3
    assert diag.total_mass == pytest.approx(1.0137766100380579, rel=1e-13)
    assert diag.energy_decrement >= 0.0
    assert diag.conditions.all_ok


def test_step_recovers_from_failed_solve_by_halving_dt():
    # at eps = 1e-4 the first controller step defeats Newton and the Picard
    # fallback; the controller rejects it and accepts half of it
    mesh = build_mesh(32, 32, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1e-4)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    eta = auto_eta(mesh, state.rho, params.eta_safety)
    dt_controller = min(compute_dt(mesh, params.gas(), state, params, eta),
                        _dt_third_cfl_cap(mesh, state.rho, params))
    with pytest.raises(SolverError):
        solve_density(mesh, params.gas(), state, dt_controller, params, eta)
    _, diag = step(mesh, state, params)
    assert diag.conditions.all_ok
    assert diag.dt_used == dt_controller / 2.0


def test_short_final_step_keeps_density_deviation():
    # landing 5e-7 past one controller step must not take a sliver step,
    # whose stabilisation cannot hold rho at 1 + O(eps^2)
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1e-4)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    state, _, _ = advance(mesh, state, params, 0.01)
    deviation = np.abs(state.rho - 1.0).max() / params.eps ** 2
    _, probe = step(mesh, state, params)
    final, _, _ = advance(mesh, state, params,
                          state.time + probe.dt_used + 5e-7)
    assert np.abs(final.rho - 1.0).max() / params.eps ** 2 <= 2.0 * deviation


def test_short_runs_energy_monotone_and_positive():
    for eps, steps in ((1.0, 10), (1e-2, 10)):
        mesh = build_mesh(32, 32, 1.0, 1.0)
        params = SchemeParams(gamma=2.0, eps=eps)
        state = vortex_compressible_init(mesh, params.gamma, eps)
        energy = energy_report(mesh, params.gas(), state.rho, state.u, eps).total
        for _ in range(steps):
            state, diag = step(mesh, state, params)
            assert diag.min_density > 0.0
            assert diag.total_energy <= energy * (1.0 + 1e-12)
            assert diag.conditions.all_ok
            energy = diag.total_energy


def test_advance_conserves_mass_and_momentum():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=0.1)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    mass0 = mesh.cell_volume * state.rho.sum()
    mom0 = mesh.cell_volume * (state.rho[:, None] * state.u).sum(axis=0)
    mom_scale = mesh.cell_volume * np.abs(state.rho[:, None] * state.u).sum()
    final, diags, _ = advance(mesh, state, params, 0.02)
    assert final.time == pytest.approx(0.02, abs=1e-12)
    for diag in diags:
        assert abs(diag.total_mass - mass0) <= 1e-12 * mass0
        assert np.abs(diag.total_momentum - mom0).max() <= 1e-12 * mom_scale


def test_advance_rejects_bad_final_time(mesh44):
    state = uniform_state(mesh44)
    with pytest.raises(ValueError):
        advance(mesh44, state, SchemeParams(), 0.0)
