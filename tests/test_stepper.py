"""Semi-implicit step tests: residual, solver, velocity update, conditions."""

import collections
import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from machfv import (GasLaw, SchemeParams, SolverError, State, advance,
                    auto_eta, build_mesh, cell_gradient, compute_dt,
                    density_residual, energy_report,
                    enforce_conditions, flux_divergence, gather_to_faces,
                    solve_density, step, update_velocity,
                    vortex_compressible_init)
from machfv import diagnostics, stepper
from machfv import mesh as mesh_ops
from machfv.driver import INEQUALITY_SLACK
from machfv.flux import VISCOUS_SCALE, mass_flux_derivative
from machfv.stepper import BETA, CFL_SAFETY, DT_MAX, _solve_mass_balance
from machfv import assemble_fluxes, density_faces, face_average_normal

from csr_oracle import density_jacobian
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
    # the controller's and the Newton solve's constants are not parameters
    assert [f.name for f in fields(SchemeParams)] == ["gamma", "eps"]
    assert 0.0 < BETA < 1.0 / 3.0 and 0.0 < CFL_SAFETY <= 1.0 and DT_MAX > 0.0
    assert 0.0 < stepper.NEWTON_TOL < 1.0 and stepper.NEWTON_MAX_ITER >= 1
    # an eps whose square underflows (below sqrt(tiny) = 1.49e-154) once
    # reached compute_dt's division as 0 and crashed with ZeroDivisionError
    floor = np.sqrt(np.finfo(float).tiny)
    for bad in (dict(gamma=1.0), dict(gamma=np.inf), dict(gamma=np.nan),
                dict(eps=0.0), dict(eps=np.inf), dict(eps=0.99 * floor)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SchemeParams(**bad)
    SchemeParams(eps=1.01 * floor)


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
                            gamma=1.4, eps=0.5, eta=eta, dt=dt,
                            viscous=VISCOUS_SCALE)
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


def start_of_step(mesh, state, params):
    """The start-of-step face fields that step hands compute_dt and solve_density."""
    return face_average_normal(mesh, state.u), density_faces(mesh, params.gas(), state.rho)


def vortex_first_step(n, eps, ny=None, lx=1.0):
    """Mesh, params, initial vortex state, eta and controller dt at eps."""
    mesh = build_mesh(n, n if ny is None else ny, lx, 1.0)
    params = SchemeParams(gamma=2.0, eps=eps)
    state = vortex_compressible_init(mesh, params.gamma, eps)
    eta = auto_eta(mesh, state.rho)
    dt = compute_dt(mesh, state, params, eta, *start_of_step(mesh, state, params))
    return mesh, params, state, eta, dt


@pytest.mark.parametrize("eps", [1.0, 1e-2])
def test_jacobian_matches_central_differences_on_vortex(eps):
    # half the faces (r > 0.4) have rho_K = rho_L and delta_u = 0, where the
    # residual is smooth and the stabilisation derivative must be kept
    mesh, params, state, eta, dt = vortex_first_step(16, eps)
    jac = density_jacobian(mesh, state.rho, state, dt, params, eta)
    rng = np.random.default_rng(61)
    for _ in range(3):
        direction = rng.normal(size=mesh.n_cells)
        h = 1e-7
        plus = density_residual(mesh, state.rho + h * direction, state, dt,
                                params, eta)
        minus = density_residual(mesh, state.rho - h * direction, state, dt,
                                 params, eta)
        fd = (plus - minus) / (2.0 * h)
        assert np.abs(jac @ direction - fd).max() <= 1e-4 * np.abs(fd).max()


def vortex_newton_system(nx, eps, ny=None, lx=1.0):
    """Mesh, dt, Newton coefficients and rhs of the vortex's first Newton system."""
    mesh, params, state, eta, dt = vortex_first_step(nx, eps, ny=ny, lx=lx)
    res = density_residual(mesh, state.rho, state, dt, params, eta)
    gas = params.gas()
    fluxes = assemble_fluxes(mesh, state.rho, face_average_normal(mesh, state.u),
                             density_faces(mesh, gas, state.rho), eta, dt, eps)
    d_dk, d_dl = mass_flux_derivative(mesh, gas, state.rho, fluxes, dt, eta, eps)
    return mesh, params, state, eta, dt, d_dk, d_dl, -res


@pytest.mark.parametrize("nx, ny, lx, eps", [
    pytest.param(32, 32, 1.0, 1.0, id="1.0"),
    pytest.param(32, 32, 1.0, 1e-2, id="0.01"),
    pytest.param(32, 32, 1.0, 1e-4, id="0.0001"),
    pytest.param(24, 16, 1.02, 1e-2, id="24x16-lx1.02-0.01")])
def test_preconditioned_solve_matches_direct_solve_on_vortex(nx, ny, lx, eps):
    # the matrix-free preconditioned Richardson solve against the assembled
    # CSR Jacobian
    mesh, params, state, eta, dt, d_dk, d_dl, rhs = vortex_newton_system(
        nx, eps, ny=ny, lx=lx)
    jac = density_jacobian(mesh, state.rho, state, dt, params, eta)
    delta, iters = _solve_mass_balance(mesh, dt, d_dk, d_dl, rhs,
                                       1e-12 * np.linalg.norm(rhs))
    ref = spla.spsolve(jac, rhs)
    assert iters <= 6
    assert np.abs(delta - ref).max() <= 1e-10 * np.abs(ref).max()


def counted_linear_layer(monkeypatch, scale=1.0):
    """Count the preconditioner solves and flux divergences of linear solves;
    the preconditioner is the FFT inverse times ``scale``."""
    calls = {"precond": 0, "flux_divergence": 0}
    inverse, divergence = stepper.mean_flux_divergence_inverse, stepper.flux_divergence

    def counted_inverse(*args):
        solve = inverse(*args)

        def counted_solve(r):
            calls["precond"] += 1
            return scale * solve(r)

        return counted_solve

    def counted_divergence(*args):
        calls["flux_divergence"] += 1
        return divergence(*args)

    monkeypatch.setattr(stepper, "mean_flux_divergence_inverse", counted_inverse)
    monkeypatch.setattr(stepper, "flux_divergence", counted_divergence)
    return calls


def linear_residual(mesh, dt, d_dk, d_dl, rhs, q):
    q_k, q_l = gather_to_faces(mesh, q)
    return rhs - (q / dt + flux_divergence(mesh, d_dk * q_k + d_dl * q_l))


def test_solve_mass_balance_zero_rhs_returns_zeros_without_iterating(monkeypatch):
    mesh, _, _, _, dt, d_dk, d_dl, rhs = vortex_newton_system(8, 1e-2)
    calls = counted_linear_layer(monkeypatch)
    q, iters = _solve_mass_balance(mesh, dt, d_dk, d_dl, np.zeros_like(rhs), 0.0)
    assert iters == 0
    np.testing.assert_array_equal(q, np.zeros_like(rhs))
    assert calls == {"precond": 0, "flux_divergence": 0}


def test_solve_mass_balance_applies_each_operator_once_per_iteration(monkeypatch):
    # k iterations cost k preconditioner solves and k matvecs, no more
    mesh, _, _, _, dt, d_dk, d_dl, rhs = vortex_newton_system(32, 1.0)
    atol = 1e-12 * np.linalg.norm(rhs)
    calls = counted_linear_layer(monkeypatch)
    q, iters = _solve_mass_balance(mesh, dt, d_dk, d_dl, rhs, atol)
    assert iters >= 2
    assert calls == {"precond": iters, "flux_divergence": iters}
    monkeypatch.undo()
    assert np.linalg.norm(linear_residual(mesh, dt, d_dk, d_dl, rhs, q)) <= atol


def test_solve_mass_balance_returns_its_last_iterate_at_the_cap(monkeypatch):
    # one iteration from q = 0 is the preconditioned rhs, short of atol
    mesh, _, _, _, dt, d_dk, d_dl, rhs = vortex_newton_system(32, 1.0)
    atol = 1e-12 * np.linalg.norm(rhs)
    monkeypatch.setattr(stepper, "LINEAR_MAX_ITER", 1)
    q, iters = _solve_mass_balance(mesh, dt, d_dk, d_dl, rhs, atol)
    assert iters == 1
    precond = stepper.mean_flux_divergence_inverse(mesh, d_dk, d_dl, 1.0 / dt)
    np.testing.assert_array_equal(q, precond(rhs))
    assert np.linalg.norm(linear_residual(mesh, dt, d_dk, d_dl, rhs, q)) > atol


def test_solve_mass_balance_stops_when_the_residual_stops_falling(monkeypatch):
    # 2.5 times a near-exact inverse overshoots, so the residual grows by
    # about 1.5 per iteration: the first iterate is kept, the second ends the
    # solve, and the first is returned
    mesh, _, _, _, dt, d_dk, d_dl, rhs = vortex_newton_system(32, 1e-2)
    calls = counted_linear_layer(monkeypatch, scale=2.5)
    q, iters = _solve_mass_balance(mesh, dt, d_dk, d_dl, rhs,
                                   1e-12 * np.linalg.norm(rhs))
    assert iters == 2
    assert calls == {"precond": 2, "flux_divergence": 2}
    monkeypatch.undo()
    precond = stepper.mean_flux_divergence_inverse(mesh, d_dk, d_dl, 1.0 / dt)
    np.testing.assert_array_equal(q, 2.5 * precond(rhs))
    assert (np.linalg.norm(linear_residual(mesh, dt, d_dk, d_dl, rhs, q))
            > np.linalg.norm(rhs))


def test_solve_density_uniform_converges_immediately(mesh44):
    state = uniform_state(mesh44)
    params = SchemeParams()
    rho, iters, norm, _ = solve_density(mesh44, state, 0.01, params, 3.3,
                                        *start_of_step(mesh44, state, params))
    assert iters <= 1
    np.testing.assert_array_equal(rho, state.rho)


def test_solve_density_matches_dense_oracle_on_vortex(monkeypatch):
    monkeypatch.setattr(stepper, "NEWTON_TOL", 1e-12)
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1.0)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    eta = auto_eta(mesh, state.rho)
    faces = start_of_step(mesh, state, params)
    dt = compute_dt(mesh, state, params, eta, *faces)
    rho, _, norm, _ = solve_density(mesh, state, dt, params, eta, *faces)
    assert norm <= 1e-10
    ref, _, _ = dense_newton(state.rho, state.u, 16, 16, 1.0, 1.0,
                             gamma=2.0, eps=1.0, eta=eta, dt=dt,
                             viscous=VISCOUS_SCALE)
    assert np.abs(rho - ref).max() <= 1e-8


def test_solve_density_conserves_mass(mesh88):
    rng = np.random.default_rng(43)
    rho_old = rng.uniform(0.8, 1.4, mesh88.n_cells)
    u_old = 0.3 * rng.normal(size=(mesh88.n_cells, 2))
    state = State(time=0.0, rho=rho_old, u=u_old)
    params = SchemeParams(gamma=1.4, eps=0.8)
    rho, _, _, fluxes = solve_density(mesh88, state, 0.002, params, 4.0,
                                      *start_of_step(mesh88, state, params))
    mass_old = mesh88.cell_volume * rho_old.sum()
    mass_new = mesh88.cell_volume * rho.sum()
    assert abs(mass_new - mass_old) <= 1e-12 * abs(mass_old)


def test_solve_density_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(stepper, "NEWTON_TOL", 1e-14)
    mesh = build_mesh(8, 8, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1e-2)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    with pytest.raises(SolverError):
        # one iteration cannot absorb an O(1) residual at this dt
        solve_density(mesh, state, 0.05, params, 3.3, *start_of_step(mesh, state, params))


def test_solve_density_raises_when_the_full_newton_step_does_not_reduce_the_residual(
        monkeypatch):
    # a zero Newton direction cannot reduce the residual: the solve must stop
    # after that one linear solve and its one candidate, naming the residual
    mesh, params, state, eta, dt = vortex_first_step(16, 1e-2)
    solves, assemblies = [], []
    assemble = stepper.assemble_fluxes

    def zero_direction(mesh, dt, d_dk, d_dl, rhs, atol):
        solves.append(atol)
        return np.zeros_like(rhs), 0

    def counted_assemble(*args):
        assemblies.append(args)
        return assemble(*args)

    monkeypatch.setattr(stepper, "_solve_mass_balance", zero_direction)
    monkeypatch.setattr(stepper, "assemble_fluxes", counted_assemble)
    with pytest.raises(SolverError, match=(
            r"^Newton iteration 1 did not reduce the residual (\S+) \(full step: \1\)$")):
        solve_density(mesh, state, dt, params, eta, *start_of_step(mesh, state, params))
    assert len(solves) == 1
    # the initial residual and the one candidate
    assert len(assemblies) == 2


def test_solve_density_assembles_fluxes_once_per_residual(monkeypatch):
    # the Newton coefficients reuse the fluxes of the current iterate: one
    # assembly for the initial residual and one per Newton iteration
    mesh, params, state, eta, dt = vortex_first_step(32, 1.0)
    callers, directions = [], []
    assemble, solve = stepper.assemble_fluxes, stepper._solve_mass_balance

    def counted_assemble(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return assemble(*args)

    def recorded_solve(*args):
        delta, iters = solve(*args)
        directions.append(delta)
        return delta, iters

    monkeypatch.setattr(stepper, "assemble_fluxes", counted_assemble)
    monkeypatch.setattr(stepper, "_solve_mass_balance", recorded_solve)
    rho, iters, _, _ = solve_density(mesh, state, dt, params, eta,
                                     *start_of_step(mesh, state, params))
    # every direction was taken in full, so each iteration made one trial
    full_steps = state.rho
    for delta in directions:
        full_steps = full_steps + 1.0 * delta
    np.testing.assert_array_equal(rho, full_steps)
    assert iters == len(directions) >= 2
    assert len(callers) == 1 + iters
    assert set(callers) == {"_residual_and_fluxes"}


def test_solve_density_rejects_a_non_finite_candidate(monkeypatch):
    # an infinite Newton direction makes the full step infinite in one cell:
    # it is not admitted, so it never reaches the gas law
    mesh, params, state, eta, dt = vortex_first_step(16, 1e-2)
    assemblies = []
    assemble = stepper.assemble_fluxes

    def infinite_direction(mesh, dt, d_dk, d_dl, rhs, atol):
        delta = np.zeros_like(rhs)
        delta[3] = np.inf
        return delta, 0

    def counted_assemble(*args):
        assemblies.append(args)
        return assemble(*args)

    monkeypatch.setattr(stepper, "_solve_mass_balance", infinite_direction)
    monkeypatch.setattr(stepper, "assemble_fluxes", counted_assemble)
    with pytest.raises(SolverError, match=(
            r"^Newton iteration 1: the full step is not positive and finite "
            r"\(residual \S+\)$")):
        solve_density(mesh, state, dt, params, eta, *start_of_step(mesh, state, params))
    # only the initial residual: the candidate never reached the gas law
    assert len(assemblies) == 1


def test_step_refuses_a_non_positive_time_step():
    mesh, params, state, _, _ = vortex_first_step(8, 1.0)
    with pytest.raises(SolverError, match="non-positive time step 0.0"):
        step(mesh, state, params, dt_limit=0.0)


def test_step_computes_the_normal_velocity_once(monkeypatch):
    # the controller and every residual of the step share one u_normal; the
    # 32^2 vortex at eps=1 takes two Newton iterations in its first step
    mesh, params, state, _, _ = vortex_first_step(32, 1.0)
    calls = []
    average_normal = stepper.face_average_normal

    def counted(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return average_normal(*args)

    monkeypatch.setattr(stepper, "face_average_normal", counted)
    _, diag = step(mesh, state, params)
    assert diag.newton_iters >= 2
    assert calls == ["step"]


def test_step_evaluates_each_face_field_once(monkeypatch):
    # A carried step of the 32^2 vortex at eps = 1e-4 takes one Newton
    # iteration of one Richardson iteration.  Face passes: u_normal, rho^n's
    # L side and [[p(rho^n)]] (shared by the controller and the first
    # residual), p'(rho^n)'s L side, the matvec, the new iterate's L side and
    # [[p]], condition (1), and the velocity update's {{p}}, u_x and u_y.
    # Cell sums: two residuals, the matvec, the conservative update,
    # condition (2) and the two momentum divergences.  Pressures: rho^n,
    # the noise floor's scale, the new iterate and the velocity update.
    # eta comes from the previous step's condition (1).
    mesh = build_mesh(32, 32, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1e-4)
    steps = advance(mesh, vortex_compressible_init(mesh, params.gamma, params.eps),
                    params, 1.0)
    next(steps)
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((mesh_ops, "_face_values"), (mesh_ops, "_cell_sums"),
                        (GasLaw, "pressure")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    _, diag = next(steps)
    assert diag.newton_iters == 1
    assert counts == {"_face_values": 11, "_cell_sums": 7, "pressure": 4}


def assert_same_bits(mine, ref, where):
    """Equal bytes field by field, through nested dataclasses."""
    if is_dataclass(mine):
        for f in fields(mine):
            assert_same_bits(getattr(mine, f.name), getattr(ref, f.name), f"{where}.{f.name}")
    else:
        assert np.asarray(mine).tobytes() == np.asarray(ref).tobytes(), where


@pytest.mark.parametrize("gamma, eps, rejected", [
    (2.0, 1.0, False), (2.0, 1e-4, False), (1.4, 1.0, False), (1.4, 1e-4, False),
    (2.0, 1e-4, True),
], ids=["gamma2-eps1", "gamma2-eps1e-4", "gamma1.4-eps1", "gamma1.4-eps1e-4",
        "gamma2-eps1e-4-rejected"])
def test_advance_equals_a_loop_of_bare_steps(monkeypatch, gamma, eps, rejected):
    # advance hands each step the previous step's record, whose energy report
    # and condition (1) max stand in for the ones step would compute: every
    # state and every record must be the bare loop's, bit for bit.  With
    # `rejected`, step 2's first attempt fails condition (1), so the eta of
    # step 3 must come from the accepted attempt.
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=gamma, eps=eps)
    state0 = vortex_compressible_init(mesh, gamma, eps)
    n_steps, final_time = 4, 1.0
    calls = failing_conditions(
        monkeypatch, lambda report, call: replace(report, eta_ok=not (rejected and call == 2)))
    carried = list(itertools.islice(advance(mesh, state0, params, final_time), n_steps))
    assert len(calls) == n_steps + rejected
    calls.clear()
    previous = state0
    for index, (state, diag) in enumerate(carried):
        bare_state, bare_diag = step(mesh, previous, params,
                                     dt_limit=final_time - previous.time)
        assert_same_bits(state, bare_state, f"step {index + 1} state")
        assert_same_bits(diag, bare_diag, f"step {index + 1} diag")
        assert diag.eta_used == auto_eta(mesh, previous.rho)
        previous = state
    assert len(calls) == n_steps + rejected


def test_attempt_step_rejects_non_finite_conservative_update(monkeypatch):
    # a NaN mass flux makes min(rho_next) NaN, which "min <= 0" let through
    mesh, params, state, eta, dt = vortex_first_step(16, 1e-2)
    solve = stepper.solve_density

    def nan_flux(*args):
        rho, iters, norm, fluxes = solve(*args)
        fluxes.mass = fluxes.mass.copy()
        fluxes.mass[0, 0] = np.nan
        return rho, iters, norm, fluxes

    monkeypatch.setattr(stepper, "solve_density", nan_flux)
    with pytest.raises(SolverError, match="positivity or finiteness"):
        stepper._attempt_step(mesh, state, params, dt, eta,
                              *start_of_step(mesh, state, params))


def test_update_velocity_uniform_is_identity(mesh44):
    state = uniform_state(mesh44, u0=(0.4, -0.3))
    params = SchemeParams()
    gas = params.gas()
    fluxes = assemble_fluxes(mesh44, state.rho, face_average_normal(mesh44, state.u),
                             density_faces(mesh44, gas, state.rho), 3.3, 0.01, 1.0)
    u_next = update_velocity(mesh44, gas, state.rho, state.u, state.rho, fluxes, 0.01, 1.0)
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
    fluxes = assemble_fluxes(mesh, rho_next, face_average_normal(mesh, state.u),
                             density_faces(mesh, gas, rho_next),
                             3.3, dt, params.eps)
    u_next = update_velocity(mesh, gas, state.rho, state.u, rho_next, fluxes, dt,
                             params.eps)
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
    rho_next, _, _, fluxes = solve_density(mesh88, state, 0.002, params, 4.0,
                                           *start_of_step(mesh88, state, params))
    u_next = update_velocity(mesh88, gas, state.rho, state.u, rho_next, fluxes, 0.002,
                             1.0)
    mom_old = mesh88.cell_volume * (state.rho[:, None] * state.u).sum(axis=0)
    mom_new = mesh88.cell_volume * (rho_next[:, None] * u_next).sum(axis=0)
    scale = mesh88.cell_volume * (np.abs(state.rho[:, None] * state.u)).sum()
    assert np.abs(mom_new - mom_old).max() <= 1e-12 * max(scale, 1.0)


def test_update_velocity_equals_broadcast_form_bit_for_bit():
    # The per-component update against the (n_cells, 2) broadcast form it replaced.
    mesh = build_mesh(24, 20, 1.0, 0.9)
    rng = np.random.default_rng(53)
    state = State(time=0.0, rho=rng.uniform(0.5, 2.0, mesh.n_cells),
                  u=rng.normal(size=(mesh.n_cells, 2)))
    rho_next = state.rho * rng.uniform(0.95, 1.05, mesh.n_cells)
    gas, dt, eps = GasLaw(1.4), 0.003, 0.1
    fluxes = assemble_fluxes(mesh, rho_next, face_average_normal(mesh, state.u),
                             density_faces(mesh, gas, rho_next), 4.0, dt, eps)
    u_k, u_l = gather_to_faces(mesh, state.u)
    mom = (fluxes.mass_plus[..., None] * u_k + fluxes.mass_minus[..., None] * u_l
           - VISCOUS_SCALE * (u_l - u_k))
    grad_p = cell_gradient(mesh, gas.pressure(rho_next))
    numer = state.rho[:, None] * state.u - dt * (flux_divergence(mesh, mom)
                                                 + grad_p / eps ** 2)
    expected = numer / rho_next[:, None]
    u_next = update_velocity(mesh, gas, state.rho, state.u, rho_next, fluxes, dt, eps)
    assert u_next.shape == expected.shape and u_next.flags.c_contiguous
    assert u_next.tobytes() == expected.tobytes()


def test_compute_dt_uniform_rest_hits_third_cfl_surrogate(mesh44):
    # no face restricts dt at rest; 0.9 (1/3 - 0.05) 1.2 / 16 ~ 0.0191 binds
    state = uniform_state(mesh44, u0=(0.0, 0.0))
    params = SchemeParams()
    dt = compute_dt(mesh44, state, params, 3.3, *start_of_step(mesh44, state, params))
    assert dt == pytest.approx(CFL_SAFETY * (1.0 / 3.0 - BETA) * 1.2 / 16.0, rel=1e-14)
    assert dt < DT_MAX


def test_compute_dt_uniform_rest_hits_cap():
    # 4 x 4 cells over an 8 x 8 domain: the third-CFL surrogate is ~0.153
    mesh = build_mesh(4, 4, 8.0, 8.0)
    state = uniform_state(mesh, u0=(0.0, 0.0))
    params = SchemeParams()
    dt = compute_dt(mesh, state, params, 3.3, *start_of_step(mesh, state, params))
    assert dt == DT_MAX


def test_compute_dt_unit_advection_gives_h_over_16():
    # h/16 before the safety factor, well under the DT_MAX cap
    mesh = build_mesh(16, 16, 1.0, 1.0)
    state = uniform_state(mesh, rho0=1.0, u0=(1.0, 0.0))
    params = SchemeParams()
    dt = compute_dt(mesh, state, params, 3.3, *start_of_step(mesh, state, params))
    assert dt == pytest.approx(CFL_SAFETY * mesh.hx / 16.0, rel=1e-14)
    assert dt < DT_MAX


def test_compute_dt_monotone_in_eta():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    params = SchemeParams()
    state = vortex_compressible_init(mesh, 2.0, 1.0)
    dts = [compute_dt(mesh, state, params, eta, *start_of_step(mesh, state, params))
           for eta in (3.3, 6.6, 13.2)]
    assert dts[0] >= dts[1] >= dts[2]


def test_auto_eta_uniform_unit_density(mesh44):
    assert auto_eta(mesh44, np.ones(mesh44.n_cells)) == pytest.approx(3.3)
    # eta must dominate 3 * max face average of 1/rho
    rng = np.random.default_rng(53)
    rho = rng.uniform(0.5, 2.0, mesh44.n_cells)
    from machfv import face_average
    assert auto_eta(mesh44, rho) > 3.0 * face_average(mesh44, 1.0 / rho).max()


def test_enforce_conditions_dt_threshold():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    gas = SchemeParams().gas()
    rho = np.ones(mesh.n_cells)
    u = np.zeros((mesh.n_cells, 2))
    fluxes = assemble_fluxes(mesh, rho, face_average_normal(mesh, u),
                             density_faces(mesh, gas, rho), 3.3, 0.001, 1.0)
    dt_crit = (1.0 / 3.0 - BETA) * mesh.hx / 4.0
    ok = enforce_conditions(mesh, rho, rho, fluxes, 0.99 * dt_crit, eta=3.3)
    bad = enforce_conditions(mesh, rho, rho, fluxes, 1.01 * dt_crit, eta=3.3)
    assert ok.dt_cfl_ok and not bad.dt_cfl_ok
    # uniform state: zero fluxes satisfy the flux CFL for any dt
    assert ok.flux_cfl_ok and bad.flux_cfl_ok
    # eta threshold: with rho = 1 the bound is eta > 3
    assert enforce_conditions(mesh, rho, rho, fluxes, 0.001, eta=2.9).eta_ok is False
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
    assert diag.newton_iters == 2
    assert diag.total_mass == pytest.approx(1.0137766100380579, rel=1e-13)
    assert diag.energy_decrement >= 0.0
    assert diag.conditions.all_ok


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: at eps = 1e-6 the residual's noise floor puts Newton's "
    "tolerance above the first step's initial residual, so the step keeps the "
    "fluxes at the old density and the energy rises by about 8e12"))
def test_first_vortex_step_at_eps_1e_6_takes_a_newton_iteration():
    mesh = build_mesh(32, 32, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1e-6)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    energy0 = energy_report(mesh, params.gas(), state.rho, state.u, params.eps).total
    _, diag = step(mesh, state, params)
    assert diag.newton_iters >= 1
    # --assert-inequalities' energy check
    assert diag.energy_decrement >= -INEQUALITY_SLACK * energy0


def test_step_recovers_from_failed_solve_by_halving_dt(monkeypatch):
    # a one-iteration Newton budget cannot solve the first controller step;
    # the controller rejects it and halves dt until one iteration suffices
    monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", 1)
    mesh, params, state, eta, dt_controller = vortex_first_step(32, 1.0)
    with pytest.raises(SolverError):
        solve_density(mesh, state, dt_controller, params, eta,
                      *start_of_step(mesh, state, params))
    _, diag = step(mesh, state, params)
    assert diag.conditions.all_ok
    assert diag.dt_used == dt_controller / 32.0


def failing_conditions(monkeypatch, report_for):
    """Patch enforce_conditions to return report_for(real_report, call
    number); returns the list of (dt, eta) of its calls."""
    enforce = stepper.enforce_conditions
    calls = []

    def patched(mesh, rho_old, rho_next, fluxes, dt, eta):
        calls.append((dt, eta))
        return report_for(enforce(mesh, rho_old, rho_next, fluxes, dt, eta), len(calls))

    monkeypatch.setattr(stepper, "enforce_conditions", patched)
    return calls


def test_step_rejection_names_the_violated_conditions(monkeypatch):
    # every attempt fails the flux CFL: dt is halved MAX_DT_HALVINGS times at
    # one eta, and the message names the failed flags
    mesh, params, state, eta, dt = vortex_first_step(16, 1.0)
    calls = failing_conditions(
        monkeypatch, lambda report, _: replace(report, flux_cfl_ok=False))
    with pytest.raises(SolverError, match=(
            r"step rejected after 8 dt halvings: stability conditions violated "
            r"\(eta_ok=True, flux_cfl_ok=False, dt_cfl_ok=True\)$")):
        step(mesh, state, params)
    assert len(calls) == stepper.MAX_DT_HALVINGS + 1
    dts, etas = zip(*calls)
    assert dts[0] == dt and set(etas) == {eta}
    assert all(later == 0.5 * earlier for earlier, later in zip(dts, dts[1:]))


def test_step_recovers_from_failed_eta_condition_by_halving_dt(monkeypatch):
    # condition (1) fails on the first attempt only: the step halves dt and
    # keeps the controller's eta
    mesh, params, state, eta, dt = vortex_first_step(16, 1.0)
    calls = failing_conditions(
        monkeypatch, lambda report, call: replace(report, eta_ok=call > 1))
    _, diag = step(mesh, state, params)
    assert calls == [(dt, eta), (0.5 * dt, eta)]
    assert diag.dt_used == 0.5 * dt
    assert diag.eta_used == auto_eta(mesh, state.rho)
    assert diag.conditions.all_ok


def test_step_rejection_names_the_error_that_ended_the_last_attempt(monkeypatch):
    # every attempt but the last fails a condition, and the last fails in the
    # solver: the final message carries that solver error
    mesh, params, state, _, _ = vortex_first_step(16, 1.0)
    failing_conditions(monkeypatch, lambda report, _: replace(report, eta_ok=False))
    solve = stepper.solve_density
    attempts = []

    def fails_last(*args):
        attempts.append(args)
        if len(attempts) == stepper.MAX_DT_HALVINGS + 1:
            raise SolverError("forced solve failure")
        return solve(*args)

    monkeypatch.setattr(stepper, "solve_density", fails_last)
    with pytest.raises(SolverError, match=(
            r"step rejected after 8 dt halvings: forced solve failure$")):
        step(mesh, state, params)
    assert len(attempts) == stepper.MAX_DT_HALVINGS + 1


def test_rough_single_steps_take_the_controller_dt():
    # Newton takes full steps and a refused step halves dt: on rough random
    # states across gamma, eps and grids the controller's dt must hold, so
    # every step is accepted at its first attempt
    rng = np.random.default_rng(20261020)
    for _ in range(60):
        n = int(rng.choice([8, 12, 16]))
        params = SchemeParams(gamma=rng.uniform(1.2, 3.0), eps=10.0 ** rng.uniform(-4.0, 0.0))
        amplitude = rng.choice([params.eps ** 2, 0.5])
        mesh = build_mesh(n, n, 1.0, 1.0)
        rho = 1.0 + amplitude * rng.uniform(-1.0, 1.0, mesh.n_cells)
        u = rng.uniform(0.0, 3.0) * rng.uniform(-1.0, 1.0, (mesh.n_cells, 2))
        state = State(time=0.0, rho=rho, u=u)
        dt = compute_dt(mesh, state, params, auto_eta(mesh, state.rho),
                        *start_of_step(mesh, state, params))
        _, diag = step(mesh, state, params)
        assert diag.dt_used == dt, (n, params, amplitude)


def test_short_final_step_keeps_density_deviation():
    # landing 5e-7 past one controller step must not take a sliver step,
    # whose stabilisation cannot hold rho at 1 + O(eps^2)
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=1e-4)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    state, _ = list(advance(mesh, state, params, 0.01))[-1]
    deviation = np.abs(state.rho - 1.0).max() / params.eps ** 2
    _, probe = step(mesh, state, params)
    steps = list(advance(mesh, state, params, state.time + probe.dt_used + 5e-7))
    # the last two steps share the remainder
    assert len(steps) == 2
    assert steps[0][1].dt_used == pytest.approx(steps[1][1].dt_used, rel=1e-12)
    final, _ = steps[-1]
    assert np.abs(final.rho - 1.0).max() / params.eps ** 2 <= 2.0 * deviation


def test_advance_reuses_each_end_of_step_energy_report(monkeypatch):
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=0.1)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    stepped, manual = state, []
    for _ in range(3):
        stepped, diag = step(mesh, stepped, params)
        manual.append(diag)
    calls = []
    report = diagnostics.energy_report

    def counted(*args):
        calls.append(args)
        return report(*args)

    monkeypatch.setattr(diagnostics, "energy_report", counted)
    steps = advance(mesh, state, params, stepped.time)
    assert not calls  # a generator does no work before the first next()
    diags = [diag for _, diag in steps]
    # one report per end of step, plus the start-of-run report
    assert len(diags) == 3 and len(calls) == len(diags) + 1
    for mine, ref in zip(diags, manual):
        assert mine.energy_decrement == ref.energy_decrement
        assert mine.entropy_decrement == ref.entropy_decrement
        assert mine.energy == ref.energy


def test_short_runs_energy_monotone_and_positive():
    for eps, steps in ((1.0, 10), (1e-2, 10)):
        mesh = build_mesh(32, 32, 1.0, 1.0)
        params = SchemeParams(gamma=2.0, eps=eps)
        state = vortex_compressible_init(mesh, params.gamma, eps)
        energy = energy_report(mesh, params.gas(), state.rho, state.u, eps).total
        for _ in range(steps):
            state, diag = step(mesh, state, params)
            assert diag.min_density > 0.0
            assert diag.energy.total <= energy * (1.0 + 1e-12)
            assert diag.conditions.all_ok
            energy = diag.energy.total


def test_advance_conserves_mass_and_momentum():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=0.1)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    mass0 = mesh.cell_volume * state.rho.sum()
    mom0 = mesh.cell_volume * (state.rho[:, None] * state.u).sum(axis=0)
    mom_scale = mesh.cell_volume * np.abs(state.rho[:, None] * state.u).sum()
    steps = list(advance(mesh, state, params, 0.02))
    assert steps[-1][0].time == pytest.approx(0.02, abs=1e-12)
    # one (state, diag) per accepted step, in order
    assert [s.step_index for s, _ in steps] == list(range(1, len(steps) + 1))
    for new_state, diag in steps:
        assert diag.step_index == new_state.step_index and diag.time == new_state.time
        assert abs(diag.total_mass - mass0) <= 1e-12 * mass0
        assert np.abs(diag.total_momentum - mom0).max() <= 1e-12 * mom_scale


def test_advance_rejects_bad_final_time(mesh44):
    steps = advance(mesh44, uniform_state(mesh44), SchemeParams(), 0.0)
    with pytest.raises(ValueError, match="must be finite and exceed state.time"):
        next(steps)


def test_advance_rejects_infinite_final_time(mesh44):
    # an infinite final time made the landing margin infinite: 0 steps, no error
    steps = advance(mesh44, uniform_state(mesh44), SchemeParams(), np.inf)
    with pytest.raises(ValueError, match="finite"):
        next(steps)


# Three 128^2 runs in one fresh process; prints each run's minor page faults.
REPEATED_RUNS = """
import json, resource
from machfv import RunConfig, SchemeParams, run_case
cfg = RunConfig(case="vortex", nx=128, ny=128, params=SchemeParams(eps=1e-2),
                final_time=0.004)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_case(cfg, write_outputs=False)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not stepper._KEEPS_FREED_MEMORY,
                    reason="the allocator thresholds are set under glibc only")
def test_repeated_runs_do_not_fault_their_memory_back_in():
    # a step's temporaries, freed and reallocated, must come from memory the
    # process kept: without the allocator settings glibc returned it to the
    # kernel, and each later run took thousands of faults
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", REPEATED_RUNS], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    faults = json.loads(out.stdout.strip().splitlines()[-1])
    assert max(faults[1:]) < 500, faults
