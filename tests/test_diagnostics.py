"""Energy functionals, error norms, EOC extraction, and the step audit."""

import numpy as np
import pytest

from machfv import (GasLaw, SchemeParams, State, audit_energy_balances,
                    build_mesh, density_faces, energy_report, eoc, error_norms,
                    face_average_normal, relative_energy,
                    relative_energy_to_limit, step, vortex_compressible_init)
from machfv import flux, stepper
from machfv.diagnostics import total_momentum


def test_energy_report_uniform_rest():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    gas = GasLaw(2.0)
    rho = np.ones(16)
    u = np.zeros((16, 2))
    rep = energy_report(mesh, gas, rho, u, eps=0.5)
    assert rep.kinetic == 0.0
    # integral of P(1) = 1/(gamma-1) over the unit domain, scaled by 1/eps^2
    assert rep.internal_scaled == pytest.approx(1.0 / 0.25)
    assert rep.entropy_scaled == 0.0
    assert rep.total == rep.internal_scaled
    assert rep.entropy_total == 0.0


def test_energy_report_decomposition():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    gas = GasLaw(1.4)
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.7, 1.5, 64)
    u = rng.normal(size=(64, 2))
    rep = energy_report(mesh, gas, rho, u, eps=0.3)
    assert rep.total == pytest.approx(rep.kinetic + rep.internal_scaled)
    assert rep.entropy_total == pytest.approx(rep.kinetic + rep.entropy_scaled)
    assert rep.entropy_scaled >= 0.0


def test_velocity_reductions_equal_axis_sum_forms_bit_for_bit():
    # |u|^2 added by components against the axis-1 reductions it replaced.
    mesh = build_mesh(24, 20, 1.0, 0.9)
    gas = GasLaw(1.4)
    rng = np.random.default_rng(59)
    rho = rng.uniform(0.5, 2.0, mesh.n_cells)
    u = rng.normal(size=(mesh.n_cells, 2))
    v = rng.normal(size=(mesh.n_cells, 2))
    vol = mesh.cell_volume
    rep = energy_report(mesh, gas, rho, u, eps=0.1)
    assert rep.kinetic == float(vol * (0.5 * rho * (u ** 2).sum(axis=1)).sum())
    bregman = gas.relative_internal_energy(rho, 1.0)
    assert relative_energy(mesh, gas, rho, u, 1.0, v, 0.1) == float(
        vol * (0.5 * rho * ((u - v) ** 2).sum(axis=1) + bregman / 0.1 ** 2).sum())


def test_total_momentum_sums_each_component():
    mesh = build_mesh(24, 20, 1.0, 0.9)
    rng = np.random.default_rng(61)
    rho = rng.uniform(0.5, 2.0, mesh.n_cells)
    u = rng.normal(size=(mesh.n_cells, 2))
    expected = mesh.cell_volume * (rho[:, None] * u).sum(axis=0)
    np.testing.assert_allclose(total_momentum(mesh, rho, u), expected, rtol=1e-12)


def test_relative_energy_values():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    gas = GasLaw(2.0)
    rho = np.ones(16)
    u = np.zeros((16, 2))
    ref_u = u.copy()
    assert relative_energy(mesh, gas, rho, u, 1.0, ref_u, 1.0) == 0.0
    # velocity offset (0.1, 0): integral of rho |du|^2 / 2 = 0.005
    u2 = u + np.array([0.1, 0.0])
    assert relative_energy(mesh, gas, rho, u2, 1.0, ref_u, 1.0) == \
        pytest.approx(0.005)
    assert relative_energy_to_limit(mesh, gas, rho, u2, ref_u, 0.01) == \
        pytest.approx(0.005)


def test_relative_energy_eps_scaling_and_positivity():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    gas = GasLaw(2.0)
    rho = np.full(16, 1.02)
    v = np.zeros((16, 2))
    u = v.copy()
    # with u = v the value is pure Bregman: halving eps quadruples it
    e1 = relative_energy_to_limit(mesh, gas, rho, u, v, 0.2)
    e2 = relative_energy_to_limit(mesh, gas, rho, u, v, 0.1)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-13)
    rng = np.random.default_rng(5)
    for _ in range(10):
        rr = rng.uniform(0.5, 2.0, 16)
        uu = rng.normal(size=(16, 2))
        vv = rng.normal(size=(16, 2))
        assert relative_energy_to_limit(mesh, gas, rr, uu, vv, 0.7) >= 0.0


def test_error_norms_zero_for_exact_trajectory():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    gas = GasLaw(2.0)
    v = np.tile(np.array([0.3, -0.1]), (16, 1))
    states = [State(time=0.1 * n, rho=np.ones(16), u=v.copy()) for n in range(3)]
    rep = error_norms(mesh, gas, states, v, eps=1.0)
    assert rep.rel_energy_sup == 0.0
    assert rep.rho_l2l2 == 0.0 and rep.rho_supl2 == 0.0
    assert rep.u_l2l2 == 0.0 and rep.u_supl2 == 0.0


def test_error_norms_two_step_hand_computation():
    # unit domain, v = 0; left-endpoint time quadrature over dt = 0.1, 0.2
    mesh = build_mesh(4, 4, 1.0, 1.0)
    gas = GasLaw(2.0)
    zero_v = np.zeros((16, 2))
    s0 = State(time=0.0, rho=np.ones(16),
               u=np.tile(np.array([0.2, 0.0]), (16, 1)))
    s1 = State(time=0.1, rho=np.full(16, 1.1),
               u=np.tile(np.array([0.1, 0.0]), (16, 1)))
    s2 = State(time=0.3, rho=np.full(16, 1.05), u=np.zeros((16, 2)))
    rep = error_norms(mesh, gas, [s0, s1, s2], zero_v, eps=1.0)
    assert rep.u_l2l2 == pytest.approx(np.sqrt(0.1 * 0.04 + 0.2 * 0.01))
    assert rep.rho_l2l2 == pytest.approx(np.sqrt(0.2 * 0.01))
    assert rep.rho_supl2 == pytest.approx(0.1)
    assert rep.u_supl2 == pytest.approx(0.1)
    # sup of [rho |u|^2/2 + Pi(rho|1)] is attained at s1 (gamma = 2)
    assert rep.rel_energy_sup == pytest.approx(0.5 * 1.1 * 0.01 + 0.01)
    # L2-in-time norms are controlled by sup norms over the horizon
    horizon = s2.time - s0.time
    sup_u_all = 0.2  # includes the initial state
    assert rep.u_l2l2 <= np.sqrt(horizon) * sup_u_all + 1e-15


def test_error_norms_accepts_time_dependent_reference():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    gas = GasLaw(2.0)
    states = [State(time=t, rho=np.ones(16),
                    u=np.tile(np.array([t, 0.0]), (16, 1)))
              for t in (0.0, 0.5)]
    rep = error_norms(mesh, gas, states,
                      lambda t: np.tile(np.array([t, 0.0]), (16, 1)), eps=1.0)
    assert rep.u_supl2 == 0.0
    with pytest.raises(ValueError):
        error_norms(mesh, gas, states[:1], states[0].u, eps=1.0)


def test_error_norms_measure_against_an_exact_density():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    gas = GasLaw(2.0)
    v = np.zeros((16, 2))
    states = [State(time=t, rho=np.full(16, 1.0 + t), u=v) for t in (0.0, 0.5)]
    # a callable of t that the trajectory follows: every error vanishes
    exact = error_norms(mesh, gas, states, v, eps=0.5, exact_density=lambda t: 1.0 + t)
    assert exact.rel_energy_sup == 0.0 and exact.rho_l2l2 == 0.0 and exact.rho_supl2 == 0.0
    # a constant: the sup runs over the state after the first step, the
    # time integral over the state before it
    rep = error_norms(mesh, gas, states, v, eps=0.5, exact_density=1.25)
    assert rep.rho_supl2 == pytest.approx(0.25)
    assert rep.rho_l2l2 == pytest.approx(np.sqrt(0.5) * 0.25)
    # Pi(1.5 | 1.25) = (1.5 - 1.25)^2 at gamma = 2, over eps^2
    assert rep.rel_energy_sup == pytest.approx(0.0625 / 0.25)
    # the default is the incompressible limit, unit density
    assert error_norms(mesh, gas, states, v, eps=0.5).rho_supl2 == pytest.approx(0.5)


def test_eoc_values():
    assert eoc([(1.0 / 8.0, 0.04), (1.0 / 16.0, 0.01)]) == [pytest.approx(2.0)]
    # halving h with errors 5.129e-4 -> 1.928e-4 gives EOC 1.411
    rates = eoc([(1.0 / 128.0, 5.129e-4), (1.0 / 256.0, 1.928e-4)])
    # quoted to three decimals from errors quoted to four significant digits
    assert rates[0] == pytest.approx(1.411, abs=1e-3)
    assert eoc([(0.1, 0.3), (0.05, 0.3)]) == [pytest.approx(0.0)]
    assert eoc([(0.1, 0.3), (0.05, 0.0)]) == [None]
    exact_first_order = [(h, 0.37 * h) for h in (0.2, 0.1, 0.05)]
    for rate in eoc(exact_first_order):
        assert rate == pytest.approx(1.0, abs=1e-12)


def audit_one_step(mesh, params):
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    new_state, diag = step(mesh, state, params)
    audit = audit_energy_balances(mesh, params, state, new_state, diag)
    return diag, audit


def test_audit_uniform_step_all_zero():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    params = SchemeParams()
    state = State(time=0.0, rho=np.full(16, 1.2), u=np.zeros((16, 2)))
    new_state, diag = step(mesh, state, params)
    audit = audit_energy_balances(mesh, params, state, new_state, diag)
    assert audit.min_internal_remainder == pytest.approx(0.0, abs=1e-18)
    assert audit.max_kinetic_residual == pytest.approx(0.0, abs=1e-18)
    assert abs(audit.energy_decrement) <= 1e-18
    assert audit.identity_rel_defect <= 1e-15


def test_audit_vortex_step_remainder_and_identity():
    for eps in (1.0, 1e-2):
        mesh = build_mesh(16, 16, 1.0, 1.0)
        params = SchemeParams(gamma=2.0, eps=eps)
        diag, audit = audit_one_step(mesh, params)
        # the remainder is analytically a positive combination of Bregman
        # terms, so only rounding can push it below zero
        assert audit.min_internal_remainder >= -1e-14
        assert audit.identity_rel_defect <= 1e-10
        assert audit.max_kinetic_residual <= 1e-12
        assert audit.remainder_formula_defect <= 1e-11
        # the audited conservative density/velocity reproduce the step
        assert audit.max_density_mismatch <= 1e-13
        assert audit.max_velocity_mismatch <= 1e-11
        # assembled decrement agrees with the recorded double-precision one
        assert abs(float(audit.assembled_decrement) - diag.energy_decrement) \
            <= 1e-12 * max(1.0, abs(diag.energy.total))


@pytest.mark.parametrize("eps", [1.0, 1e-2])
@pytest.mark.parametrize("mutated", [False, True], ids=["shipped", "pressure_x1.001"])
def test_audit_replays_the_shipped_momentum_kernel(monkeypatch, eps, mutated):
    # A 0.1% error in the pressure term of the momentum kernel that the
    # stepper ships must break the audited identity.  An audit with its own
    # copy of the update would replay the correct formula and pass.
    if mutated:
        gradient = flux.cell_gradient
        monkeypatch.setattr(flux, "cell_gradient",
                            lambda mesh, p: 1.001 * gradient(mesh, p))
    _, audit = audit_one_step(build_mesh(16, 16, 1.0, 1.0),
                              SchemeParams(gamma=2.0, eps=eps))
    assert (audit.identity_rel_defect > 1e-10) == mutated


@pytest.mark.parametrize("eps, n, limit_fraction, newton_max_iter, dt_fraction", [
    (1.0, 16, None, None, 1.0),
    (1e-2, 16, 0.3, None, 0.3),
    # a one-iteration Newton budget fails the controller dt and its first
    # four halvings (test_step_recovers_from_failed_solve_by_halving_dt)
    (1.0, 32, None, 1, 1.0 / 32.0),
], ids=["eps1", "eps1e-2_dt_limit", "after_dt_halvings"])
def test_audit_resolves_the_fluxes_of_the_step_that_ran(
        monkeypatch, eps, n, limit_fraction, newton_max_iter, dt_fraction):
    if newton_max_iter is not None:
        monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", newton_max_iter)
    mesh = build_mesh(n, n, 1.0, 1.0)
    params = SchemeParams(gamma=2.0, eps=eps)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    dt_controller = stepper.compute_dt(mesh, state, params,
                                       stepper.auto_eta(mesh, state.rho),
                                       face_average_normal(mesh, state.u),
                                       density_faces(mesh, params.gas(), state.rho))
    dt_limit = None if limit_fraction is None else limit_fraction * dt_controller
    solve = stepper.solve_density
    returns = []

    def recording(*args):
        returns.append(solve(*args))
        return returns[-1]

    monkeypatch.setattr(stepper, "solve_density", recording)
    new_state, diag = step(mesh, state, params, dt_limit=dt_limit)
    assert diag.dt_used == dt_fraction * dt_controller
    # the step's last solve is the accepted one; the audit's re-solve follows
    stepped = returns[-1][3]
    audit_energy_balances(mesh, params, state, new_state, diag)
    audited = returns[-1][3]
    assert audited is not stepped
    # the re-solve returns the density the step kept
    assert returns[-1][0].tobytes() == new_state.rho.tobytes()
    for name, value in vars(stepped).items():
        assert np.array_equal(getattr(audited, name), value), name


def test_audit_decrement_matches_report():
    mesh = build_mesh(16, 16, 1.0, 1.0)
    params = SchemeParams(gamma=1.4, eps=0.5)
    state = vortex_compressible_init(mesh, params.gamma, params.eps)
    new_state, diag = step(mesh, state, params)
    gas = params.gas()
    audit = audit_energy_balances(mesh, params, state, new_state, diag)
    before = energy_report(mesh, gas, state.rho, state.u, params.eps)
    after = energy_report(mesh, gas, new_state.rho, new_state.u, params.eps)
    assert float(audit.energy_decrement) == pytest.approx(
        before.total - after.total, abs=1e-13 * before.total)
    assert diag.energy_decrement >= 0.0
