"""Acceptance scorecard: twelve end-to-end checks of the advertised behaviour.

Each test prints exactly one line of the form

    criterion NN (<label>): PASS/FAIL - <measured values vs tolerance>

before asserting, so ``pytest tests/test_acceptance.py -v -s`` produces a
readable report.  Heavy runs are shared through module-scoped fixtures;
the whole module is sized to finish in about a minute on a laptop.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from machfv import (ConvergenceConfig, RunConfig, SchemeParams, State,
                    build_mesh, cell_divergence, cell_gradient, density_faces,
                    audit_energy_balances, convergence_study, energy_report,
                    face_average_normal, moving_vortex, run_case, solve_density,
                    step)
from machfv import stepper
from machfv.driver import initial_state
from machfv.flux import VISCOUS_SCALE

from oracles import dense_newton


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:02d} ({label}): {status} - {detail}")
    return ok


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def run_eps1_64():
    """Reference vortex run: eps=1, gamma=2, 64x64, T=0.1, inequalities on."""
    cfg = RunConfig(case="vortex", nx=64, ny=64, final_time=0.1,
                    params=SchemeParams(gamma=2.0, eps=1.0))
    start = time.perf_counter()
    result = run_case(cfg, assert_inequalities=True, collect_states=True,
                      write_outputs=False)
    wall = time.perf_counter() - start
    return result, wall


@pytest.fixture(scope="module")
def run_eps01_32():
    """Companion low-Mach run: eps=1e-2, gamma=2, 32x32, T=0.1."""
    cfg = RunConfig(case="vortex", nx=32, ny=32, final_time=0.1,
                    params=SchemeParams(gamma=2.0, eps=1e-2))
    return run_case(cfg, assert_inequalities=True, collect_states=True,
                    write_outputs=False)


@pytest.fixture(scope="module")
def ke_runs(run_eps1_64):
    """64x64 vortex runs to T=0.1 across the Mach sweep, keyed by eps."""
    runs = {1.0: run_eps1_64[0]}
    for eps in (0.1, 0.01, 0.001):
        cfg = RunConfig(case="vortex", nx=64, ny=64, final_time=0.1,
                        params=SchemeParams(gamma=2.0, eps=eps))
        runs[eps] = run_case(cfg, write_outputs=False)
    return runs


@pytest.fixture(scope="module")
def deviation_runs():
    """32x32 vortex runs to T=0.05 across the Mach sweep, with states kept."""
    runs = {}
    for eps in (1.0, 0.1, 0.01, 0.001):
        cfg = RunConfig(case="vortex", nx=32, ny=32, final_time=0.05,
                        params=SchemeParams(gamma=2.0, eps=eps))
        runs[eps] = run_case(cfg, collect_states=True, write_outputs=False)
    return runs


@pytest.fixture(scope="module")
def coupled_studies(tmp_path_factory):
    """eps = h studies on 8..64 grids for both gas laws."""
    studies = {}
    for gamma in (2.0, 1.4):
        cfg = ConvergenceConfig(mode="coupled", grids=(8, 16, 32, 64),
                                final_time=0.1,
                                params=SchemeParams(gamma=gamma))
        out = tmp_path_factory.mktemp(f"coupled_gamma{int(10 * gamma)}")
        studies[gamma] = convergence_study(cfg, output_dir=out)
    return studies


@pytest.fixture(scope="module")
def fixed_study(tmp_path_factory):
    """Fixed eps=1 moving-vortex study on 8..64 grids against the exact solution."""
    cfg = ConvergenceConfig(mode="fixed", case="moving_vortex", grids=(8, 16, 32, 64),
                            final_time=0.1,
                            params=SchemeParams(gamma=2.0, eps=1.0))
    return convergence_study(cfg, output_dir=tmp_path_factory.mktemp("fixed"))


def _initial_energy(result):
    cfg = result.config
    s0 = result.states[0]
    return energy_report(result.mesh, cfg.params.gas(), s0.rho, s0.u,
                         cfg.params.eps)


# ---------------------------------------------------------------- criteria

def test_criterion_01_conservation(run_eps1_64):
    result, wall = run_eps1_64
    vol = result.mesh.cell_volume
    s0 = result.states[0]
    mass0 = vol * s0.rho.sum()
    mom0 = vol * (s0.rho[:, None] * s0.u).sum(axis=0)
    mom_scale = max(vol * np.abs(s0.rho[:, None] * s0.u).sum(), mass0)
    mass_drift = max(abs(d.total_mass - mass0) for d in result.diags) / mass0
    mom_drift = max(np.abs(d.total_momentum - mom0).max()
                    for d in result.diags) / mom_scale
    ok = mass_drift <= 1e-12 and mom_drift <= 1e-12 and wall < 60.0
    assert report(
        1, "mass/momentum conservation", ok,
        f"64x64 eps=1 run, {len(result.diags)} steps: relative mass drift "
        f"{mass_drift:.2e}, momentum drift {mom_drift:.2e} (tol 1e-12 each); "
        f"wall time {wall:.1f}s (< 60s)")


def test_criterion_02_energy_decay(run_eps1_64, run_eps01_32):
    ok = True
    parts = []
    for label, result in (("64x64 eps=1", run_eps1_64[0]),
                          ("32x32 eps=1e-2", run_eps01_32)):
        slack = 1e-12 * _initial_energy(result).total
        worst = min(d.energy_decrement for d in result.diags)
        violated = sum(not d.conditions.all_ok for d in result.diags)
        ok = ok and worst >= -slack and violated == 0
        parts.append(f"{label}: worst energy decrement {worst:.3e} "
                     f"(slack -{slack:.1e}), {violated} steps with violated "
                     f"conditions")
    assert report(2, "total energy decay", ok, "; ".join(parts))


def test_criterion_03_entropy_decay(run_eps1_64, run_eps01_32):
    ok = True
    parts = []
    for label, result in (("64x64 eps=1", run_eps1_64[0]),
                          ("32x32 eps=1e-2", run_eps01_32)):
        slack = 1e-12 * _initial_energy(result).entropy_total
        worst = min(d.entropy_decrement for d in result.diags)
        ok = ok and worst >= -slack
        parts.append(f"{label}: worst entropy decrement {worst:.3e} "
                     f"(slack -{slack:.1e})")
    assert report(3, "relative entropy decay", ok, "; ".join(parts))


def test_criterion_04_positivity(run_eps1_64, run_eps01_32, ke_runs,
                                 deviation_runs):
    results = [run_eps1_64[0], run_eps01_32]
    results += list(ke_runs.values()) + list(deviation_runs.values())
    seen = set()
    worst = math.inf
    n_runs = 0
    for result in results:
        if id(result) in seen:
            continue
        seen.add(id(result))
        n_runs += 1
        worst = min(worst, min(d.min_density for d in result.diags))
        if result.states is not None:
            worst = min(worst, float(result.states[0].rho.min()))
    ok = worst > 0.0
    assert report(4, "density positivity", ok,
                  f"minimum density over {n_runs} runs and every step: "
                  f"{worst:.6f} (> 0)")


def test_criterion_05_energy_audit(run_eps1_64, run_eps01_32):
    rng = np.random.default_rng(20260815)
    ok = True
    parts = []
    for label, result in (("64x64 eps=1", run_eps1_64[0]),
                          ("32x32 eps=1e-2", run_eps01_32)):
        mesh, params = result.mesh, result.config.params
        picks = sorted(rng.choice(len(result.diags), size=10, replace=False))
        reproduced = True
        worst_rem = 0.0
        worst_ident = 0.0
        worst_dec = 0.0
        worst_rho = 0.0
        worst_u = 0.0
        for i in picks:
            before = result.states[i]
            recorded = result.diags[i]
            after, diag = step(mesh, before, params, dt_limit=recorded.dt_used)
            reproduced = (reproduced and diag.dt_used == recorded.dt_used
                          and np.array_equal(after.rho, result.states[i + 1].rho))
            audit = audit_energy_balances(mesh, params, before,
                                          result.states[i + 1], recorded)
            worst_rem = min(worst_rem, audit.min_internal_remainder)
            worst_ident = max(worst_ident, audit.identity_rel_defect)
            worst_dec = max(worst_dec,
                            abs(audit.assembled_decrement
                                - recorded.energy_decrement)
                            / recorded.energy.total)
            # the audit's extended-precision replay of the update kernels
            # reproduces the double-precision step
            worst_rho = max(worst_rho, audit.max_density_mismatch)
            worst_u = max(worst_u, audit.max_velocity_mismatch)
        ok = (ok and reproduced and worst_rem >= -1e-14
              and worst_ident <= 1e-10 and worst_dec <= 1e-10
              and worst_rho <= 1e-13 and worst_u <= 1e-11)
        parts.append(
            f"{label} (10 replayed steps{'' if reproduced else ', REPLAY MISMATCH'}): "
            f"min cell remainder {worst_rem:.2e} (>= -1e-14), assembled "
            f"identity defect {worst_ident:.2e}, decrement mismatch "
            f"{worst_dec:.2e} (each <= 1e-10 relative), density/velocity "
            f"replay mismatch {worst_rho:.2e}/{worst_u:.2e} (<= 1e-13/1e-11)")
    assert report(5, "per-step energy audit", ok, "; ".join(parts))


def test_criterion_06_fixed_eps_convergence(fixed_study):
    errs = [row["u_supl2"] for row in fixed_study]
    rate = fixed_study[-1]["eoc_u_supl2"]
    ok = all(b < a for a, b in zip(errs, errs[1:])) and rate >= 0.5
    u_rates = ", ".join(f"{row['eoc_u_supl2']:.2f}" for row in fixed_study[1:])
    e_rates = ", ".join(f"{row['eoc_rel_energy_sup']:.2f}" for row in fixed_study[1:])
    assert report(
        6, "fixed-eps convergence to the exact solution", ok,
        "moving vortex, eps=1: u sup-L2 error "
        + ", ".join(f"n={row['n']} {row['u_supl2']:.3e}" for row in fixed_study)
        + f"; orders {u_rates}, finest-pair {rate:.2f} (>= 0.5, decreasing); "
        f"relative-energy orders {e_rates}")


def test_criterion_07_coupled_convergence(coupled_studies):
    ok = True
    parts = []
    for gamma, rows in coupled_studies.items():
        rho_rate = rows[-1]["eoc_rho_supl2"]
        u_vals = [row["u_supl2"] for row in rows]
        u_rate = rows[-1]["eoc_u_supl2"]
        u_down = all(b < a for a, b in zip(u_vals, u_vals[1:]))
        ok = ok and 1.5 <= rho_rate <= 2.5 and u_down and u_rate >= 0.3
        parts.append(
            f"gamma={gamma}: rho sup-L2 finest order {rho_rate:.2f} "
            f"(in [1.5, 2.5]); u sup-L2 "
            f"{'decreasing' if u_down else 'NOT decreasing'} with finest "
            f"order {u_rate:.2f} (>= 0.3)")
    assert report(7, "coupled eps=h accuracy", ok, "; ".join(parts))


def test_criterion_08_density_deviation_scaling(deviation_runs):
    ratios = {}
    for eps, result in sorted(deviation_runs.items(), reverse=True):
        vol = result.mesh.cell_volume
        sup = max(math.sqrt(vol * ((s.rho - 1.0) ** 2).sum())
                  for s in result.states)
        ratios[eps] = sup / eps
    spread = max(ratios.values()) / min(ratios.values())
    anchor = ratios[1.0]
    ok = all(r <= 10.0 * anchor for r in ratios.values())
    values = ", ".join(f"eps={eps:g}: {r:.3e}" for eps, r in ratios.items())
    assert report(
        8, "low-Mach density deviation", ok,
        f"sup_t ||rho-1||_L2 / eps = {{{values}}}; max/min spread "
        f"{spread:.1f}; bound checked: each value <= 10x the eps=1 value "
        f"(well-prepared data makes the deviation scale like eps^2, so the "
        f"ratio only shrinks as eps -> 0)")


def test_criterion_09_kinetic_energy_overlap(ke_runs):
    grid = np.linspace(0.0, 0.1, 201)
    curves = {}
    for eps, result in ke_runs.items():
        cfg = result.config
        s0 = initial_state(cfg, result.mesh)
        ke0 = energy_report(result.mesh, cfg.params.gas(), s0.rho, s0.u,
                            cfg.params.eps).kinetic
        times = np.array([0.0] + [d.time for d in result.diags])
        ratios = np.array([1.0] + [d.energy.kinetic / ke0
                                   for d in result.diags])
        curves[eps] = np.interp(grid, times, ratios)
    worst, worst_pair = 0.0, (None, None)
    for a, b in itertools.combinations(sorted(curves), 2):
        gap = float(np.abs(curves[a] - curves[b]).max())
        if gap > worst:
            worst, worst_pair = gap, (a, b)
    ok = worst <= 0.05
    assert report(
        9, "kinetic-energy decay overlap", ok,
        f"KE(t)/KE(0) on 64x64 grids for eps in {{1, 0.1, 0.01, 0.001}}: "
        f"largest pairwise gap {worst:.4f} between eps={worst_pair[0]:g} and "
        f"eps={worst_pair[1]:g} (<= 0.05 at matched times)")


def test_criterion_10_dense_oracle_agreement(monkeypatch):
    monkeypatch.setattr(stepper, "NEWTON_TOL", 1e-12)
    mesh = build_mesh(4, 4, 1.0, 1.0)
    rng = np.random.default_rng(4242)
    eta, dt = 4.0, 0.01
    worst = 0.0
    for case in range(20):
        gamma = 2.0 if case % 2 == 0 else 1.4
        eps = 1.0 if case % 4 < 2 else 0.5
        rho = rng.uniform(0.5, 2.0, mesh.n_cells)
        u = rng.uniform(-1.0, 1.0, (mesh.n_cells, 2))
        state = State(time=0.0, rho=rho, u=u)
        params = SchemeParams(gamma=gamma, eps=eps)
        mine, _, _, _ = solve_density(mesh, state, dt, params, eta,
                                      face_average_normal(mesh, state.u),
                                      density_faces(mesh, params.gas(), state.rho))
        reference, _, _ = dense_newton(rho, u, 4, 4, 1.0, 1.0, gamma, eps, eta, dt,
                                       viscous=VISCOUS_SCALE)
        worst = max(worst, float(np.abs(mine - reference).max()))
    ok = worst <= 1e-8
    assert report(
        10, "implicit solve vs dense oracle", ok,
        f"largest inf-norm gap {worst:.2e} over 20 random 4x4 states "
        f"(<= 1e-8; oracle re-implements the residual face by face and "
        f"uses a dense finite-difference Newton)")


def test_criterion_11_summation_by_parts():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(1234)
    vol = mesh.cell_volume
    worst = 0.0
    for _ in range(1000):
        q = rng.normal(size=mesh.n_cells)
        phi = rng.normal(size=(mesh.n_cells, 2))
        a = vol * float((q * cell_divergence(mesh, phi)).sum())
        b = vol * float((cell_gradient(mesh, q) * phi).sum())
        worst = max(worst, abs(a + b) / max(abs(a), abs(b)))
    ok = worst <= 1e-12
    assert report(
        11, "discrete summation by parts", ok,
        f"largest relative defect of sum(q div phi) + sum(grad q . phi) over "
        f"1000 random pairs on 8x8: {worst:.2e} (<= 1e-12)")


def test_criterion_12_balanced_vortex_density(ke_runs):
    # The printed vortex density does not balance the centrifugal force, so
    # its density moves by O(eps^2) at once; the balanced moving vortex only
    # drifts from its exact density by the discretisation error.
    printed = ke_runs[0.01]
    cfg = printed.config
    eps2 = cfg.params.eps ** 2
    rho0 = initial_state(cfg, printed.mesh).rho
    printed_dev = float(np.abs(printed.final_state.rho - rho0).max()) / eps2
    balanced = run_case(replace(cfg, case="moving_vortex"), write_outputs=False)
    final = balanced.final_state
    exact = moving_vortex(balanced.mesh, cfg.params.gamma, cfg.params.eps, final.time)
    balanced_dev = float(np.abs(final.rho - exact.rho).max()) / eps2
    ratio = printed_dev / balanced_dev
    ok = ratio >= 10.0
    assert report(
        12, "balanced vs printed vortex density", ok,
        f"max|rho(T) - rho_ref| / eps^2 on 64x64, eps=1e-2, T=0.1: printed "
        f"vortex (against rho0) {printed_dev:.3e} in {len(printed.diags)} steps, "
        f"balanced moving vortex (against its exact density) {balanced_dev:.3e} "
        f"in {len(balanced.diags)} steps; ratio {ratio:.1f} (>= 10)")
