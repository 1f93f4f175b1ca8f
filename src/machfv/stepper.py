"""Semi-implicit time stepper: implicit stabilised mass balance, explicit
momentum update.

Each step solves the nonlinear mass balance for the end-of-step density with
a damped semi-smooth Newton method (sparse 5-point Jacobian, Picard
fallback), then updates the velocity explicitly from the momentum balance
using the retained fluxes.  A time-step controller and three per-step
stability conditions (stabilisation strength, a quarter-CFL on the mass
fluxes, a third-CFL on the cell boundary measure) keep the discrete energy
and entropy functionals non-increasing; violated conditions trigger eta
doubling (auto mode, at most 3 retries) and dt halving (at most 8).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diagnostics
from .eos import GasLaw, PositivityError
from .flux import FaceFluxes, assemble_fluxes, momentum_flux
from .mesh import (StructuredMesh, cell_gradient, face_average,
                   face_average_normal, face_weight, flux_divergence,
                   flux_divergence_matrix, gather_to_faces, scatter_to_cells)

MAX_ETA_RETRIES = 3
MAX_DT_HALVINGS = 8
MAX_LINESEARCH_HALVINGS = 20
SPACE_DIM = 2


class SolverError(RuntimeError):
    """Nonlinear solve or step acceptance failed; carries the last residual."""

    def __init__(self, message, final_residual=None):
        super().__init__(message)
        self.final_residual = final_residual


@dataclass(frozen=True)
class State:
    """Cell-centred solution snapshot."""

    time: float
    rho: np.ndarray
    u: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.rho.ndim != 1 or self.u.shape != (self.rho.size, SPACE_DIM):
            raise ValueError(f"inconsistent state shapes {self.rho.shape} / {self.u.shape}")
        if not (np.all(np.isfinite(self.rho)) and np.all(np.isfinite(self.u))):
            raise ValueError("state contains non-finite values")
        if self.rho.min() <= 0.0:
            raise PositivityError(f"state density must be positive, min {self.rho.min()!r}")


@dataclass(frozen=True)
class SchemeParams:
    """Scheme parameters; defaults give the stable auto-tuned configuration."""

    gamma: float = 2.0
    eps: float = 1.0
    eta_mode: str = "auto"
    eta_value: float | None = None
    eta_safety: float = 1.1
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    picard_relax: float = 0.5
    dt_max: float = 0.1
    cfl_safety: float = 0.9
    beta: float = 0.05
    viscous_scale: float = 1.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.eta_mode not in ("auto", "fixed"):
            raise ValueError(f"eta_mode must be 'auto' or 'fixed', got {self.eta_mode!r}")
        if self.eta_mode == "fixed":
            if self.eta_value is None or not self.eta_value > 0.0:
                raise ValueError("fixed eta_mode needs a positive eta_value")
        if not self.eta_safety >= 1.0:
            raise ValueError(f"eta_safety must be >= 1, got {self.eta_safety}")
        if not 0.0 < self.beta < 1.0 / 3.0:
            raise ValueError(f"beta must lie in (0, 1/3), got {self.beta}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if not self.dt_max > 0.0:
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if not 0.0 < self.picard_relax <= 1.0:
            raise ValueError(f"picard_relax must lie in (0, 1], got {self.picard_relax}")
        if not self.newton_tol > 0.0 or self.newton_max_iter < 1:
            raise ValueError("newton_tol must be positive and newton_max_iter >= 1")

    def gas(self) -> GasLaw:
        return GasLaw(self.gamma)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three per-step stability conditions with margins."""

    eta_ok: bool
    flux_cfl_ok: bool
    dt_cfl_ok: bool
    eta_margin: float
    flux_cfl_margin: float
    dt_cfl_margin: float

    @property
    def all_ok(self) -> bool:
        return self.eta_ok and self.flux_cfl_ok and self.dt_cfl_ok

    def as_tuple(self):
        return (self.eta_ok, self.flux_cfl_ok, self.dt_cfl_ok)


@dataclass
class StepDiagnostics:
    """Per-step record; energies are totals of the stated functionals."""

    step_index: int
    time: float
    dt_used: float
    eta_used: float
    total_energy: float
    total_entropy: float
    total_mass: float
    total_momentum: np.ndarray
    kinetic_energy: float
    min_density: float
    energy_decrement: float
    entropy_decrement: float
    newton_iters: int
    final_residual: float
    conditions: ConditionReport
    fluxes: FaceFluxes | None = None


def auto_eta(mesh: StructuredMesh, rho: np.ndarray, safety: float = 1.1) -> float:
    """Smallest stabilisation strength with margin: safety * 3 * max {{1/rho}}."""
    return float(safety * (3.0 * SPACE_DIM / 2.0) * face_average(mesh, 1.0 / rho).max())


def _residual_and_fluxes(mesh, gas, rho_next, rho_old, u_old, dt, eta, eps, s):
    p_next = gas.pressure(rho_next)
    fluxes = assemble_fluxes(mesh, rho_next, u_old, p_next, eta, dt, eps, s)
    res = (rho_next - rho_old) / dt + flux_divergence(mesh, fluxes.mass)
    return res, fluxes


def density_residual(mesh: StructuredMesh, rho_next: np.ndarray, state: State,
                     dt: float, params: SchemeParams, eta: float) -> np.ndarray:
    """Residual of the implicit mass balance at the candidate density."""
    res, _ = _residual_and_fluxes(mesh, params.gas(), rho_next, state.rho,
                                  state.u, dt, eta, params.eps,
                                  params.viscous_scale)
    return res


def _mass_balance_matrix(mesh, gas, rho, u_old, dt, eta, eps, s,
                         with_stabilisation_derivative):
    """Sparse matrix I/dt + d(div mass flux)/d(rho), 5-point stencil.

    With the stabilisation derivative switched off this is the frozen-
    coefficient linear operator used by the Picard fallback.  The upwind
    indicator signs are frozen at the current iterate (semi-smooth
    linearisation).
    """
    p = gas.pressure(rho)
    fl = assemble_fluxes(mesh, rho, u_old, p, eta, dt, eps, s)
    d_dk = fl.w_plus + s
    d_dl = fl.w_minus - s
    if with_stabilisation_derivative:
        c_face = (eta * dt / eps ** 2) * face_weight(mesh)
        rho_k, rho_l = gather_to_faces(mesh, rho)
        upwind_rho = rho_k * (fl.delta_u < 0.0) + rho_l * (fl.delta_u > 0.0)
        pprime_k, pprime_l = gather_to_faces(mesh, gas.pressure_derivative(rho))
        d_dk = d_dk + c_face * pprime_k * upwind_rho
        d_dl = d_dl - c_face * pprime_l * upwind_rho
    return (flux_divergence_matrix(mesh, d_dk, d_dl)
            + sp.identity(mesh.n_cells, format="csr") / dt)


def density_jacobian(mesh: StructuredMesh, rho_next: np.ndarray, state: State,
                     dt: float, params: SchemeParams, eta: float):
    """Analytic semi-smooth Jacobian of density_residual (sparse CSR)."""
    return _mass_balance_matrix(mesh, params.gas(), rho_next, state.u, dt, eta,
                                params.eps, params.viscous_scale, True)


def solve_density(mesh: StructuredMesh, gas: GasLaw, state: State, dt: float,
                  params: SchemeParams, eta: float):
    """Solve the implicit mass balance for the end-of-step density.

    Damped Newton with a positivity-preserving backtracking line search;
    falls back to relaxed Picard sweeps when Newton stalls (less than 10%
    residual reduction over 5 iterations).  Returns
    (rho_next, iterations, residual_inf_norm, fluxes_at_solution).
    """
    rho_old = state.rho
    u_old = state.u
    eps = params.eps
    s = params.viscous_scale

    # The residual cannot be verified below its double-precision evaluation
    # noise.  The stabilisation velocity amplifies pressure round-off by
    # (eta dt / eps^2) |face|/|D|, which at low Mach dwarfs newton_tol; the
    # remaining terms cover advection, the jump penalty and the 1/dt scaling.
    rho_scale = float(rho_old.max())
    p_scale = float(gas.pressure(np.array([rho_scale]))[0])
    cmax = face_weight(mesh).max()
    kappa = (eta * dt / eps ** 2) * cmax
    u_scale = float(np.abs(u_old).max())
    fp_eps = np.finfo(float).eps
    noise = fp_eps * (rho_scale / dt + 4.0 * cmax * rho_scale
                      * (u_scale + s + 2.0 * kappa * p_scale))
    tol = params.newton_tol * max(1.0, rho_scale) + 10.0 * noise

    rho = rho_old.copy()
    res, fluxes = _residual_and_fluxes(mesh, gas, rho, rho_old, u_old, dt, eta, eps, s)
    norm = np.abs(res).max()
    history = [norm]
    use_picard = False

    iters = 0
    while norm > tol and iters < params.newton_max_iter:
        iters += 1
        if not use_picard and len(history) > 5 and history[-1] > 0.9 * history[-6]:
            use_picard = True

        if not use_picard:
            jac = density_jacobian(mesh, rho, state, dt, params, eta)
            delta = spla.spsolve(jac, -res)
            accepted = False
            alpha = 1.0
            for _ in range(MAX_LINESEARCH_HALVINGS):
                cand = rho + alpha * delta
                if cand.min() > 0.0:
                    cres, cflux = _residual_and_fluxes(mesh, gas, cand, rho_old,
                                                       u_old, dt, eta, eps, s)
                    cnorm = np.abs(cres).max()
                    if cnorm <= (1.0 - 1e-4 * alpha) * norm or cnorm <= tol:
                        rho, res, fluxes, norm = cand, cres, cflux, cnorm
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                use_picard = True
                continue
        else:
            # The frozen-coefficient sweep ignores the stabilisation
            # derivative, so it must never be allowed to grow the residual
            # (at low Mach the unrelaxed map is violently expansive).
            lin = _mass_balance_matrix(mesh, gas, rho, u_old, dt, eta, eps, s, False)
            target = spla.spsolve(lin, rho_old / dt)
            omega = params.picard_relax
            accepted = False
            for _ in range(MAX_LINESEARCH_HALVINGS):
                cand = (1.0 - omega) * rho + omega * target
                if cand.min() > 0.0:
                    cres, cflux = _residual_and_fluxes(mesh, gas, cand, rho_old,
                                                       u_old, dt, eta, eps, s)
                    cnorm = np.abs(cres).max()
                    if cnorm <= norm or cnorm <= tol:
                        rho, res, fluxes, norm = cand, cres, cflux, cnorm
                        accepted = True
                        break
                omega *= 0.5
            if not accepted:
                raise SolverError(
                    "fixed-point fallback could not reduce the residual", norm)
        history.append(norm)

    if norm > tol:
        raise SolverError(
            f"density solve did not converge: residual {norm:.3e} > {tol:.3e} "
            f"after {iters} iterations", norm)
    return rho, iters, norm, fluxes


def update_velocity(mesh: StructuredMesh, gas: GasLaw, state: State,
                    rho_next: np.ndarray, fluxes: FaceFluxes, dt: float,
                    eps: float) -> np.ndarray:
    """Explicit momentum update once the new density is known."""
    p_next = gas.pressure(rho_next)
    grad_p = cell_gradient(mesh, p_next)
    u_k, u_l = gather_to_faces(mesh, state.u)
    div_mom = flux_divergence(mesh, momentum_flux(
        fluxes.mass_plus, fluxes.mass_minus, u_k, u_l, fluxes.viscous_scale))
    numer = state.rho[:, None] * state.u - dt * (div_mom + grad_p / eps ** 2)
    return numer / rho_next[:, None]


def compute_dt(mesh: StructuredMesh, gas: GasLaw, state: State,
               params: SchemeParams, eta: float,
               rho_next_prev: np.ndarray | None = None) -> float:
    """Explicit surrogate of the sufficient flux-CFL bound.

    dt = cfl_safety * (beta_face / 4) * min{1, rho_min/rho_max on the face}
    / D_face minimised over faces, where D_face collects the advective
    speed, the relative density jump and the stabilisation speed
    sqrt((eta/eps^2) |[[p]]|).  Densities default to step-n values; the
    previous step's implicit density can be passed as a better surrogate.
    Faces with D_face = 0 impose no restriction; the result is capped at
    dt_max.
    """
    rho = state.rho if rho_next_prev is None else rho_next_prev
    rho_k, rho_l = gather_to_faces(mesh, rho)
    p_k, p_l = gather_to_faces(mesh, gas.pressure(rho))
    face_min = np.minimum(rho_k, rho_l)
    face_max = np.maximum(rho_k, rho_l)
    u_n = face_average_normal(mesh, state.u)
    d_face = (np.abs(u_n)
              + np.abs(rho_l - rho_k) / face_max
              + np.sqrt((eta / params.eps ** 2) * np.abs(p_l - p_k)))
    # |dK|/|K| is uniform, so beta_face is a single number.
    beta_face = mesh.cell_volume / mesh.boundary_measure
    active = d_face > 0.0
    dt = params.dt_max
    if np.any(active):
        ratio = np.minimum(1.0, face_min[active] / face_max[active])
        dt_faces = params.cfl_safety * 0.25 * beta_face * ratio / d_face[active]
        dt = min(dt, float(dt_faces.min()))
    return float(dt)


def _dt_third_cfl_cap(mesh: StructuredMesh, rho: np.ndarray,
                      params: SchemeParams) -> float:
    # Explicit step-n surrogate of the third-CFL condition; the post-solve
    # check still guards the implicit density.
    geom = mesh.boundary_measure / mesh.cell_volume
    return float(params.cfl_safety * (1.0 / 3.0 - params.beta) * rho.min() / geom)


def enforce_conditions(mesh: StructuredMesh, gas: GasLaw, rho_old: np.ndarray,
                       rho_next: np.ndarray, fluxes: FaceFluxes, dt: float,
                       params: SchemeParams, eta: float) -> ConditionReport:
    """Evaluate the three stability conditions for an accepted step.

    (1) eta > 3 * {{1/rho_next}} on every face (strict);
    (2) 1/4 - (dt/rho_old_K) sum |mass flux| * |face|/|K| >= 0 in every cell;
    (3) 1/3 - (dt/rho_next_K) |dK|/|K| > beta in every cell (strict).
    """
    inv_avg = face_average(mesh, 1.0 / rho_next)
    eta_margin = eta - (3.0 * SPACE_DIM / 2.0) * inv_avg.max()

    abs_mass = np.abs(fluxes.mass)
    abs_flux = scatter_to_cells(mesh, abs_mass, abs_mass)
    flux_margin = (0.25 - (dt / rho_old) * abs_flux).min()

    geom = mesh.boundary_measure / mesh.cell_volume
    dt_margin = (1.0 / 3.0 - (dt / rho_next) * geom).min() - params.beta

    return ConditionReport(
        eta_ok=bool(eta_margin > 0.0),
        flux_cfl_ok=bool(flux_margin >= 0.0),
        dt_cfl_ok=bool(dt_margin > 0.0),
        eta_margin=float(eta_margin),
        flux_cfl_margin=float(flux_margin),
        dt_cfl_margin=float(dt_margin),
    )


def _attempt_step(mesh, gas, state, params, dt, eta):
    rho_star, iters, resnorm, fluxes = solve_density(mesh, gas, state, dt, params, eta)
    # Final update in conservative form: total mass then telescopes exactly.
    rho_next = state.rho - dt * flux_divergence(mesh, fluxes.mass)
    if rho_next.min() <= 0.0:
        raise SolverError("conservative density update lost positivity", resnorm)
    report = enforce_conditions(mesh, gas, state.rho, rho_next, fluxes, dt, params, eta)
    return rho_next, iters, resnorm, fluxes, report


def step(mesh: StructuredMesh, state: State, params: SchemeParams,
         dt_limit: float | None = None, keep_fluxes: bool = False):
    """Advance one accepted time step; returns (new_state, StepDiagnostics).

    The controller dt is additionally capped by the explicit surrogate of
    the third-CFL condition and by dt_limit (used to land on a final time).
    When dt_limit lies strictly between one and two controller steps, the
    step takes dt_limit / 2, so the last two steps share the remainder: a
    sliver step is too short for the dt-scaled stabilisation to hold the
    density at 1 + O(eps^2).
    Condition violations double eta (auto mode) and then halve dt; a step
    that still violates after MAX_DT_HALVINGS halvings raises SolverError.
    """
    gas = params.gas()
    if params.eta_mode == "fixed":
        eta = params.eta_value
    else:
        eta = auto_eta(mesh, state.rho, params.eta_safety)

    dt = compute_dt(mesh, gas, state, params, eta)
    dt = min(dt, _dt_third_cfl_cap(mesh, state.rho, params))
    if dt_limit is not None:
        if dt < dt_limit < 2.0 * dt:
            dt = 0.5 * dt_limit
        dt = min(dt, dt_limit)
    if not dt > 0.0:
        raise SolverError(f"non-positive time step {dt}")

    accepted = None
    failure = "step was never attempted"
    for _ in range(MAX_DT_HALVINGS + 1):
        attempt_eta = eta
        report = None
        for retry in range(MAX_ETA_RETRIES + 1):
            try:
                result = _attempt_step(mesh, gas, state, params, dt, attempt_eta)
            except (SolverError, PositivityError) as err:
                failure = str(err)
                result = None
                break
            report = result[4]
            if report.eta_ok or params.eta_mode != "auto" or retry == MAX_ETA_RETRIES:
                break
            attempt_eta *= 2.0
        if result is not None and report is not None and report.all_ok:
            accepted = result
            eta = attempt_eta
            break
        if report is not None:
            failure = (f"stability conditions violated (eta_ok={report.eta_ok}, "
                       f"flux_cfl_ok={report.flux_cfl_ok}, dt_cfl_ok={report.dt_cfl_ok})")
        dt *= 0.5
    if accepted is None:
        raise SolverError(
            f"step rejected after {MAX_DT_HALVINGS} dt halvings: {failure}")

    rho_next, iters, resnorm, fluxes, report = accepted
    u_next = update_velocity(mesh, gas, state, rho_next, fluxes, dt, params.eps)
    new_state = State(time=state.time + dt, rho=rho_next, u=u_next,
                      step_index=state.step_index + 1)

    before = diagnostics.energy_report(mesh, gas, state.rho, state.u, params.eps)
    after = diagnostics.energy_report(mesh, gas, rho_next, u_next, params.eps)
    vol = mesh.cell_volume
    diag = StepDiagnostics(
        step_index=new_state.step_index,
        time=new_state.time,
        dt_used=dt,
        eta_used=eta,
        total_energy=after.total,
        total_entropy=after.entropy_total,
        total_mass=vol * rho_next.sum(),
        total_momentum=vol * (rho_next[:, None] * u_next).sum(axis=0),
        kinetic_energy=after.kinetic,
        min_density=float(rho_next.min()),
        energy_decrement=before.total - after.total,
        entropy_decrement=before.entropy_total - after.entropy_total,
        newton_iters=iters,
        final_residual=float(resnorm),
        conditions=report,
        fluxes=fluxes if keep_fluxes else None,
    )
    return new_state, diag


def advance(mesh: StructuredMesh, state: State, params: SchemeParams,
            final_time: float, collect_states: bool = False,
            keep_fluxes: bool = False, on_step=None):
    """March from state.time to final_time, clipping the last step.

    Returns (final_state, diagnostics_list, states_or_None).  ``on_step`` is
    called as on_step(state_before, state_after, diag) after every accepted
    step and may strip diag.fluxes to bound memory.
    """
    if not final_time > state.time:
        raise ValueError(f"final_time {final_time} must exceed state.time {state.time}")
    diags = []
    states = [state] if collect_states else None
    margin = 1e-12 * max(1.0, abs(final_time))
    while state.time < final_time - margin:
        new_state, diag = step(mesh, state, params,
                               dt_limit=final_time - state.time,
                               keep_fluxes=keep_fluxes)
        if on_step is not None:
            on_step(state, new_state, diag)
        diags.append(diag)
        state = new_state
        if collect_states:
            states.append(state)
    return state, diags, states
