"""Semi-implicit time stepper: implicit stabilised mass balance, explicit
momentum update.

Each step solves the nonlinear mass balance for the end-of-step density with
a semi-smooth Newton method in full steps, then updates the velocity
explicitly, one component at a time, from the momentum balance with the
retained fluxes.  A Newton system is I/dt plus the divergence of a face flux
linear in the two adjacent densities (flux.mass_flux_derivative, from the
fluxes of its residual).  Richardson iteration solves it matrix-free,
preconditioned with the FFT inverse of its face-mean constant-coefficient
part (exact on uniform regions, where the stabilisation term makes the
operator a stiff pressure Laplacian at low Mach).  A time-step controller and
three per-step stability conditions (stabilisation strength, a quarter-CFL on
the mass fluxes, a third-CFL on the cell boundary measure) keep the discrete
energy and entropy non-increasing.  The controller and each attempt's first
residual share the old density's face fields (flux.density_faces), and eta
comes from the previous step's condition (1).  A failed attempt is retried at
half the dt (at most 8 times).  advance yields each accepted step to final_time.

A step needs numpy only.  The assembled scipy CSR form of the Newton
operator, which the tests check the solver against, is tests/csr_oracle.py.

Under glibc, importing this module raises the C library's mmap and trim
thresholds for the process, so the memory a step frees is kept for the next
step.
"""

import ctypes
import importlib
import numbers
import platform
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .eos import GasLaw, PositivityError
from .flux import (VISCOUS_SCALE, FaceFluxes, assemble_fluxes, density_faces,
                   mass_flux_derivative, update_density, update_velocity)
from .mesh import (StructuredMesh, face_average, face_average_normal,
                   face_weight, flux_divergence, gather_to_faces,
                   mean_flux_divergence_inverse, scatter_to_cells)

# Margin of the controller's eta over the stability bound 3 max {{1/rho}}.
ETA_SAFETY = 1.1
# Safety factor of the controller's CFL surrogates, the margin beta in
# (0, 1/3) of the third-CFL condition, and the cap on the controller's dt.
CFL_SAFETY = 0.9
BETA = 0.05
DT_MAX = 0.1
MAX_DT_HALVINGS = 8
# Newton's residual tolerance, before solve_density scales it by the density
# and adds the round-off floor, and its iteration cap.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
# Iteration cap of a linear solve.
LINEAR_MAX_ITER = 100

# A step frees a few MB of temporaries, which glibc's defaults hand back to
# the kernel for the next step to fault in again.  M_MMAP_THRESHOLD (-3) at
# 32 MiB and M_TRIM_THRESHOLD (-1) at 1 GiB keep them.  The trim threshold is
# set only once glibc took the mmap one (older 32-bit builds cap it at
# 512 KiB): alone it pins the mmap threshold at 128 KiB, which faults more.
# Other C libraries are left as they are.  No result depends on this.
_KEEPS_FREED_MEMORY = (platform.libc_ver()[0] == "glibc"
                       and ctypes.CDLL(None).mallopt(-3, 32 << 20) == 1
                       and ctypes.CDLL(None).mallopt(-1, 1 << 30) == 1)


def __getattr__(name):
    # ``spla`` serves only perfbench/tracer.py, until ROADMAP item 1
    # retargets the tracer; scipy loads on first access, not on import.
    if name == "spla":
        return importlib.import_module("scipy.sparse.linalg")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(RuntimeError):
    """Nonlinear solve or step acceptance failed; the message says how."""


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
        if self.rho.ndim != 1 or self.u.shape != (self.rho.size, 2):
            raise ValueError(f"inconsistent state shapes {self.rho.shape} / {self.u.shape}")
        for name, field in (("density", self.rho), ("velocity", self.u)):
            if not np.all(np.isfinite(field)):
                raise ValueError(f"state {name} contains non-finite values")
        if self.rho.min() <= 0.0:
            raise PositivityError(f"state density must be positive, min {self.rho.min()!r}")


@dataclass(frozen=True)
class SchemeParams:
    """Gas law and Mach parameter of a run."""

    gamma: float = 2.0
    eps: float = 1.0

    def __post_init__(self):
        for name, value in (("gamma", self.gamma), ("eps", self.eps)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 1.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be > 1 and finite, got {self.gamma}")
        # The divisor eps^2 must neither underflow nor overflow (eps ** 2 could raise).
        low, high = np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max)
        if not low <= self.eps <= high:
            raise ValueError(f"eps must lie in [{low:.3g}, {high:.3g}], outside which "
                             f"eps^2 underflows or overflows, got {self.eps}")

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
    inv_density_max: float  # condition (1)'s max {{1/rho_next}}: the next step's eta

    @property
    def all_ok(self) -> bool:
        return self.eta_ok and self.flux_cfl_ok and self.dt_cfl_ok


@dataclass
class StepDiagnostics:
    """Per-step record; ``energy`` is the end-of-step energy report, which the
    next step reuses as its start-of-step report."""

    step_index: int
    time: float
    dt_used: float
    eta_used: float
    total_mass: float
    total_momentum: np.ndarray
    min_density: float
    energy_decrement: float
    entropy_decrement: float
    newton_iters: int
    final_residual: float
    conditions: ConditionReport
    energy: diagnostics.EnergyReport


def _eta_with_margin(inv_density_max) -> float:
    return float(ETA_SAFETY * 3.0 * inv_density_max)


def auto_eta(mesh: StructuredMesh, rho: np.ndarray) -> float:
    """Smallest stabilisation strength with margin: ETA_SAFETY * 3 * max {{1/rho}}."""
    return _eta_with_margin(face_average(mesh, 1.0 / rho).max())


def _residual_and_fluxes(mesh, rho_next, faces, rho_old, u_normal, dt, eta, eps):
    fluxes = assemble_fluxes(mesh, rho_next, u_normal, faces, eta, dt, eps)
    res = (rho_next - rho_old) / dt + flux_divergence(mesh, fluxes.mass)
    return res, fluxes


def density_residual(mesh: StructuredMesh, rho_next: np.ndarray, state: State,
                     dt: float, params: SchemeParams, eta: float) -> np.ndarray:
    """Residual of the implicit mass balance at the candidate density."""
    return _residual_and_fluxes(mesh, rho_next, density_faces(mesh, params.gas(), rho_next),
                                state.rho, face_average_normal(mesh, state.u), dt, eta,
                                params.eps)[0]


def _solve_mass_balance(mesh, dt, d_dk, d_dl, rhs, atol):
    """Preconditioned Richardson on q -> q/dt + flux_divergence(d_dk q_K + d_dl q_L).

    From q = 0, q <- q + P^-1 (rhs - A q): per iteration one matrix-free
    matvec and one FFT solve with A's face-mean coefficients.  Stops at a
    residual 2-norm <= atol, or, from the second iteration on, at a
    candidate whose residual norm is not below the previous one; it then
    returns the previous iterate (near round-off the iteration stalls).
    Returns (solution, iterations); at LINEAR_MAX_ITER, the last iterate.
    """
    def apply(q):
        q_k, q_l = gather_to_faces(mesh, q)
        return q / dt + flux_divergence(mesh, d_dk * q_k + d_dl * q_l)

    q = np.zeros_like(rhs)
    r_norm = np.linalg.norm(rhs)
    if r_norm <= atol:
        return q, 0
    precond = mean_flux_divergence_inverse(mesh, d_dk, d_dl, 1.0 / dt)
    r = rhs
    for iters in range(1, LINEAR_MAX_ITER + 1):
        candidate = q + precond(r)
        r = rhs - apply(candidate)
        cand_norm = np.linalg.norm(r)
        if iters > 1 and not cand_norm < r_norm:
            break
        q, r_norm = candidate, cand_norm
        if r_norm <= atol:
            break
    return q, iters


def _admitted(rho: np.ndarray) -> bool:
    return 0.0 < rho.min() and rho.max() < np.inf  # positive and finite; NaN fails both


def solve_density(mesh: StructuredMesh, state: State, dt: float,
                  params: SchemeParams, eta: float, u_normal: np.ndarray, faces):
    """Solve the implicit mass balance for the end-of-step density.

    Newton in full steps; each direction comes from matrix-free
    preconditioned Richardson iteration.  ``u_normal`` is
    face_average_normal(mesh, state.u) and ``faces`` density_faces(mesh,
    gas, state.rho), as in compute_dt.  Raises SolverError when a full step
    is not admitted (positive, finite) or does not reduce the residual, or
    when NEWTON_MAX_ITER iterations do not reach the tolerance; the step then
    retries at half the dt.  Returns (rho_next, iterations,
    residual_inf_norm, fluxes_at_solution).
    """
    rho_old, gas, eps = state.rho, params.gas(), params.eps

    # The residual cannot be verified below its double-precision evaluation
    # noise.  The stabilisation velocity amplifies pressure round-off by
    # (eta dt / eps^2) |face|/|D|, which at low Mach dwarfs NEWTON_TOL; the
    # remaining terms cover advection, the jump penalty and the 1/dt scaling.
    rho_scale = float(rho_old.max())
    p_scale = float(gas.pressure(np.array([rho_scale]))[0])
    cmax = max(face_weight(mesh))
    kappa = (eta * dt / eps ** 2) * cmax
    u_scale = float(np.abs(state.u).max())
    fp_eps = np.finfo(float).eps
    noise = fp_eps * (rho_scale / dt + 4.0 * cmax * rho_scale
                      * (u_scale + VISCOUS_SCALE + 2.0 * kappa * p_scale))
    tol = NEWTON_TOL * max(1.0, rho_scale) + 10.0 * noise
    # An inexact direction is caught by the residual checks below.
    lin_tol = 0.1 * tol

    rho = rho_old.copy()
    res, fluxes = _residual_and_fluxes(mesh, rho, faces, rho_old, u_normal, dt, eta, eps)
    norm = np.abs(res).max()

    iters = 0
    while norm > tol and iters < NEWTON_MAX_ITER:
        iters += 1
        d_dk, d_dl = mass_flux_derivative(mesh, gas, rho, fluxes, dt, eta, eps)
        delta, _ = _solve_mass_balance(mesh, dt, d_dk, d_dl, -res, lin_tol)
        rho = rho + delta
        if not _admitted(rho):
            raise SolverError(f"Newton iteration {iters}: the full step is not "
                              f"positive and finite (residual {norm:.3e})")
        res, fluxes = _residual_and_fluxes(mesh, rho, density_faces(mesh, gas, rho),
                                           rho_old, u_normal, dt, eta, eps)
        cnorm = np.abs(res).max()
        if not (cnorm <= (1.0 - 1e-4) * norm or cnorm <= tol):
            raise SolverError(f"Newton iteration {iters} did not reduce the residual "
                              f"{norm:.3e} (full step: {cnorm:.3e})")
        norm = cnorm

    if norm > tol:
        raise SolverError(
            f"density solve did not converge: residual {norm:.3e} > {tol:.3e} "
            f"after {iters} iterations")
    return rho, iters, norm, fluxes


def compute_dt(mesh: StructuredMesh, state: State, params: SchemeParams,
               eta: float, u_normal: np.ndarray, faces) -> float:
    """The controller's time step: explicit surrogates of the two CFL bounds.

    The flux-CFL surrogate is CFL_SAFETY * (beta_face / 4) * (rho_min /
    rho_max on the face) / D_face minimised over faces, where D_face collects
    the advective speed, the relative density jump and the stabilisation
    speed sqrt((eta/eps^2) |[[p]]|), all at step n; ``u_normal`` is
    face_average_normal(mesh, state.u), ``faces`` density_faces(mesh, gas,
    state.rho).  Faces with D_face = 0 impose no
    restriction.  The third-CFL surrogate is CFL_SAFETY * (1/3 - BETA) *
    rho_min |K|/|dK| at step n; the post-solve check still guards the
    implicit density.  The result is capped at DT_MAX.
    """
    rho_k, (rho_l, jump_p) = state.rho, faces
    face_min, face_max = np.minimum(rho_k, rho_l), np.maximum(rho_k, rho_l)
    d_face = (np.abs(u_normal)
              + np.abs(rho_l - rho_k) / face_max
              + np.sqrt((eta / params.eps ** 2) * np.abs(jump_p)))
    # |dK|/|K| is uniform, so beta_face is a single number.
    beta_face = mesh.cell_volume / mesh.boundary_measure
    with np.errstate(divide="ignore"):  # d_face = 0 gives inf: no restriction
        dt_faces = CFL_SAFETY * 0.25 * beta_face * (face_min / face_max) / d_face
    dt_third = (CFL_SAFETY * (1.0 / 3.0 - BETA) * state.rho.min()
                / (mesh.boundary_measure / mesh.cell_volume))
    return float(min(DT_MAX, dt_faces.min(), dt_third))


def enforce_conditions(mesh: StructuredMesh, rho_old: np.ndarray,
                       rho_next: np.ndarray, fluxes: FaceFluxes, dt: float,
                       eta: float) -> ConditionReport:
    """Evaluate the three stability conditions for an accepted step.

    (1) eta > 3 * {{1/rho_next}} on every face (strict);
    (2) 1/4 - (dt/rho_old_K) sum |mass flux| * |face|/|K| >= 0 in every cell;
    (3) 1/3 - (dt/rho_next_K) |dK|/|K| > BETA in every cell (strict).
    """
    inv_max = face_average(mesh, 1.0 / rho_next).max()
    eta_margin = eta - 3.0 * inv_max

    abs_mass = np.abs(fluxes.mass)
    abs_flux = scatter_to_cells(mesh, abs_mass, abs_mass)
    flux_margin = (0.25 - (dt / rho_old) * abs_flux).min()

    geom = mesh.boundary_measure / mesh.cell_volume
    dt_margin = (1.0 / 3.0 - (dt / rho_next) * geom).min() - BETA

    return ConditionReport(
        eta_ok=bool(eta_margin > 0.0),
        flux_cfl_ok=bool(flux_margin >= 0.0),
        dt_cfl_ok=bool(dt_margin > 0.0),
        eta_margin=float(eta_margin),
        flux_cfl_margin=float(flux_margin),
        dt_cfl_margin=float(dt_margin),
        inv_density_max=float(inv_max),
    )


def _attempt_step(mesh, state, params, dt, eta, u_normal, faces):
    """One attempt at a step of size dt: the density solve, the conservative
    update and the three conditions.  Raises SolverError when any of them
    fails."""
    _, iters, resnorm, fluxes = solve_density(mesh, state, dt, params, eta, u_normal, faces)
    rho_next = update_density(mesh, state.rho, fluxes.mass, dt)
    if not _admitted(rho_next):
        raise SolverError("conservative density update lost positivity or finiteness")
    report = enforce_conditions(mesh, state.rho, rho_next, fluxes, dt, eta)
    if not report.all_ok:
        raise SolverError(
            f"stability conditions violated (eta_ok={report.eta_ok}, "
            f"flux_cfl_ok={report.flux_cfl_ok}, dt_cfl_ok={report.dt_cfl_ok})")
    return rho_next, iters, resnorm, fluxes, report


def step(mesh: StructuredMesh, state: State, params: SchemeParams,
         dt_limit: float | None = None, before: StepDiagnostics | None = None):
    """Advance one accepted time step; returns (new_state, StepDiagnostics).

    ``before`` is the StepDiagnostics of the step that made ``state``, when
    the caller has it: its energy report is the start-of-step one, and eta
    follows from its max {{1/rho}} as auto_eta would compute it, bit for bit.
    Without it both are computed here.

    The controller dt is additionally capped by dt_limit (used to land on a
    final time).  When dt_limit lies strictly between one and two controller
    steps, the step takes dt_limit / 2, so the last two steps share the
    remainder: a sliver step is too short for the dt-scaled stabilisation to
    hold the density at 1 + O(eps^2).
    A rejected attempt halves dt; a step still rejected after
    MAX_DT_HALVINGS halvings raises SolverError naming the error that ended
    its last attempt, and so does an accepted step whose explicit velocity
    update is not finite.
    """
    gas = params.gas()
    eta = (auto_eta(mesh, state.rho) if before is None
           else _eta_with_margin(before.conditions.inv_density_max))

    # The start-of-step normal velocity serves the controller and every
    # residual of every attempt, the density's face fields the controller and
    # every attempt's first residual.
    u_normal = face_average_normal(mesh, state.u)
    faces = density_faces(mesh, gas, state.rho)
    dt = compute_dt(mesh, state, params, eta, u_normal, faces)
    if dt_limit is not None:
        if dt < dt_limit < 2.0 * dt:
            dt = 0.5 * dt_limit
        dt = min(dt, dt_limit)
    if not dt > 0.0:
        raise SolverError(f"non-positive time step {dt}")

    for _ in range(MAX_DT_HALVINGS + 1):
        try:
            rho_next, iters, resnorm, fluxes, report = _attempt_step(
                mesh, state, params, dt, eta, u_normal, faces)
            break
        except SolverError as err:
            failure = err
        dt *= 0.5
    else:
        raise SolverError(f"step rejected after {MAX_DT_HALVINGS} dt halvings: {failure}")

    u_next = update_velocity(mesh, gas, state.rho, state.u, rho_next, fluxes, dt,
                             params.eps)
    try:
        new_state = State(time=state.time + dt, rho=rho_next, u=u_next,
                          step_index=state.step_index + 1)
    except ValueError as err:  # State names the non-finite field
        raise SolverError(f"step {state.step_index + 1} at dt={dt:.3e}: {err}") from None

    energy = (diagnostics.energy_report(mesh, gas, state.rho, state.u, params.eps)
              if before is None else before.energy)
    after = diagnostics.energy_report(mesh, gas, rho_next, u_next, params.eps)
    diag = StepDiagnostics(
        step_index=new_state.step_index,
        time=new_state.time,
        dt_used=dt,
        eta_used=eta,
        total_mass=mesh.cell_volume * rho_next.sum(),
        total_momentum=diagnostics.total_momentum(mesh, rho_next, u_next),
        min_density=float(rho_next.min()),
        energy_decrement=energy.total - after.total,
        entropy_decrement=energy.entropy_total - after.entropy_total,
        newton_iters=iters,
        final_residual=float(resnorm),
        conditions=report,
        energy=after,
    )
    return new_state, diag


def advance(mesh: StructuredMesh, state: State, params: SchemeParams, final_time: float):
    """March from state.time to final_time, clipping the last step.

    A generator: yields (new_state, diag) once per accepted step.  A
    final_time not finite or not past state.time raises on the first next().
    """
    if not state.time < final_time < np.inf:
        raise ValueError(f"final_time {final_time} must be finite and exceed "
                         f"state.time {state.time}")
    margin = 1e-12 * abs(final_time)
    diag = None
    while state.time < final_time - margin:
        state, diag = step(mesh, state, params,
                           dt_limit=final_time - state.time, before=diag)
        yield state, diag
