"""Energy accounting, error norms, convergence rates and step audits.

The audit re-solves one accepted step's density, which gives the face fluxes
the step retained bit for bit, replays the step from them with the stepper's
own update kernels and fluxes, and checks, cell by cell, the discrete
internal-energy balance (whose remainder must be nonnegative, being a
positively weighted sum of squares) and the assembled total-energy identity

    (E_new - E_old) / dt = - (1/eps^2) sum_faces |face| [[p]] delta_u
                           - (1/eps^2) sum_cells |K| R
                           + sum_cells |K| S.

The kernels and the GasLaw potentials keep their inputs' dtype, so the audit
runs them in extended precision (numpy longdouble): in double precision the
evaluation noise of the balance residuals, amplified by 1/dt and 1/eps^2,
would swamp the tolerances the audit is meant to certify.  Its own formulas
are the remainders, their closed form and the kinetic and total balances.
"""

from dataclasses import dataclass

import numpy as np

from . import stepper  # which imports this module: its names are read at call time
from .eos import GasLaw
from .flux import (VISCOUS_SCALE, FaceFluxes, density_faces, mass_flux,
                   momentum_flux, update_density, update_velocity)
from .mesh import (StructuredMesh, cell_gradient, face_average_normal,
                   face_gradient_normal, face_jump, flux_divergence,
                   gather_to_faces, scatter_to_cells)


@dataclass(frozen=True)
class EnergyReport:
    """Totals of the discrete energy functionals."""

    kinetic: float
    internal_scaled: float
    entropy_scaled: float
    total: float
    entropy_total: float


def _dot(a, b=None):
    """Per-cell a . b (a . a without b) of (n_cells, 2) fields, by components."""
    b = a if b is None else b
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def total_momentum(mesh: StructuredMesh, rho, u) -> np.ndarray:
    """sum |K| rho u, each component a contiguous pairwise sum."""
    return mesh.cell_volume * np.array([(rho * u[:, c]).sum() for c in range(u.shape[1])])


def energy_report(mesh: StructuredMesh, gas: GasLaw, rho: np.ndarray,
                  u: np.ndarray, eps: float) -> EnergyReport:
    """Kinetic, scaled internal and scaled entropy totals of a state."""
    vol = mesh.cell_volume
    kinetic = vol * (0.5 * rho * _dot(u)).sum()
    internal = vol * gas.internal_energy(rho).sum() / eps ** 2
    entropy = vol * gas.relative_internal_energy(rho, 1.0).sum() / eps ** 2
    return EnergyReport(
        kinetic=float(kinetic),
        internal_scaled=float(internal),
        entropy_scaled=float(entropy),
        total=float(kinetic + internal),
        entropy_total=float(kinetic + entropy),
    )


def relative_energy(mesh: StructuredMesh, gas: GasLaw, rho, u, ref_rho, ref_u,
                    eps: float) -> float:
    """Relative energy sum |K| [ rho |u - ref_u|^2 / 2 + Pi(rho|ref_rho)/eps^2 ].

    ref_rho may be a scalar (constant reference density).
    """
    diff2 = _dot(u - ref_u)
    bregman = gas.relative_internal_energy(rho, ref_rho)
    return float(mesh.cell_volume * (0.5 * rho * diff2 + bregman / eps ** 2).sum())


def relative_energy_to_limit(mesh: StructuredMesh, gas: GasLaw, rho, u, v,
                             eps: float) -> float:
    """Relative energy against the incompressible limit (unit density, field v)."""
    return relative_energy(mesh, gas, rho, u, 1.0, v, eps)


@dataclass(frozen=True)
class ErrorReport:
    """Space-time error norms of a trajectory against an exact solution."""

    rel_energy_sup: float
    rho_l2l2: float
    rho_supl2: float
    u_l2l2: float
    u_supl2: float


def error_norms(mesh: StructuredMesh, gas: GasLaw, states, exact_velocity,
                eps: float, exact_density=1.0) -> ErrorReport:
    """Error norms of a stored trajectory against (rho, u) = (exact_density, exact_velocity).

    ``states`` is the list of accepted states including the initial one.
    ``exact_velocity`` is a cell vector field (steady) or a callable t ->
    field, ``exact_density`` a constant, a cell field or a callable t ->
    field, each already evaluated at the cell centres; the default unit
    density is the incompressible limit.  The relative energy is taken
    against both.
    Time integrals use the left-endpoint rule on the step partition; sup
    norms run over the states after the first step.
    """
    if len(states) < 2:
        raise ValueError("need at least one step to measure errors")
    v_at, rho_at = (exact if callable(exact) else (lambda t, fixed=np.asarray(exact, float): fixed)
                    for exact in (exact_velocity, exact_density))
    vol = mesh.cell_volume
    rho_sq_time = u_sq_time = rel_sup = rho_sup = u_sup = 0.0
    for st, nxt in zip(states, states[1:]):
        dt_n = nxt.time - st.time
        rho_sq_time += dt_n * vol * ((st.rho - rho_at(st.time)) ** 2).sum()
        u_sq_time += dt_n * vol * ((st.u - v_at(st.time)) ** 2).sum()
        rho_ex, v = rho_at(nxt.time), v_at(nxt.time)
        rel_sup = max(rel_sup, relative_energy(mesh, gas, nxt.rho, nxt.u, rho_ex, v, eps))
        rho_sup = max(rho_sup, np.sqrt(vol * ((nxt.rho - rho_ex) ** 2).sum()))
        u_sup = max(u_sup, np.sqrt(vol * ((nxt.u - v) ** 2).sum()))
    return ErrorReport(
        rel_energy_sup=float(rel_sup),
        rho_l2l2=float(np.sqrt(rho_sq_time)),
        rho_supl2=float(rho_sup),
        u_l2l2=float(np.sqrt(u_sq_time)),
        u_supl2=float(u_sup),
    )


def eoc(errors):
    """Experimental orders of convergence from a list of (h, error) pairs.

    Returns one rate per consecutive pair; a rate is None when either error
    is non-positive (reported as absent rather than fabricated).
    """
    rates = []
    for (h_prev, e_prev), (h_cur, e_cur) in zip(errors, errors[1:]):
        if e_prev > 0.0 and e_cur > 0.0 and h_prev > 0.0 and h_cur > 0.0 \
                and h_prev != h_cur:
            rates.append(float(np.log(e_prev / e_cur) / np.log(h_prev / h_cur)))
        else:
            rates.append(None)
    return rates


@dataclass(frozen=True)
class EnergyAudit:
    """Extended-precision replay of one accepted step.

    The balances are verified modulo the measured flux-consistency defect of
    the nonlinear solve (``max_flux_balance_defect``): the step's fluxes,
    which the audit re-solves at its recorded dt and eta, were assembled at
    the Newton iterate, which agrees with the audited conservative density
    only up to the solver tolerance.  The defect is computed explicitly and
    carried through the identities, so the reported residuals isolate the
    structure of the scheme from the solver's finite precision.
    """

    min_internal_remainder: float
    internal_remainder_total: float
    remainder_formula_defect: float
    max_flux_balance_defect: float
    stabilisation_dissipation_rate: float
    transport_term_rate: float
    energy_decrement: float
    assembled_decrement: float
    identity_rel_defect: float
    max_kinetic_residual: float
    max_density_mismatch: float
    max_velocity_mismatch: float


def audit_energy_balances(mesh: StructuredMesh, params, before, after,
                          diag) -> EnergyAudit:
    """Audit one step given its before/after states and its StepDiagnostics."""
    gas, eps = params.gas(), params.eps
    fluxes = stepper.solve_density(mesh, before, diag.dt_used, params, diag.eta_used,
                                   face_average_normal(mesh, before.u),
                                   density_faces(mesh, gas, before.rho))[3]
    ld = np.longdouble
    dtl = ld(diag.dt_used)
    eps2 = ld(eps) ** 2
    s = ld(VISCOUS_SCALE)
    vol = ld(mesh.cell_volume)

    rho_n = before.rho.astype(ld)
    u_n = before.u.astype(ld)
    fl = FaceFluxes(**{name: value.astype(ld) for name, value in vars(fluxes).items()})
    w_plus, w_minus = fl.w_plus, fl.w_minus
    mass = fl.mass_plus + fl.mass_minus  # re-summed in extended precision

    # The step's own kernels, replayed so that the discrete balances hold at
    # extended precision, not just at solver tolerance.
    rho_hat = update_density(mesh, rho_n, mass, dtl)
    u_hat = update_velocity(mesh, gas, rho_n, u_n, rho_hat, fl, dtl, ld(eps))
    p_hat = gas.pressure(rho_hat)
    grad_p = cell_gradient(mesh, p_hat)

    # The retained fluxes carry the density of the accepted Newton iterate,
    # which matches rho_hat only to solver tolerance; the same flux formula
    # evaluated at rho_hat differs by a defect that the identities below must
    # account for (in double precision the solve cannot push it under the
    # representation granularity of rho divided by dt).
    rho_hat_k, rho_hat_l = gather_to_faces(mesh, rho_hat)
    flux_hat = mass_flux(rho_hat_k, rho_hat_l, w_plus, w_minus)[0]
    defect = flux_divergence(mesh, flux_hat - mass)
    p_prime_hat = gas.pressure_derivative(rho_hat)

    # Internal-energy balance: remainder R >= 0 cell by cell.
    pot_n = gas.internal_energy(rho_n)
    pot_hat = gas.internal_energy(rho_hat)
    pot_k, pot_l = gather_to_faces(mesh, pot_hat)
    h_face = momentum_flux(w_plus, w_minus, pot_k, pot_l)
    div_h = flux_divergence(mesh, h_face)
    sum_w = flux_divergence(mesh, w_plus + w_minus)
    remainder = p_prime_hat * defect - ((pot_hat - pot_n) / dtl + div_h + p_hat * sum_w)

    # Independent closed form of the same remainder: a positively weighted
    # sum of Bregman distances (time relaxation plus face upwinding), which
    # is the structural reason the internal balance dissipates.
    bregman = gas.relative_internal_energy
    remainder_closed = bregman(rho_n, rho_hat) / dtl + scatter_to_cells(
        mesh, (s - w_minus) * bregman(rho_hat_l, rho_hat_k),
        (s + w_plus) * bregman(rho_hat_k, rho_hat_l))

    # Kinetic-energy balance with its exact transport remainder S.
    speed2_n = _dot(u_n)
    speed2_k, speed2_l = gather_to_faces(mesh, speed2_n)
    q_face = momentum_flux(fl.mass_plus, fl.mass_minus, 0.5 * speed2_k, 0.5 * speed2_l)
    div_q = flux_divergence(mesh, q_face)
    jump_u_sq = sum(face_jump(mesh, u_c) ** 2 for u_c in np.ascontiguousarray(u_n.T))
    s_faces = scatter_to_cells(mesh, (fl.mass_minus - s) * 0.5 * jump_u_sq,
                               (-fl.mass_plus - s) * 0.5 * jump_u_sq)
    transport = rho_hat * _dot(u_hat - u_n) / (2.0 * dtl) + s_faces
    ke_n = 0.5 * rho_n * speed2_n
    ke_hat = 0.5 * rho_hat * _dot(u_hat)
    kin_residual = ((ke_hat - ke_n) / dtl + div_q
                    + _dot(grad_p, u_n) / eps2 - transport)

    # Assembled total-energy identity; per-cell differences first to avoid
    # cancellation between large totals.  The balance-derived remainder keeps
    # the internal part telescoping exactly; the closed form is checked
    # against it per cell above, where no 1/eps^2 amplifies the comparison.
    lhs_rate = vol * ((ke_hat - ke_n) + (pot_hat - pot_n) / eps2).sum() / dtl
    # |face| [[p]] = |K| (|face| / |D|) [[p]]
    stab_rate = vol * (face_gradient_normal(mesh, p_hat) * fl.delta_u).sum() / eps2
    remainder_rate = vol * remainder.sum() / eps2
    transport_rate = vol * transport.sum()
    defect_rate = vol * (p_prime_hat * defect).sum() / eps2
    rhs_rate = -stab_rate - remainder_rate + transport_rate + defect_rate
    identity_defect = abs(lhs_rate - rhs_rate) / max(abs(lhs_rate), abs(rhs_rate), ld(1e-30))

    return EnergyAudit(
        min_internal_remainder=float(remainder.min()),
        internal_remainder_total=float(vol * remainder.sum()),
        remainder_formula_defect=float(np.abs(remainder - remainder_closed).max()),
        max_flux_balance_defect=float(np.abs(defect).max()),
        stabilisation_dissipation_rate=float(stab_rate),
        transport_term_rate=float(transport_rate),
        energy_decrement=float(-dtl * lhs_rate),
        assembled_decrement=float(-dtl * rhs_rate),
        identity_rel_defect=float(identity_defect),
        max_kinetic_residual=float(np.abs(kin_residual).max()),
        max_density_mismatch=float(np.abs(rho_hat - after.rho.astype(ld)).max()),
        max_velocity_mismatch=float(np.abs(u_hat - after.u.astype(ld)).max()),
    )
