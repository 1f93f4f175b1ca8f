"""Energy accounting, error norms, convergence rates and step audits.

The audit re-derives one accepted step from its retained face fluxes and
checks, cell by cell, the discrete internal-energy balance (whose remainder
must be nonnegative, being a positively weighted sum of squares) and the
assembled total-energy identity

    (E_new - E_old) / dt = - (1/eps^2) sum_faces |face| [[p]] delta_u
                           - (1/eps^2) sum_cells |K| R
                           + sum_cells |K| S.

The audit runs in extended precision (numpy longdouble) and recomputes the
end-of-step fields from the fluxes: in double precision the evaluation noise
of the balance residuals, amplified by 1/dt and 1/eps^2, would swamp the
tolerances the audit is meant to certify.
"""

from dataclasses import dataclass

import numpy as np

from .eos import GasLaw
from .flux import momentum_flux
from .mesh import (StructuredMesh, cell_gradient, face_gradient_normal,
                   flux_divergence, gather_to_faces, scatter_to_cells)


@dataclass(frozen=True)
class EnergyReport:
    """Totals of the discrete energy functionals."""

    kinetic: float
    internal_scaled: float
    entropy_scaled: float
    total: float
    entropy_total: float


def energy_report(mesh: StructuredMesh, gas: GasLaw, rho: np.ndarray,
                  u: np.ndarray, eps: float) -> EnergyReport:
    """Kinetic, scaled internal and scaled entropy totals of a state."""
    vol = mesh.cell_volume
    kinetic = vol * (0.5 * rho * (u ** 2).sum(axis=1)).sum()
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
    diff2 = ((u - ref_u) ** 2).sum(axis=1)
    bregman = gas.relative_internal_energy(rho, ref_rho)
    return float(mesh.cell_volume * (0.5 * rho * diff2 + bregman / eps ** 2).sum())


def relative_energy_to_limit(mesh: StructuredMesh, gas: GasLaw, rho, u, v,
                             eps: float) -> float:
    """Relative energy against the incompressible limit (unit density, field v)."""
    return relative_energy(mesh, gas, rho, u, 1.0, v, eps)


def flow_mach(gas: GasLaw, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Local Mach number |u| / sqrt(p'(rho)) per cell."""
    return np.sqrt((u ** 2).sum(axis=1) / gas.pressure_derivative(rho))


def _l2(mesh, q):
    return float(np.sqrt(mesh.cell_volume * (np.asarray(q) ** 2).sum()))


@dataclass(frozen=True)
class ErrorReport:
    """Space-time error norms of a trajectory against a reference velocity."""

    rel_energy_sup: float
    rho_l2l2: float
    rho_supl2: float
    u_l2l2: float
    u_supl2: float

    def as_dict(self):
        return {
            "rel_energy_sup": self.rel_energy_sup,
            "rho_l2l2": self.rho_l2l2,
            "rho_supl2": self.rho_supl2,
            "u_l2l2": self.u_l2l2,
            "u_supl2": self.u_supl2,
        }


def error_norms(mesh: StructuredMesh, gas: GasLaw, states, exact_velocity,
                eps: float) -> ErrorReport:
    """Error norms of a stored trajectory against (rho = 1, u = v(t)).

    ``states`` is the list of accepted states including the initial one;
    ``exact_velocity`` is either a cell vector field (steady reference) or a
    callable t -> field, already projected on the mesh.  Time integrals use
    the left-endpoint rule on the step partition; sup norms run over the
    states after the first step.
    """
    if len(states) < 2:
        raise ValueError("need at least one step to measure errors")
    if callable(exact_velocity):
        v_at = exact_velocity
    else:
        v_fixed = np.asarray(exact_velocity, dtype=float)
        v_at = lambda t: v_fixed

    rho_sq_time = 0.0
    u_sq_time = 0.0
    rel_sup = 0.0
    rho_sup = 0.0
    u_sup = 0.0
    for n in range(len(states) - 1):
        dt_n = states[n + 1].time - states[n].time
        st = states[n]
        v = v_at(st.time)
        rho_sq_time += dt_n * mesh.cell_volume * ((st.rho - 1.0) ** 2).sum()
        u_sq_time += dt_n * mesh.cell_volume * ((st.u - v) ** 2).sum()
    for st in states[1:]:
        v = v_at(st.time)
        rel_sup = max(rel_sup, relative_energy_to_limit(mesh, gas, st.rho, st.u, v, eps))
        rho_sup = max(rho_sup, _l2(mesh, st.rho - 1.0))
        u_sup = max(u_sup, np.sqrt(mesh.cell_volume * ((st.u - v) ** 2).sum()))
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
    """Extended-precision re-derivation of one accepted step.

    The balances are verified modulo the measured flux-consistency defect of
    the nonlinear solve (``max_flux_balance_defect``): the retained fluxes
    were assembled at the Newton iterate, which agrees with the audited
    conservative density only up to the solver tolerance.  The defect is
    computed explicitly and carried through the identities, so the reported
    residuals isolate the structure of the scheme from the solver's finite
    precision.
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


def audit_energy_balances(mesh: StructuredMesh, gas: GasLaw, before, after,
                          fluxes, dt: float, eps: float) -> EnergyAudit:
    """Audit one step given its before/after states and retained fluxes."""
    ld = np.longdouble
    g = ld(gas.gamma)
    dtl = ld(dt)
    eps2 = ld(eps) ** 2
    s = ld(fluxes.viscous_scale)
    vol = ld(mesh.cell_volume)

    rho_n = before.rho.astype(ld)
    u_n = before.u.astype(ld)
    w_plus = fluxes.w_plus.astype(ld)
    w_minus = fluxes.w_minus.astype(ld)
    delta_u = fluxes.delta_u.astype(ld)
    mass_plus = fluxes.mass_plus.astype(ld)
    mass_minus = fluxes.mass_minus.astype(ld)
    mass = mass_plus + mass_minus
    u_k, u_l = gather_to_faces(mesh, u_n)
    mom = momentum_flux(mass_plus, mass_minus, u_k, u_l, s)

    # Re-derive the end-of-step fields from the fluxes so that the discrete
    # balances hold at extended precision, not just at solver tolerance.
    rho_hat = rho_n - dtl * flux_divergence(mesh, mass)
    p_hat = rho_hat ** g
    grad_p = cell_gradient(mesh, p_hat)
    div_mom = flux_divergence(mesh, mom)
    u_hat = (rho_n[:, None] * u_n - dtl * (div_mom + grad_p / eps2)) / rho_hat[:, None]

    def potential(z):
        return z ** g / (g - 1.0)

    def bregman(z1, z2):
        return potential(z1) - potential(z2) - (g / (g - 1.0)) * z2 ** (g - 1.0) * (z1 - z2)

    # The retained fluxes carry the density of the accepted Newton iterate,
    # which matches rho_hat only to solver tolerance; the same flux formula
    # evaluated at rho_hat differs by a defect that the identities below must
    # account for (in double precision the solve cannot push it under the
    # representation granularity of rho divided by dt).
    rho_hat_k, rho_hat_l = gather_to_faces(mesh, rho_hat)
    flux_hat = rho_hat_k * (w_plus + s) + rho_hat_l * (w_minus - s)
    defect = flux_divergence(mesh, flux_hat - mass)
    p_prime_hat = g * rho_hat ** (g - 1.0)

    # Internal-energy balance: remainder R >= 0 cell by cell.
    pot_n = potential(rho_n)
    pot_hat = potential(rho_hat)
    pot_k, pot_l = gather_to_faces(mesh, pot_hat)
    h_face = pot_k * w_plus + pot_l * w_minus - s * (pot_l - pot_k)
    div_h = flux_divergence(mesh, h_face)
    sum_w = flux_divergence(mesh, w_plus + w_minus)
    remainder = p_prime_hat * defect - ((pot_hat - pot_n) / dtl + div_h + p_hat * sum_w)

    # Independent closed form of the same remainder: a positively weighted
    # sum of Bregman distances (time relaxation plus face upwinding), which
    # is the structural reason the internal balance dissipates.
    remainder_closed = bregman(rho_n, rho_hat) / dtl + scatter_to_cells(
        mesh, (s - w_minus) * bregman(rho_hat_l, rho_hat_k),
        (s + w_plus) * bregman(rho_hat_k, rho_hat_l))

    # Kinetic-energy balance with its exact transport remainder S.
    speed2_n = (u_n ** 2).sum(axis=1)
    speed2_k, speed2_l = gather_to_faces(mesh, speed2_n)
    q_face = (mass_plus * 0.5 * speed2_k + mass_minus * 0.5 * speed2_l
              - s * 0.5 * (speed2_l - speed2_k))
    div_q = flux_divergence(mesh, q_face)
    jump_u_sq = ((u_l - u_k) ** 2).sum(axis=1)
    s_faces = scatter_to_cells(mesh, (mass_minus - s) * 0.5 * jump_u_sq,
                               (-mass_plus - s) * 0.5 * jump_u_sq)
    diff_u_sq = ((u_hat - u_n) ** 2).sum(axis=1)
    transport = rho_hat * diff_u_sq / (2.0 * dtl) + s_faces
    ke_n = 0.5 * rho_n * speed2_n
    ke_hat = 0.5 * rho_hat * (u_hat ** 2).sum(axis=1)
    kin_residual = ((ke_hat - ke_n) / dtl + div_q
                    + (grad_p * u_n).sum(axis=1) / eps2 - transport)

    # Assembled total-energy identity; per-cell differences first to avoid
    # cancellation between large totals.  The balance-derived remainder keeps
    # the internal part telescoping exactly; the closed form is checked
    # against it per cell above, where no 1/eps^2 amplifies the comparison.
    lhs_rate = vol * ((ke_hat - ke_n) + (pot_hat - pot_n) / eps2).sum() / dtl
    # |face| [[p]] = |K| (|face| / |D|) [[p]]
    stab_rate = vol * (face_gradient_normal(mesh, p_hat) * delta_u).sum() / eps2
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
