"""Stabilised upwind fluxes, the mass flux's Newton derivative, the update kernels.

The advecting normal velocity on a face is the face average of the current
velocity minus a pressure-stabilisation correction delta_u proportional to
the face gradient of the new pressure.  Its positive and negative parts are
split so that the mass flux upwinds the new density and the momentum flux
upwinds the current velocity; both carry an extra jump penalty (the
"viscous" part, of fixed scale VISCOUS_SCALE).

All per-face quantities are stored with the K-side sign of the face; the
value seen from the other cell is the negation, which is what makes the
discrete balances telescope to exact conservation.  The momentum flux is
built per velocity component; vector fields stay (n_cells, 2) at the API.
The update kernels keep their inputs' dtype, so the energy audit replays the
stepper's own update_density and update_velocity in extended precision.
density_faces forms a density's L side and [[p]] once; the fluxes keep the
L side for mass_flux_derivative, the mass flux's Newton linearisation.
"""

from dataclasses import dataclass

import numpy as np

from .eos import GasLaw
from .mesh import (StructuredMesh, cell_gradient, face_jump, face_weight,
                   flux_divergence, gather_to_faces)

# The jump-penalty scale s of the mass and momentum fluxes.
VISCOUS_SCALE = 1.0


@dataclass
class FaceFluxes:
    """Per-face mass-flux data for one time step (K-side orientation).

    mass = mass_plus + mass_minus is the stabilised upwind mass flux.
    w_plus >= 0 and w_minus <= 0 are the split parts of the advecting normal
    velocity u_normal - delta_u, and rho_l is the L side of the density the
    fluxes upwind; all are (2, n_cells) face arrays.  The momentum flux is
    built from mass_plus and mass_minus by momentum_flux once the step is
    accepted.
    """

    mass: np.ndarray
    mass_plus: np.ndarray
    mass_minus: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    delta_u: np.ndarray
    rho_l: np.ndarray


def density_faces(mesh: StructuredMesh, gas: GasLaw, rho: np.ndarray):
    """(rho_L, [[p(rho)]]): the face fields of a density that its fluxes read."""
    return gather_to_faces(mesh, rho)[1], face_jump(mesh, gas.pressure(rho))


def stabilisation_velocity(mesh: StructuredMesh, jump_p: np.ndarray, eta: float,
                           dt: float, eps: float) -> np.ndarray:
    """Normal stabilisation velocity (eta dt / eps^2) (|face|/|D|) [[p]], from [[p]]."""
    return (eta * dt / eps ** 2) * (np.array(face_weight(mesh))[:, None] * jump_p)


def split_normal_velocity(u_avg_n, delta_u_n):
    """Split w = u_avg_n - delta_u_n into w_plus >= 0 and w_minus <= 0.

    w_plus = (u)+ - (delta_u)-, w_minus = (u)- - (delta_u)+, so that
    w_plus + w_minus = u_avg_n - delta_u_n exactly.
    """
    w_plus = np.maximum(u_avg_n, 0.0) - np.minimum(delta_u_n, 0.0)
    w_minus = np.minimum(u_avg_n, 0.0) - np.maximum(delta_u_n, 0.0)
    return w_plus, w_minus


def mass_flux(rho_k, rho_l, w_plus, w_minus):
    """Stabilised upwind mass flux and its signed parts.

    Returns (mass, mass_plus, mass_minus) with mass_plus = rho_K (w_plus + s)
    and mass_minus = rho_L (w_minus - s), s = VISCOUS_SCALE; the jump penalty
    -s [[rho]] is already folded into the two parts.
    """
    mass_plus = np.asarray(rho_k) * (np.asarray(w_plus) + VISCOUS_SCALE)
    mass_minus = np.asarray(rho_l) * (np.asarray(w_minus) - VISCOUS_SCALE)
    return mass_plus + mass_minus, mass_plus, mass_minus


def momentum_flux(mass_plus, mass_minus, u_k, u_l):
    """Upwind transport F+ u_K + F- u_L - s [[u]] of a cell quantity u, elementwise:
    a velocity component or |u|^2/2 with the mass-flux parts F+-, P(rho_hat) with w+-."""
    return mass_plus * u_k + mass_minus * u_l - VISCOUS_SCALE * (u_l - u_k)


def assemble_fluxes(mesh: StructuredMesh, rho_next: np.ndarray, u_normal: np.ndarray,
                    faces, eta: float, dt: float, eps: float) -> FaceFluxes:
    """Assemble the mass fluxes for one step.

    rho_next is the end-of-step density the mass balance is implicit in and
    faces = density_faces(mesh, gas, rho_next) its face fields;
    u_normal = face_average_normal(mesh, u) is the start-of-step normal
    velocity, the same for every iterate of a step.
    """
    rho_l, jump_p = faces
    delta_u = stabilisation_velocity(mesh, jump_p, eta, dt, eps)
    w_plus, w_minus = split_normal_velocity(u_normal, delta_u)
    mass, mass_plus, mass_minus = mass_flux(rho_next, rho_l, w_plus, w_minus)
    return FaceFluxes(
        mass=mass, mass_plus=mass_plus, mass_minus=mass_minus,
        w_plus=w_plus, w_minus=w_minus, delta_u=delta_u, rho_l=rho_l)


def mass_flux_derivative(mesh, gas, rho, fluxes, dt, eta, eps):
    """Face coefficients (d_dk, d_dl) of the mass flux's dependence on rho_K, rho_L.

    ``fluxes`` are the fluxes assembled at ``rho``, whose L side they keep.
    The upwind indicator signs are frozen at that iterate (semi-smooth
    linearisation); where delta_u = 0 the flux is smooth only because
    rho_K = rho_L there, and either side is the derivative.
    """
    # The stabilisation coefficient per block, broadcast over each block.
    c_face = (eta * dt / eps ** 2) * np.array(face_weight(mesh))[:, None]
    upwind_rho = np.where(fluxes.delta_u > 0.0, fluxes.rho_l, rho)
    pprime_k, pprime_l = gather_to_faces(mesh, gas.pressure_derivative(rho))
    d_dk = fluxes.w_plus + VISCOUS_SCALE + c_face * pprime_k * upwind_rho
    d_dl = fluxes.w_minus - VISCOUS_SCALE - c_face * pprime_l * upwind_rho
    return d_dk, d_dl


def update_density(mesh: StructuredMesh, rho, mass, dt):
    """Conservative density update rho - dt div(mass): total mass telescopes exactly."""
    return rho - dt * flux_divergence(mesh, mass)


def update_velocity(mesh: StructuredMesh, gas: GasLaw, rho, u, rho_next,
                    fluxes: FaceFluxes, dt, eps):
    """Explicit momentum update of (rho, u) once rho_next is known, per component."""
    grad_p = cell_gradient(mesh, gas.pressure(rho_next))
    u_next = np.empty_like(u)
    for c, u_c in enumerate(np.ascontiguousarray(u.T)):
        u_k, u_l = gather_to_faces(mesh, u_c)
        div_mom = flux_divergence(mesh, momentum_flux(
            fluxes.mass_plus, fluxes.mass_minus, u_k, u_l))
        u_next[:, c] = (rho * u_c - dt * (div_mom + grad_p[:, c] / eps ** 2)) / rho_next
    return u_next
