"""Stabilised upwind mass and momentum fluxes.

The advecting normal velocity on a face is the face average of the current
velocity minus a pressure-stabilisation correction delta_u proportional to
the face gradient of the new pressure.  Its positive and negative parts are
split so that the mass flux upwinds the new density and the momentum flux
upwinds the current velocity; both carry an extra jump penalty (the
"viscous" part, scale 1 by default).

All per-face quantities are stored with the K-side sign of the face; the
value seen from the other cell is the negation, which is what makes the
discrete balances telescope to exact conservation.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import (StructuredMesh, face_average_normal, face_gradient_normal,
                   gather_to_faces)


@dataclass
class FaceFluxes:
    """Per-face mass-flux data for one time step (K-side orientation).

    mass = mass_plus + mass_minus is the stabilised upwind mass flux.
    w_plus >= 0 and w_minus <= 0 are the split parts of the advecting normal
    velocity u_normal - delta_u.  The matching momentum flux is built from
    mass_plus and mass_minus by momentum_flux once the step is accepted.
    """

    mass: np.ndarray
    mass_plus: np.ndarray
    mass_minus: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    delta_u: np.ndarray
    u_normal: np.ndarray
    viscous_scale: float


def stabilisation_velocity(mesh: StructuredMesh, p: np.ndarray, eta: float,
                           dt: float, eps: float) -> np.ndarray:
    """Normal stabilisation velocity (eta dt / eps^2) (|face|/|D|) [[p]]."""
    return (eta * dt / eps ** 2) * face_gradient_normal(mesh, p)


def split_normal_velocity(u_avg_n, delta_u_n):
    """Split w = u_avg_n - delta_u_n into w_plus >= 0 and w_minus <= 0.

    w_plus = (u)+ - (delta_u)-, w_minus = (u)- - (delta_u)+, so that
    w_plus + w_minus = u_avg_n - delta_u_n exactly.
    """
    u_avg_n = np.asarray(u_avg_n, dtype=float)
    delta_u_n = np.asarray(delta_u_n, dtype=float)
    w_plus = np.maximum(u_avg_n, 0.0) - np.minimum(delta_u_n, 0.0)
    w_minus = np.minimum(u_avg_n, 0.0) - np.maximum(delta_u_n, 0.0)
    return w_plus, w_minus


def mass_flux(rho_k, rho_l, w_plus, w_minus, viscous_scale: float = 1.0):
    """Stabilised upwind mass flux and its signed parts.

    Returns (mass, mass_plus, mass_minus) with mass_plus = rho_K (w_plus + s)
    and mass_minus = rho_L (w_minus - s); the jump penalty -s [[rho]] is
    already folded into the two parts.
    """
    mass_plus = np.asarray(rho_k) * (np.asarray(w_plus) + viscous_scale)
    mass_minus = np.asarray(rho_l) * (np.asarray(w_minus) - viscous_scale)
    return mass_plus + mass_minus, mass_plus, mass_minus


def momentum_flux(mass_plus, mass_minus, u_k, u_l, viscous_scale: float = 1.0):
    """Momentum flux F+ u_K + F- u_L - s [[u]] per component, in the inputs' dtype."""
    mass_plus = np.asarray(mass_plus)[..., None]
    mass_minus = np.asarray(mass_minus)[..., None]
    u_k = np.asarray(u_k)
    u_l = np.asarray(u_l)
    return mass_plus * u_k + mass_minus * u_l - viscous_scale * (u_l - u_k)


def assemble_fluxes(mesh: StructuredMesh, rho_next: np.ndarray, u_now: np.ndarray,
                    p_next: np.ndarray, eta: float, dt: float, eps: float,
                    viscous_scale: float = 1.0) -> FaceFluxes:
    """Assemble the mass fluxes for one step.

    rho_next and p_next = pressure(rho_next) are the end-of-step fields the
    mass balance is implicit in; u_now is the start-of-step velocity.
    """
    delta_u = stabilisation_velocity(mesh, p_next, eta, dt, eps)
    u_normal = face_average_normal(mesh, u_now)
    w_plus, w_minus = split_normal_velocity(u_normal, delta_u)
    rho_k, rho_l = gather_to_faces(mesh, rho_next)
    mass, mass_plus, mass_minus = mass_flux(rho_k, rho_l, w_plus, w_minus,
                                            viscous_scale)
    return FaceFluxes(
        mass=mass, mass_plus=mass_plus, mass_minus=mass_minus,
        w_plus=w_plus, w_minus=w_minus, delta_u=delta_u, u_normal=u_normal,
        viscous_scale=viscous_scale)
