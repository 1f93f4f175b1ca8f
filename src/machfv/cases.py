"""Benchmark initial data and exact solutions: the rotating-column vortex, at
rest and moving, and well-prepared perturbations.

The paper's experiments use one vortex, so its geometry is fixed by module
constants: centre CENTER, radii R1 < R2 and peak speed AMPLITUDE.  Its
angular velocity is A1*r inside R1, A2 + A3*r between R1 and R2 and zero
outside, with the coefficients chosen continuous.  Its incompressible
pressure pi(r) integrates u_theta(s)^2 / s from the centre and is constant
past R2; the velocity is a steady incompressible solution.
Case ``vortex`` starts from the paper's printed density
rho^(gamma-1) = 1 + (gamma/(gamma-1)) eps^2 pi(r), which does not balance
the centrifugal force, so a run starts with an O(eps^2) transient.  Case
``moving_vortex`` has the balanced density, with (gamma-1)/gamma in place
of gamma/(gamma-1), moved by the uniform velocity U = MOVING_VELOCITY:
rho(x - U t) and u = v(x - U t) + U, at periodic distances from the moving
centre, are an exact solution of the compressible system at every eps and,
with unit density, of its incompressible limit, while the column fits in
the domain (lx, ly >= 2 R2).
"""

import numpy as np

from .mesh import StructuredMesh
from .stepper import State

MOVING_VELOCITY = (1.0, 0.5)  # U, the moving vortex's uniform background velocity
CENTER = (0.5, 0.5)  # the vortex centre at rest
R1 = 0.2  # radius of the solid-body core
R2 = 0.4  # outer radius; the velocity vanishes beyond it
AMPLITUDE = 0.1  # peak of u_theta, reached at R1
A1 = AMPLITUDE / R1
A2 = -AMPLITUDE * R2 / (R1 - R2)
A3 = AMPLITUDE / (R1 - R2)


def angular_velocity(r) -> np.ndarray:
    """Piecewise-linear angular velocity profile u_theta(r)."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= R1, A1 * r, np.where(r <= R2, A2 + A3 * r, 0.0))


def incompressible_pressure(r) -> np.ndarray:
    """Closed form of pi(r) = integral_0^r u_theta(s)^2 / s ds.

    Inside R1 the integrand is A1^2 s; on the ring it expands into
    A2^2/s + 2 A2 A3 + A3^2 s, integrating to the log/linear/quadratic terms
    below; beyond R2 the pressure is the constant plateau pi(R2).
    """
    r = np.asarray(r, dtype=float)
    pi_r1 = 0.5 * A1 ** 2 * R1 ** 2

    def ring_part(rr):
        return (pi_r1 + A2 ** 2 * np.log(rr / R1) + 2.0 * A2 * A3 * (rr - R1)
                + 0.5 * A3 ** 2 * (rr ** 2 - R1 ** 2))

    safe = np.clip(r, R1, R2)  # keeps the log argument >= 1 on unused branches
    return np.where(r <= R1, 0.5 * A1 ** 2 * r ** 2,
                    np.where(r <= R2, ring_part(safe), ring_part(np.asarray(R2))))


def _vortex_fields(dx, dy):
    """Radius and (n_cells, 2) velocity of the vortex at offsets (dx, dy) from its centre."""
    r = np.sqrt(dx ** 2 + dy ** 2)
    u_theta = angular_velocity(r)
    # Rotation about the centre; the profile vanishes at r = 0 so the guarded
    # division is only about avoiding 0/0.
    scale = np.where(r < 1e-14, 0.0, u_theta / np.maximum(r, 1e-300))
    return r, np.column_stack([scale * dy, -scale * dx])


def _at_rest(mesh):
    x, y = mesh.cell_centers()
    return _vortex_fields(x - CENTER[0], y - CENTER[1])


def vortex_density(pi, gamma: float, eps: float, balanced: bool):
    """rho with rho^(gamma-1) = 1 + c eps^2 pi, c = (gamma-1)/gamma when
    balanced, the printed gamma/(gamma-1) otherwise."""
    if not gamma > 1.0:
        raise ValueError(f"gamma must be > 1, got {gamma}")
    num, den = (gamma - 1.0, gamma) if balanced else (gamma, gamma - 1.0)
    return (1.0 + num * eps ** 2 / den * pi) ** (1.0 / (gamma - 1.0))


def _well_prepared_density(g, eps: float):
    return 1.0 + eps ** 2 * g


def peak_density(case: str, gamma: float, eps: float) -> float:
    """Closed-form supremum of a case's initial density, inf where it overflows:
    pi(r) rises to its plateau pi(R2), and max g = 1."""
    if case == "well_prepared":
        return _well_prepared_density(1.0, eps)
    with np.errstate(over="ignore"):
        return float(vortex_density(incompressible_pressure(R2), gamma, eps,
                                    balanced=case == "moving_vortex"))


def vortex_compressible_init(mesh: StructuredMesh, gamma: float, eps: float) -> State:
    """Vortex at rest with the printed density, at time zero."""
    r, u = _at_rest(mesh)
    rho = vortex_density(incompressible_pressure(r), gamma, eps, balanced=False)
    return State(time=0.0, rho=rho, u=u, step_index=0)


def moving_vortex(mesh: StructuredMesh, gamma: float, eps: float, t: float = 0.0) -> State:
    """Exact moving vortex at time t, centred at CENTER + U t; t = 0 is the
    initial state."""
    x, y = mesh.cell_centers()
    dx, dy = (d - length * np.round(d / length) for d, length in (
        (x - (CENTER[0] + MOVING_VELOCITY[0] * t), mesh.lx),
        (y - (CENTER[1] + MOVING_VELOCITY[1] * t), mesh.ly)))
    r, v = _vortex_fields(dx, dy)
    rho = vortex_density(incompressible_pressure(r), gamma, eps, balanced=True)
    return State(time=t, rho=rho, u=v + MOVING_VELOCITY, step_index=0)


def vortex_incompressible_exact(mesh: StructuredMesh):
    """Steady incompressible solution (velocity, mean-free pressure) at the cell centres.

    The rotating column is an exact steady solution of the incompressible
    limit system, so these fields are time-independent.
    """
    r, v = _at_rest(mesh)
    pi = incompressible_pressure(r)
    pi = pi - mesh.cell_volume * pi.sum() / (mesh.lx * mesh.ly)
    return v, pi


def well_prepared_perturbation(mesh: StructuredMesh, eps: float) -> State:
    """State with rho = 1 + eps^2 g and u = v0 + eps w, v0 the limit velocity.

    g and w are fixed smooth periodic fields normalised to unit max norm on
    the mesh (w is divergence-free), so the deviations have the exact sizes
    eps^2 and eps.  With at least 3 cells per direction neither is zero on
    the grid.
    """
    x, y = mesh.cell_centers()
    sin_x, sin_y = np.sin(2.0 * np.pi * x / mesh.lx), np.sin(2.0 * np.pi * y / mesh.ly)
    g = sin_x * sin_y
    w = np.column_stack([sin_y, sin_x])
    rho = _well_prepared_density(g / np.abs(g).max(), eps)
    u = _at_rest(mesh)[1] + eps * (w / np.abs(w).max())
    return State(time=0.0, rho=rho, u=u, step_index=0)
