"""Benchmark initial data: a stationary vortex and well-prepared perturbations.

The vortex is a compactly supported rotating column: angular velocity a1*r
inside radius r1, linearly decaying a2 + a3*r between r1 and r2, zero
outside, with coefficients chosen continuous.  The matching incompressible
pressure pi(r) integrates u_theta(s)^2 / s from the centre and is constant
past r2.  The compressible initial density is the printed closed form

    rho0 = (1 + (gamma eps^2 / (gamma - 1)) pi(r)) ** (1 / (gamma - 1)),

a well-prepared O(eps^2) deviation from unit density.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import StructuredMesh, project
from .stepper import State


@dataclass(frozen=True)
class VortexSpec:
    """Geometry and strength of the rotating-column vortex."""

    center: tuple = (0.5, 0.5)
    r1: float = 0.2
    r2: float = 0.4
    amplitude: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.r1 < self.r2:
            raise ValueError(f"need 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")

    @property
    def a1(self) -> float:
        return self.amplitude / self.r1

    @property
    def a2(self) -> float:
        return -self.amplitude * self.r2 / (self.r1 - self.r2)

    @property
    def a3(self) -> float:
        return self.amplitude / (self.r1 - self.r2)


def angular_velocity(r, spec: VortexSpec = VortexSpec()) -> np.ndarray:
    """Piecewise-linear angular velocity profile u_theta(r)."""
    r = np.asarray(r, dtype=float)
    inner = spec.a1 * r
    ring = spec.a2 + spec.a3 * r
    return np.where(r <= spec.r1, inner, np.where(r <= spec.r2, ring, 0.0))


def incompressible_pressure(r, spec: VortexSpec = VortexSpec()) -> np.ndarray:
    """Closed form of pi(r) = integral_0^r u_theta(s)^2 / s ds.

    Inside r1 the integrand is a1^2 s; on the ring it expands into
    a2^2/s + 2 a2 a3 + a3^2 s, integrating to the log/linear/quadratic terms
    below; beyond r2 the pressure is the constant plateau pi(r2).
    """
    r = np.asarray(r, dtype=float)
    a1, a2, a3, r1, r2 = spec.a1, spec.a2, spec.a3, spec.r1, spec.r2
    pi_r1 = 0.5 * a1 ** 2 * r1 ** 2

    def ring_part(rr):
        return (pi_r1 + a2 ** 2 * np.log(rr / r1) + 2.0 * a2 * a3 * (rr - r1)
                + 0.5 * a3 ** 2 * (rr ** 2 - r1 ** 2))

    safe = np.clip(r, r1, r2)  # keeps the log argument >= 1 on unused branches
    return np.where(r <= r1, 0.5 * a1 ** 2 * r ** 2,
                    np.where(r <= r2, ring_part(safe), ring_part(np.asarray(r2))))


def _project_velocity(mesh, spec):
    """Projected (n_cells, 2) velocity of the vortex."""
    return np.column_stack([
        project(mesh, lambda x, y: _velocity_components(x, y, spec)[c])
        for c in (0, 1)])


def _velocity_components(xg, yg, spec):
    dx = xg - spec.center[0]
    dy = yg - spec.center[1]
    r = np.sqrt(dx ** 2 + dy ** 2)
    u_theta = angular_velocity(r, spec)
    # Rotation about the centre; the profile vanishes at r = 0 so the guarded
    # division is only about avoiding 0/0.
    scale = np.where(r < 1e-14, 0.0, u_theta / np.maximum(r, 1e-300))
    return scale * dy, -scale * dx


def vortex_compressible_init(mesh: StructuredMesh, gamma: float, eps: float,
                             spec: VortexSpec = VortexSpec()) -> State:
    """Well-prepared compressible vortex state at time zero."""
    if not gamma > 1.0:
        raise ValueError(f"gamma must be > 1, got {gamma}")

    def rho_f(x, y):
        r = np.sqrt((x - spec.center[0]) ** 2 + (y - spec.center[1]) ** 2)
        pi = incompressible_pressure(r, spec)
        return (1.0 + gamma * eps ** 2 / (gamma - 1.0) * pi) ** (1.0 / (gamma - 1.0))

    rho = project(mesh, rho_f)
    return State(time=0.0, rho=rho, u=_project_velocity(mesh, spec), step_index=0)


def vortex_incompressible_exact(mesh: StructuredMesh,
                                spec: VortexSpec = VortexSpec()):
    """Projected steady incompressible solution (velocity, mean-free pressure).

    The rotating column is an exact steady solution of the incompressible
    limit system, so these fields are time-independent.
    """
    def pi_f(x, y):
        r = np.sqrt((x - spec.center[0]) ** 2 + (y - spec.center[1]) ** 2)
        return incompressible_pressure(r, spec)

    v = _project_velocity(mesh, spec)
    pi = project(mesh, pi_f)
    pi = pi - mesh.cell_volume * pi.sum() / (mesh.lx * mesh.ly)
    return v, pi


def well_prepared_perturbation(mesh: StructuredMesh, v0: np.ndarray, eps: float) -> State:
    """State with rho = 1 + eps^2 g and u = v0 + eps w.

    g and w are fixed smooth periodic fields normalised to unit max norm on
    the mesh (w is divergence-free), so the deviations have the exact sizes
    eps^2 and eps.
    """
    two_pi = 2.0 * np.pi
    g = project(mesh, lambda x, y: np.sin(two_pi * x / mesh.lx) * np.sin(two_pi * y / mesh.ly))
    w1 = project(mesh, lambda x, y: np.sin(two_pi * y / mesh.ly))
    w2 = project(mesh, lambda x, y: np.sin(two_pi * x / mesh.lx))
    g_max = np.abs(g).max()
    if g_max > 0.0:
        g = g / g_max
    w = np.column_stack([w1, w2])
    w_max = np.abs(w).max()
    if w_max > 0.0:
        w = w / w_max
    rho = 1.0 + eps ** 2 * g
    u = np.asarray(v0, dtype=float) + eps * w
    return State(time=0.0, rho=rho, u=u, step_index=0)
