"""Benchmark initial data and exact solutions: the rotating-column vortex, at
rest and moving, and well-prepared perturbations.

The vortex has angular velocity a1*r inside radius r1, a2 + a3*r between r1
and r2 and zero outside, with coefficients chosen continuous.  Its
incompressible pressure pi(r) integrates u_theta(s)^2 / s from the centre
and is constant past r2; the velocity is a steady incompressible solution.
Case ``vortex`` starts from the paper's printed density
rho^(gamma-1) = 1 + (gamma/(gamma-1)) eps^2 pi(r), which does not balance
the centrifugal force, so a run starts with an O(eps^2) transient.  Case
``moving_vortex`` has the balanced density, with (gamma-1)/gamma in place
of gamma/(gamma-1), moved by the uniform velocity U = MOVING_VELOCITY:
rho(x - U t) and u = v(x - U t) + U, at periodic distances from the moving
centre, are an exact solution of the compressible system at every eps and,
with unit density, of its incompressible limit, while the column fits in
the domain (lx, ly >= 2 r2).
"""

from dataclasses import dataclass

import numpy as np

from .mesh import StructuredMesh, project
from .stepper import State

MOVING_VELOCITY = (1.0, 0.5)  # U, the moving vortex's uniform background velocity


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


def _vortex_fields(dx, dy, spec):
    """Radius and (n_cells, 2) velocity of the vortex at offsets (dx, dy) from its centre."""
    r = np.sqrt(dx ** 2 + dy ** 2)
    u_theta = angular_velocity(r, spec)
    # Rotation about the centre; the profile vanishes at r = 0 so the guarded
    # division is only about avoiding 0/0.
    scale = np.where(r < 1e-14, 0.0, u_theta / np.maximum(r, 1e-300))
    return r, np.column_stack([scale * dy, -scale * dx])


def _at_rest(mesh, spec):
    x, y = mesh.cell_centers()
    return _vortex_fields(x - spec.center[0], y - spec.center[1], spec)


def vortex_density(pi, gamma: float, eps: float, balanced: bool):
    """rho with rho^(gamma-1) = 1 + c eps^2 pi, c = (gamma-1)/gamma when
    balanced, the printed gamma/(gamma-1) otherwise."""
    num, den = (gamma - 1.0, gamma) if balanced else (gamma, gamma - 1.0)
    return (1.0 + num * eps ** 2 / den * pi) ** (1.0 / (gamma - 1.0))


def _well_prepared_density(g, eps: float):
    return 1.0 + eps ** 2 * g


def peak_density(case: str, gamma: float, eps: float, spec: VortexSpec = VortexSpec()) -> float:
    """Closed-form supremum of a case's initial density, inf where it overflows:
    pi(r) rises to its plateau pi(r2), and max g = 1."""
    if case == "well_prepared":
        return _well_prepared_density(1.0, eps)
    with np.errstate(over="ignore"):
        return float(vortex_density(incompressible_pressure(spec.r2, spec), gamma, eps,
                                    balanced=case == "moving_vortex"))


def vortex_compressible_init(mesh: StructuredMesh, gamma: float, eps: float,
                             spec: VortexSpec = VortexSpec()) -> State:
    """Vortex at rest with the printed density, at time zero."""
    if not gamma > 1.0:
        raise ValueError(f"gamma must be > 1, got {gamma}")
    r, u = _at_rest(mesh, spec)
    rho = vortex_density(incompressible_pressure(r, spec), gamma, eps, balanced=False)
    return State(time=0.0, rho=rho, u=u, step_index=0)


def moving_vortex(mesh: StructuredMesh, gamma: float, eps: float, t: float = 0.0,
                  spec: VortexSpec = VortexSpec()) -> State:
    """Exact moving vortex at time t, centred at spec.center + U t; t = 0 is
    the initial state."""
    x, y = mesh.cell_centers()
    dx, dy = (d - length * np.round(d / length) for d, length in (
        (x - (spec.center[0] + MOVING_VELOCITY[0] * t), mesh.lx),
        (y - (spec.center[1] + MOVING_VELOCITY[1] * t), mesh.ly)))
    r, v = _vortex_fields(dx, dy, spec)
    rho = vortex_density(incompressible_pressure(r, spec), gamma, eps, balanced=True)
    return State(time=t, rho=rho, u=v + MOVING_VELOCITY, step_index=0)


def vortex_incompressible_exact(mesh: StructuredMesh,
                                spec: VortexSpec = VortexSpec()):
    """Projected steady incompressible solution (velocity, mean-free pressure).

    The rotating column is an exact steady solution of the incompressible
    limit system, so these fields are time-independent.
    """
    r, v = _at_rest(mesh, spec)
    pi = incompressible_pressure(r, spec)
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
    rho = _well_prepared_density(g, eps)
    u = np.asarray(v0, dtype=float) + eps * w
    return State(time=0.0, rho=rho, u=u, step_index=0)
