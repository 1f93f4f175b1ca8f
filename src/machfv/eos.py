"""Barotropic pressure law p(rho) = rho**gamma and its energy potentials."""

from dataclasses import dataclass

import numpy as np


class PositivityError(ValueError):
    """A quantity that must stay positive (density, pressure) is <= 0."""


def _require_positive(z, what: str):
    z = np.asarray(z, dtype=np.result_type(z, float))
    if z.size == 0:
        raise ValueError(f"{what} array is empty")
    # Two reductions on the passing path: a NaN fails min > 0, +inf max < inf.
    if z.min() > 0.0 and z.max() < np.inf:
        return z
    if not np.all(np.isfinite(z)):
        bad = int(np.flatnonzero(~np.isfinite(z))[0])
        raise PositivityError(f"{what} is not finite at cell {bad}")
    raise PositivityError(
        f"{what} must be positive, found {z.min()!r} at cell {int(np.argmin(z))}")


@dataclass(frozen=True)
class GasLaw:
    """Isentropic gas law with adiabatic exponent gamma > 1."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")

    def pressure(self, rho):
        rho = _require_positive(rho, "density")
        return rho ** self.gamma

    def pressure_derivative(self, rho):
        rho = _require_positive(rho, "density")
        return self.gamma * rho ** (self.gamma - 1.0)

    def internal_energy(self, z):
        """Pressure potential P(z) = z**gamma / (gamma - 1).

        Satisfies z P'(z) - p(z) = P(z), the identity behind the discrete
        internal-energy balance.
        """
        z = _require_positive(z, "density")
        return z ** self.gamma / (self.gamma - 1.0)

    def relative_internal_energy(self, z1, z2):
        """Bregman distance P(z1) - P(z2) - P'(z2) (z1 - z2), >= 0 by convexity."""
        z1 = _require_positive(z1, "density")
        z2 = _require_positive(z2, "reference density")
        g = self.gamma
        p_prime = g * z2 ** (g - 1.0) / (g - 1.0)
        return (z1 ** g - z2 ** g) / (g - 1.0) - p_prime * (z1 - z2)
