"""Barotropic pressure law p(rho) = rho**gamma and its energy potentials."""

from dataclasses import dataclass

import numpy as np


class PositivityError(ValueError):
    """A density that must be positive is not; State raises it at its boundary."""


@dataclass(frozen=True)
class GasLaw:
    """Isentropic gas law with adiabatic exponent gamma > 1.

    The methods are unchecked formulas of positive, finite densities (arrays,
    lists or tuples): State and the stepper admit every density a run evaluates.
    """

    gamma: float

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")

    def pressure(self, rho):
        return np.asarray(rho) ** self.gamma

    def pressure_derivative(self, rho):
        return self.gamma * np.asarray(rho) ** (self.gamma - 1.0)

    def internal_energy(self, z):
        """Pressure potential P(z) = z**gamma / (gamma - 1).

        Satisfies z P'(z) - p(z) = P(z), the identity behind the discrete
        internal-energy balance.
        """
        return np.asarray(z) ** self.gamma / (self.gamma - 1.0)

    def relative_internal_energy(self, z1, z2):
        """Bregman distance P(z1) - P(z2) - P'(z2) (z1 - z2), >= 0 by convexity."""
        g, z1, z2 = self.gamma, np.asarray(z1), np.asarray(z2)
        p_prime = g * z2 ** (g - 1.0) / (g - 1.0)
        return (z1 ** g - z2 ** g) / (g - 1.0) - p_prime * (z1 - z2)
