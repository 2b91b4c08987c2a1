"""Physical and regularization constants."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConstraintFault


@dataclass(frozen=True)
class PhysParams:
    """Constant coefficients of the model plus the positivity floors.

    ``nu`` is derived, not free: nu = (gamma - 1) * kappa / (gamma * R).
    ``sigma_floor``/``p_floor`` are modeling floors (initial data must sit
    above them; trajectories are expected to stay above half of them), as
    opposed to the hard fault floors used by the integrators.
    """

    gamma: float = 1.4
    mu: float = 1.0
    lam: float = 0.0
    kappa: float = 1.0
    R: float = 1.0
    epsilon: float = 0.0
    sigma_floor: float = 0.5
    p_floor: float = 0.5
    nu: float = field(init=False)

    def __post_init__(self):
        checks = [
            ("gamma", self.gamma > 1.0, "gamma > 1 required"),
            ("mu", self.mu > 0.0, "mu > 0 required"),
            ("lambda", self.mu + self.lam > 0.0, "mu + lambda > 0 required"),
            ("kappa", self.kappa > 0.0, "kappa > 0 required"),
            ("R", self.R > 0.0, "R > 0 required"),
            ("epsilon", self.epsilon >= 0.0, "epsilon >= 0 required"),
            ("sigma_floor", self.sigma_floor > 0.0, "sigma_floor > 0 required"),
            ("p_floor", self.p_floor > 0.0, "p_floor > 0 required"),
        ]
        for key, ok, reason in checks:
            if not ok:
                raise ConstraintFault(key, reason)
        for key in ("gamma", "mu", "lam", "kappa", "R", "epsilon"):
            if not math.isfinite(getattr(self, key)):
                raise ConstraintFault(key, "must be finite")
        object.__setattr__(
            self, "nu", (self.gamma - 1.0) * self.kappa / (self.gamma * self.R)
        )
