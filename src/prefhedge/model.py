"""Market/preference parameters and the CRRA utility machinery.

The investor's relative risk aversion at the horizon is gamma = exp(Y_T),
where the preference factor Y follows an arithmetic Brownian motion.  This
module holds the parameter container, the CRRA utility family u(x) =
x**(1-gamma)/(1-gamma), the log certainty-equivalent transform phi (the log
of its inverse), and the conditional expectation of terminal risk aversion.

All operations are pure functions of their arguments and accept scalars or
numpy arrays (broadcasting elementwise); they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularGammaError

# Exclusion band around gamma = 1 (the log-utility point), where the power
# form x**(1-gamma)/(1-gamma) degenerates.  Quadrature nodes are nudged away
# from ybar = 0 instead of adding a separate log-utility branch.
EPS_GAMMA = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Market coefficients, preference-process coefficients, and horizon.

    Attributes:
        r: risk-free rate (1/year).
        mu_S: stock drift (1/year).
        sigma_S: stock volatility (1/sqrt(year)), strictly positive.
        rho: correlation between stock and preference shocks, in [-1, 1].
        mu_Y: preference-factor drift (1/year).
        sigma_Y: preference-factor volatility (1/sqrt(year)), strictly positive.
        T: horizon in years, strictly positive.
        y0: initial preference state (dimensionless).
    """

    r: float
    mu_S: float
    sigma_S: float
    rho: float
    mu_Y: float
    sigma_Y: float
    T: float
    y0: float = 0.0

    def __post_init__(self):
        if not self.sigma_S > 0:
            raise DomainError(f"sigma_S must be > 0, got {self.sigma_S}")
        if not self.sigma_Y > 0:
            raise DomainError(f"sigma_Y must be > 0, got {self.sigma_Y}")
        if not self.T > 0:
            raise DomainError(f"T must be > 0, got {self.T}")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError(f"rho must lie in [-1, 1], got {self.rho}")
        for name in ("r", "mu_S", "mu_Y", "y0"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")


def _check_gamma(gamma):
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0):
        raise DomainError("gamma must be > 0")
    if np.any(np.abs(gamma - 1.0) <= EPS_GAMMA):
        raise SingularGammaError(
            f"gamma within {EPS_GAMMA} of 1 is excluded (log-utility point)"
        )
    return gamma


def crra_utility(x, gamma):
    """CRRA utility x**(1-gamma)/(1-gamma) for wealth x > 0.

    Positive for gamma < 1 and negative for gamma > 1.  Rejects x <= 0
    outright: silently clamping wealth would corrupt Monte Carlo reward
    estimates downstream.
    """
    gamma = _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("wealth must be > 0")
    out = x ** (1.0 - gamma) / (1.0 - gamma)
    return out if out.ndim else float(out)


def phi(u, gamma):
    """Log certainty equivalent: ln of the wealth whose utility is u.

    Equals ln((1-gamma) u)/(1-gamma), which is monotone increasing in u on
    its domain (1-gamma) * u > 0.
    """
    gamma = _check_gamma(gamma)
    u = np.asarray(u, dtype=float)
    z = (1.0 - gamma) * u
    if np.any(z <= 0):
        raise DomainError("(1 - gamma) * u must be > 0")
    out = np.log(z) / (1.0 - gamma)
    return out if out.ndim else float(out)


def phi_prime(u, gamma):
    """Derivative of phi with respect to u: 1 / (u (1 - gamma))."""
    gamma = _check_gamma(gamma)
    u = np.asarray(u, dtype=float)
    z = (1.0 - gamma) * u
    if np.any(z <= 0):
        raise DomainError("(1 - gamma) * u must be > 0")
    out = 1.0 / (u * (1.0 - gamma))
    return out if out.ndim else float(out)


def eval_policy(policy, t, y):
    """Fraction at (t, y) under a policy specification: shape broadcast(t, y).

    Accepts a surface (anything with ``.value(t, y, clip=...)``, read
    clamped to its grid at one time ``t``), a callable ``pi(t, y)``, or a
    scalar.  solve_h and residual take a PolicySurface's node array.
    """
    if hasattr(policy, "value"):
        return np.asarray(policy.value(t, y, clip=True), dtype=float)
    shape = np.broadcast_shapes(np.shape(t), np.shape(y))
    if callable(policy):
        return np.broadcast_to(np.asarray(policy(t, y), dtype=float), shape).copy()
    return np.full(shape, float(policy))


def expected_terminal_gamma(t, y, params: ModelParams):
    """E[exp(Y_T) | Y_t = y] for the arithmetic Brownian preference factor.

    Equals exp(y + (mu_Y + sigma_Y**2 / 2) (T - t)).  The drift and convexity
    terms are grouped before multiplying by the remaining horizon so that
    mu_Y = -sigma_Y**2 / 2 makes the result constant in t exactly, not just
    to rounding.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > params.T):
        raise DomainError("t must lie in [0, T]")
    y = np.asarray(y, dtype=float)
    rate = params.mu_Y + 0.5 * params.sigma_Y**2
    out = np.exp(y + rate * (params.T - t))
    return out if out.ndim else float(out)
