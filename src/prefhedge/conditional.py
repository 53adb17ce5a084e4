"""Conditional law of the preference factor given its terminal state.

Conditioning the arithmetic Brownian preference factor Y on its terminal
value Y_T = ybar turns it into a Brownian bridge with drift
(ybar - Y_s)/(T - s) = mu_Y + sigma_Y**2 score, where the score is the
y-gradient of the log transition density of Y_T given Y_s = y.  The
equilibrium supremand reads the score and the bridge drift; the Monte Carlo
oracle steps the bridge by its exact transition instead (see prefhedge.mc).

Everything here rejects s = T: the conditional law degenerates there, and
callers that need terminal behaviour handle the limit themselves.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateTimeError
from .model import ModelParams


def _remaining(s, params: ModelParams):
    s = np.asarray(s, dtype=float)
    tau = params.T - s
    if np.any(tau <= 0):
        raise DegenerateTimeError("conditional law degenerates at s = T")
    return s, tau


def conditional_density(ybar, t, y, params: ModelParams):
    """Density of Y_T given Y_t = y, evaluated at ybar.

    Gaussian with mean y + mu_Y (T - t) and variance sigma_Y**2 (T - t).
    """
    _, tau = _remaining(t, params)
    ybar = np.asarray(ybar, dtype=float)
    y = np.asarray(y, dtype=float)
    var = params.sigma_Y**2 * tau
    z = ybar - y - params.mu_Y * tau
    out = np.exp(-0.5 * z * z / var) / np.sqrt(2.0 * np.pi * var)
    return out if out.ndim else float(out)


def score(s, y, ybar, params: ModelParams):
    """y-gradient of ln conditional_density: (ybar - y - mu_Y (T-s)) / (sigma_Y**2 (T-s)).

    The sign is fixed by the requirement that mu_Y + sigma_Y**2 * score equal
    the Brownian-bridge drift (ybar - y)/(T - s); see bridge_drift_y.
    """
    _, tau = _remaining(s, params)
    y = np.asarray(y, dtype=float)
    ybar = np.asarray(ybar, dtype=float)
    out = (ybar - y - params.mu_Y * tau) / (params.sigma_Y**2 * tau)
    return out if out.ndim else float(out)


def bridge_drift_y(s, y, ybar, params: ModelParams):
    """Drift of the preference factor under conditioning on Y_T = ybar.

    The standard Brownian-bridge pull (ybar - y)/(T - s); algebraically
    identical to mu_Y + sigma_Y**2 * score(s, y, ybar).
    """
    _, tau = _remaining(s, params)
    y = np.asarray(y, dtype=float)
    ybar = np.asarray(ybar, dtype=float)
    out = (ybar - y) / tau
    return out if out.ndim else float(out)
