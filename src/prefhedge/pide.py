"""Backward finite-difference solver for the family of continuation factors.

For each terminal preference state ybar, the continuation factor h(t, y)
solves a linear parabolic equation

    h_t + Q(t, y) h_y + R h_yy + P(t, y) h = 0,    h(T, y) = 1,

whose coefficients couple the Brownian-bridge pull toward ybar with the
candidate investment policy.  Slices are independent given the policy; the
policy feedback happens one level up, in the equilibrium sweep, which
settles each level's policy before the next step.

One kernel advances every slice by one time level, in two phases.
_prepare_level does the policy-free work once per level: each slice is
marched only in a window around its bridge line, the windows are laid end
to end, and the gather of the previous level, its slope term and the
bridge part of the coefficients are taken there.  _march_level then applies
one policy row: the policy part of the coefficients and one block-diagonal
tridiagonal solve that steps every window.  solve_h runs one map step per
level with a fixed policy; the equilibrium sweep prepares each level once
and runs as many map steps as its policy fixed point needs.

Numerical scheme: implicit (backward Euler) time stepping of the
convection-diffusion part with central differences in y, switching to
first-order upwinding wherever the cell Peclet number |Q| dy / (2R) exceeds
one (the bridge drift blows up near the terminal time and the y-grid edges,
and central differencing would oscillate there).  The reaction term P h is
advanced by an exact exponential factor in a split sub-step, which keeps the
solution strictly positive no matter how large P grows in far corners of the
(y, ybar) grid.  The continuous coefficients are singular at t = T, so the
march starts from t = T - eps_T with h = 1 there.  That flat start is not
the exact one: for a constant fraction pi the factor is exactly
ln h = K (T - t) + B (y - ybar), B = rho pi (sigma_S/sigma_Y)(gamma - 1),
so at T - eps_T the flat start is off by B (y - ybar) across each tube,
which is O(sqrt(eps_T)) inside the band (|y - ybar| is a few
sigma_Y sqrt(eps_T) there), and the error does not vanish as the time step
shrinks.

Boundary rows impose linearity in y (h_yy = 0).  The transport term at a
boundary uses the one-sided interior difference when the scheme needs
information from inside the domain, and is dropped (zero gradient) when the
characteristic enters from outside; both choices keep the implicit matrix an
M-matrix, hence positivity-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DegenerateTimeError, DomainError, OutOfGridError, PositivityError
from .model import EPS_GAMMA, ModelParams, eval_policy

# Abort threshold for the continuation factor inside a slice's bridge tube
# (values beyond it there mean the solve left the representable regime: at
# extreme correlations the factor genuinely spans several hundred e-folds
# across a tube); outside the tube the log factor is extended linearly
# rather than solved.
H_MAX = float(np.exp(690.0))
H_MIN = float(np.exp(-690.0))

# Half-width, in conditional standard deviations of the terminal state, of
# the band around each slice's bridge line where the solution is resolved
# and checked; quadrature never reads the factor outside ~4.5 sd.
BAND_SD = 4.5

# Cap, in conditional standard deviations, on the terminal-state quadrature
# nodes (the integrand is held flat beyond), strictly inside the band where
# the factor is valid; also the half-width of the residual's band.
QUAD_SD = 4.0

# Fewest rows of a marched window: the tube extension reads slopes from
# interior node pairs two rows inside each window edge.
_MIN_WINDOW = 5


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the (t, y, ybar) domain plus quadrature data.

    Attributes:
        T: horizon (years); the time grid lives in [0, T - eps_T].
        eps_T: terminal offset shielding the singular bridge coefficients.
        t_nodes: strictly increasing times, last node at T - eps_T.
        y_nodes: strictly increasing, uniformly spaced preference states.
        ybar_nodes: fixed terminal-state slices where the factor equations
            are solved; also the knots for cross-slice interpolation.  None
            may sit within EPS_GAMMA of 0 (gamma = 1 is excluded).
        gh_nodes / ybar_weights: standardized Gauss-Hermite abscissae and
            probability weights (weights sum to 1).  Expectations over the
            terminal state at (t, y) map these nodes through
            mean + sqrt(2) * sd * xi, with the mean and sd of the terminal
            conditional law at (t, y).
    """

    T: float
    eps_T: float
    t_nodes: np.ndarray
    y_nodes: np.ndarray
    ybar_nodes: np.ndarray
    gh_nodes: np.ndarray
    ybar_weights: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_nodes, dtype=float)
        y = np.asarray(self.y_nodes, dtype=float)
        yb = np.asarray(self.ybar_nodes, dtype=float)
        gh = np.asarray(self.gh_nodes, dtype=float)
        w = np.asarray(self.ybar_weights, dtype=float)
        object.__setattr__(self, "t_nodes", t)
        object.__setattr__(self, "y_nodes", y)
        object.__setattr__(self, "ybar_nodes", yb)
        object.__setattr__(self, "gh_nodes", gh)
        object.__setattr__(self, "ybar_weights", w)

        if not self.eps_T > 0:
            raise DomainError("eps_T must be > 0")
        if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
            raise DomainError("t_nodes must be strictly increasing")
        if t[0] < 0 or t[-1] > self.T - self.eps_T + 1e-12:
            raise DomainError("t_nodes must lie in [0, T - eps_T]")
        if y.ndim != 1 or np.any(np.diff(y) <= 0):
            raise DomainError("y_nodes must be strictly increasing")
        if y.size < _MIN_WINDOW:
            raise DomainError(f"y_nodes needs at least {_MIN_WINDOW} nodes")
        dy = np.diff(y)
        if not np.allclose(dy, dy[0], rtol=1e-10, atol=0.0):
            raise DomainError("y_nodes must be uniformly spaced")
        if yb.ndim != 1 or yb.size < 2 or np.any(np.diff(yb) <= 0):
            raise DomainError("ybar_nodes must be strictly increasing")
        if np.any(np.abs(yb) <= EPS_GAMMA):
            raise DomainError(
                f"ybar_nodes may not sit within {EPS_GAMMA} of 0 (gamma = 1 excluded)"
            )
        if gh.shape != w.shape or gh.ndim != 1:
            raise DomainError("gh_nodes and ybar_weights must be 1-d and paired")
        if not np.isclose(w.sum(), 1.0, rtol=1e-12):
            raise DomainError("ybar_weights must sum to 1")

    @property
    def dy(self) -> float:
        return float(self.y_nodes[1] - self.y_nodes[0])

    @property
    def shape(self):
        return (self.t_nodes.size, self.y_nodes.size, self.ybar_nodes.size)

    @cached_property
    def _t_slope(self) -> _Slope:
        return _Slope.on(self.t_nodes)

    @cached_property
    def _y_slope(self) -> _Slope:
        return _Slope.on(self.y_nodes)

    def terminal_mean_sd(self, t, y, params: ModelParams):
        """Mean and sd of the terminal preference state seen from (t, y)."""
        tau = params.T - np.asarray(t, dtype=float)
        return (
            np.asarray(y, dtype=float) + params.mu_Y * tau,
            params.sigma_Y * np.sqrt(tau),
        )


def default_grid(
    params: ModelParams,
    n_t_steps: int = 400,
    n_y: int = 241,
    n_ybar: int = 21,
    n_gh: int = 21,
    ybar_pad_sd: float = 5.0,
    probe_y=None,
    eps_T: float | None = None,
) -> GridSpec:
    """Build the default solve grid for a parameter set.

    The slice domain for terminal states covers the conditional terminal
    mean of every requested probe state (``probe_y``, defaulting to just
    y0) padded by ``ybar_pad_sd`` standard deviations, so the mapped
    quadrature nodes of all probe evaluations fall inside the solved
    slices.  The y-domain then covers every slice's bridge tube (its band
    of BAND_SD conditional deviations around the bridge line, at all
    times): the marched windows must be interior to the grid, otherwise a
    truncated tube would put a boundary row in the singular near-terminal
    pin zone.  ``n_y`` sets the resolution as nodes per 12 terminal
    standard deviations; the node count scales up with the domain so the
    spacing never coarsens below that reference.

    ``ybar_pad_sd`` must be at least 3, and a crude estimate of the steepest
    slice's |ln h| (worst-case slope times tube width plus the reaction
    over the horizon, at the lowest slice's constant-policy fraction) at
    most 500, inside float range (H_MAX is e^690).  Otherwise DomainError
    is raised before any grid is built, naming the estimate and the pad.
    """
    if not ybar_pad_sd >= 3.0:
        raise DomainError(f"ybar_pad_sd must be >= 3.0, got {ybar_pad_sd!r}")
    if eps_T is None:
        eps_T = 1e-3 * params.T
    sT = params.sigma_Y * np.sqrt(params.T)
    drift = params.mu_Y * params.T

    probes = [params.y0] if probe_y is None else [float(v) for v in np.atleast_1d(probe_y)]

    yb_lo = min(probes) + drift - ybar_pad_sd * sT
    yb_hi = max(probes) + drift + ybar_pad_sd * sT
    merton = abs(params.mu_S - params.r) / params.sigma_S**2
    pi_est = min(merton / ((1.0 - params.rho**2) * np.exp(yb_lo) + params.rho**2 + 1e-12),
                 4.0 * merton)
    slope = pi_est * abs(params.rho) * (params.sigma_S / params.sigma_Y) * (BAND_SD + 1.0) * sT
    growth = (abs(params.r) + pi_est * abs(params.mu_S - params.r)
              + 0.5 * pi_est**2 * params.sigma_S**2) * params.T
    budget = np.exp(max(abs(yb_lo), abs(yb_hi))) * (slope + growth)
    if not budget <= 500.0:
        raise DomainError(
            f"default_grid: the log-factor budget estimate {budget:.4g} exceeds 500 at "
            f"ybar_pad_sd = {float(ybar_pad_sd)!r}; a smaller pad or nearer probes may fit")

    ybar_nodes = np.linspace(yb_lo, yb_hi, n_ybar)
    # gamma = 1 is excluded: nudge any slice that lands on ybar = 0.
    hit = np.abs(ybar_nodes) <= EPS_GAMMA
    ybar_nodes[hit] = 2.0 * EPS_GAMMA

    tube_pad = (BAND_SD + 0.5) * sT
    y_lo = min(yb_lo - max(0.0, drift) - tube_pad, min(probes) - sT)
    y_hi = max(yb_hi - min(0.0, drift) + tube_pad, max(probes) + sT)
    dy_target = 12.0 * sT / (n_y - 1)
    n_y_eff = max(n_y, int(np.ceil((y_hi - y_lo) / dy_target)) + 1)
    y_nodes = np.linspace(y_lo, y_hi, n_y_eff)

    xi, w = np.polynomial.hermite.hermgauss(n_gh)
    return GridSpec(
        T=params.T,
        eps_T=float(eps_T),
        t_nodes=np.linspace(0.0, params.T - eps_T, n_t_steps + 1),
        y_nodes=y_nodes,
        ybar_nodes=ybar_nodes,
        gh_nodes=xi,
        ybar_weights=w / np.sqrt(np.pi),
    )


def coefficients(t, y, ybar, pi_value, params: ModelParams):
    """Coefficient functions (P, Q, R) of the continuation-factor equation.

        P = (r + pi (mu_S - r + rho (sigma_S/sigma_Y) ((ybar - y)/(T - t) - mu_Y))
             - pi^2 sigma_S^2 gamma / 2) (1 - gamma)
        Q = (ybar - y)/(T - t) + rho pi sigma_S sigma_Y (1 - gamma)
        R = sigma_Y^2 / 2

    with gamma = exp(ybar).  Broadcasts over array arguments; rejects t = T,
    where the bridge pull is singular.
    """
    P, Q = _policy_terms(
        np.asarray(pi_value, dtype=float),
        _bridge_terms(np.asarray(t, dtype=float), np.asarray(y, dtype=float),
                      np.asarray(ybar, dtype=float), params),
        params,
    )
    R = 0.5 * params.sigma_Y**2
    if P.ndim == 0:
        return float(P), float(Q), R
    return P, Q, np.full_like(P, R)


def _bridge_terms(t, y, ybar, params: ModelParams):
    """Policy-free part of the coefficients: (gamma, 1 - gamma, pull, bracket).

    pull = (ybar - y)/(T - t) is the bridge drift and bracket =
    mu_S - r + rho (sigma_S/sigma_Y)(pull - mu_Y) the factor the fraction
    multiplies in P.
    """
    tau = params.T - t
    if np.any(tau <= 0):
        raise DegenerateTimeError("coefficients are singular at t = T")
    gamma = np.exp(ybar)
    pull = (ybar - y) / tau
    bracket = (params.mu_S - params.r
               + params.rho * (params.sigma_S / params.sigma_Y) * (pull - params.mu_Y))
    return gamma, 1.0 - gamma, pull, bracket


def _policy_terms(pi_value, bridge, params: ModelParams):
    """(P, Q) of coefficients from its bridge terms and the fraction."""
    gamma, one_minus, pull, bracket = bridge
    P = (
        params.r
        + pi_value * bracket
        - 0.5 * pi_value**2 * params.sigma_S**2 * gamma
    ) * one_minus
    Q = pull + params.rho * pi_value * params.sigma_S * params.sigma_Y * one_minus
    return P, Q


def _locate(nodes: np.ndarray, x, clip: bool):
    """Bracketing index and linear weight of x in sorted nodes.

    The index is the last node at or below x, kept in [0, n - 2], exactly
    as searchsorted(side="right") gives it.  It is guessed from the mean
    node spacing and checked with the two gathers the weight needs anyway;
    the points the guess misses (those within rounding of a node on a
    uniform grid, most points on a non-uniform one) are bracketed by
    searchsorted.
    """
    x = np.asarray(x, dtype=float)
    span = nodes[-1] - nodes[0]
    slack = 1e-12 * max(abs(span), 1.0)
    if not clip and (np.any(x < nodes[0] - slack) or np.any(x > nodes[-1] + slack)):
        raise OutOfGridError(
            f"point(s) outside grid hull [{nodes[0]!r}, {nodes[-1]!r}]"
        )
    xc = np.clip(x, nodes[0], nodes[-1])
    top = nodes.size - 2
    # fmin sends a NaN guess to the last interval, where searchsorted puts NaN.
    lo = np.asarray(np.fmin(np.floor((xc - nodes[0]) * ((top + 1) / span)), top),
                    dtype=np.intp)
    left, right = nodes[lo], nodes[lo + 1]
    miss = (xc < left) | ((xc >= right) & (lo < top))
    if np.any(miss):
        lo[miss] = np.clip(np.searchsorted(nodes, xc[miss], side="right"), 1, top + 1) - 1
        left, right = nodes[lo], nodes[lo + 1]
    w = np.clip((xc - left) / (right - left), 0.0, 1.0)
    return lo[()], w


def bilinear_interp(t_nodes, y_nodes, values, t, y, clip=False):
    """Bilinear interpolation of values[t, y, ...] at (t, y) points.

    ``t`` and ``y`` broadcast together; trailing dimensions of ``values``
    ride along.  Points outside the hull raise OutOfGridError unless
    ``clip`` is set, in which case they are clamped to the boundary.
    """
    ti, tw = _locate(t_nodes, t, clip)
    yi, yw = _locate(y_nodes, y, clip)
    if np.ndim(tw) == 0:
        # One time: gather from the two bracketing rows.
        below, above = values[ti], values[ti + 1]
        if values.ndim > 2:
            yw = np.asarray(yw)[..., None]
        v00, v01 = below[yi], below[yi + 1]
        v10, v11 = above[yi], above[yi + 1]
    else:
        ti, yi, tw, yw = np.broadcast_arrays(ti, yi, tw, yw)
        if values.ndim > 2:
            tw = tw[..., None]
            yw = yw[..., None]
        v00 = values[ti, yi]
        v01 = values[ti, yi + 1]
        v10 = values[ti + 1, yi]
        v11 = values[ti + 1, yi + 1]
    lo = v00 * (1.0 - yw) + v01 * yw
    hi = v10 * (1.0 - yw) + v11 * yw
    return lo * (1.0 - tw) + hi * tw


@dataclass
class HSurface:
    """Continuation factors on the (t, y, ybar) grid.

    ``values[k, i, j]`` is the factor at time t_nodes[k], state y_nodes[i],
    for the slice pinned to ybar_nodes[j].  All values are strictly
    positive; interpolation is bilinear in (t, y) within a slice and linear
    in log h across slices.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise DomainError(
                f"values shape {v.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            bad = np.argwhere(~(np.isfinite(v) & (v > 0)))[0]
            raise PositivityError(
                "continuation factor must be finite and strictly positive",
                t=self.grid.t_nodes[bad[0]],
                y=self.grid.y_nodes[bad[1]],
                ybar=self.grid.ybar_nodes[bad[2]],
            )
        self.values = v

    def interp(self, t, y, clip=False):
        """All-slice values at (t, y): shape broadcast(t, y) + (n_ybar,)."""
        return bilinear_interp(
            self.grid.t_nodes, self.grid.y_nodes, self.values, t, y, clip=clip
        )

    def interp_at(self, t, y, ybar, clip=False):
        """Value at (t, y, ybar), log-linear between the bracketing slices."""
        slices = self.interp(t, y, clip=clip)
        ji, jw = _locate(self.grid.ybar_nodes, ybar, clip=True)
        lo = np.log(slices[..., ji])
        hi = np.log(slices[..., ji + 1])
        out = np.exp(lo * (1.0 - jw) + hi * jw)
        return out if np.ndim(out) else float(out)


def policy_values(policy, t_nodes, y_nodes):
    """Evaluate a policy specification on the tensor grid -> (n_t, n_y).

    A 2-d array is taken as the grid values themselves (not copied); any
    other specification goes through model.eval_policy.
    """
    shape = (len(t_nodes), len(y_nodes))
    if np.ndim(policy) == 2:
        if np.shape(policy) != shape:
            raise DomainError(
                f"policy array must have shape {shape}, got {np.shape(policy)}"
            )
        return np.asarray(policy, dtype=float)
    return eval_policy(policy, t_nodes[:, None], y_nodes[None, :])


@dataclass(frozen=True)
class _Slope:
    """numpy.gradient's first-order stencil on fixed nodes, computed once.

    On nodes whose spacings are not all equal, the slope at interior node i
    is a f[i-1] + b f[i] + c f[i+1] (coefficients indexed i - 1); on exactly
    equal spacings numpy takes (f[i+1] - f[i-1]) / (2 dx) instead, and then
    ``a`` and ``b`` are None and ``c`` is 2 dx.  ``d0``/``dn`` are the edge
    spacings of the one-sided end slopes.  Every expression is numpy's own,
    so the slopes equal np.gradient's bit for bit.
    """

    a: np.ndarray | None
    b: np.ndarray | None
    c: np.ndarray | float
    d0: float
    dn: float

    @classmethod
    def on(cls, nodes):
        dx = np.diff(nodes)
        if np.all(dx == dx[0]):
            return cls(None, None, 2.0 * dx[0], dx[0], dx[0])
        d1, d2 = dx[:-1], dx[1:]
        return cls(-d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2),
                   d1 / (d2 * (d1 + d2)), dx[0], dx[-1])

    def interior(self, f, axis, at=slice(None)):
        """Slopes of 2-d ``f`` along ``axis`` at its inner positions.

        ``at`` selects the coefficients, when ``f`` holds only the nodes
        from at.start to at.stop + 1 along ``axis``.
        """
        if axis == 0:
            lo, mid, hi = f[:-2], f[1:-1], f[2:]
        else:
            lo, mid, hi = f[:, :-2], f[:, 1:-1], f[:, 2:]
        if self.a is None:
            return (hi - lo) / self.c
        a, b, c = self.a[at], self.b[at], self.c[at]
        if axis == 0:
            a, b, c = a[:, None], b[:, None], c[:, None]
        return a * lo + b * mid + c * hi

    def full(self, f):
        """np.gradient(f, nodes, axis=1) of a 2-d ``f``."""
        out = np.empty_like(f)
        out[:, 1:-1] = self.interior(f, axis=1)
        out[:, 0] = (f[:, 1] - f[:, 0]) / self.d0
        out[:, -1] = (f[:, -1] - f[:, -2]) / self.dn
        return out


def _step_matrix(Q, dt, dy, R, first, last):
    """Tridiagonal rows of (I - dt L) for L = Q d/dy + R d2/dy2.

    ``Q`` holds one or more windows laid end to end; ``first`` and ``last``
    index each window's boundary rows.  Returns (lower, diag, upper) with
    lower[i] multiplying h[i-1] in row i and upper[i] multiplying h[i+1].
    Interior rows use central differences where the cell Peclet number
    allows, first-order upwinding otherwise; boundary rows carry no
    diffusion (h_yy = 0) and only an inflow-sided transport term, with
    lower[first] = upper[last] = 0, so the windows do not couple.
    """
    a = dt * R / dy**2
    # The central stencil everywhere, then the upwind rows over it.
    diag = np.full_like(Q, 1.0 + 2.0 * a)
    upper = -(a + dt * Q / (2.0 * dy))
    lower = -(a - dt * Q / (2.0 * dy))
    upwind = np.flatnonzero(np.abs(Q) * dy > 2.0 * R)
    if upwind.size:
        q = Q[upwind]
        flux = dt * np.abs(q) / dy
        diag[upwind] = 1.0 + 2.0 * a + flux
        # The upwind rows take all of the transport on one side: the other
        # side keeps the diffusion a alone.
        up = q > 0
        upper[upwind] = np.where(up, -(a + flux), -a)
        lower[upwind] = np.where(up, -a, -(a + flux))

    # Bottom rows: transport uses the interior (forward) difference only
    # when the scheme pulls information from above (Q > 0); otherwise the
    # characteristic enters from outside and the gradient is zeroed.
    q0 = Q[first]
    diag[first] = np.where(q0 > 0, 1.0 + dt * q0 / dy, 1.0)
    upper[first] = np.where(q0 > 0, -dt * q0 / dy, 0.0)
    lower[first] = 0.0

    qn = Q[last]
    diag[last] = np.where(qn < 0, 1.0 - dt * qn / dy, 1.0)
    lower[last] = np.where(qn < 0, dt * qn / dy, 0.0)
    upper[last] = 0.0
    return lower, diag, upper


def solve_banded(lower, diag, upper, rhs):
    """Solve a tridiagonal system with LAPACK gtsv, overwriting every input.

    ``lower`` and ``upper`` hold the n - 1 entries below and above the
    diagonal.  This is the gtsv call scipy.linalg.solve_banded((1, 1), ...)
    makes, so the solution is the same bit for bit, and its checks are
    kept: a non-finite input raises ValueError and a zero pivot (a
    singular matrix) LinAlgError.
    """
    if not all(np.isfinite(v).all() for v in (lower, diag, upper, rhs)):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)[3:]
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix (gtsv info = {info})")
    return x


_W_MAX = np.log(H_MAX)

# Extra nodes kept on each side of a slice's bridge tube when marching.
_TUBE_MARGIN = 4


def _slice_windows(grid: GridSpec, params: ModelParams, t):
    """Per-slice y-index marching bands around each bridge line at time t.

    Slice j's solution is only meaningful (and only read, after the capped
    quadrature) within BAND_SD conditional standard deviations of its
    bridge line; only that band, plus a small margin, is marched at each
    step, and the log factor is extended linearly outside it.  Restricting
    the march this way keeps the log factor moderate: inside its band the
    policy is calibrated to risk aversions commensurate with the slice's
    own, and the singular near-terminal pull is only ever evaluated within
    a few conditional deviations of the pin, so the reaction term never
    accumulates the hundreds of e-folds the far (y, ybar) corners would
    produce.

    Returns (lo, hi, band_lo, band_hi) of shape (n_ybar,): the marched
    index ranges (band plus margin rows buffering the closure) and the band
    proper, where the solution is range-checked.
    """
    y = grid.y_nodes
    tau = params.T - t
    half = BAND_SD * params.sigma_Y * np.sqrt(tau)
    centers = grid.ybar_nodes - params.mu_Y * tau
    band_lo = np.searchsorted(y, centers - half, side="left")
    band_hi = np.searchsorted(y, centers + half, side="right")
    lo = np.minimum(np.maximum(band_lo - _TUBE_MARGIN, 0), y.size - _MIN_WINDOW)
    hi = np.minimum(np.maximum(band_hi + _TUBE_MARGIN, _MIN_WINDOW), y.size)
    hi = np.maximum(hi, lo + _MIN_WINDOW)
    lo = np.minimum(lo, hi - _MIN_WINDOW)
    band_lo = np.minimum(np.maximum(band_lo, lo), hi)
    band_hi = np.minimum(np.maximum(band_hi, lo), hi)
    return lo, hi, band_lo, band_hi


@dataclass(frozen=True)
class _Level:
    """Policy-free data of one backward step, shared by its map steps.

    ``seg``/``rows`` map each entry of the laid-out windows to its slice
    and y-row, ``first``/``last`` index each window's boundary rows; ``w``
    is the previous level gathered there and ``w_slope`` its linearized
    squared-gradient term.  ``in_band`` marks the entries inside each
    slice's band, where the range is checked; ``below``, ``off_lo`` and
    ``off_hi`` (n_ybar, n_y) drive the linear extension outside the windows.
    """

    k: int
    dt: float
    R: float
    seg: np.ndarray
    rows: np.ndarray
    first: np.ndarray
    last: np.ndarray
    w: np.ndarray
    w_slope: np.ndarray
    bridge: tuple
    in_band: np.ndarray
    below: np.ndarray
    off_lo: np.ndarray
    off_hi: np.ndarray


def _prepare_level(level, k, grid: GridSpec, params: ModelParams) -> _Level:
    """Everything of the step from t[k+1] to t[k] that does not read the policy.

    ``level`` holds every slice's tube-extended w = ln h at t[k+1], shape
    (n_ybar, n_y).  Run once per time level; _march_level then takes one
    policy row at a time.
    """
    t, y, yb = grid.t_nodes, grid.y_nodes, grid.ybar_nodes
    R = 0.5 * params.sigma_Y**2
    lo, hi, band_lo, band_hi = _slice_windows(grid, params, t[k])
    width = hi - lo
    last = np.cumsum(width) - 1
    first = last - width + 1
    seg = np.repeat(np.arange(yb.size), width)
    rows = np.arange(last[-1] + 1) - np.repeat(first - lo, width)
    with np.errstate(over="ignore", under="ignore"):
        w = level[seg, rows]
        w_slope = R * ((w[2:] - w[:-2]) / (2.0 * grid.dy))
        bridge = _bridge_terms(t[k], y[rows], yb[seg], params)
    return _Level(
        k=k, dt=t[k + 1] - t[k], R=R, seg=seg, rows=rows, first=first, last=last,
        w=w, w_slope=w_slope, bridge=bridge,
        in_band=(rows >= band_lo[seg]) & (rows < band_hi[seg]),
        below=np.arange(y.size) < lo[:, None],
        off_lo=y - y[lo, None],
        off_hi=y - y[hi - 1, None],
    )


def _march_level(prep: _Level, pi_row, grid: GridSpec, params: ModelParams):
    """One backward step of the log factor w = ln h, all slices at once.

    ``prep`` is the level's policy-free data (_prepare_level) and
    ``pi_row`` the policy at t[k].  Returns the tube-extended level at t[k],
    shape (n_ybar, n_y).  In log variables the equation reads
        w_t + Q w_y + R w_yy + R (w_y)^2 + P = 0,
    and the factor's near-exponential y-profiles become near-linear, where
    finite differences are exact: the scheme has no cosh inflation and the
    upwind numerical diffusion multiplies w_yy ~ 0.  The squared gradient is
    linearized around the previous level, R (w_y)^2 ~ (R w_y_old) w_y_new,
    and folded into the implicit transport (an explicit source is unstable
    exactly where the slope is large); the reaction P integrates exactly.
    At the boundary rows the linear-in-h closure (h_yy = 0) makes both
    diffusion-born terms cancel, leaving pure transport with the plain Q.

    The slices' windows are laid end to end and solved as one
    block-diagonal tridiagonal system by one direct LAPACK gtsv call
    (solve_banded), with no band matrix assembled.  Each block's first row
    has no lower and its last row no upper entry, so gtsv meets a zero
    multiplier and no row swap at every block edge and returns each block
    exactly as a separate solve would.  A non-finite policy or coefficient
    raises ValueError there, before the solve.
    """
    y, yb, dy = grid.y_nodes, grid.ybar_nodes, grid.dy
    seg, rows, first, last = prep.seg, prep.rows, prep.first, prep.last

    with np.errstate(over="ignore", under="ignore"):
        P, Q = _policy_terms(pi_row[rows], prep.bridge, params)
        q_eff = Q.copy()
        q_eff[1:-1] += prep.w_slope
        q_eff[first] = Q[first]
        q_eff[last] = Q[last]
        lower, diag, upper = _step_matrix(q_eff, prep.dt, dy, prep.R, first, last)
        w = solve_banded(lower[1:], diag, upper[:-1], prep.w + prep.dt * P)

    bad = ~(np.abs(w) < _W_MAX) & prep.in_band
    if bad.any():
        j = seg[np.argmax(bad)]
        band = np.flatnonzero(prep.in_band & (seg == j))
        raise PositivityError(
            "continuation factor left (H_MIN, H_MAX) inside "
            "its bridge tube during the march",
            t=grid.t_nodes[prep.k],
            y=y[rows[band[np.argmax(np.abs(w[band]))]]],
            ybar=yb[j],
        )

    w = np.where(np.isnan(w), 0.0, np.clip(w, -_W_MAX, _W_MAX))
    # Linear extension of w outside each window.  Slopes come from strictly
    # interior node pairs (the outermost marched row carries the
    # transport-only closure and drifts slightly off the interior profile).
    slope_lo = (w[first + 2] - w[first + 1]) / dy
    slope_hi = (w[last - 1] - w[last - 2]) / dy
    new = np.where(
        prep.below,
        w[first, None] + slope_lo[:, None] * prep.off_lo,
        w[last, None] + slope_hi[:, None] * prep.off_hi,
    )
    new[seg, rows] = w
    return np.clip(new, -_W_MAX, _W_MAX, out=new)


def _march(grid: GridSpec, advance) -> HSurface:
    """Backward march from w = 0 at t = T - eps_T down to t_nodes[0].

    ``advance(level, k)`` returns the tube-extended log level at t[k] from
    the one at t[k+1], shape (n_ybar, n_y).
    """
    n_t, n_y, n_s = grid.shape
    values = np.empty((n_s, n_t, n_y))
    values[:, n_t - 1] = 1.0
    level = np.zeros((n_s, n_y))
    for k in range(n_t - 2, -1, -1):
        level = advance(level, k)
        np.exp(level, out=values[:, k])
    return HSurface(grid=grid, values=np.moveaxis(values, 0, 2))


def solve_h(policy, grid: GridSpec, params: ModelParams) -> HSurface:
    """March every ybar slice backward from h = 1 at t = T - eps_T.

    The policy enters only through the coefficients; slices do not couple
    inside this routine, so solving any subset reproduces the same numbers
    bit for bit.  Each time level is prepared once and stepped by one
    block-diagonal solve over all slices' windows (see _prepare_level and
    _march_level), in log space; the returned surface holds the factor
    itself, clamped into floating range outside the bridge-compatible band
    and verified finite inside it.  A factor that
    leaves that range inside a band raises PositivityError at the first
    such level in march order (latest t first), the lowest failing slice
    there, and the node of largest |ln h| in its band.
    """
    PI = policy_values(policy, grid.t_nodes, grid.y_nodes)
    return _march(grid, lambda level, k: _march_level(
        _prepare_level(level, k, grid, params), PI[k], grid, params))


def _terminal_layer_cut(grid: GridSpec, rho: float) -> int:
    """First time index inside the analytically closed terminal window.

    The marched elasticity needs a few multiples of the elapsed backward
    time to relax to its layer-free profile (the terminal condition is flat
    while the singular transport builds the log-slope), and within that
    window the discrete policy<->factor feedback is locally expansive with
    gain scaling like rho**2/(T-t).  Inside the window the hedging demand is
    closed analytically instead (see equilibrium._layer_hedging), and the
    residual is not measured there; the window lies inside the terminal
    layer, far later than any probe time.  At rho**2 in {0, 1} the solve
    closes every level instead (equilibrium._closed_from).
    """
    frac = max(0.02, 0.1 * rho * rho)
    return int(np.searchsorted(grid.t_nodes, grid.T - frac * grid.T))


@dataclass(frozen=True)
class ResidualNorms:
    """Relative residual of the factor equation on its bridge-compatible band.

    The band holds the interior nodes at levels before the terminal window
    (_terminal_layer_cut) whose terminal state lies within QUAD_SD
    conditional sd of the node's conditional mean.  ``max_rel_band`` and
    ``rms_rel_band`` are norms of the residual divided node-wise by the
    factor, the scale-free measure (the factor spans many orders of
    magnitude across slices); a NaN band node makes both NaN.  ``worst`` is
    the (t, y, ybar) of the first band node of largest |rel| in (t, y, ybar)
    order, a NaN node counting as largest.
    """

    max_rel_band: float
    rms_rel_band: float
    worst: tuple


# Core time rows per block of the streamed residual: a block's dozen or
# so temporaries on 465-node rows stay in a core's cache.
_RESIDUAL_BLOCK = 24


def residual(h: HSurface, policy, grid: GridSpec, params: ModelParams, coeff_fn=None) -> ResidualNorms:
    """Relative residual (h_t + Q h_y + R h_yy + P h) / h on the band of ResidualNorms.

    Outside the band (the far corners, where the factor is a linear
    log-extension, and the terminal window) pointwise central differences
    are not meaningful, and nothing is computed there.  Streamed one
    terminal-state slice and one block of _RESIDUAL_BLOCK time levels at a
    time, over the block's band hull: the rows from the lowest to the
    highest band node of any of its levels.  The hull, read with a one-node
    halo on both axes, is differenced with np.gradient's stencils
    (precomputed per grid) and weighed against its coefficients, and its
    nodes outside their level's band are dropped.  Every band node's
    residual is the one a whole-array evaluation gives; only the rms sum is
    accumulated in another order.  Raises DomainError when the band holds
    no node.

    ``coeff_fn`` may override the coefficient functions (signature matching
    :func:`coefficients`; it is called once per slice and block, with a
    scalar ybar and the hull's nodes); the default uses the model
    coefficients with the supplied policy.
    """
    t = grid.t_nodes
    y = grid.y_nodes
    yb = grid.ybar_nodes
    PI = policy_values(policy, t, y)
    fn = coefficients if coeff_fn is None else coeff_fn
    t_slope, y_slope = grid._t_slope, grid._y_slope
    end = min(_terminal_layer_cut(grid, params.rho), t.size - 1)
    tau = (params.T - t)[:, None]
    width = QUAD_SD * params.sigma_Y * np.sqrt(tau)

    worst_at, band_max = [], []
    sq_band, n_band = 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(yb.size):
            for k0 in range(1, end, _RESIDUAL_BLOCK):
                k1 = min(k0 + _RESIDUAL_BLOCK, end)
                dev = yb[j] - y[None, 1:-1] - params.mu_Y * tau[k0:k1]
                band = np.abs(dev) <= width[k0:k1]
                hull = np.flatnonzero(band.any(axis=0))
                if not hull.size:
                    continue
                lo, hi = hull[0] + 1, hull[-1] + 2    # the hull's node rows
                band = band[:, hull[0]:hull[-1] + 1]
                v = np.ascontiguousarray(h.values[k0 - 1:k1 + 1, lo - 1:hi + 1, j])
                mid = v[1:-1, 1:-1]
                ht = t_slope.interior(v[:, 1:-1], axis=0, at=slice(k0 - 1, k1 - 1))
                hy = y_slope.interior(v[1:-1], axis=1, at=slice(lo - 1, hi - 1))
                hyy = (v[1:-1, 2:] - 2.0 * mid + v[1:-1, :-2]) / grid.dy**2

                P, Q, R = fn(t[k0:k1, None], y[None, lo:hi], yb[j], PI[k0:k1, lo:hi], params)
                rel = np.where(band, np.abs((ht + Q * hy + R * hyy + P * mid) / mid), -np.inf)
                k, i = np.unravel_index(np.argmax(rel), rel.shape)
                worst_at.append((k0 + int(k), lo + int(i), j))
                band_max.append(rel[k, i])
                sq_band += np.sum(rel[band]**2)
                n_band += int(np.count_nonzero(band))

        if not n_band:
            raise DomainError("the residual band holds no interior node before the "
                              "terminal window")
        # np.argmax over the blocks' first maxima in (t, y, ybar) order
        # picks the first largest band node, a NaN one first.
        order = sorted(range(len(worst_at)), key=worst_at.__getitem__)
        top = order[int(np.argmax(np.array(band_max)[order]))]
        k, i, j = worst_at[top]
        return ResidualNorms(
            max_rel_band=float(band_max[top]),
            rms_rel_band=float(np.sqrt(sq_band / n_band)),
            worst=(float(t[k]), float(y[i]), float(yb[j])),
        )
