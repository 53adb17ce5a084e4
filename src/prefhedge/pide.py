"""Backward finite-difference solver for the family of continuation factors.

For each terminal preference state ybar, the continuation factor h(t, y)
solves a linear parabolic equation

    h_t + Q(t, y) h_y + R h_yy + P(t, y) h = 0,    h(T, y) = 1,

whose coefficients couple the Brownian-bridge pull toward ybar with the
candidate investment policy.  Slices are independent given the policy; the
policy feedback happens one level up, in the equilibrium sweep, which
settles each level's policy before the next step.

One kernel advances every slice by one time level, in three phases.
_prepare_level does the policy-free work once per level: each slice is
marched only in a window around its bridge line, the windows are laid end
to end, and the gather of the previous level, its slope term and the
bridge part of the coefficients are taken there.  _march_level then applies
one policy row: the policy part of the coefficients and one block-diagonal
tridiagonal solve that steps every window.  _extend makes the whole level
of the windows.  solve_h runs one map step per level with a fixed policy;
the equilibrium sweep prepares each level once, runs as many map steps as
its policy fixed point needs, each read off the windows (_window_slopes),
and extends only the accepted one.  A marched level is final, so _march
hands each one on as it is made, to a consumer such as LevelResidual or
the archive writer, and stores none: no solve holds the whole surface.

Numerical scheme: implicit (backward Euler) time stepping of the
convection-diffusion part with central differences in y, switching to
first-order upwinding wherever the cell Peclet number |Q| dy / (2R) exceeds
one (the bridge drift blows up near the terminal time and the y-grid edges,
and central differencing would oscillate there).  Every y-slope the solver
reads is the one central difference (f[i+1] - f[i-1]) / (2 dy) on the
uniform y spacing: the march's squared-gradient term, the sweep's
elasticities (_window_slopes) and the residual's h_y.  The reaction term
P h is advanced by an exact exponential factor in a split sub-step, which
keeps the solution strictly positive no matter how large P grows in far
corners of the (y, ybar) grid.  The continuous coefficients are singular
at t = T, so the march starts from t = T - eps_T with h = 1 there.  That
flat start is not the exact one: for a constant fraction pi the factor is
exactly
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

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DegenerateTimeError, DomainError, OutOfGridError, PositivityError
from .model import EPS_GAMMA, ModelParams, eval_policy

# Abort threshold for the continuation factor and its reciprocal inside a
# slice's bridge tube (values beyond it there mean the solve left the
# representable regime: at extreme correlations the factor genuinely spans
# several hundred e-folds across a tube); outside the tube the log factor is
# extended linearly rather than solved.
H_MAX = float(np.exp(690.0))

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
        y_nodes: strictly increasing, uniformly spaced preference states
            (to 1e-10 relative).  The spacing dy carries every surface read
            (bilinear_interp, at one time, places y by arithmetic on it) and
            every y-derivative, a central difference over 2 dy.
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
    spacing never coarsens below that reference.  The time grid ends at
    T - eps_T, eps_T = 1e-3 T.

    ``ybar_pad_sd`` must be at least 3, and a crude estimate of the steepest
    slice's |ln h| (worst-case slope times tube width plus the reaction
    over the horizon, at the lowest slice's constant-policy fraction) at
    most 500, inside float range (H_MAX is e^690).  Otherwise DomainError
    is raised before any grid is built, naming the estimate and the pad.
    So is an ``n_y`` that lays out fewer y nodes than a marched window
    needs (_MIN_WINDOW), naming the least n_y that lays out enough here.
    """
    if not ybar_pad_sd >= 3.0:
        raise DomainError(f"ybar_pad_sd must be >= 3.0, got {ybar_pad_sd!r}")
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

    def y_count(n):
        return max(n, int(np.ceil((y_hi - y_lo) / (12.0 * sT / (n - 1)))) + 1)

    n_y_eff = y_count(n_y)
    if n_y_eff < _MIN_WINDOW:
        least = next(n for n in range(n_y + 1, _MIN_WINDOW + 1) if y_count(n) >= _MIN_WINDOW)
        raise DomainError(
            f"default_grid: grid.n_y = {n_y} lays out {n_y_eff} y nodes here, fewer than "
            f"the {_MIN_WINDOW} a marched window needs; grid.n_y = {least} lays out enough")
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


def _check_hull(nodes: np.ndarray, x):
    """Raise OutOfGridError if any x lies outside [nodes[0], nodes[-1]].

    The hull is widened by a rounding slack of 1e-12 of its span.
    """
    slack = 1e-12 * max(abs(nodes[-1] - nodes[0]), 1.0)
    if np.any(x < nodes[0] - slack) or np.any(x > nodes[-1] + slack):
        raise OutOfGridError(
            f"point(s) outside grid hull [{nodes[0]!r}, {nodes[-1]!r}]"
        )


def _locate(nodes: np.ndarray, x, clip: bool):
    """Bracketing index and linear weight of x in sorted nodes.

    The index is the last node at or below x, kept in [0, n - 2], exactly
    as searchsorted(side="right") gives it.  It is guessed from the mean
    node spacing and checked with the two gathers the weight needs anyway;
    the points the guess misses (those within rounding of a node on a
    uniform grid, most points on a non-uniform one) are bracketed by
    searchsorted.  A scalar x is bracketed by searchsorted alone, in
    Python floats, which skips numpy's per-call cost on 0-d arrays.
    """
    x = np.asarray(x, dtype=float)
    if not clip:
        _check_hull(nodes, x)
    top = nodes.size - 2
    if x.ndim == 0:
        # NaN passes max and min, and searchsorted puts it last.
        xc = min(max(float(x), nodes[0]), nodes[-1])
        lo = min(int(np.searchsorted(nodes, xc, side="right")), top + 1) - 1
        left, right = nodes[lo], nodes[lo + 1]
        return np.intp(lo), np.float64((xc - left) / (right - left))
    span = nodes[-1] - nodes[0]
    xc = np.minimum(np.maximum(x, nodes[0]), nodes[-1])
    # fmin sends a NaN guess to the last interval, where searchsorted puts NaN.
    lo = np.asarray(np.fmin(np.floor((xc - nodes[0]) * ((top + 1) / span)), top),
                    dtype=np.intp)
    left, right = nodes[lo], nodes[lo + 1]
    miss = (xc < left) | ((xc >= right) & (lo < top))
    if np.any(miss):
        lo[miss] = np.clip(np.searchsorted(nodes, xc[miss], side="right"), 1, top + 1) - 1
        left, right = nodes[lo], nodes[lo + 1]
    w = np.minimum(np.maximum((xc - left) / (right - left), 0.0), 1.0)
    return lo, w


def bilinear_interp(t_nodes, y_nodes, values, t, y, clip=False):
    """Bilinear interpolation of values[t, y, ...] at one time t and points y.

    The result has shape y.shape + values.shape[2:]: trailing dimensions
    of ``values`` ride along.  The two time rows that bracket ``t`` are
    blended once into a row over y, and each y is placed on that row by
    arithmetic on the uniform y spacing (see GridSpec.y_nodes): no bracket
    search, two gathers and a multiply-add per point.  Points outside the
    hull raise OutOfGridError unless ``clip`` is set, in which case they
    are clamped to the boundary.  NaN reads NaN; an array ``t`` raises
    DomainError.
    """
    if np.ndim(t):
        raise DomainError("bilinear_interp reads at one time t, not an array of times")
    k, tw = _locate(t_nodes, t, clip)
    row = values[k] * (1.0 - tw) + values[k + 1] * tw
    y = np.asarray(y, dtype=float)
    if not clip:
        _check_hull(y_nodes, y)
    top = y_nodes.size - 2
    u = np.atleast_1d(y - y_nodes[0])
    u *= (top + 1) / (y_nodes[-1] - y_nodes[0])
    np.maximum(u, 0.0, out=u)
    np.minimum(u, top + 1, out=u)
    # fmin sends NaN to a valid index; its weight stays NaN.  The float
    # index, not the int one, is subtracted: the same numbers, no cast.
    lo = np.trunc(np.fmin(u, top))
    u -= lo
    lo = lo.astype(np.intp)
    out = np.take(row, lo, axis=0)
    step = np.take(row[1:] - row[:-1], lo, axis=0)
    step *= u.reshape(u.shape + (1,) * (row.ndim - 1))
    out += step
    return out.reshape(y.shape + row.shape[1:])


def checked_factor(values, grid: GridSpec, k=None):
    """``values`` if every node is finite and strictly positive, else PositivityError.

    ``values`` is a whole (t, y, ybar) surface, or with ``k`` the (ybar, y)
    level at t_nodes[k].  The error names the (t, y, ybar) of the first bad
    node in C order; NaN counts as bad.
    """
    # NaN fails both comparisons; the masks are built only to name a bad node.
    if not (values.min() > 0 and values.max() < np.inf):
        bad = np.argwhere(~(np.isfinite(values) & (values > 0)))[0]
        k, i, j = bad if k is None else (k, bad[1], bad[0])
        raise PositivityError(
            "continuation factor must be finite and strictly positive",
            t=grid.t_nodes[k], y=grid.y_nodes[i], ybar=grid.ybar_nodes[j],
        )
    return values


def ybar_blend(ybar_nodes, values, ybar):
    """Factor at terminal state(s) ``ybar`` from its values on every slice.

    ``values[..., j]`` is the factor on slice ybar_nodes[j] at one (t, y);
    the blend is linear in log h between the bracketing slices, and ybar
    outside the slices is clamped to the edge slice.
    """
    ji, jw = _locate(ybar_nodes, ybar, clip=True)
    lo = np.log(values[..., ji])
    hi = np.log(values[..., ji + 1])
    out = np.exp(lo * (1.0 - jw) + hi * jw)
    return out if np.ndim(out) else float(out)


@dataclass
class HSurface:
    """Continuation factors on the (t, y, ybar) grid, gathered whole.

    ``values[k, i, j]`` is the factor at time t_nodes[k], state y_nodes[i],
    for the slice pinned to ybar_nodes[j].  All values are strictly
    positive (checked_factor); interpolation is bilinear in (t, y) within a
    slice and linear in log h across slices (ybar_blend).  Reads are
    unclipped: a (t, y) outside the grid's hull raises OutOfGridError.
    The solvers hand their levels on instead of returning one; tests and
    plots gather them (from_levels, persist.read_h_surface).
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise DomainError(
                f"values shape {v.shape} does not match grid {self.grid.shape}"
            )
        self.values = checked_factor(v, self.grid)

    @classmethod
    def from_levels(cls, grid: GridSpec, levels):
        """The surface of ``levels``: (n_ybar, n_y) levels in march order, t_nodes[-1] first.

        Exactly n_t levels must come (ValueError otherwise).
        """
        values = np.empty(grid.shape)
        for k, level in zip(range(grid.t_nodes.size - 1, -1, -1), levels, strict=True):
            values[k] = level.T
        return cls(grid=grid, values=values)

    def interp(self, t, y):
        """All-slice values at one time t and points y: shape y.shape + (n_ybar,)."""
        return bilinear_interp(self.grid.t_nodes, self.grid.y_nodes, self.values, t, y)

    def interp_at(self, t, y, ybar):
        """Value at (t, y, ybar), log-linear between the bracketing slices."""
        return ybar_blend(self.grid.ybar_nodes, self.interp(t, y), ybar)


def policy_values(policy, t_nodes, y_nodes):
    """Evaluate a policy specification on the tensor grid -> (n_t, n_y).

    A 2-d array, such as a PolicySurface's ``pi``, is taken as the grid
    values themselves (not copied); a callable or scalar goes through
    model.eval_policy.
    """
    shape = (len(t_nodes), len(y_nodes))
    if np.ndim(policy) == 2:
        if np.shape(policy) != shape:
            raise DomainError(
                f"policy array must have shape {shape}, got {np.shape(policy)}"
            )
        return np.asarray(policy, dtype=float)
    return eval_policy(policy, t_nodes[:, None], y_nodes[None, :])


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
    and y-row, ``flat`` to its place in the (n_ybar, n_y) level, and
    ``first``/``last`` index each window's boundary rows; ``w`` is the
    previous level gathered there and ``w_slope`` its linearized
    squared-gradient term.  ``in_band`` marks the entries inside each
    slice's band, where the range is checked; ``below``, ``off_lo`` and
    ``off_hi`` (n_ybar, n_y) drive the linear extension outside the windows.
    """

    k: int
    dt: float
    dy: float
    R: float
    seg: np.ndarray
    rows: np.ndarray
    flat: np.ndarray
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
    (n_ybar, n_y) (_extend).  Run once per time level; _march_level then
    takes one policy row at a time.
    """
    t, y, yb = grid.t_nodes, grid.y_nodes, grid.ybar_nodes
    R = 0.5 * params.sigma_Y**2
    lo, hi, band_lo, band_hi = _slice_windows(grid, params, t[k])
    width = hi - lo
    last = np.cumsum(width) - 1
    first = last - width + 1
    seg = np.repeat(np.arange(yb.size), width)
    rows = np.arange(last[-1] + 1) - np.repeat(first - lo, width)
    flat = seg * y.size + rows
    with np.errstate(over="ignore", under="ignore"):
        w = level.ravel()[flat]
        w_slope = R * ((w[2:] - w[:-2]) / (2.0 * grid.dy))
        bridge = _bridge_terms(t[k], y[rows], yb[seg], params)
    return _Level(
        k=k, dt=t[k + 1] - t[k], dy=grid.dy, R=R, seg=seg, rows=rows, flat=flat,
        first=first, last=last, w=w, w_slope=w_slope, bridge=bridge,
        in_band=(rows >= band_lo[seg]) & (rows < band_hi[seg]),
        below=np.arange(y.size) < lo[:, None],
        off_lo=y - y[lo, None],
        off_hi=y - y[hi - 1, None],
    )


def _march_level(prep: _Level, pi_row, grid: GridSpec, params: ModelParams):
    """One backward step of the log factor w = ln h, all slices at once.

    ``prep`` is the level's policy-free data (_prepare_level) and
    ``pi_row`` the policy at t[k].  Returns w at t[k] on the laid-out
    windows, checked and clipped (_extend makes the level of it).  In log
    variables the equation reads
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
            "continuation factor left (1/H_MAX, H_MAX) inside "
            "its bridge tube during the march",
            t=grid.t_nodes[prep.k],
            y=y[rows[band[np.argmax(np.abs(w[band]))]]],
            ybar=yb[j],
        )
    return np.where(np.isnan(w), 0.0, np.clip(w, -_W_MAX, _W_MAX))


def _edge_slopes(prep: _Level, w):
    """Slopes of w's linear extension below and above each window."""
    # Strictly interior node pairs: the outermost marched row carries the
    # transport-only closure and drifts slightly off the interior profile.
    return ((w[prep.first + 2] - w[prep.first + 1]) / prep.dy,
            (w[prep.last - 1] - w[prep.last - 2]) / prep.dy)


def _extend(prep: _Level, w):
    """The (n_ybar, n_y) level of the windows' solution w (_march_level).

    w is scattered through prep.flat and extended linearly beyond each
    window with _edge_slopes, clipped into [-_W_MAX, _W_MAX].
    """
    slope_lo, slope_hi = _edge_slopes(prep, w)
    new = np.where(prep.below, w[prep.first, None] + slope_lo[:, None] * prep.off_lo,
                   w[prep.last, None] + slope_hi[:, None] * prep.off_hi)
    np.clip(new, -_W_MAX, _W_MAX, out=new)
    np.put(new, prep.flat, w)
    return new


def _window_slopes(prep: _Level, grid: GridSpec, r0, r1):
    """d w / d y at rows r0..r1 of every slice, read off the windows.

    Returns a function of the windows' solution w (_march_level), shape
    (r1 - r0 + 1, n_ybar), 2 <= r0 <= r1 <= n_y - 3: the central difference
    (w[i+1] - w[i-1]) / (2 dy) on the level _extend builds, without building
    it.  A window's end rows take _extend's value one node beyond them as
    their outer neighbour, so rows inside a window get the stencil's value
    bit for bit; rows beyond it take the extension's slope, which the
    stencil gives to rounding.
    """
    y, n, first, last = grid.y_nodes, prep.rows.size, prep.first, prep.last
    lo, hi = prep.rows[first], prep.rows[last] + 1
    off_lo = y[np.maximum(lo - 1, 0)] - y[lo]
    off_hi = y[np.minimum(hi, y.size - 1)] - y[hi - 1]
    # Rows below a window read its slope_lo, rows above it its slope_hi.
    r, j = np.arange(r0, r1 + 1)[:, None], np.arange(lo.size)
    src = np.where(r < lo, n + j, np.where(r < hi, first + r - lo, n + lo.size + j))

    def read(w):
        slope_lo, slope_hi = _edge_slopes(prep, w)
        diff = np.empty(n)
        diff[1:-1] = w[2:] - w[:-2]
        diff[first] = w[first + 1] - np.minimum(np.maximum(w[first] + slope_lo * off_lo,
                                                           -_W_MAX), _W_MAX)
        diff[last] = np.minimum(np.maximum(w[last] + slope_hi * off_hi,
                                           -_W_MAX), _W_MAX) - w[last - 1]
        return np.concatenate((diff / (2.0 * grid.dy), slope_lo, slope_hi))[src]

    return read


def _march(grid: GridSpec, advance, pi, take=None):
    """Backward march from w = 0 at t = T - eps_T down to t_nodes[0].

    ``advance(level, k)`` returns the tube-extended log level at t[k] from
    the one at t[k+1], shape (n_ybar, n_y); ``pi`` is the (n_t, n_y)
    policy, whose row k is final once level k is marched.  Each level of
    the factor, exp of the log level, goes to ``take(level, pi[k])`` as it
    is made, in march order: t_nodes[-1] (h = 1) first, t_nodes[0] last.
    Nothing is stored.  Returns the factor at t_nodes[0].
    """
    n_t, n_y, n_s = grid.shape
    level = np.zeros((n_s, n_y))
    h = np.ones((n_s, n_y))
    if take is not None:
        take(h, pi[n_t - 1])
    for k in range(n_t - 2, -1, -1):
        level = advance(level, k)
        h = np.exp(level)
        if take is not None:
            take(h, pi[k])
    return h


def solve_h(policy, grid: GridSpec, params: ModelParams, take=None):
    """March every ybar slice backward from h = 1 at t = T - eps_T.

    The policy enters only through the coefficients; slices do not couple
    inside this routine, so solving any subset reproduces the same numbers
    bit for bit.  Each time level is prepared once and stepped by one
    block-diagonal solve over all slices' windows (see _prepare_level,
    _march_level and _extend), in log space.  Each level of the factor,
    clamped into floating range outside the bridge-compatible band and
    verified finite inside it, goes to ``take(level, pi_row)`` in march
    order (see _march): a (n_ybar, n_y) array and the policy at its time.
    Returns the factor at t_nodes[0], shape (n_ybar, n_y).  A factor that
    leaves that range inside a band raises PositivityError at the first
    such level in march order (latest t first), the lowest failing slice
    there, and the node of largest |ln h| in its band.
    """
    PI = policy_values(policy, grid.t_nodes, grid.y_nodes)

    def advance(level, k):
        prep = _prepare_level(level, k, grid, params)
        return _extend(prep, _march_level(prep, PI[k], grid, params))

    return _march(grid, advance, PI, take)


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


class LevelResidual:
    """The residual of ResidualNorms, taken from the factor's levels as they pass.

    Call ``take(level, pi_row)`` with each (n_ybar, n_y) level of the factor
    and the policy row at its time, in march order (t_nodes[-1] first, as
    _march hands them on), then ``norms()``.  Blocks of _RESIDUAL_BLOCK core
    time levels are evaluated as soon as the level below a block arrives.
    Each level is copied into one window of a block and its two halo levels
    (about 2 MB on the default grid), the only levels held.  For each
    slice the block's band hull is read, with a one-node halo on both axes:
    the rows from the lowest to the highest band node of any of its levels.
    It is differenced centrally, h_t over t[k+1] - t[k-1] and h_y over
    2 dy, weighed against its coefficients, and its nodes outside their
    level's band are dropped.  Each (slice, block) keeps its partial sums
    and its first worst node; norms() adds them up in (slice, block) order,
    so every number equals that of a slice-by-slice pass bit for bit.
    Outside the band (the far corners, where the factor is a linear
    log-extension, and the terminal window) pointwise central differences
    are not meaningful, and nothing is computed there.

    ``coeff_fn`` may override the coefficient functions (signature matching
    :func:`coefficients`; it is called once per slice and block, with a
    scalar ybar and the hull's nodes); the default uses the model
    coefficients with the policy rows taken.
    """

    def __init__(self, grid: GridSpec, params: ModelParams, coeff_fn=None):
        n_t, n_y, n_s = grid.shape
        self.grid, self.params = grid, params
        self.fn = coefficients if coeff_fn is None else coeff_fn
        self.end = min(_terminal_layer_cut(grid, params.rho), n_t - 1)
        # Block starts, the latest last: the next block to complete.
        self.starts = list(range(1, self.end, _RESIDUAL_BLOCK))
        self.k = n_t
        # Row p holds level k0 - 1 + p of the pending block k0, and policy
        # row p the policy at k0 + p.
        self.window = np.empty((_RESIDUAL_BLOCK + 2, n_s, n_y))
        self.pi = np.empty((_RESIDUAL_BLOCK, n_y))
        # (slice, block start) -> (sum of rel**2, band nodes, worst node, its |rel|)
        self.parts = {}

    def take(self, level, pi_row):
        """The level at the next time node in march order, and the policy row there."""
        self.k -= 1
        k = self.k
        if k < 0:
            raise ValueError(f"more than {self.grid.t_nodes.size} levels")
        if not self.starts or k > self.end:
            return
        k0 = self.starts[-1]
        self.window[k - k0 + 1] = level
        if k >= k0:
            if k < k0 + _RESIDUAL_BLOCK:    # not the upper halo of a full block
                self.pi[k - k0] = pi_row
            return
        self._block(self.starts.pop())
        # Levels k0 - 1 and k0 are the next block's last two, and the
        # policy at k0 - 1 its last row.
        self.window[_RESIDUAL_BLOCK:] = self.window[:2]
        self.pi[-1] = pi_row

    def _block(self, k0):
        t, y, yb = self.grid.t_nodes, self.grid.y_nodes, self.grid.ybar_nodes
        params, dy = self.params, self.grid.dy
        k1 = min(k0 + _RESIDUAL_BLOCK, self.end)
        window, PI = self.window[:k1 - k0 + 2], self.pi[:k1 - k0]
        tau = (params.T - t[k0:k1])[:, None]
        width = QUAD_SD * params.sigma_Y * np.sqrt(tau)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(yb.size):
                dev = yb[j] - y[None, 1:-1] - params.mu_Y * tau
                band = np.abs(dev) <= width
                hull = np.flatnonzero(band.any(axis=0))
                if not hull.size:
                    continue
                lo, hi = hull[0] + 1, hull[-1] + 2    # the hull's node rows
                band = band[:, hull[0]:hull[-1] + 1]
                v = np.ascontiguousarray(window[:, j, lo - 1:hi + 1])
                mid = v[1:-1, 1:-1]
                ht = ((v[2:, 1:-1] - v[:-2, 1:-1])
                      / (t[k0 + 1:k1 + 1] - t[k0 - 1:k1 - 1])[:, None])
                hy = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * dy)
                hyy = (v[1:-1, 2:] - 2.0 * mid + v[1:-1, :-2]) / dy**2

                P, Q, R = self.fn(t[k0:k1, None], y[None, lo:hi], yb[j], PI[:, lo:hi], params)
                rel = np.where(band, np.abs((ht + Q * hy + R * hyy + P * mid) / mid), -np.inf)
                k, i = np.unravel_index(np.argmax(rel), rel.shape)
                self.parts[j, k0] = (np.sum(rel[band]**2), int(np.count_nonzero(band)),
                                     (k0 + int(k), lo + int(i), j), rel[k, i])

    def norms(self) -> ResidualNorms:
        """The band norms of every level taken; raises DomainError when the band holds no node."""
        t, y, yb = self.grid.t_nodes, self.grid.y_nodes, self.grid.ybar_nodes
        if self.k:
            raise ValueError(f"the residual took {t.size - self.k} of {t.size} levels")
        worst_at, band_max = [], []
        sq_band, n_band = 0.0, 0
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(yb.size):
                for k0 in range(1, self.end, _RESIDUAL_BLOCK):
                    if (j, k0) in self.parts:
                        sq, n, at, top = self.parts[j, k0]
                        sq_band += sq
                        n_band += n
                        worst_at.append(at)
                        band_max.append(top)
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


def residual(levels, policy, grid: GridSpec, params: ModelParams, coeff_fn=None) -> ResidualNorms:
    """Relative residual (h_t + Q h_y + R h_yy + P h) / h on the band of ResidualNorms.

    ``levels`` yields the factor's (n_ybar, n_y) levels in march order,
    t_nodes[-1] first, one pass: persist.load_h_surface's stream, say, so
    a surface read from disk never has to sit in memory whole.  Exactly n_t
    levels must come (ValueError otherwise), and the stream is run to its
    end: the archive reader checks the member's CRC-32 as it reads the last
    level.  The pull form of LevelResidual, which a solve feeds as it
    marches; ``coeff_fn`` as there.  Raises DomainError when the band holds
    no node.
    """
    acc = LevelResidual(grid, params, coeff_fn)
    PI = policy_values(policy, grid.t_nodes, grid.y_nodes)
    for level, pi_row in zip(levels, PI[::-1], strict=True):
        acc.take(level, pi_row)
    return acc.norms()
