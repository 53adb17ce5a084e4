"""Equilibrium policy map, closed form, and the coupled solve.

The equilibrium fraction solves a fixed-point problem: the policy is a
functional of the continuation factors through a density-weighted elasticity
integral, while the factors solve PDEs whose coefficients contain the
policy.  With zero or perfect stock/preference correlation the policy is
available in closed form.

The coupling is triangular in time: the policy at a time level depends only
on the factors at that level, which depend only on later levels, as in the
backward definition of an equilibrium (Bjork, Khapko & Murgoci, Finance
Stoch. 21, 2017).  The solve therefore marches all terminal-state slices
backward jointly and settles each level's policy to the fixed-point
tolerance before taking the next step; there is no separate global
iteration.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .conditional import bridge_drift_y, score
from .errors import ConvergenceError, DomainError
from .model import EPS_GAMMA, ModelParams, expected_terminal_gamma
from .pide import (
    QUAD_SD,
    GridSpec,
    HSurface,
    _locate,
    _march,
    _march_level,
    _prepare_level,
    _terminal_layer_cut,
    bilinear_interp,
)

# History depth of the Anderson mixing that settles each level's policy.
_ANDERSON_DEPTH = 5


@dataclass(frozen=True)
class FixedPointConfig:
    """Controls of the per-level policy fixed point in the backward march.

    A level is settled once one more map evaluation moves its hedging row
    by less than ``tol_sup`` (sup norm); ``max_iters`` caps the map
    evaluations spent on one level.
    """

    max_iters: int = 30
    tol_sup: float = 1e-5

    def __post_init__(self):
        if not self.tol_sup > 0:
            raise DomainError("tol_sup must be > 0")
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationMeta:
    """Diagnostics of a coupled solve, for its hardest level.

    ``iterations`` is the largest number of map evaluations any level
    needed and ``sup_changes`` that level's update history (the first such
    level in march order, at time ``t_worst``).  ``evals_histogram`` holds
    (map evaluations, number of levels) pairs over the iterated levels, in
    ascending order, and ``map_evals`` their total.  A solve with no
    iterated level (rho**2 in {0, 1}, see _closed_from) reports 0
    iterations, an empty history and histogram, and no ``t_worst``.  Only
    settled solves carry one: a level that does not settle raises
    ConvergenceError instead.

    ``sweep_s`` holds the whole solve's wall seconds, summed over levels, in
    ``prepare`` (the policy-free work of each level: _prepare_level and
    _row_map), ``march`` (_march_level), ``hedging`` (_hedging_row) and
    ``anderson`` (the mixing step).
    """

    iterations: int
    sup_changes: tuple
    evals_histogram: tuple
    map_evals: int
    t_worst: float | None
    sweep_s: dict


@dataclass
class PolicySurface:
    """Equilibrium fraction on the (t, y) grid, split into its two demands.

    ``pi = myopic + hedging`` holds exactly at every node as stored.  The
    policy carries no wealth axis: the equilibrium fraction is independent
    of wealth by construction.
    """

    grid: GridSpec
    pi: np.ndarray
    myopic: np.ndarray
    hedging: np.ndarray
    iteration_meta: IterationMeta | None = None

    def __post_init__(self):
        shape = (self.grid.t_nodes.size, self.grid.y_nodes.size)
        for name in ("pi", "myopic", "hedging"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
            setattr(self, name, arr)

    def value(self, t, y, clip=True, component="pi"):
        """Interpolated policy at (t, y).

        Bilinear inside the grid hull.  With ``clip`` (the default for
        simulation use) arguments are clamped to the hull, so times past
        the last node return the final-slice policy and excursions of y
        beyond the grid edges hold the edge value; with ``clip=False``
        out-of-hull points raise OutOfGridError.
        """
        values = getattr(self, component)
        t = np.minimum(np.asarray(t, dtype=float), self.grid.t_nodes[-1]) if clip else t
        out = bilinear_interp(
            self.grid.t_nodes, self.grid.y_nodes, values, t, y, clip=clip
        )
        return out if np.ndim(out) else float(out)


def closed_form_policy_rho0(t, y, params: ModelParams):
    """Zero-correlation equilibrium fraction.

    (mu_S - r) / (sigma_S**2 E[gamma(Y_T) | Y_t = y]): the Merton fraction
    at the expected terminal risk aversion.  With rho = 0 the hedging
    channel is absent, so this is exact; it also serves as the analytic
    oracle and the starting point of the coupled solve.
    """
    out = (params.mu_S - params.r) / (
        params.sigma_S**2 * expected_terminal_gamma(t, y, params)
    )
    return out if np.ndim(out) else float(out)


def _terminal_bracket(grid: GridSpec, params: ModelParams, t, y):
    """Where the terminal-state quadrature nodes at (t, y) fall among the slices.

    The policy-free half of a Gauss-Hermite average over the terminal state
    (_bracket_average is the other half).  The nodes are mapped through
    mean + sqrt(2) sd xi of the terminal law at (t, y) and bracketed in the
    slice range (clamped at its ends; the clipped tail mass is negligible by
    construction).  Returns flat indices of the lower and upper bracketing
    slice into an array of shape broadcast(t, y) + (n_ybar,), and their
    linear weights, each of shape broadcast(t, y) + (n_gh,).
    """
    mean, sd = grid.terminal_mean_sd(t, y, params)
    # The mapping is capped at QUAD_SD conditional deviations.
    offset = np.clip(np.sqrt(2.0) * grid.gh_nodes, -QUAD_SD, QUAD_SD)
    target = np.asarray(mean)[..., None] + offset * np.asarray(sd)[..., None]
    lo, frac = _locate(grid.ybar_nodes, target, clip=True)
    points = np.arange(lo.size // lo.shape[-1]).reshape(lo.shape[:-1] + (1,))
    at = lo + points * grid.ybar_nodes.size
    return at, at + 1, 1.0 - frac, frac


def _bracket_average(f, bracket, grid: GridSpec):
    """Gauss-Hermite average of per-slice values ``f`` through a bracket."""
    at_lo, at_hi, w_lo, w_hi = bracket
    flat = np.ravel(f)
    return (w_lo * flat[at_lo] + w_hi * flat[at_hi]) @ grid.ybar_weights


def _degenerate_cut(t_k, grid: GridSpec, params: ModelParams):
    """Row range (lo, hi) at t_k where the terminal-state quadrature is informative.

    Beyond the y-range whose conditional terminal mean at t_k falls inside
    the solved slice interval, every mapped quadrature node clips to the
    same end slice: the hedging value there is a one-sided extrapolation
    with no information content, and letting it feed back into the factor
    equations leaves a slowly relaxing mode pinned at the grid edge.
    Constant continuation from the range, which always keeps one node, is
    the neutral closure (applied in _hedging_row).
    """
    y = grid.y_nodes
    drift = params.mu_Y * (params.T - t_k)
    lo = int(np.searchsorted(y, grid.ybar_nodes[0] - drift, side="left"))
    hi = int(np.searchsorted(y, grid.ybar_nodes[-1] - drift, side="right"))
    lo = min(lo, y.size - 1)
    hi = max(min(hi, y.size), lo + 1)
    return lo, hi


def _layer_hedging(t, y, params: ModelParams):
    """Hedging demand of the exact constant-policy solution.

    For a constant fraction pi the log factor is exactly affine in y, with
    y-slope pi rho (sigma_S/sigma_Y)(gamma - 1); the hedging demand
    rho**2 pi (1 - 1/E[gamma_T]) then has the fixed point
    pi = M/((1 - rho**2) E[gamma_T] + rho**2), M = (mu_S - r)/sigma_S**2:
    the equilibrium at rho = 0 (this returns +0.0) and at rho**2 = 1
    (myopic + hedging is M to rounding; pi = M is self-consistent there).
    Elsewhere it closes the terminal window (_closed_from).
    """
    Eg = expected_terminal_gamma(t, y, params)
    pi_layer = (params.mu_S - params.r) / (
        params.sigma_S**2 * ((1.0 - params.rho**2) * Eg + params.rho**2)
    )
    return pi_layer - closed_form_policy_rho0(t, y, params)


def _closed_everywhere(rho) -> bool:
    """Whether _layer_hedging is the equilibrium at every level: rho**2 in {0, 1}."""
    return rho * rho in (0.0, 1.0)


def _closed_from(grid: GridSpec, params: ModelParams):
    """(first level closed by _layer_hedging, hedging surface of those rows, 0 before).

    Every level if _closed_everywhere, else pide._terminal_layer_cut's window.
    """
    closed = 0 if _closed_everywhere(params.rho) else _terminal_layer_cut(grid, params.rho)
    hedging = np.zeros(grid.shape[:2])
    hedging[closed:] = _layer_hedging(grid.t_nodes[closed:, None], grid.y_nodes[None, :],
                                      params)
    return closed, hedging


def _row_map(k, grid: GridSpec, params: ModelParams):
    """Policy-free part of the hedging row at t[k], computed once per level.

    The quadrature bracket of every y-row, the denominator
    sigma_S**2 E[gamma_T] and the _degenerate_cut range.
    """
    t_k, y = grid.t_nodes[k], grid.y_nodes
    return (_terminal_bracket(grid, params, t_k, y),
            params.sigma_S**2 * expected_terminal_gamma(t_k, y, params),
            _degenerate_cut(t_k, grid, params))


def _hedging_row(w_level, row_map, grid: GridSpec, params: ModelParams):
    """Hedging demand at a level from its log factors w = ln h.

    rho sigma_S sigma_Y I / (sigma_S**2 E[gamma_T]), I the terminal-state
    average of the elasticity d w / d y (the log-factor slope), held flat
    through the edge rows and the degenerate band.  ``w_level`` has shape
    (n_ybar, n_y) and ``row_map`` is the level's _row_map; returns the row,
    shape (n_y,).
    """
    bracket, denom, (lo, hi) = row_map
    # Differenced in log space: on profiles exp(b y) central differences of
    # h overstate the slope by sinh(b dy)/(b dy), which destabilizes the
    # coupling at high |rho|; differences of ln h are exact there.  The
    # stencil is np.gradient's, computed once per grid.
    el = grid._y_slope.full(w_level)
    hedging = (
        params.rho * params.sigma_S * params.sigma_Y
        * _bracket_average(el.T, bracket, grid)
        / denom
    )
    # The two outermost y-rows use one-sided elasticity stencils; continue
    # the hedging demand flat through them (they sit ~6 sd from any probe).
    hedging[:2] = hedging[2]
    hedging[-2:] = hedging[-3]
    hedging[:lo] = hedging[lo]
    hedging[hi:] = hedging[hi - 1]
    return hedging


def policy_from_h(h: HSurface, grid: GridSpec, params: ModelParams) -> PolicySurface:
    """Node-wise policy map applied to solved continuation factors.

    pi = (mu_S - r + rho sigma_S sigma_Y I(t, y)) / (sigma_S**2 E[gamma_T]),
    stored together with its myopic part and the hedging correction.  Each
    level's hedging row is the one the coupled solve settles: _layer_hedging
    on the levels _closed_from closes, else _row_map and _hedging_row.
    """
    myopic = closed_form_policy_rho0(grid.t_nodes[:, None], grid.y_nodes[None, :], params)
    closed, hedging = _closed_from(grid, params)
    for k in range(closed):
        hedging[k] = _hedging_row(np.log(h.values[k]).T, _row_map(k, grid, params),
                                  grid, params)
    return PolicySurface(grid=grid, pi=myopic + hedging, myopic=myopic, hedging=hedging)


def _anderson_step(us, gs):
    """Next iterate of undamped type-II Anderson mixing.

    Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011: from iterates us and map
    values gs, g_last - dG gamma with gamma minimizing |f_last - dF gamma|_2
    over the residuals f = g - u.
    """
    if len(us) == 1:
        return gs[0]
    f = np.array(gs) - np.array(us)
    gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
    return gs[-1] - gamma @ np.diff(gs, axis=0)


def fixed_point_solve(grid: GridSpec, params: ModelParams,
                      cfg: FixedPointConfig | None = None):
    """Coupled solve: one backward march settling the policy level by level.

    All terminal-state slices step jointly from t = T - eps_T.  Each level
    is prepared once (pide._prepare_level: windows, gathers and the bridge
    part of the coefficients); every map evaluation at that level then
    runs only the policy-dependent work, one block-diagonal solve
    (pide._march_level) and the hedging quadrature through the level's
    precomputed bracket (_row_map, _hedging_row).  On the levels
    _closed_from closes (all of them at rho**2 in {0, 1}, else the terminal
    window) the hedging row is _layer_hedging's, known before the step, and
    the level is marched once.  Every other level's hedging row u solves
    u = H(march(myopic + u)), H the hedging quadrature of the marched level
    with its edge and degenerate-band closures.  The row is
    iterated from the previous level's with Anderson acceleration and
    accepted once one more map evaluation moves it by less than
    cfg.tol_sup; the accepted iterate, not the map output, is stored, so
    the returned factors are exactly the march of the returned policy
    (solve_h(pol.pi) reproduces them bit for bit).

    Returns the (factor surface, policy surface) pair; the policy's
    iteration_meta counts the map evaluations per iterated level and
    splits the sweep's wall time by phase (IterationMeta.sweep_s).  Raises
    ConvergenceError naming t, with that level's update history, when a
    level is not settled within cfg.max_iters map evaluations; a
    PositivityError from the march propagates.
    """
    cfg = cfg or FixedPointConfig()
    t = grid.t_nodes
    myopic = closed_form_policy_rho0(t[:, None], grid.y_nodes[None, :], params)
    closed, hedging = _closed_from(grid, params)
    worst: list[float] = []
    t_worst = None
    evals = Counter()
    sweep_s = dict.fromkeys(("prepare", "march", "hedging", "anderson"), 0.0)

    def timed(phase, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        sweep_s[phase] += time.perf_counter() - start
        return out

    def advance(level, k):
        nonlocal worst, t_worst
        prep = timed("prepare", _prepare_level, level, k, grid, params)
        if k >= closed:
            return timed("march", _march_level, prep, myopic[k] + hedging[k], grid, params)
        row_map = timed("prepare", _row_map, k, grid, params)
        us, gs, history = [hedging[k + 1]], [], []
        while len(history) < cfg.max_iters:
            new_level = timed("march", _march_level, prep, myopic[k] + us[-1], grid, params)
            gs.append(timed("hedging", _hedging_row, new_level, row_map, grid, params))
            history.append(float(np.max(np.abs(gs[-1] - us[-1]))))
            if history[-1] < cfg.tol_sup:
                hedging[k] = us[-1]
                evals[len(history)] += 1
                if len(history) > len(worst):
                    worst, t_worst = history, float(t[k])
                return new_level
            us.append(timed("anderson", _anderson_step, us[-_ANDERSON_DEPTH - 1:],
                            gs[-_ANDERSON_DEPTH - 1:]))
        raise ConvergenceError(
            f"hedging row at t = {float(t[k])!r} still moved by {history[-1]:.3e} "
            f"after {len(history)} map evaluations",
            history=history,
        )

    h = _march(grid, advance)
    meta = IterationMeta(
        iterations=len(worst), sup_changes=tuple(worst),
        evals_histogram=tuple(sorted(evals.items())),
        map_evals=sum(n * count for n, count in evals.items()),
        t_worst=t_worst, sweep_s=sweep_s,
    )
    return h, PolicySurface(grid=grid, pi=myopic + hedging, myopic=myopic,
                            hedging=hedging, iteration_meta=meta)


def reward_quadrature(h: HSurface, t0, x0, y0, params: ModelParams, n_nodes=21):
    """Factor-side value of the certainty-equivalent reward at (t0, x0, y0).

    Aggregates the log certainty equivalents of the continuation values
    h(t0, y0, ybar) x0^(1-gamma)/(1-gamma) over Gauss-Hermite terminal-state
    nodes; the Monte Carlo reward estimate converges to this number when
    the factor surface solves its equations under the same policy.
    """
    grid = h.grid
    xi, w = np.polynomial.hermite.hermgauss(n_nodes)
    mean, sd = grid.terminal_mean_sd(t0, y0, params)
    cap = QUAD_SD * sd
    total = 0.0
    for x_, w_ in zip(xi, w / np.sqrt(np.pi)):
        yb = float(np.clip(mean + np.clip(np.sqrt(2.0) * sd * x_, -cap, cap),
                           grid.ybar_nodes[0], grid.ybar_nodes[-1]))
        if abs(yb) <= EPS_GAMMA:
            yb = 2.0 * EPS_GAMMA
        gamma = np.exp(yb)
        hval = h.interp_at(t0, y0, yb)
        # log certainty equivalent of g = h x^(1-gamma)/(1-gamma)
        total += w_ * (np.log(hval) / (1.0 - gamma) + np.log(x0))
    return float(total)


def ehjb_supremand(pi_value, t, y, h: HSurface, grid: GridSpec, params: ModelParams):
    """Value of the density-weighted drift functional at a trial fraction.

    The quantity whose supremum over the fraction characterizes the
    equilibrium: a Gauss-Hermite average over terminal states of the
    normalized conditional drift of the continuation value.  Quadratic in
    the trial fraction; its maximizer at a solved surface is the equilibrium
    policy, which the property tests check by finite differences.

    ``t`` and ``y`` must be grid nodes (the factor derivatives are taken on
    the grid).
    """
    k = int(np.argmin(np.abs(grid.t_nodes - t)))
    i = int(np.argmin(np.abs(grid.y_nodes - y)))
    if abs(grid.t_nodes[k] - t) > 1e-9 or abs(grid.y_nodes[i] - y) > 1e-9:
        raise DomainError("supremand evaluation requires grid nodes")
    tk = grid.t_nodes[k]
    yi = grid.y_nodes[i]

    v = h.values
    ht = np.gradient(v, grid.t_nodes, axis=0)[k, i]
    hy = np.gradient(v, grid.y_nodes, axis=1)[k, i]
    dy = grid.dy
    if 0 < i < grid.y_nodes.size - 1:
        hyy = (v[k, i + 1] - 2.0 * v[k, i] + v[k, i - 1]) / dy**2
    else:
        hyy = np.zeros_like(ht)
    hv = v[k, i]

    mean, sd = grid.terminal_mean_sd(tk, yi, params)
    nodes = grid.ybar_nodes
    # Uncapped node mapping, clamped to the slice range.
    ybar = np.clip(mean + np.sqrt(2.0) * sd * grid.gh_nodes, nodes[0], nodes[-1])
    lo, frac = _locate(nodes, ybar, clip=True)

    def lerp(arr):
        return (1.0 - frac) * arr[lo] + frac * arr[lo + 1]

    gamma = np.exp(ybar)
    one_minus = 1.0 - gamma
    sc = score(tk, yi, ybar, params)
    pull = bridge_drift_y(tk, yi, ybar, params)
    hval = lerp(hv)
    term = (
        lerp(ht) / (one_minus * hval)
        + (params.r + pi_value * (params.mu_S - params.r)
           + pi_value * params.sigma_S * params.rho * params.sigma_Y * sc)
        + pull * lerp(hy) / (one_minus * hval)
        - 0.5 * pi_value**2 * params.sigma_S**2 * gamma
        + 0.5 * params.sigma_Y**2 * lerp(hyy) / (one_minus * hval)
        + pi_value * params.sigma_S * params.rho * params.sigma_Y * lerp(hy) / hval
    )
    return float(grid.ybar_weights @ term)
