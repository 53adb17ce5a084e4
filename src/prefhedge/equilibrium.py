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
    _extend,
    _locate,
    _march,
    _march_level,
    _prepare_level,
    _terminal_layer_cut,
    _window_slopes,
    bilinear_interp,
    ybar_blend,
)

# History depth of the Anderson mixing that settles each level's policy.
_ANDERSON_DEPTH = 5
# A level is settled once one more map evaluation moves its hedging row by
# less than _TOL_SUP (sup norm); _MAX_EVALS caps the evaluations per level.
_TOL_SUP = 1e-5
_MAX_EVALS = 30


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
    ``prepare`` (the policy-free work of each level: _prepare_level,
    _row_map and _window_slopes), ``march`` (_march_level, and _extend of
    the accepted step), ``hedging`` (the window elasticities and
    _hedging_row) and ``anderson`` (the mixing step).
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
        """Interpolated policy at one time t and points y, through bilinear_interp.

        With ``clip`` (the default for simulation use) arguments are
        clamped to the hull, so times past the last node return the
        final-slice policy and excursions of y beyond the grid edges hold
        the edge value; with ``clip=False`` out-of-hull points raise
        OutOfGridError.  NaN reads NaN; an array ``t`` raises DomainError.
        """
        out = bilinear_interp(self.grid.t_nodes, self.grid.y_nodes,
                              getattr(self, component), t, y, clip=clip)
        return out if out.ndim else float(out)


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
    the neutral closure: _row_map's ``fill`` applies it.
    """
    y = grid.y_nodes
    drift = params.mu_Y * (params.T - t_k)
    lo = int(np.searchsorted(y, grid.ybar_nodes[0] - drift, side="left"))
    hi = int(np.searchsorted(y, grid.ybar_nodes[-1] - drift, side="right"))
    lo = min(lo, y.size - 1)
    hi = max(min(hi, y.size), lo + 1)
    return lo, hi


def _layer_policy(t, y, params: ModelParams):
    """Fraction of the exact constant-policy solution.

    For a constant fraction pi the log factor is exactly affine in y, with
    y-slope pi rho (sigma_S/sigma_Y)(gamma - 1); the hedging demand
    rho**2 pi (1 - 1/E[gamma_T]) then has the fixed point
    pi = M/((1 - rho**2) E[gamma_T] + rho**2), M = (mu_S - r)/sigma_S**2:
    the equilibrium at rho = 0 (closed_form_policy_rho0) and at rho**2 = 1
    (exactly M; pi = M is self-consistent there).
    """
    Eg = expected_terminal_gamma(t, y, params)
    return (params.mu_S - params.r) / (
        params.sigma_S**2 * ((1.0 - params.rho**2) * Eg + params.rho**2)
    )


def _layer_hedging(t, y, params: ModelParams):
    """Hedging part of _layer_policy: +0.0 at rho = 0.

    Closes the levels _closed_from names: all of them at rho**2 in {0, 1},
    else the terminal window.
    """
    return _layer_policy(t, y, params) - closed_form_policy_rho0(t, y, params)


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

    Returns ((r0, r1), bracket, denom, fill).  The row is held flat through
    the two outermost y-rows on each side (one-sided elasticity stencils,
    ~6 sd from any probe) and beyond _degenerate_cut's [lo, hi): row i is
    raw row clip(clip(i, lo, hi - 1), 2, n_y - 3), ``fill`` indexing the
    raw rows r0..r1 so kept, the only rows the quadrature ``bracket`` and
    the denominator sigma_S**2 E[gamma_T] cover.
    """
    t_k, n_y = grid.t_nodes[k], grid.y_nodes.size
    lo, hi = _degenerate_cut(t_k, grid, params)
    fill = np.clip(np.clip(np.arange(n_y), lo, hi - 1), 2, n_y - 3)
    r0, r1 = int(fill[0]), int(fill[-1])
    y = grid.y_nodes[r0:r1 + 1]
    return ((r0, r1), _terminal_bracket(grid, params, t_k, y),
            params.sigma_S**2 * expected_terminal_gamma(t_k, y, params), fill - r0)


def _hedging_row(el, row_map, grid: GridSpec, params: ModelParams):
    """Hedging demand at a level from the elasticities of its log factors.

    rho sigma_S sigma_Y I / (sigma_S**2 E[gamma_T]), I the terminal-state
    average of the elasticity d w / d y of w = ln h, closed as the level's
    _row_map says.  ``el`` is the central difference
    (w[i+1] - w[i-1]) / (2 dy) at the row map's rows r0..r1, shape
    (r1 - r0 + 1, n_ybar): log space, because on exp(b y) profiles central
    differences of h overstate the slope by sinh(b dy)/(b dy), which
    destabilizes the coupling at high |rho|.
    """
    _rows, bracket, denom, fill = row_map
    hedging = (
        params.rho * params.sigma_S * params.sigma_Y
        * _bracket_average(el, bracket, grid)
        / denom
    )
    return hedging[fill]


def policy_from_h(h: HSurface, grid: GridSpec, params: ModelParams) -> PolicySurface:
    """Node-wise policy map applied to solved continuation factors.

    pi = (mu_S - r + rho sigma_S sigma_Y I(t, y)) / (sigma_S**2 E[gamma_T]),
    stored together with its myopic part and the hedging correction.  Each
    level's hedging row is the one the coupled solve settles: _layer_hedging
    on the levels _closed_from closes, else _row_map and _hedging_row, on
    the central differences of ln h that the sweep reads (_window_slopes).
    """
    myopic = closed_form_policy_rho0(grid.t_nodes[:, None], grid.y_nodes[None, :], params)
    closed, hedging = _closed_from(grid, params)
    for k in range(closed):
        row_map = _row_map(k, grid, params)
        r0, r1 = row_map[0]
        w = np.log(h.values[k, r0 - 1:r1 + 2])
        el = (w[2:] - w[:-2]) / (2.0 * grid.dy)
        hedging[k] = _hedging_row(el, row_map, grid, params)
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


def fixed_point_solve(grid: GridSpec, params: ModelParams, take=None):
    """Coupled solve: one backward march settling the policy level by level.

    All terminal-state slices step jointly from t = T - eps_T.  Each level
    is prepared once (pide._prepare_level, _row_map, pide._window_slopes);
    every map evaluation at that level then works on the marched windows
    only: one block-diagonal solve (pide._march_level), the elasticities of
    the rows the closures keep, read off the windows, and their hedging
    quadrature (_hedging_row).  Only the accepted evaluation is extended to
    the whole level (pide._extend).  On the levels _closed_from closes (all
    of them at rho**2 in {0, 1}, else the terminal window) the hedging row
    is _layer_hedging's, known before the step, and the level is marched
    once.  Every other level's hedging row u solves u = H(march(myopic + u)),
    H the closed hedging quadrature of the marched level.  The row is
    iterated from the previous level's with Anderson acceleration and
    accepted once one more map evaluation moves it by less than _TOL_SUP
    (1e-5); the accepted iterate, not the map output, is stored, so
    the marched factors are exactly the march of the returned policy
    (solve_h(pol.pi) reproduces them bit for bit).

    No level is stored: each accepted level of the factor goes to
    ``take(level, pi_row)`` as soon as it is marched, in march order
    (t_nodes[-1] first; see pide._march), with its settled policy row, so a
    consumer (pide.LevelResidual, the archive writer) can use it at once.
    Returns the pair (factor at t_nodes[0], shape (n_ybar, n_y); policy
    surface); the policy's iteration_meta counts the map evaluations per
    iterated level and splits the sweep's wall time by phase
    (IterationMeta.sweep_s, which leaves out the time ``take`` spends).
    Raises ConvergenceError naming t, with that level's update history,
    when a level is not settled within _MAX_EVALS (30) map evaluations; a
    PositivityError from the march propagates.  The answer depends only on
    the grid and the model.
    """
    t = grid.t_nodes
    myopic = closed_form_policy_rho0(t[:, None], grid.y_nodes[None, :], params)
    closed, hedging = _closed_from(grid, params)
    # Row k is final once level k is settled: the closed rows from the start.
    pi = myopic + hedging
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
            w = timed("march", _march_level, prep, pi[k], grid, params)
            return timed("march", _extend, prep, w)
        row_map = timed("prepare", _row_map, k, grid, params)
        slopes = timed("prepare", _window_slopes, prep, grid, *row_map[0])
        us, gs, history = [hedging[k + 1]], [], []
        while len(history) < _MAX_EVALS:
            w = timed("march", _march_level, prep, myopic[k] + us[-1], grid, params)
            gs.append(timed("hedging", lambda: _hedging_row(slopes(w), row_map, grid, params)))
            history.append(float(np.max(np.abs(gs[-1] - us[-1]))))
            if history[-1] < _TOL_SUP:
                hedging[k] = us[-1]
                pi[k] = myopic[k] + us[-1]
                evals[len(history)] += 1
                if len(history) > len(worst):
                    worst, t_worst = history, float(t[k])
                return timed("march", _extend, prep, w)
            us.append(timed("anderson", _anderson_step, us[-_ANDERSON_DEPTH - 1:],
                            gs[-_ANDERSON_DEPTH - 1:]))
        raise ConvergenceError(
            f"hedging row at t = {float(t[k])!r} still moved by {history[-1]:.3e} "
            f"after {len(history)} map evaluations",
            history=history,
        )

    h0 = _march(grid, advance, pi, take)
    meta = IterationMeta(
        iterations=len(worst), sup_changes=tuple(worst),
        evals_histogram=tuple(sorted(evals.items())),
        map_evals=sum(n * count for n, count in evals.items()),
        t_worst=t_worst, sweep_s=sweep_s,
    )
    return h0, PolicySurface(grid=grid, pi=pi, myopic=myopic,
                             hedging=hedging, iteration_meta=meta)


def reward_quadrature(h_at, grid: GridSpec, t0, x0, y0, params: ModelParams, n_nodes=21):
    """Factor-side value of the certainty-equivalent reward at (t0, x0, y0).

    ``h_at`` is the factor at (t0, y0) on every ybar slice of ``grid``:
    HSurface.interp(t0, y0), or what verify records as the two levels
    that bracket t0 stream past.  Aggregates the log certainty equivalents of the
    continuation values h(t0, y0, ybar) x0^(1-gamma)/(1-gamma) over
    Gauss-Hermite terminal-state nodes, h blended across slices by
    pide.ybar_blend; the Monte Carlo reward estimate converges to this
    number when the factor surface solves its equations under the same
    policy.
    """
    xi, w = np.polynomial.hermite.hermgauss(n_nodes)
    mean, sd = grid.terminal_mean_sd(t0, y0, params)
    cap = QUAD_SD * sd
    yb = np.clip(mean + np.clip(np.sqrt(2.0) * sd * xi, -cap, cap),
                 grid.ybar_nodes[0], grid.ybar_nodes[-1])
    yb[np.abs(yb) <= EPS_GAMMA] = 2.0 * EPS_GAMMA
    hval = ybar_blend(grid.ybar_nodes, h_at, yb)
    # log certainty equivalent of g = h x^(1-gamma)/(1-gamma)
    return float((w / np.sqrt(np.pi)) @ (np.log(hval) / (1.0 - np.exp(yb)) + np.log(x0)))


def ehjb_supremand(pi_value, t, y, h: HSurface, grid: GridSpec, params: ModelParams):
    """Value of the density-weighted drift functional at a trial fraction.

    The quantity whose supremum over the fraction characterizes the
    equilibrium: a Gauss-Hermite average over terminal states of the
    normalized conditional drift of the continuation value.  Quadratic in
    the trial fraction; its maximizer at a solved surface is the equilibrium
    policy, which the property tests check by finite differences.

    ``t`` and ``y`` must be grid nodes (the factor derivatives are taken on
    the grid, by np.gradient on the node's three-point neighbourhood, two
    points at a grid edge).
    """
    k = int(np.argmin(np.abs(grid.t_nodes - t)))
    i = int(np.argmin(np.abs(grid.y_nodes - y)))
    if abs(grid.t_nodes[k] - t) > 1e-9 or abs(grid.y_nodes[i] - y) > 1e-9:
        raise DomainError("supremand evaluation requires grid nodes")
    tk = grid.t_nodes[k]
    yi = grid.y_nodes[i]

    v = h.values
    k0, i0 = max(k - 1, 0), max(i - 1, 0)
    ht = np.gradient(v[k0:k + 2, i], grid.t_nodes[k0:k + 2], axis=0)[k - k0]
    hy = np.gradient(v[k, i0:i + 2], grid.y_nodes[i0:i + 2], axis=0)[i - i0]
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
