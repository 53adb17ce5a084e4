"""Monte Carlo oracles: path simulation, reward evaluation, verification.

Everything here is deliberately independent of the PDE solver, down to the
imports (nothing from pide or equilibrium; the factor values the
g-representation check scores come in as numbers): paths follow
the model dynamics directly (under the unconditional measure, or pinned to a
terminal preference state, where the factor becomes a Brownian bridge), and
the reward functional is assembled exactly as defined — inner conditional
expectations of terminal utility, certainty-equivalent transform per
terminal state, density-weighted aggregation.  These estimates are the
referees for the solver's output.

Both measures step one uniform time grid by one rule.  The factor takes its
exact transition: an arithmetic Brownian step unconditionally, the exact
Brownian-bridge step (Glasserman, Monte Carlo Methods in Financial
Engineering, 2003, section 3.1) when pinned, so a pinned path ends on its
pin at any step count.  Wealth is stepped in logs, which keeps it strictly
positive (CRRA utilities reject nonpositive wealth, and silent clamping
would corrupt reward estimates), with its correlated noise read off the
realized factor step, (dY - mu_Y dt)/sigma_Y; that is the factor's own
Brownian increment under either measure, so conditioning needs no drift
correction.  The one discretization left is the policy, held at its
left-point value over each step.

A step's work besides the draw is one policy read per start, through
eval_policy at the step's time (a PolicySurface reads through
pide.bilinear_interp: one blend of the two time rows, each path placed on
it by the uniform y spacing), and an in-place advance of ln X and Y in
which the correlated noise and drift are folded into five per-step scalars.

Random numbers come from counter-based Philox streams keyed by the
configured seed (and a stream index for per-node independence), so runs are
bit-reproducible and two simulations with the same configuration consume
identical noise regardless of the policy.  Shared noise is drawn once
(common random numbers, bit for bit what separate runs with the same stream
would give): a simulation takes a sequence of starts, (t0, y0, ybar,
spikes) pinned or (t0, y0) unconditional, and steps each on its own time
grid and with its own wealth lanes (the spike test's base and spiked
policies), on one draw per step; it returns a PathBatch per start.  Stream
layout: reward quadrature node j (the spike test's too) reads stream j.
The g-representation points are never run on their own: they ride, base
lane only, as starts of the spike test's node-1 run (stream 1), so verify
draws each of its streams once; simulation_work counts the draws and
path-steps it reports as mc_work, the g points' path-steps with no normals
of their own.  Every (mean, se) comes from _mean_se, which pairs
antithetic paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import EPS_GAMMA, ModelParams, crra_utility, eval_policy, phi, phi_prime


@dataclass(frozen=True)
class SimConfig:
    """Path-simulation controls: ``n_steps`` uniform steps from t0 to T.

    The factor steps are exact; ``n_steps`` sets how often the policy is
    re-read along the path.  ``antithetic`` mirrors the second half of the
    paths against the first; path i and path i + n_paths/2 are then one
    correlated pair, and every se is taken over the pair means.
    """

    n_paths: int = 100_000
    n_steps: int = 400
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 2:
            raise DomainError("n_paths must be >= 2")
        if self.n_steps < 1:
            raise DomainError("n_steps must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.antithetic and self.n_paths % 2:
            raise DomainError("antithetic sampling needs an even n_paths")


@dataclass
class PathBatch:
    """Simulated (X, Y) trajectories at ``times``.

    ``ybar`` is the pinned terminal state, None under the unconditional
    measure.  A run with ``store="terminal"`` keeps only the first and last
    time points (the memory-friendly mode used by the estimators).
    """

    times: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    ybar: float | None = None

    def __post_init__(self):
        if not np.all(self.X > 0):
            raise DomainError("wealth paths must stay strictly positive")


def _rng(seed, stream=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(stream)))))


def _time_grid(t0, cfg: SimConfig, params: ModelParams):
    """A start's uniform step grid, linspace(t0, T, n_steps + 1)."""
    return np.linspace(t0, params.T, cfg.n_steps + 1)


def _held_steps(times, start, end):
    """Which steps of ``times`` a spike on [start, end) holds: left point inside."""
    left = times[:-1]
    return (start <= left) & (left < end)


def _simulate(policy, starts, x0, cfg: SimConfig, params: ModelParams,
              store="full", stream=0):
    """The one path kernel: a PathBatch per (t0, y0, ybar, spikes) start, on one stream.

    Each start steps its own grid linspace(t0, T, n_steps + 1), factor row
    and wealth lanes (pinned to ybar, or unconditional where ybar is None):
    the base policy's lane and one per spike of its own.  Every start reads
    the step's one normal draw with its own arithmetic, so its paths are
    bit for bit those of a run of that start alone.
    """
    if not x0 > 0:
        raise DomainError("x0 must be > 0")
    if not all(start[0] < params.T for start in starts):
        raise DomainError("t0 must be < T")
    n = cfg.n_paths
    rng = _rng(cfg.seed, stream)
    sigma_S, sigma_Y = params.sigma_S, params.sigma_Y
    # A step adds r dt + pi (excess dt + slope dY + noise_scale dW2
    # - sigma_S^2 dt pi / 2) to ln X: the factor's own increment
    # dW1 = (dY - mu_Y dt)/sigma_Y is folded into slope and excess.
    slope = params.rho * sigma_S / sigma_Y
    excess = params.mu_S - params.r - slope * params.mu_Y
    noise_scale = np.sqrt(1.0 - params.rho * params.rho) * sigma_S

    grids = [_time_grid(t0, cfg, params) for t0, _y0, _ybar, _spikes in starts]
    held = [[_held_steps(times, start, end) for _value, start, end in spikes]
            for times, (_t0, _y0, _ybar, spikes) in zip(grids, starts)]
    lnX = [np.full((1 + len(spikes), n), np.log(x0)) for *_start, spikes in starts]
    Y = [np.full(n, float(y0)) for _t0, y0, _ybar, _spikes in starts]
    if store == "full":
        Xs = [np.full(lnx.shape + (cfg.n_steps + 1,), float(x0)) for lnx in lnX]
        Ys = [np.full((n, cfg.n_steps + 1), float(y0)) for _t0, y0, _ybar, _spikes in starts]
    Z = np.empty((2, n))
    half = np.empty((2, n // 2)) if cfg.antithetic else None
    dY, noise, scaled = np.empty(n), np.empty(n), np.empty(n)
    gain = np.empty((max(len(lnx) for lnx in lnX), n))

    for k in range(cfg.n_steps):
        if cfg.antithetic:
            rng.standard_normal(out=half)
            Z[:, :n // 2] = half
            np.negative(half, out=Z[:, n // 2:])
        else:
            rng.standard_normal(out=Z)
        for s, (times, (_t0, _y0, ybar, spikes)) in enumerate(zip(grids, starts)):
            t = times[k]
            dt = times[k + 1] - t
            sdt = np.sqrt(dt)
            pi = eval_policy(policy, t, Y[s])
            lanes = [(lane, value) for lane, ((value, _a, _b), mask)
                     in enumerate(zip(spikes, held[s]), 1) if mask[k]]
            if lanes:
                pi = np.repeat(pi[None], len(lnX[s]), axis=0)
                for lane, value in lanes:
                    pi[lane] = value
            if ybar is not None:
                tau = params.T - t
                np.subtract(ybar, Y[s], out=dY)
                dY *= dt / tau
                np.multiply(Z[0], sigma_Y * np.sqrt(max(dt * (tau - dt) / tau, 0.0)),
                            out=scaled)
                dY += scaled
            else:
                np.multiply(Z[0], sigma_Y * sdt, out=dY)
                dY += params.mu_Y * dt
            np.multiply(dY, slope, out=noise)
            np.multiply(Z[1], noise_scale * sdt, out=scaled)
            noise += scaled
            noise += excess * dt
            # Lanes outside their windows share the base row's gain.
            g = gain[:len(pi)] if pi.ndim == 2 else gain[0]
            np.multiply(pi, -0.5 * sigma_S**2 * dt, out=g)
            g += noise
            g *= pi
            g += params.r * dt
            lnX[s] += g
            Y[s] += dY
            if store == "full":
                np.exp(lnX[s], out=Xs[s][..., k + 1])
                Ys[s][:, k + 1] = Y[s]

    # A run peaks while its batches are built: the step buffers go first, a
    # terminal batch is filled in place and its start's state dropped once read.
    del Z, half, dY, noise, scaled, gain
    batches = []
    for s, (t0, y0, ybar, spikes) in enumerate(starts):
        if store == "full":
            X_arr, Y_arr, t_arr = Xs[s], Ys[s], grids[s]
        else:
            X_arr, Y_arr = np.empty(lnX[s].shape + (2,)), np.empty((n, 2))
            X_arr[..., 0], Y_arr[:, 0], Y_arr[:, 1] = x0, y0, Y[s]
            np.exp(lnX[s], out=X_arr[..., 1])
            lnX[s] = Y[s] = None
            t_arr = np.array([t0, params.T])
        batches.append(PathBatch(times=t_arr, X=X_arr if spikes else X_arr[0], Y=Y_arr,
                                 ybar=None if ybar is None else float(ybar)))
    return batches


def simulation_work(cfg: SimConfig, n_runs=1, n_starts=1, n_lanes=1):
    """Path-steps and normals drawn by ``n_runs`` simulations of one shape.

    Every start and every wealth lane steps each path once per step; a
    run's starts and lanes share one draw of two normals per path per step
    (half of them drawn, half mirrored, when antithetic).
    """
    drawn = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    return {"path_steps": n_runs * n_starts * n_lanes * cfg.n_paths * cfg.n_steps,
            "normals": n_runs * 2 * drawn * cfg.n_steps}


def simulate_unconditional(policy, starts, x0, cfg: SimConfig, params: ModelParams,
                           store="full", stream=0):
    """Paths of (X, Y) under the unconditional measure, a PathBatch per (t0, y0) start.

    The factor takes exact arithmetic-Brownian steps mu_Y dt + sigma_Y dW1;
    correlated increments rho dW1 + sqrt(1-rho^2) dW2 drive ln X.
    Deterministic given the seed.  The starts share the stream's one draw,
    each batch bit for bit the batch of its start's own run.
    """
    return _simulate(policy, [(t0, y0, None, ()) for t0, y0 in starts], x0, cfg, params,
                     store, stream)


def simulate_conditioned(policy, starts, x0, cfg: SimConfig, params: ModelParams,
                         store="full", stream=0):
    """Paths pinned to Y_T = ybar, a PathBatch per (t0, y0, ybar, spikes) start.

    The factor takes exact Brownian-bridge steps, N(Y + (dt/tau)(ybar - Y),
    sigma_Y^2 dt (tau - dt)/tau) with tau = T - s, so every path ends on
    ybar.  The wealth's correlated noise is the realized factor increment
    (dY - mu_Y dt)/sigma_Y, which carries the conditioning into ln X.

    A start's ``spikes`` add wealth lanes on its noise and factor paths: a
    (value, start, end) lane follows ``policy`` except on [start, end),
    where it holds the fraction ``value``.  With spikes, the batch's ``X``
    has a leading lane axis, the base policy's lane first.  The starts
    share the stream's one draw, as in simulate_unconditional.
    """
    return _simulate(policy, list(starts), x0, cfg, params, store, stream)


def gh_terminal_quadrature(t0, y0, params: ModelParams, n_nodes=21):
    """Gauss-Hermite nodes/weights for the terminal preference state at (t0, y0).

    Nodes are mapped through mean + sqrt(2) sd xi (nudged off the excluded
    point ybar = 0); weights are the standardized Hermite weights, summing
    to one.
    """
    xi, w = np.polynomial.hermite.hermgauss(n_nodes)
    mean = y0 + params.mu_Y * (params.T - t0)
    sd = params.sigma_Y * np.sqrt(params.T - t0)
    nodes = mean + np.sqrt(2.0) * sd * xi
    nodes[np.abs(nodes) <= EPS_GAMMA] = 2.0 * EPS_GAMMA
    return nodes, w / np.sqrt(np.pi)


@dataclass(frozen=True)
class RewardNode:
    """Per-terminal-state diagnostics of a reward estimate."""

    ybar: float
    gamma: float
    weight: float
    inner_mean: float
    inner_se: float
    flagged: bool


@dataclass(frozen=True)
class RewardEstimate:
    """Certainty-equivalent reward estimate with a delta-method standard error."""

    value: float
    se: float
    nodes: tuple


def reward_mc(policy, t0, x0, y0, cfg: SimConfig, params: ModelParams,
              ybar_quadrature=21):
    """Monte Carlo estimate of the certainty-equivalent reward at (t0, x0, y0).

    For each of the ``ybar_quadrature`` Gauss-Hermite terminal-state nodes:
    estimate the inner conditional expectation of terminal CRRA utility from
    bridge-conditioned paths, apply the log certainty-equivalent transform,
    then aggregate with the density weights.  The standard error propagates
    through the transform by the delta method with the analytic derivative.
    Nodes whose inner expectation is within 5 standard errors of the sign
    boundary are flagged; an outright sign violation raises.
    """
    return _lane_rewards(policy, t0, x0, y0, cfg, params, ybar_quadrature)[0][0]


def _mean_se(samples, cfg: SimConfig):
    """(mean, se of the mean) of one value per path.

    Under antithetic sampling path i and path i + n/2 are mirrored, so the
    se is that of the n/2 pair means (Glasserman, Monte Carlo Methods in
    Financial Engineering, 2003, section 4.2); the mean is over all paths.
    """
    mean = float(np.mean(samples))
    if cfg.antithetic:
        half = samples.size // 2
        samples = 0.5 * (samples[:half] + samples[half:])
    return mean, float(np.std(samples, ddof=1) / np.sqrt(samples.size))


def _lane_rewards(policy, t0, x0, y0, cfg: SimConfig, params: ModelParams,
                  ybar_quadrature, spikes=(), riders=()):
    """reward_mc of the base policy and of each spike lane, with per-path terms.

    One conditioned simulation per Gauss-Hermite node (node j reads stream
    j) serves every lane (see simulate_conditioned).  Returns the
    estimates, base first, and for each lane the per-path sum over nodes of w phi'(E u) u, whose lane-to-lane
    differences carry the common-random-number standard error.

    ``riders`` are (t0, y0, ybar) starts (the g points): they ride, base
    lane only, on node 1's run and come back third as the _mean_se of their
    terminal utility at gamma = e^ybar, reduced as soon as that run returns.
    """
    nodes, weights = gh_terminal_quadrature(t0, y0, params, ybar_quadrature)

    if riders and len(nodes) < 2:
        raise DomainError("riders ride on quadrature node 1: give at least two nodes")
    n_lanes = 1 + len(spikes)
    moments = []
    total = [0.0] * n_lanes
    var = [0.0] * n_lanes
    reports = [[] for _ in range(n_lanes)]
    path_terms = np.zeros((n_lanes, cfg.n_paths))
    for idx, (yb, wt) in enumerate(zip(nodes, weights)):
        gamma = float(np.exp(yb))
        ride = riders if idx == 1 else ()
        starts = [(t0, y0, yb, spikes)] + [(*rider, ()) for rider in ride]
        batch, *rode = simulate_conditioned(policy, starts, x0, cfg, params,
                                            store="terminal", stream=idx)
        moments += [_mean_se(crra_utility(b.X[:, -1], float(np.exp(ybar))), cfg)
                    for b, (_t0, _y0, ybar) in zip(rode, ride)]
        for lane, x_T in enumerate(np.reshape(batch.X[..., -1], (n_lanes, -1))):
            u = crra_utility(x_T, gamma)
            inner, se = _mean_se(u, cfg)
            if (1.0 - gamma) * inner <= 0.0:
                raise DomainError(
                    f"inner expectation at node ybar={yb:.4f} violates the sign "
                    f"condition (1-gamma) E[u] > 0"
                )
            flagged = abs((1.0 - gamma) * inner) <= 5.0 * abs(1.0 - gamma) * se
            ce = float(phi(inner, gamma))
            dphi = float(phi_prime(inner, gamma))
            total[lane] += wt * ce
            var[lane] += (wt * dphi * se) ** 2
            reports[lane].append(RewardNode(
                ybar=float(yb), gamma=gamma, weight=float(wt),
                inner_mean=inner, inner_se=se, flagged=flagged,
            ))
            path_terms[lane] += wt * dphi * u
        # Dropped before the next node's run, so two runs' paths never coexist.
        del batch, rode, x_T, u
    estimates = [
        RewardEstimate(value=total[lane], se=float(np.sqrt(var[lane])),
                       nodes=tuple(reports[lane]))
        for lane in range(n_lanes)
    ]
    return estimates, path_terms, moments


def z_score(diff, se):
    """diff / se as a verdict statistic that fails closed.

    A zero se scores 0 on an exact match and +-inf otherwise; a non-finite
    diff or se scores NaN, so a check of |z| < gate fails on both.
    """
    diff, se = float(diff), float(se)
    if not (np.isfinite(diff) and np.isfinite(se)):
        return float("nan")
    if se == 0.0:
        return 0.0 if diff == 0.0 else float(np.copysign(np.inf, diff))
    return diff / se


@dataclass(frozen=True)
class GRepReport:
    """Probabilistic-representation check of the continuation value.

    ``pde`` is the factor-based value h(t0, y0, ybar) x0^(1-gamma)/(1-gamma),
    gamma = e^ybar at the wealth x0 verify_g_representation_batch was given;
    ``mean`` and ``se`` estimate it from bridge-pinned paths, the
    representation the factor equation solves, and ``z`` scores the gap.
    Unpinned paths are no check of it: for any policy that reads the
    preference state, their law differs from the pinned one.
    """

    t0: float
    y0: float
    ybar: float
    pde: float
    mean: float
    se: float
    z: float


def verify_g_representation_batch(h_values, points, x0, moments) -> list:
    """A GRepReport at each (t0, y0, ybar) of ``points``, from pinned paths.

    ``h_values`` are the PDE's factor values h(t0, y0, ybar) at the points
    (HSurface.interp_at, or verify's reads off the streamed levels), so
    this module needs nothing of the solver.

    ``moments`` are the points' (mean, se) of terminal utility from the run
    they rode on: equilibrium_spike_test(..., riders=points).rider_moments,
    node 1's stream-1 draws, bit for bit what each point's own stream-1 run
    would give.  The points thus share their noise with each other and with
    the reward quadrature's node 1: their z-scores are correlated, and a run
    of neighbouring failing points is one draw, not independent evidence.
    At (mu_Y, rho, e^y) = (0.02, 0.6, 2) on the default grid, 20000 paths x
    200 steps, seed 0 gives z = 1.89, 1.91, 1.98, 2.18, 2.75, 1.40 at t = 0,
    7, ..., 35, and seed 1 is negative at every t up to 21.
    """
    reports = []
    for (t0, y0, ybar), h, (m, se) in zip(points, h_values, moments, strict=True):
        t0, y0, ybar = float(t0), float(y0), float(ybar)
        gamma = float(np.exp(ybar))
        pde = float(h * x0 ** (1.0 - gamma) / (1.0 - gamma))
        reports.append(GRepReport(t0=t0, y0=y0, ybar=ybar, pde=pde, mean=m, se=se,
                                  z=z_score(m - pde, se)))
    return reports


@dataclass(frozen=True)
class SpikeRow:
    """One spike of the menu; ``held`` is the duration its lane holds it."""

    delta: float
    held: float
    spike: float
    j_spiked: float
    quotient: float
    se: float
    passed: bool


@dataclass(frozen=True)
class SpikeReport:
    """Finite-delta spike-perturbation test around a candidate policy.

    ``note`` states the structural limitation up front: a finite menu of
    spikes can falsify the equilibrium property, never certify it.  Each
    row estimates (J[candidate] - J[spiked]) / held with common random
    numbers, ``held`` the duration the spike is held; an equilibrium
    candidate should show no significantly negative quotient.
    """

    note: str
    t0: float
    y0: float
    j_base: float
    j_base_se: float
    rows: tuple
    rider_moments: tuple = ()

    @property
    def all_passed(self):
        return all(r.passed for r in self.rows)


def equilibrium_spike_test(pi_hat, t0, x0, y0, cfg: SimConfig, params: ModelParams, *,
                           deltas, perturbations, z_gate, ybar_quadrature=11,
                           riders=()) -> SpikeReport:
    """Estimate improvement quotients for spike deviations from a policy.

    ``perturbations`` are absolute offsets applied both ways around the
    candidate's value at (t0, y0); a row passes unless its quotient lies
    more than ``z_gate`` se below zero.  A spiked policy holds its constant
    fraction on every step whose left point lies in [t0, t0 + delta) and
    follows the candidate afterwards, so it is held for a whole number of
    steps (0.6 for delta = 0.5 on 0.2-year steps); each quotient and its se
    divide by that held duration.  Every spiked policy is a lane of the
    base policy's simulation at each quadrature node, on the same noise and
    factor paths, so the difference J_base - J_spiked is estimated far
    more precisely than either level; its se is the _mean_se of the
    per-path differences.  ``riders`` are (t0, y0, ybar) starts run, base
    lane only, on node 1's draws (stream 1); ``rider_moments`` holds their
    (mean, se), the ``moments`` of verify_g_representation_batch.
    """
    for delta in deltas:
        if not delta > 0:
            raise DomainError("spike deltas must be > 0")
        if t0 + delta >= params.T:
            raise DomainError("spike window must end before T")
    times = _time_grid(t0, cfg, params)
    steps = np.diff(times)
    base_at = float(eval_policy(pi_hat, t0, float(y0)))
    menu = [(delta, spike) for delta in deltas for off in perturbations
            for spike in (base_at - off, base_at + off)]
    spikes = [(spike, float(t0), float(t0) + float(delta)) for delta, spike in menu]
    estimates, terms, moments = _lane_rewards(pi_hat, t0, x0, y0, cfg, params,
                                              ybar_quadrature, spikes, riders)
    j_base = estimates[0]
    rows = []
    for (delta, spike), (_spike, start, end), j_sp, sp_terms in zip(
            menu, spikes, estimates[1:], terms[1:]):
        held = float(np.sum(steps[_held_steps(times, start, end)]))
        quotient = (j_base.value - j_sp.value) / held
        se_q = _mean_se(terms[0] - sp_terms, cfg)[1] / held
        rows.append(SpikeRow(delta=float(delta), held=held, spike=float(spike),
                             j_spiked=j_sp.value, quotient=float(quotient), se=se_q,
                             passed=bool(quotient >= -z_gate * se_q)))
    return SpikeReport(
        note=("finite spike menu: a failing row falsifies the equilibrium "
              "property; passing rows cannot certify it"),
        t0=float(t0), y0=float(y0), j_base=j_base.value,
        j_base_se=j_base.se, rows=tuple(rows), rider_moments=tuple(moments))
