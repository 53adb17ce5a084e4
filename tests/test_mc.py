from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy import stats

import prefhedge.mc
from prefhedge import (
    DomainError,
    ModelParams,
    PolicySurface,
    SimConfig,
    closed_form_policy_rho0,
    default_grid,
    equilibrium_spike_test,
    fixed_point_solve,
    gh_terminal_quadrature,
    reward_mc,
    simulate_conditioned,
    simulate_unconditional,
    verify_g_representation_batch,
)
from prefhedge.mc import GRepReport, PathBatch, _mean_se, eval_policy, z_score
from prefhedge.model import crra_utility, phi_prime
from test_pide import solved_h, solved_pair

P0 = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.0,
                 mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))
P6 = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.6,
                 mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))

FAST = SimConfig(n_paths=20_000, n_steps=100, seed=123)


def g_representation(h, policy, t0, x0, y0, ybar, cfg, p):
    """The g report at the one point (t0, y0, ybar), as verify makes it.

    The point rides on the node-1 run of a spike test at (t0, y0) with no
    spikes; the report equals, bit for bit, that of the point's own
    stream-1 run (reference_g_representation).
    """
    point = [(t0, y0, ybar)]
    spike = equilibrium_spike_test(policy, t0, x0, y0, cfg, p, deltas=((p.T - t0) / 2,),
                                   perturbations=(), z_gate=3.0, ybar_quadrature=2,
                                   riders=point)
    (got,) = verify_g_representation_batch([h.interp_at(t0, y0, ybar)], point, x0,
                                            spike.rider_moments)
    assert [got] == reference_g_representation(h, policy, point, x0, cfg, p)
    return got


@dataclass(frozen=True)
class SpikePolicy:
    """``base`` overridden by the constant fraction ``spike`` on [t0, t0 + delta).

    The separate-run reference that the simulator's spike lanes are tested
    against.
    """

    base: object
    spike: float
    t0: float
    delta: float

    def value(self, t, y, clip=True):
        base = eval_policy(self.base, t, y)
        inside = (np.asarray(t) >= self.t0) & (np.asarray(t) < self.t0 + self.delta)
        return np.where(inside, self.spike, base)


class TestSimulateUnconditional:
    def test_zero_policy_is_risk_free_rollup(self):
        (batch,) = simulate_unconditional(0.0, [(0.0, P0.y0)], 1.5, FAST, P0)
        assert np.allclose(batch.X[:, -1], 1.5 * np.exp(P0.r * P0.T), rtol=1e-12)

    def test_preference_factor_moments(self):
        (batch,) = simulate_unconditional(0.0, [(0.0, P0.y0)], 1.0, FAST, P0)
        yT = batch.Y[:, -1]
        mean_th = P0.y0 + P0.mu_Y * P0.T
        var_th = P0.sigma_Y**2 * P0.T
        z_mean = (yT.mean() - mean_th) / (yT.std(ddof=1) / np.sqrt(yT.size))
        var_se = yT.var(ddof=1) * np.sqrt(2.0 / (yT.size - 1))
        z_var = (yT.var(ddof=1) - var_th) / var_se
        assert abs(z_mean) < 3
        assert abs(z_var) < 3

    def test_log_wealth_moments_constant_policy(self):
        pi0 = 1.0
        (batch,) = simulate_unconditional(pi0, [(0.0, P0.y0)], 1.0, FAST, P0)
        lnx = np.log(batch.X[:, -1])
        mean_th = (P0.r + pi0 * (P0.mu_S - P0.r) - 0.5 * pi0**2 * P0.sigma_S**2) * P0.T
        z = (lnx.mean() - mean_th) / (lnx.std(ddof=1) / np.sqrt(lnx.size))
        assert abs(z) < 3

    def test_determinism(self):
        (b1,) = simulate_unconditional(0.5, [(0.0, P0.y0)], 1.0, FAST, P0)
        (b2,) = simulate_unconditional(0.5, [(0.0, P0.y0)], 1.0, FAST, P0)
        assert np.array_equal(b1.X, b2.X)
        assert np.array_equal(b1.Y, b2.Y)

    def test_antithetic_pairs(self):
        cfg = SimConfig(n_paths=1000, n_steps=10, seed=9, antithetic=True)
        (batch,) = simulate_unconditional(0.0, [(0.0, P0.y0)], 1.0, cfg, P0)
        yT = batch.Y[:, -1]
        drift = P0.y0 + P0.mu_Y * P0.T
        assert np.allclose(yT[:500] + yT[500:], 2 * drift, atol=1e-10)


class TestSimulateConditioned:
    def test_terminal_pinning(self):
        ybar = P6.y0 + 0.5
        for n_steps in (5, 100, 1600):
            cfg = SimConfig(n_paths=2_000, n_steps=n_steps, seed=123)
            (batch,) = simulate_conditioned(0.3, [(0.0, P6.y0, ybar, ())], 1.0, cfg, P6)
            assert np.max(np.abs(batch.Y[:, -1] - ybar)) <= 1e-12

    def test_bridge_midpoint_moments(self):
        ybar = P6.y0 + P6.mu_Y * P6.T
        for n_steps in (5, 400):
            cfg = SimConfig(n_paths=20_000, n_steps=n_steps, seed=123)
            (batch,) = simulate_conditioned(0.3, [(0.0, P6.y0, ybar, ())], 1.0, cfg, P6)
            mid = int(np.argmin(np.abs(batch.times - 0.5 * P6.T)))
            s = batch.times[mid]
            ym = batch.Y[:, mid]
            mean_th = P6.y0 + (s / P6.T) * (ybar - P6.y0)
            var_th = P6.sigma_Y**2 * s * (P6.T - s) / P6.T
            z_mean = (ym.mean() - mean_th) / (ym.std(ddof=1) / np.sqrt(ym.size))
            var_se = ym.var(ddof=1) * np.sqrt(2.0 / (ym.size - 1))
            z_var = (ym.var(ddof=1) - var_th) / var_se
            assert abs(z_mean) < 3
            assert abs(z_var) < 3

    def test_constant_policy_wealth_law_given_pin(self):
        # Given Y_T = ybar the factor's Brownian increment over [0, T] is
        # pinned to w, so under a constant fraction ln X_T is Gaussian with
        # mean a T + pi sigma_S rho w and variance pi^2 sigma_S^2 (1-rho^2) T,
        # at any step count.
        pi0 = 1.0
        ybar = P6.y0 + 0.5
        w = (ybar - P6.y0 - P6.mu_Y * P6.T) / P6.sigma_Y
        mean_th = ((P6.r + pi0 * (P6.mu_S - P6.r) - 0.5 * pi0**2 * P6.sigma_S**2) * P6.T
                   + pi0 * P6.sigma_S * P6.rho * w)
        var_th = pi0**2 * P6.sigma_S**2 * (1.0 - P6.rho**2) * P6.T
        for n_steps in (5, 1600):
            cfg = SimConfig(n_paths=20_000, n_steps=n_steps, seed=7)
            (batch,) = simulate_conditioned(pi0, [(0.0, P6.y0, ybar, ())], 1.0, cfg, P6,
                                            store="terminal")
            lnx = np.log(batch.X[:, -1])
            z_mean = (lnx.mean() - mean_th) / np.sqrt(var_th / lnx.size)
            var_se = var_th * np.sqrt(2.0 / (lnx.size - 1))
            z_var = (lnx.var(ddof=1) - var_th) / var_se
            assert abs(z_mean) < 3
            assert abs(z_var) < 3

    def test_rho0_wealth_law_unchanged_for_constant_policy(self):
        ybar = P0.y0 + P0.mu_Y * P0.T + 0.3
        (bu,) = simulate_unconditional(0.4, [(0.0, P0.y0)], 1.0, FAST, P0, store="terminal")
        (bc,) = simulate_conditioned(0.4, [(0.0, P0.y0, ybar, ())], 1.0, FAST, P0,
                                     store="terminal", stream=7)
        ks = stats.ks_2samp(np.log(bu.X[:, -1]), np.log(bc.X[:, -1]))
        assert ks.pvalue > 0.01

    def test_nan_wealth_is_rejected(self):
        X = np.array([[1.0, 1.1], [1.0, np.nan]])
        with pytest.raises(DomainError):
            PathBatch(times=np.array([0.0, 1.0]), X=X, Y=np.zeros((2, 2)))


class TestRewardMC:
    def test_zero_policy_is_exact(self):
        cfg = SimConfig(n_paths=2_000, n_steps=50, seed=5)
        est = reward_mc(0.0, 0.0, 1.7, P0.y0, cfg, P0, ybar_quadrature=11)
        assert est.value == pytest.approx(np.log(1.7) + P0.r * P0.T, rel=1e-10)
        assert est.se == pytest.approx(0.0, abs=1e-12)

    def test_lognormal_closed_form_rho0(self):
        # constant policy, rho = 0: the inner expectation is a lognormal
        # power moment, so J = ln x + tau (r + pi(mu-r) - pi^2 sig^2 E[gamma]/2)
        pi0 = 0.25
        cfg = SimConfig(n_paths=60_000, n_steps=10, seed=21)
        est = reward_mc(pi0, 0.0, 1.0, P0.y0, cfg, P0, ybar_quadrature=21)
        Eg = np.exp(P0.y0 + (P0.mu_Y + 0.5 * P0.sigma_Y**2) * P0.T)
        j_exact = P0.T * (P0.r + pi0 * (P0.mu_S - P0.r)
                          - 0.5 * pi0**2 * P0.sigma_S**2 * Eg)
        assert abs(est.value - j_exact) < 3 * est.se + 2e-3

    def test_wealth_independence_is_exact_shift(self):
        cfg = SimConfig(n_paths=5_000, n_steps=60, seed=3)
        j1 = reward_mc(0.3, 0.0, 1.0, P0.y0, cfg, P0, ybar_quadrature=7)
        for x0 in (0.5, 2.0):
            jx = reward_mc(0.3, 0.0, x0, P0.y0, cfg, P0, ybar_quadrature=7)
            assert jx.value - np.log(x0) == pytest.approx(j1.value, rel=1e-9)

    def test_total_expectation_identity(self):
        # density-weighted conditioned inner means reproduce the
        # unconditional expectation of the γ(Y_T)-graded utility
        pi0 = 0.3
        cfg = SimConfig(n_paths=40_000, n_steps=10, seed=17)
        nodes, weights = gh_terminal_quadrature(0.0, P6.y0, P6, 21)
        left = 0.0
        var_left = 0.0
        for i, (yb, w) in enumerate(zip(nodes, weights)):
            (b,) = simulate_conditioned(pi0, [(0.0, P6.y0, yb, ())], 1.0, cfg, P6,
                                        store="terminal", stream=i)
            u = b.X[:, -1] ** (1 - np.exp(yb)) / (1 - np.exp(yb))
            left += w * u.mean()
            var_left += (w * u.std(ddof=1)) ** 2 / u.size
        (bu,) = simulate_unconditional(pi0, [(0.0, P6.y0)], 1.0, cfg, P6,
                                       store="terminal", stream=101)
        gT = np.exp(bu.Y[:, -1])
        uu = bu.X[:, -1] ** (1 - gT) / (1 - gT)
        right = uu.mean()
        se = np.sqrt(var_left + uu.var(ddof=1) / uu.size)
        assert abs(left - right) < 3 * se

    def test_total_expectation_identity_log_wealth(self):
        # The same identity on ln X_T.  Under the pin Y_T = ybar the factor's
        # Brownian increment over [0, T] is w(ybar) = (ybar - y0 - mu_Y T)/sigma_Y,
        # so at a constant fraction ln X_T is Gaussian with mean a T + pi
        # sigma_S rho w(ybar) and variance pi^2 sigma_S^2 (1 - rho^2) T
        # (test_constant_policy_wealth_law_given_pin).  The mean is linear in
        # ybar, so the Gauss-Hermite sum of the pinned means is exact, and the
        # pinned side's se is small.
        pi0, p = 0.3, P6
        cfg = SimConfig(n_paths=40_000, n_steps=10, seed=17)
        a = p.r + pi0 * (p.mu_S - p.r) - 0.5 * pi0**2 * p.sigma_S**2
        nodes, weights = gh_terminal_quadrature(0.0, p.y0, p, 21)
        left = var_left = exact_left = 0.0
        for i, (yb, w) in enumerate(zip(nodes, weights)):
            (b,) = simulate_conditioned(pi0, [(0.0, p.y0, yb, ())], 1.0, cfg, p,
                                        store="terminal", stream=i)
            lnx = np.log(b.X[:, -1])
            left += w * lnx.mean()
            var_left += w**2 * lnx.var(ddof=1) / lnx.size
            exact_left += w * (a * p.T + pi0 * p.sigma_S * p.rho
                               * (yb - p.y0 - p.mu_Y * p.T) / p.sigma_Y)
        (bu,) = simulate_unconditional(pi0, [(0.0, p.y0)], 1.0, cfg, p,
                                       store="terminal", stream=101)
        lnx = np.log(bu.X[:, -1])
        right, se_right = lnx.mean(), lnx.std(ddof=1) / np.sqrt(lnx.size)
        assert exact_left == pytest.approx(a * p.T, abs=1e-9)
        assert abs(left - exact_left) < 3 * np.sqrt(var_left)
        assert abs(right - a * p.T) < 3 * se_right
        assert abs(left - right) < 3 * np.sqrt(var_left + se_right**2)

    def test_node_diagnostics_benign_case(self):
        # rho = 0, constant policy: ln X_T ~ N(m, v) under every pin, so
        # each inner mean has the closed form E u = exp((1-g) m + (1-g)^2 v/2)
        # / (1-g) and |E u| / se the closed form sqrt(n / (exp((1-g)^2 v) - 1));
        # nodes where that ratio is comfortably above the flag threshold of 5
        # must not be flagged
        pi0 = 0.2
        cfg = SimConfig(n_paths=4_000, n_steps=50, seed=1)
        est = reward_mc(pi0, 0.0, 1.0, P0.y0, cfg, P0, ybar_quadrature=7)
        m = (P0.r + pi0 * (P0.mu_S - P0.r) - 0.5 * pi0**2 * P0.sigma_S**2) * P0.T
        v = pi0**2 * P0.sigma_S**2 * P0.T
        assert np.isfinite(est.value)
        assert len(est.nodes) == 7
        assert sum(n.weight for n in est.nodes) == pytest.approx(1.0)
        for node in est.nodes:
            k = 1.0 - node.gamma
            exact = np.exp(k * m + 0.5 * k**2 * v) / k
            assert abs(node.inner_mean - exact) < 4 * node.inner_se
            ratio = np.sqrt(cfg.n_paths / np.expm1(k**2 * v))
            if ratio >= 10:
                assert not node.flagged


class TestMeanSe:
    def test_independent_paths(self):
        x = np.random.default_rng(5).standard_normal(1_000)
        cfg = SimConfig(n_paths=1_000, n_steps=1)
        assert _mean_se(x, cfg) == (float(np.mean(x)),
                                    float(np.std(x, ddof=1) / np.sqrt(x.size)))

    def test_antithetic_se_is_the_se_of_pair_means(self):
        # Mirrored paths are correlated (strongly, on the short bridge from
        # t0 = 30): the se is that of the pair means, and the se that treats
        # the paths as independent is another number.  Each reward node's
        # inner se is this se.
        cfg = SimConfig(n_paths=4_000, n_steps=20, seed=3, antithetic=True)
        est = reward_mc(0.5, 30.0, 1.0, P6.y0, cfg, P6, ybar_quadrature=3)
        nodes, _weights = gh_terminal_quadrature(30.0, P6.y0, P6, 3)
        for idx, (yb, node) in enumerate(zip(nodes, est.nodes, strict=True)):
            (b,) = simulate_conditioned(0.5, [(30.0, P6.y0, yb, ())], 1.0, cfg, P6,
                                        store="terminal", stream=idx)
            u = crra_utility(b.X[:, -1], node.gamma)
            pairs = 0.5 * (u[:2_000] + u[2_000:])
            paired = float(np.std(pairs, ddof=1) / np.sqrt(pairs.size))
            assert _mean_se(u, cfg) == (float(np.mean(u)), paired)
            assert (node.inner_mean, node.inner_se) == (float(np.mean(u)), paired)
            unpaired = float(np.std(u, ddof=1) / np.sqrt(u.size))
            assert unpaired > 1.5 * paired
            assert _mean_se(u, replace(cfg, antithetic=False)) == (node.inner_mean, unpaired)


class TestGRepresentation:
    def test_zero_policy_limit(self):
        p = P6
        grid = default_grid(p, n_t_steps=80, n_y=121, n_ybar=11)
        h = solved_h(0.0, grid, p)
        ybar = float(grid.ybar_nodes[5])
        cfg = SimConfig(n_paths=4_000, n_steps=60, seed=11)
        rep = g_representation(h, 0.0, 0.0, 1.0, p.y0, ybar, cfg, p)
        gamma = np.exp(ybar)
        exact = (1.0 * np.exp(p.r * p.T)) ** (1 - gamma) / (1 - gamma)
        # the path estimate and the factor value collapse to the
        # deterministic payoff's utility
        assert rep.pde == pytest.approx(exact, rel=5e-3)
        assert rep.mean == pytest.approx(exact, rel=1e-9)

    def test_solved_system_conditioned_representation(self):
        p = P6
        grid = default_grid(p, probe_y=[p.y0])
        h, pol = solved_pair(grid, p)
        cfg = SimConfig(n_paths=50_000, n_steps=300, seed=29)
        mean = p.y0 + p.mu_Y * p.T
        ybar = float(grid.ybar_nodes[int(np.argmin(np.abs(grid.ybar_nodes - mean)))])
        rep = g_representation(h, pol, 0.0, 1.0, p.y0, ybar, cfg, p)
        assert abs(rep.z) < 4


    def test_fine_steps_stay_finite(self):
        p = P6
        grid = default_grid(p, n_t_steps=80, n_y=121, n_ybar=11)
        h = solved_h(0.3, grid, p)
        ybar = float(grid.ybar_nodes[5])
        cfg = SimConfig(n_paths=2_000, n_steps=800, seed=13)
        rep = g_representation(h, 0.3, 0.0, 1.0, p.y0, ybar, cfg, p)
        assert np.isfinite([rep.mean, rep.se, rep.z]).all()

    def test_nan_policy_fails_closed(self):
        p = P6
        grid = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7)
        h = solved_h(0.3, grid, p)
        cfg = SimConfig(n_paths=500, n_steps=20, seed=17)

        def nan_policy(t, y):
            return np.full(np.shape(y), np.nan)

        with pytest.raises(DomainError):
            g_representation(h, nan_policy, 0.0, 1.0, p.y0,
                             float(grid.ybar_nodes[3]), cfg, p)
        with pytest.raises(DomainError):
            reward_mc(nan_policy, 0.0, 1.0, p.y0, cfg, p, ybar_quadrature=3)

    def test_z_score_fails_closed(self):
        assert z_score(0.3, 0.1) == pytest.approx(3.0)
        assert z_score(0.0, 0.0) == 0.0
        assert z_score(-1e-3, 0.0) == -np.inf
        for diff, se in ((0.1, np.nan), (np.nan, 0.1), (0.1, np.inf), (np.inf, np.inf)):
            assert np.isnan(z_score(diff, se))


def paired_se(samples, cfg):
    """The se of the mean, over antithetic pair means when cfg.antithetic."""
    if cfg.antithetic:
        half = samples.size // 2
        samples = 0.5 * (samples[:half] + samples[half:])
    return float(np.std(samples, ddof=1) / np.sqrt(samples.size))


def reference_g_representation(h, policy, points, x0, cfg, p):
    """The g reports from one conditioned (stream 1) run per point, no shared draw."""
    reports = []
    for t0, y0, ybar in points:
        gamma = float(np.exp(ybar))
        pde = float(h.interp_at(t0, y0, ybar) * x0 ** (1.0 - gamma) / (1.0 - gamma))
        (batch,) = simulate_conditioned(policy, [(t0, y0, ybar, ())], x0, cfg, p,
                                        store="terminal", stream=1)
        u = crra_utility(batch.X[:, -1], gamma)
        m, se = float(np.mean(u)), paired_se(u, cfg)
        reports.append(GRepReport(t0=float(t0), y0=float(y0), ybar=float(ybar), pde=pde,
                                  mean=m, se=se, z=z_score(m - pde, se)))
    return reports


class TestSharedStreamGRepresentation:
    P = P6
    GRID = dict(n_t_steps=40, n_y=61, n_ybar=7, n_gh=9)

    def _points(self, grid):
        # Different t0 and y0; t0 = 39.9 lies within one 2-year step (the
        # t0 = 0 start's at 20 steps) of T, and inside the grid (last node 39.96).
        yb = grid.ybar_nodes
        return [(0.0, self.P.y0, float(yb[3])), (14.0, np.log(2.5), float(yb[4])),
                (28.0, np.log(1.5), float(yb[2])), (39.9, self.P.y0, float(yb[3]))]

    def _rode(self, policy, points, cfg, **kw):
        """The points' g moments from riding on a spike run at (10, y0)."""
        kw = {"deltas": (0.5,), "perturbations": (0.1,), "z_gate": 3.0,
              "ybar_quadrature": 3, **kw}
        return equilibrium_spike_test(policy, 10.0, 1.0, self.P.y0, cfg, self.P,
                                      riders=points, **kw)

    def _check(self, policy, cfg, h=None):
        if h is None:
            h = solved_h(0.3, default_grid(self.P, probe_y=[self.P.y0], **self.GRID), self.P)
        points = self._points(h.grid)
        moments = self._rode(policy, points, cfg).rider_moments
        got = verify_g_representation_batch([h.interp_at(*p) for p in points], points, 1.0,
                                            moments)
        want = reference_g_representation(h, policy, points, 1.0, cfg, self.P)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g == w
        t0, y0, ybar = points[1]
        assert g_representation(h, policy, t0, 1.0, y0, ybar, cfg, self.P) == want[1]
        # distinct starts on one draw still give distinct estimates
        assert len({g.mean for g in got}) == 4

    def test_surface_policy(self):
        grid = default_grid(self.P, probe_y=[self.P.y0], **self.GRID)
        h, pol = solved_pair(grid, self.P)
        self._check(pol, SimConfig(n_paths=2_000, n_steps=20, seed=61), h=h)

    def test_callable_policy(self):
        def policy(t, y):
            return 0.4 + 0.1 * np.tanh(y) + 0.001 * t
        self._check(policy, SimConfig(n_paths=2_000, n_steps=20, seed=67))

    def test_constant_policy(self):
        self._check(0.35, SimConfig(n_paths=2_000, n_steps=20, seed=71))

    def test_antithetic(self):
        def policy(t, y):
            return closed_form_policy_rho0(t, y, self.P)
        self._check(policy, SimConfig(n_paths=2_000, n_steps=20, seed=73,
                                      antithetic=True))

    def test_nan_in_one_start_fails_closed(self):
        grid = default_grid(self.P, probe_y=[self.P.y0], **self.GRID)
        h = solved_h(0.3, grid, self.P)
        cfg = SimConfig(n_paths=500, n_steps=20, seed=79)

        def policy(t, y):
            # NaN before t = 5: of the spike run's starts, only the rider
            # at t0 = 0 reads it
            return np.full(np.shape(y), np.nan if t < 5.0 else 0.3)

        points = self._points(h.grid)
        moments = self._rode(policy, points[1:], cfg).rider_moments
        h_values = [h.interp_at(*p) for p in points[1:]]
        assert len(verify_g_representation_batch(h_values, points[1:], 1.0, moments)) == 3
        with pytest.raises(DomainError):
            self._rode(policy, points, cfg)

    def test_riders_on_the_spike_run(self):
        # The points ride on the spike test's node-1 run (stream 1): the
        # spike report is the one without riders, and the riders' moments
        # give the reports of the points' own stream-1 run.
        grid = default_grid(self.P, probe_y=[self.P.y0], **self.GRID)
        h, pol = solved_pair(grid, self.P)
        cfg = SimConfig(n_paths=2_000, n_steps=20, seed=61)
        points = self._points(h.grid)
        kw = dict(deltas=(0.5,), perturbations=(0.1,), z_gate=3.0, ybar_quadrature=5)
        alone = equilibrium_spike_test(pol, 0.0, 1.0, self.P.y0, cfg, self.P, **kw)
        rode = equilibrium_spike_test(pol, 0.0, 1.0, self.P.y0, cfg, self.P,
                                      riders=points, **kw)
        assert alone.rider_moments == () and len(rode.rider_moments) == 4
        assert replace(rode, rider_moments=()) == alone
        h_values = [h.interp_at(*p) for p in points]
        got = verify_g_representation_batch(h_values, points, 1.0, rode.rider_moments)
        assert got == reference_g_representation(h, pol, points, 1.0, cfg, self.P)
        with pytest.raises(ValueError):
            verify_g_representation_batch(h_values, points, 1.0, rode.rider_moments[1:])
        with pytest.raises(DomainError, match="two nodes"):
            equilibrium_spike_test(pol, 0.0, 1.0, self.P.y0, cfg, self.P, deltas=(0.5,),
                                   perturbations=(0.05, 0.1, 0.2), z_gate=3.0,
                                   ybar_quadrature=1,
                                   riders=points)

    def test_starts_match_separate_runs_full_store(self):
        cfg = SimConfig(n_paths=300, n_steps=25, seed=83)
        starts = ((0.0, self.P.y0, 0.8), (20.0, 0.9, 1.0), (39.5, 0.5, 0.6))
        spikes = [(0.9, 20.0, 21.0)]
        cond = simulate_conditioned(0.4, [(*start, spikes) for start in starts], 1.0, cfg,
                                    self.P, stream=4)
        uncond = simulate_unconditional(0.4, [start[:2] for start in starts], 1.0, cfg,
                                        self.P, stream=4)
        for i, (t0, y0, ybar) in enumerate(starts):
            (alone,) = simulate_conditioned(0.4, [(t0, y0, ybar, spikes)], 1.0, cfg,
                                            self.P, stream=4)
            assert np.array_equal(cond[i].times, alone.times)
            assert np.array_equal(cond[i].X, alone.X)
            assert np.array_equal(cond[i].Y, alone.Y)
            assert cond[i].ybar == alone.ybar
            (alone,) = simulate_unconditional(0.4, [(t0, y0)], 1.0, cfg, self.P, stream=4)
            assert np.array_equal(uncond[i].X, alone.X)
            assert np.array_equal(uncond[i].Y, alone.Y)
            assert uncond[i].ybar is None


def reference_simulate(policy, starts, x0, cfg, p, store="full", stream=0):
    """The unfused path step: (X, Y) arrays per start, X with a lane axis.

    ``starts`` are (t0, y0, ybar, spikes), each with its own spike lanes.
    Draws as the kernel does, reads a PolicySurface by 2-d gathers at its
    searchsorted brackets (clamped to the hull) and steps ln X by the
    model's drift and correlated noise term by term, with the factor's
    increment dW1 = (dY - mu_Y dt)/sigma_Y spelled out.
    """
    def bracket(nodes, x):
        x = np.clip(x, nodes[0], nodes[-1])
        lo = np.clip(np.searchsorted(nodes, x, side="right"), 1, nodes.size - 1) - 1
        return lo, (x - nodes[lo]) / (nodes[lo + 1] - nodes[lo])

    def read(t, y):
        if not isinstance(policy, PolicySurface):
            return eval_policy(policy, t, y)
        g, v = policy.grid, policy.pi
        ti, tw = bracket(g.t_nodes, t)
        yi, yw = bracket(g.y_nodes, y)
        lo = v[ti, yi] * (1.0 - yw) + v[ti, yi + 1] * yw
        hi = v[ti + 1, yi] * (1.0 - yw) + v[ti + 1, yi + 1] * yw
        return lo * (1.0 - tw) + hi * tw

    n = cfg.n_paths
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, stream))))
    rho_c = np.sqrt(1.0 - p.rho * p.rho)
    grids = [np.linspace(t0, p.T, cfg.n_steps + 1) for t0, _y0, _ybar, _spikes in starts]
    lnX = [np.full((1 + len(spikes), n), np.log(x0)) for *_start, spikes in starts]
    Y = [np.full(n, float(y0)) for _t0, y0, _ybar, _spikes in starts]
    Xs = [[np.exp(x)] for x in lnX]
    Ys = [[y.copy()] for y in Y]
    for k in range(cfg.n_steps):
        if cfg.antithetic:
            Zh = rng.standard_normal((2, n // 2))
            Z = np.concatenate([Zh, -Zh], axis=1)
        else:
            Z = rng.standard_normal((2, n))
        for s, (times, (_t0, _y0, ybar, spikes)) in enumerate(zip(grids, starts)):
            t = times[k]
            dt = times[k + 1] - t
            sdt = np.sqrt(dt)
            pi = np.repeat(read(t, Y[s])[None], 1 + len(spikes), axis=0)
            for lane, (value, start, end) in enumerate(spikes, 1):
                if start <= t < end:
                    pi[lane] = value
            if ybar is not None:
                tau = p.T - t
                dY = (dt / tau) * (ybar - Y[s]) + (
                    p.sigma_Y * np.sqrt(max(dt * (tau - dt) / tau, 0.0))) * Z[0]
            else:
                dY = p.mu_Y * dt + (p.sigma_Y * sdt) * Z[0]
            dW1 = (dY - p.mu_Y * dt) / p.sigma_Y
            lnX[s] = lnX[s] + (
                p.r + pi * (p.mu_S - p.r) - 0.5 * pi**2 * p.sigma_S**2
            ) * dt + pi * p.sigma_S * (p.rho * dW1 + rho_c * sdt * Z[1])
            Y[s] = Y[s] + dY
            Xs[s].append(np.exp(lnX[s]))
            Ys[s].append(Y[s])
    if store == "full":
        return [(np.stack(x, axis=-1), np.stack(y, axis=-1)) for x, y in zip(Xs, Ys)]
    return [(np.stack([x[0], x[-1]], axis=-1), np.stack([y[0], y[-1]], axis=-1))
            for x, y in zip(Xs, Ys)]


def smooth_surface(p):
    """A PolicySurface on the smoke grid with a y- and t-dependent hedging demand."""
    grid = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9)
    t, y = grid.t_nodes[:, None], grid.y_nodes[None, :]
    myopic = closed_form_policy_rho0(t, y, p)
    hedging = 0.05 * np.sin(3.0 * y) * (1.0 - t / p.T)
    return PolicySurface(grid, pi=myopic + hedging, myopic=myopic, hedging=hedging)


class TestKernelAgainstReference:
    P = P6
    STARTS = ((0.0, P6.y0, 0.8), (20.0, 0.9, 1.0), (39.5, 0.5, 0.6))
    SPIKES = ((0.9, 20.0, 22.0), (0.1, 0.0, 3.0))
    # Each start's own lanes: none on the second, and on the third a window
    # inside its half year to T.
    LANES = (SPIKES, (), ((0.2, 39.6, 39.8),))

    def _policy(self, kind):
        if kind == "surface":
            return smooth_surface(self.P)
        if kind == "callable":
            return lambda t, y: 0.4 + 0.1 * np.tanh(y) + 0.001 * t
        return 0.35

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("store", ["full", "terminal"])
    @pytest.mark.parametrize("kind", ["surface", "callable", "constant"])
    def test_matches_unfused_step(self, kind, store, antithetic):
        policy = self._policy(kind)
        cfg = SimConfig(n_paths=300, n_steps=25, seed=89, antithetic=antithetic)
        own = [(*start, lanes) for start, lanes in zip(self.STARTS, self.LANES)]
        same = [(*start, self.SPIKES) for start in self.STARTS]
        unpinned = [(t0, y0) for t0, y0, _ybar in self.STARTS]
        runs = [
            (simulate_conditioned(policy, own, 1.3, cfg, self.P, store=store, stream=2),
             reference_simulate(policy, own, 1.3, cfg, self.P, store, 2)),
            (simulate_conditioned(policy, same, 1.3, cfg, self.P, store=store, stream=2),
             reference_simulate(policy, same, 1.3, cfg, self.P, store, 2)),
            (simulate_unconditional(policy, unpinned, 1.3, cfg, self.P, store=store,
                                    stream=2),
             reference_simulate(policy, [(t0, y0, None, ()) for t0, y0 in unpinned],
                                1.3, cfg, self.P, store, 2)),
        ]
        for batches, reference in runs:
            for batch, (X, Y) in zip(batches, reference, strict=True):
                np.testing.assert_allclose(batch.X, X if batch.X.ndim == 3 else X[0],
                                           rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(batch.Y, Y, rtol=1e-12, atol=0.0)
        assert [b.X.ndim for b in runs[0][0]] == [3, 2, 3]

    @pytest.mark.parametrize("store", ["full", "terminal"])
    def test_rider_equals_its_own_run(self, store):
        # Starts without lanes riding on a spiked start's run are bit for
        # bit their runs alone on that stream, and so is the spiked start.
        policy = smooth_surface(self.P)
        cfg = SimConfig(n_paths=300, n_steps=25, seed=101)
        starts = [(*start, lanes) for start, lanes
                  in zip(self.STARTS, (self.SPIKES, (), ()))]
        shared = simulate_conditioned(policy, starts, 1.3, cfg, self.P, store=store,
                                      stream=1)
        for batch, start in zip(shared, starts, strict=True):
            (alone,) = simulate_conditioned(policy, [start], 1.3, cfg, self.P, store=store,
                                            stream=1)
            assert np.array_equal(batch.times, alone.times)
            assert np.array_equal(batch.X, alone.X)
            assert np.array_equal(batch.Y, alone.Y)

    @pytest.mark.parametrize("kind", ["surface", "callable", "constant"])
    def test_one_policy_read_per_step_per_start(self, monkeypatch, kind):
        # The policy is read by name through prefhedge.mc.eval_policy, once per
        # step per start; a read around it would escape a wrapper there.
        policy = self._policy(kind)
        read = prefhedge.mc.eval_policy
        calls = []
        monkeypatch.setattr(prefhedge.mc, "eval_policy",
                            lambda pol, t, y: calls.append(t) or read(pol, t, y))
        cfg = SimConfig(n_paths=200, n_steps=15, seed=97)
        grids = [np.linspace(t0, self.P.T, cfg.n_steps + 1) for t0, _y0, _ybar in self.STARTS]
        want = [grid[k] for k in range(cfg.n_steps) for grid in grids]
        simulate_conditioned(policy, [(*start, self.SPIKES) for start in self.STARTS], 1.0,
                             cfg, self.P, store="terminal")
        assert calls == want
        calls.clear()
        simulate_unconditional(policy, [start[:2] for start in self.STARTS], 1.0, cfg, self.P)
        assert calls == want


class TestSpike:
    def _policy(self, p):
        return lambda t, y: closed_form_policy_rho0(t, y, p)

    def test_spike_policy_wrapper(self):
        pol = SpikePolicy(0.3, 0.9, 1.0, 0.5)
        assert eval_policy(pol, 0.5, np.zeros(3))[0] == 0.3
        assert eval_policy(pol, 1.2, np.zeros(3))[0] == 0.9
        assert eval_policy(pol, 1.5, np.zeros(3))[0] == 0.3

    def test_equilibrium_passes_and_crn_tightens(self):
        p = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.0,
                        mu_Y=-0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))
        cfg = SimConfig(n_paths=20_000, n_steps=120, seed=31)
        rep = equilibrium_spike_test(self._policy(p), 30.0, 1.0, p.y0, cfg, p,
                                     deltas=(0.5,), perturbations=(0.1,), z_gate=3.0,
                                     ybar_quadrature=9)
        assert rep.all_passed
        # CRN: quotient SE far below the scale of either estimate's own SE
        assert all(r.se < rep.j_base_se for r in rep.rows)

    def test_quotient_divides_by_held_duration(self):
        # 0.2-year steps: a spike on [0, 0.5) holds on the steps starting
        # at 0, 0.2 and 0.4, for 0.6.
        cfg = SimConfig(n_paths=500, n_steps=200, seed=59)
        rep = equilibrium_spike_test(0.3, 0.0, 1.0, P6.y0, cfg, P6, deltas=(0.5,),
                                     perturbations=(0.1,), z_gate=3.0, ybar_quadrature=3)
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert row.delta == 0.5
            assert row.held == pytest.approx(0.6, rel=1e-12)
            assert row.quotient * row.held == pytest.approx(rep.j_base - row.j_spiked,
                                                            rel=1e-12)

    def test_detects_non_equilibrium_policy(self):
        p = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.0,
                        mu_Y=-0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))
        frozen = (p.mu_S - p.r) / (p.sigma_S**2 * np.exp(p.y0))
        cfg = SimConfig(n_paths=20_000, n_steps=120, seed=37)
        rep = equilibrium_spike_test(frozen, 30.0, 1.0, p.y0, cfg, p,
                                     deltas=(0.5,), perturbations=(0.1, 0.2), z_gate=3.0,
                                     ybar_quadrature=9)
        improvements = [(-r.quotient, r.se, r.spike) for r in rep.rows]
        assert any(impr > 3 * se for impr, se, _sp in improvements)
        # the winning spikes are on the side toward the true policy
        target = closed_form_policy_rho0(30.0, p.y0, p)
        for impr, se, sp in improvements:
            if impr > 3 * se:
                assert abs(sp - target) < abs(frozen - target)


def reference_spike_test(pi_hat, t0, y0, cfg, p, deltas, offsets, n_nodes):
    """The spike test with one reward_mc run per policy (no shared lanes).

    Returns (j_base, [(j_spiked, quotient, se)]), the per-path terms of the
    standard error rebuilt node by node from each run's own streams (the se
    over antithetic pair means when the config pairs paths).  Each
    quotient divides by the held duration: the steps of linspace(t0, T,
    n_steps + 1) whose left point lies in [t0, t0 + delta).
    """
    nodes, weights = gh_terminal_quadrature(t0, y0, p, n_nodes)
    times = np.linspace(t0, p.T, cfg.n_steps + 1)

    def run(policy):
        est = reward_mc(policy, t0, 1.0, y0, cfg, p, ybar_quadrature=n_nodes)
        terms = []
        for idx, (yb, wt, node) in enumerate(zip(nodes, weights, est.nodes)):
            (b,) = simulate_conditioned(policy, [(t0, y0, yb, ())], 1.0, cfg, p,
                                        store="terminal", stream=idx)
            u = crra_utility(b.X[:, -1], node.gamma)
            terms.append(wt * float(phi_prime(node.inner_mean, node.gamma)) * u)
        return est, np.sum(terms, axis=0)

    base_at = float(np.mean(eval_policy(pi_hat, t0, np.atleast_1d(float(y0)))))
    j_base, base_terms = run(pi_hat)
    rows = []
    for delta in deltas:
        left = times[:-1]
        inside = (left >= float(t0)) & (left < float(t0) + float(delta))
        held = float(np.sum(np.diff(times)[inside]))
        for off in offsets:
            for spike in (base_at - off, base_at + off):
                j_sp, sp_terms = run(SpikePolicy(pi_hat, spike, float(t0), float(delta)))
                se = paired_se(base_terms - sp_terms, cfg) / held
                rows.append((j_sp.value, (j_base.value - j_sp.value) / held, se))
    return j_base, rows


class TestSpikeLanes:
    P = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.6,
                    mu_Y=-0.02, sigma_Y=0.04, T=40.0, y0=np.log(0.8))

    def _check(self, policy, cfg, t0=30.0):
        deltas, offsets = (0.5, 0.25), (0.05, 0.2)
        rep = equilibrium_spike_test(policy, t0, 1.0, self.P.y0, cfg, self.P,
                                     deltas=deltas, perturbations=offsets, z_gate=3.0,
                                     ybar_quadrature=5)
        j_base, rows = reference_spike_test(policy, t0, self.P.y0, cfg, self.P,
                                            deltas, offsets, 5)
        assert rep.j_base == j_base.value
        assert rep.j_base_se == j_base.se
        assert len(rep.rows) == len(rows) == 8
        for got, (j_sp, quotient, se) in zip(rep.rows, rows):
            assert got.j_spiked == j_sp
            assert got.quotient == quotient
            assert got.se == se

    def test_surface_policy(self):
        grid = default_grid(self.P, probe_y=[self.P.y0], n_t_steps=40, n_y=61,
                            n_ybar=7, n_gh=9)
        _h, pol = fixed_point_solve(grid, self.P)
        self._check(pol, SimConfig(n_paths=2_000, n_steps=40, seed=41))

    def test_callable_policy(self):
        def policy(t, y):
            return 0.4 + 0.1 * np.tanh(y) + 0.001 * t
        self._check(policy, SimConfig(n_paths=2_000, n_steps=40, seed=43), t0=12.0)

    def test_antithetic(self):
        def policy(t, y):
            return closed_form_policy_rho0(t, y, self.P)
        self._check(policy, SimConfig(n_paths=2_000, n_steps=40, seed=47, antithetic=True))

    def test_lanes_match_separate_runs_full_store(self):
        cfg = SimConfig(n_paths=500, n_steps=30, seed=53)
        ybar = self.P.y0 + 0.1
        spikes = [(0.9, 10.0, 10.5), (0.1, 10.0, 14.0)]
        (lanes,) = simulate_conditioned(0.4, [(10.0, self.P.y0, ybar, spikes)], 1.0, cfg,
                                        self.P, stream=3)
        assert lanes.X.shape == (3, 500, 31)
        runs = [0.4] + [SpikePolicy(0.4, v, a, b - a) for v, a, b in spikes]
        for lane, policy in enumerate(runs):
            (alone,) = simulate_conditioned(policy, [(10.0, self.P.y0, ybar, ())], 1.0,
                                            cfg, self.P, stream=3)
            assert np.array_equal(lanes.X[lane], alone.X)
            assert np.array_equal(lanes.Y, alone.Y)
        assert not np.array_equal(lanes.X[1], lanes.X[0])
