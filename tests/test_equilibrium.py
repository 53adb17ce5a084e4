import numpy as np
import pytest

from prefhedge import (
    ConvergenceError,
    ModelParams,
    closed_form_policy_rho0,
    default_grid,
    ehjb_supremand,
    fixed_point_solve,
    policy_from_h,
    reward_quadrature,
)
from prefhedge import equilibrium, pide
from prefhedge.equilibrium import (
    _bracket_average,
    _hedging_row,
    _row_map,
    _terminal_bracket,
)
from prefhedge.model import EPS_GAMMA, expected_terminal_gamma
from prefhedge.pide import HSurface, _terminal_layer_cut, bilinear_interp
from test_pide import solved_h, solved_pair


def terminal_average(f, grid, params, t, y):
    """Gauss-Hermite average over the terminal state of per-slice values ``f``."""
    return _bracket_average(f, _terminal_bracket(grid, params, t, y), grid)


def elasticity(h):
    """d(ln h)/d y on the grid, differenced in log space."""
    return np.gradient(np.log(h.values), h.grid.y_nodes, axis=1)


def hedging_integral(t, y, h, grid, params):
    """Density-weighted elasticity of the continuation factors at (t, y)."""
    el = bilinear_interp(grid.t_nodes, grid.y_nodes, elasticity(h), t, y, clip=False)
    out = terminal_average(el, grid, params, t, y)
    return out if np.ndim(out) else float(out)


def params_with(mu_Y, rho):
    return ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=rho,
                       mu_Y=mu_Y, sigma_Y=0.04, T=40.0, y0=np.log(2.0))


class TestClosedForm:
    # reference rows of the zero-correlation blocks (closed form)
    CASES = [
        (0.02, 2.0, 0.0, 0.272),
        (0.02, 2.0, 35.0, 0.563),
        (0.02, 7.0, 0.0, 0.078),
        (0.02, 7.0, 21.0, 0.120),
        (-0.02, 0.8, 0.0, 3.368),
        (-0.02, 2.4, 35.0, 0.573),
        (-0.02, 1.2, 14.0, 1.716),
    ]

    @pytest.mark.parametrize("mu_Y,exp_y,t,expected", CASES)
    def test_reference_values(self, mu_Y, exp_y, t, expected):
        p = params_with(mu_Y, 0.0)
        got = closed_form_policy_rho0(t, np.log(exp_y), p)
        assert got == pytest.approx(expected, abs=1e-3)

    def test_terminal_value_is_merton_fraction(self):
        p = params_with(0.02, 0.0)
        y = np.log(3.0)
        assert closed_form_policy_rho0(p.T, y, p) == pytest.approx(
            (p.mu_S - p.r) / (p.sigma_S**2 * 3.0)
        )

    def test_martingale_drift_is_time_invariant(self):
        sigma_Y = 0.04
        p = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.0,
                        mu_Y=-0.5 * sigma_Y**2, sigma_Y=sigma_Y, T=40.0,
                        y0=np.log(2.0))
        ts = np.linspace(0.0, p.T, 17)
        vals = closed_form_policy_rho0(ts, np.log(2.0), p)
        assert np.all(vals == vals[0])


M = (0.07 - 0.02) / 0.2**2    # (mu_S - r)/sigma_S**2 of params_with


class TestClosedLayer:
    """rho**2 in {0, 1}: _layer_hedging is the equilibrium at every level."""

    @pytest.mark.parametrize("rho", [0.0, -0.0])
    def test_rho0_layer_hedging_is_positive_zero(self, rho):
        p = params_with(0.02, rho)
        g = default_grid(p)
        hedging = equilibrium._layer_hedging(g.t_nodes[:, None], g.y_nodes[None, :], p)
        assert hedging.shape == g.shape[:2]
        assert np.all(hedging == 0.0) and not np.any(np.signbit(hedging))

    @pytest.fixture(scope="class", params=[1.0, -1.0])
    def perfect(self, request):
        p = params_with(-0.02, request.param)
        g = default_grid(p, probe_y=[np.log(0.8)])
        return g, p, *solved_pair(g, p)

    def test_perfect_correlation_is_closed(self, perfect):
        g, p, h, pol = perfect
        meta = pol.iteration_meta
        assert (meta.map_evals, meta.evals_histogram, meta.t_worst) == (0, (), None)
        assert (meta.iterations, meta.sup_changes) == (0, ())
        assert np.array_equal(pol.pi, pol.myopic + pol.hedging)
        assert np.max(np.abs(pol.pi - M)) <= 2 * np.spacing(M)
        assert np.array_equal(solved_h(pol.pi, g, p).values, h.values)
        assert np.array_equal(policy_from_h(h, g, p).pi, pol.pi)

    def test_supremand_maximizer_is_merton_fraction(self, perfect):
        # The independent oracle, quadratic in the trial fraction: its
        # maximizer from three exact evaluations.
        g, p, h, _pol = perfect
        i = int(np.argmin(np.abs(g.y_nodes - np.log(0.8))))
        for t in (0.0, 14.0, 28.0):
            k = int(np.argmin(np.abs(g.t_nodes - t)))
            f0, f1, f2 = (ehjb_supremand(x, g.t_nodes[k], g.y_nodes[i], h, g, p)
                          for x in (0.0, 1.0, 2.0))
            curvature = f2 - 2.0 * f1 + f0
            assert curvature < 0
            assert abs((f0 - f2) / (2.0 * curvature) + 1.0 - M) < 0.02, t

    def test_near_perfect_sweep_refines_toward_merton_fraction(self):
        # rho**2 just below 1 takes the iterated sweep: a numerical oracle for
        # the closed form, its error shrinking under grid refinement.
        y = np.log(0.8)
        p = params_with(-0.02, -(1.0 - 1e-12))
        errors = []
        for kw in ({"n_t_steps": 100, "n_y": 121, "n_ybar": 11}, {}):
            g = default_grid(p, probe_y=[y], **kw)
            _h, pol = fixed_point_solve(g, p)
            assert pol.iteration_meta.map_evals > 0
            errors.append(np.abs([pol.value(t, y) - M for t in (0, 7, 14, 21, 28, 35)]))
        coarse, fine = errors
        assert fine[0] < 1e-3
        assert np.all(fine < coarse)


class TestHedgingIntegral:
    def _flat_surface(self, p, c=0.0):
        g = default_grid(p, n_t_steps=30, n_y=81, n_ybar=11)
        vals = np.exp(c * g.y_nodes)[None, :, None] * np.ones(g.shape)
        return g, HSurface(grid=g, values=vals)

    def test_y_independent_factor_gives_zero(self):
        p = params_with(0.02, 0.6)
        g, h = self._flat_surface(p, c=0.0)
        assert hedging_integral(5.0, p.y0, h, g, p) == pytest.approx(0.0, abs=1e-12)

    def test_constant_elasticity(self):
        p = params_with(0.02, 0.6)
        c = 0.7
        g, h = self._flat_surface(p, c=c)
        got = hedging_integral(5.0, p.y0, h, g, p)
        assert got == pytest.approx(c, rel=1e-10)

    def test_against_dense_trapezoid(self):
        p = params_with(0.02, 0.6)
        g = default_grid(p, n_t_steps=100, n_y=161, n_ybar=21)
        h = solved_h(0.3, g, p)
        t0, y0 = 4.0, p.y0
        got = hedging_integral(t0, y0, h, g, p)

        # brute-force oracle on the same cross-slice elasticity interpolant
        el = elasticity(h)
        kt = np.searchsorted(g.t_nodes, t0)
        iy = int(np.argmin(np.abs(g.y_nodes - y0)))
        t0n, y0n = g.t_nodes[kt], g.y_nodes[iy]
        mean = y0n + p.mu_Y * (p.T - t0n)
        sd = p.sigma_Y * np.sqrt(p.T - t0n)
        yy = np.linspace(mean - 8 * sd, mean + 8 * sd, 4001)
        cap = pide.QUAD_SD * sd
        yy_read = np.clip(np.clip(yy, mean - cap, mean + cap),
                          g.ybar_nodes[0], g.ybar_nodes[-1])
        e_interp = np.interp(yy_read, g.ybar_nodes, el[kt, iy, :])
        f = np.exp(-0.5 * ((yy - mean) / sd) ** 2) / np.sqrt(2 * np.pi * sd**2)
        oracle = np.trapezoid(f * e_interp, yy)
        got_n = hedging_integral(t0n, y0n, h, g, p)
        assert got_n == pytest.approx(oracle, rel=1e-3)
        assert got == pytest.approx(got_n, rel=0.05)


class TestTerminalAverage:
    P = params_with(0.02, 0.6)
    G = default_grid(P, n_t_steps=30, n_y=81, n_ybar=11)
    T0 = 5.0

    def _points(self, row):
        # y whose capped nodes at T0 lie inside the slice range: the row, or
        # its middle point
        g = self.G
        mean, sd = g.terminal_mean_sd(self.T0, g.y_nodes, self.P)
        cap = pide.QUAD_SD * sd
        y = g.y_nodes[(mean - cap > g.ybar_nodes[0]) & (mean + cap < g.ybar_nodes[-1])]
        assert y.size > 10
        return y if row else y[y.size // 2]

    @pytest.mark.parametrize("row", [False, True])
    def test_constant_slice_values(self, row):
        y = self._points(row)
        f = np.full(np.shape(y) + (self.G.ybar_nodes.size,), 0.37)
        got = terminal_average(f, self.G, self.P, self.T0, y)
        assert np.shape(got) == np.shape(y)
        assert np.allclose(got, 0.37, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("row", [False, True])
    def test_slice_coordinate_averages_to_conditional_mean(self, row):
        y = self._points(row)
        f = np.broadcast_to(self.G.ybar_nodes, np.shape(y) + (self.G.ybar_nodes.size,))
        got = terminal_average(f, self.G, self.P, self.T0, y)
        mean, _sd = self.G.terminal_mean_sd(self.T0, y, self.P)
        assert np.shape(got) == np.shape(y)
        assert np.allclose(got, mean, rtol=0.0, atol=1e-12)


class TestFixedPoint:
    def test_rho0_converges_immediately_to_closed_form(self):
        p = params_with(0.02, 0.0)
        g = default_grid(p, n_t_steps=120, n_y=121, n_ybar=11)
        h, pol = fixed_point_solve(g, p)
        assert pol.iteration_meta.iterations <= 2
        assert np.all(pol.hedging == 0.0)
        for kt in (0, 40, 90):
            for iy in (30, 60, 90):
                t, y = g.t_nodes[kt], g.y_nodes[iy]
                assert pol.pi[kt, iy] == pytest.approx(
                    closed_form_policy_rho0(t, y, p), rel=1e-12
                )
        # interpolated values track the closed form to interpolation error
        assert pol.value(12.3, p.y0) == pytest.approx(
            closed_form_policy_rho0(12.3, p.y0, p), rel=1e-4
        )

    def test_decomposition_exact(self):
        p = params_with(0.02, 0.6)
        g = default_grid(p, n_t_steps=100, n_y=121, n_ybar=11)
        h, pol = fixed_point_solve(g, p)
        assert np.array_equal(pol.pi, pol.myopic + pol.hedging)

    def test_fixed_point_residual_after_convergence(self):
        p = params_with(0.02, 0.6)
        g = default_grid(p, n_t_steps=100, n_y=121, n_ybar=11)
        h, pol = fixed_point_solve(g, p)
        remap = policy_from_h(solved_h(pol.pi, g, p), g, p)
        # one extra application of the map moves the policy less than tol
        # wherever the map is freely iterated (away from closed rows)
        core = np.abs(remap.pi - pol.pi)[:-20, 30:-30]
        assert core.max() < 5 * equilibrium._TOL_SUP

    @pytest.mark.parametrize("mu_Y,rho", [(0.02, 0.6), (-0.02, -0.6), (0.02, 0.0)])
    def test_solve_h_reproduces_returned_surface(self, mu_Y, rho):
        # The solve stores each level's accepted policy row and the march
        # of exactly that row, so re-marching the returned policy gives the
        # returned factors bit for bit.
        p = params_with(mu_Y, rho)
        g = default_grid(p, n_t_steps=60, n_y=81, n_ybar=9, n_gh=11)
        levels, pi_rows = [], []
        _h0, pol = fixed_point_solve(
            g, p, lambda level, pi_row: levels.append(level) or pi_rows.append(pi_row))
        assert np.array_equal(solved_h(pol.pi, g, p).values,
                              HSurface.from_levels(g, levels).values)
        # Each level came with its settled policy row, in march order.
        assert np.array_equal(np.array(pi_rows[::-1]), pol.pi)
        assert np.array_equal(_h0, levels[-1])

    def test_coarse_time_grid_hard_point_settles(self):
        # 41 time levels at (-0.02, -0.6, e^y = 0.8): plain per-level
        # iteration diverges here; the accelerated one settles every level.
        p = params_with(-0.02, -0.6)
        y = np.log(0.8)
        g = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9, probe_y=[y])
        h, pol = fixed_point_solve(g, p)
        assert pol.iteration_meta.sup_changes[-1] < equilibrium._TOL_SUP
        remap = policy_from_h(solved_h(pol.pi, g, p), g, p)
        assert np.abs(remap.pi - pol.pi)[:-2, 2:-2].max() < equilibrium._TOL_SUP

    def test_unsettled_level_raises_naming_t(self, monkeypatch):
        p = params_with(0.02, 0.6)
        g = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9)
        monkeypatch.setattr(equilibrium, "_MAX_EVALS", 1)
        with pytest.raises(ConvergenceError) as exc:
            fixed_point_solve(g, p)
        # the first level below the analytic terminal window
        t_first = float(g.t_nodes[_terminal_layer_cut(g, p.rho) - 1])
        assert f"t = {t_first!r}" in str(exc.value)
        assert len(exc.value.history) == 1

    def test_matches_constant_policy_oracle(self):
        # the exact best-constant fraction is a tight bracket for the
        # (t, y)-varying equilibrium at the anchor point
        for mu_Y, rho, exp_y in [(0.02, 0.6, 2.0), (-0.02, 0.6, 0.8),
                                 (-0.02, -0.6, 0.8)]:
            p = params_with(mu_Y, rho)
            y = np.log(exp_y)
            g = default_grid(p, probe_y=[y])
            h, pol = fixed_point_solve(g, p)
            Eg = np.exp(y + (mu_Y + 0.5 * p.sigma_Y**2) * p.T)
            oracle = (p.mu_S - p.r) / (
                p.sigma_S**2 * ((1 - rho**2) * Eg + rho**2)
            )
            assert pol.value(0.0, y) == pytest.approx(oracle, rel=0.01)

    def test_first_order_condition(self):
        p = params_with(0.02, 0.6)
        g = default_grid(p, n_t_steps=100, n_y=121, n_ybar=11)
        h, pol = solved_pair(g, p)
        # nodes whose conditional terminal mean falls inside the slice range
        # (outside it the quadrature degenerates and the policy is a closure,
        # not a pointwise stationarity solution)
        picks = []
        for kt in (10, 40, 80):
            drift = p.mu_Y * (p.T - g.t_nodes[kt])
            ok = np.where((g.y_nodes + drift > g.ybar_nodes[2])
                          & (g.y_nodes + drift < g.ybar_nodes[-3]))[0]
            picks.append((kt, int(ok[len(ok) // 2])))
        for kt, iy in picks:
            t, y = g.t_nodes[kt], g.y_nodes[iy]
            pi_star = pol.pi[kt, iy]
            eps = 1e-4
            up = ehjb_supremand(pi_star + eps, t, y, h, g, p)
            dn = ehjb_supremand(pi_star - eps, t, y, h, g, p)
            d1 = (up - dn) / (2 * eps)
            d2 = (up - 2 * ehjb_supremand(pi_star, t, y, h, g, p) + dn) / eps**2
            assert d2 < 0  # a maximum
            # stationarity to within the independent check's own
            # discretization scale (coarser stencils than the solver's)
            assert abs(d1 / d2) < 0.02


class TestShapeInvariants:
    def test_monotone_in_t_and_y(self):
        p_up = params_with(0.02, 0.6)
        g = default_grid(p_up, probe_y=[p_up.y0])
        _, pol = fixed_point_solve(g, p_up)
        ts = np.linspace(0.0, 35.0, 8)
        vals = [pol.value(t, p_up.y0) for t in ts]
        assert np.all(np.diff(vals) > 0)

        ys = np.linspace(p_up.y0 - 0.5, p_up.y0 + 0.5, 7)
        vals_y = [pol.value(10.0, y) for y in ys]
        assert np.all(np.diff(vals_y) < 0)

    def test_decreasing_in_t_for_negative_drift(self):
        p_dn = params_with(-0.02, 0.6)
        g = default_grid(p_dn, probe_y=[p_dn.y0])
        _, pol = fixed_point_solve(g, p_dn)
        ts = np.linspace(0.0, 35.0, 8)
        vals = [pol.value(t, p_dn.y0) for t in ts]
        assert np.all(np.diff(vals) < 0)


def test_reward_quadrature_constant_policy_oracle():
    # factor-side reward against the exact constant-policy value
    p = params_with(0.02, 0.6)
    pi0 = 0.3
    g = default_grid(p)
    h = solved_h(pi0, g, p)
    Eg = np.exp(p.y0 + (p.mu_Y + 0.5 * p.sigma_Y**2) * p.T)
    geff = (1 - p.rho**2) * Eg + p.rho**2
    j_exact = p.T * (p.r + pi0 * (p.mu_S - p.r) - 0.5 * pi0**2 * p.sigma_S**2 * geff)
    got = reward_quadrature(h.interp(0.0, p.y0), g, 0.0, 1.0, p.y0, p)
    assert got == pytest.approx(j_exact, abs=5e-3)


def reference_reward_quadrature(h, t0, x0, y0, params, n_nodes=21):
    """reward_quadrature as a per-node loop: one interp_at call per node."""
    grid = h.grid
    xi, w = np.polynomial.hermite.hermgauss(n_nodes)
    mean, sd = grid.terminal_mean_sd(t0, y0, params)
    cap = pide.QUAD_SD * sd
    total = 0.0
    for x_, w_ in zip(xi, w / np.sqrt(np.pi)):
        yb = float(np.clip(mean + np.clip(np.sqrt(2.0) * sd * x_, -cap, cap),
                           grid.ybar_nodes[0], grid.ybar_nodes[-1]))
        if abs(yb) <= EPS_GAMMA:
            yb = 2.0 * EPS_GAMMA
        gamma = np.exp(yb)
        total += w_ * (np.log(h.interp_at(t0, y0, yb)) / (1.0 - gamma) + np.log(x0))
    return float(total)


@pytest.mark.parametrize("mu_Y,rho", [(0.02, 0.6), (-0.02, -0.6)])
def test_reward_quadrature_matches_per_node_loop(mu_Y, rho):
    p = params_with(mu_Y, rho)
    g = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9)
    h, _pol = solved_pair(g, p)
    # At (0, -mu_Y T) the middle node maps onto ybar = 0 and is nudged
    # off gamma = 1 when the slices span 0 (they do at mu_Y < 0).
    points = [(0.0, p.y0, 1.0, 11), (12.3, p.y0 + 0.3, 2.5, 21),
              (30.0, p.y0 - 0.5, 0.7, 11), (0.0, -p.mu_Y * p.T, 1.0, 11)]
    for t0, y0, x0, n_nodes in points:
        want = reference_reward_quadrature(h, t0, x0, y0, p, n_nodes)
        got = reward_quadrature(h.interp(t0, y0), g, t0, x0, y0, p, n_nodes)
        assert abs(got - want) <= 1e-15 * abs(want)


def reference_hedging_row(w_level, k, grid, params):
    """The hedging row in one pass, without the per-level preparation.

    The degenerate-band cut (lo, hi) and the rows r0..r1 that the closures
    keep, then on those rows only np.gradient, the Gauss-Hermite bracket
    gathered by two take_along_axis calls and the denominator, all computed
    from scratch.  Every other row holds NaN before the four closure
    assignments, so a closure that read one would leave NaN in the row.
    Returns the row, the cut and (r0, r1).
    """
    t_k, y = grid.t_nodes[k], grid.y_nodes
    n_y = y.size
    drift = params.mu_Y * (params.T - t_k)
    cut_lo = int(np.searchsorted(y, grid.ybar_nodes[0] - drift, side="left"))
    cut_hi = int(np.searchsorted(y, grid.ybar_nodes[-1] - drift, side="right"))
    cut_lo = min(cut_lo, n_y - 1)
    cut_hi = max(min(cut_hi, n_y), cut_lo + 1)
    r0 = min(max(cut_lo, 2), n_y - 3)
    r1 = min(max(cut_hi - 1, 2), n_y - 3)
    rows = slice(r0, r1 + 1)

    el = np.gradient(w_level, y, axis=1).T[rows]
    mean, sd = grid.terminal_mean_sd(t_k, y[rows], params)
    offset = np.clip(np.sqrt(2.0) * grid.gh_nodes, -pide.QUAD_SD, pide.QUAD_SD)
    target = np.asarray(mean)[..., None] + offset * np.asarray(sd)[..., None]
    lo, frac = pide._locate(grid.ybar_nodes, target, clip=True)
    f_lo = np.take_along_axis(el, lo, axis=-1)
    f_hi = np.take_along_axis(el, lo + 1, axis=-1)
    average = ((1.0 - frac) * f_lo + frac * f_hi) @ grid.ybar_weights
    hedging = np.full(n_y, np.nan)
    hedging[rows] = (
        params.rho * params.sigma_S * params.sigma_Y * average
        / (params.sigma_S**2 * expected_terminal_gamma(t_k, y[rows], params))
    )
    hedging[:2] = hedging[2]
    hedging[-2:] = hedging[-3]
    hedging[:cut_lo] = hedging[cut_lo]
    hedging[cut_hi:] = hedging[cut_hi - 1]
    return hedging, (cut_lo, cut_hi), (r0, r1)


class TestPreparedPolicyMap:
    @pytest.mark.parametrize("mu_Y,rho", [(0.02, 0.6), (-0.02, -0.6)])
    def test_matches_one_pass_reference_bit_for_bit(self, mu_Y, rho):
        p = params_with(mu_Y, rho)
        g = default_grid(p, n_t_steps=60, n_y=81, n_ybar=9, n_gh=11)
        h, _pol = solved_pair(g, p)
        n_y = g.y_nodes.size
        cut_active = 0
        for k in range(g.t_nodes.size):
            w_level = np.log(h.values[k]).T
            want, (lo, hi), (r0, r1) = reference_hedging_row(w_level, k, g, p)
            row_map = _row_map(k, g, p)
            assert row_map[0] == (r0, r1)
            el = np.gradient(w_level, g.y_nodes, axis=1).T[r0:r1 + 1]
            got = _hedging_row(el, row_map, g, p)
            assert np.all(got == want), k
            cut_active += lo > 2 or hi < n_y - 2
        assert cut_active > 0

    def test_fill_equals_four_closures_for_every_cut(self, monkeypatch):
        # Every (lo, hi) _degenerate_cut can return on a 7-row grid, cuts
        # inside the two edge rows on each side included.
        p = params_with(0.02, 0.6)
        g0 = default_grid(p, n_t_steps=10, n_y=61, n_ybar=5, n_gh=9)
        y = g0.y_nodes[::10]
        g = pide.GridSpec(T=g0.T, eps_T=g0.eps_T, t_nodes=g0.t_nodes, y_nodes=y,
                          ybar_nodes=g0.ybar_nodes, gh_nodes=g0.gh_nodes,
                          ybar_weights=g0.ybar_weights)
        n_y = y.size
        raw = np.arange(n_y) * 10.0 + 1.0
        seen = set()
        for lo in range(n_y):
            for hi in range(lo + 1, n_y + 1):
                monkeypatch.setattr(equilibrium, "_degenerate_cut", lambda *a: (lo, hi))
                (r0, r1), bracket, denom, fill = _row_map(3, g, p)
                want = raw.copy()
                want[:2] = want[2]
                want[-2:] = want[-3]
                want[:lo] = want[lo]
                want[hi:] = want[hi - 1]
                assert np.array_equal(raw[r0:r1 + 1][fill], want), (lo, hi)
                assert denom.shape == (r1 - r0 + 1,)
                assert bracket[0].shape == (r1 - r0 + 1, g.gh_nodes.size)
                seen.add((lo < 2, hi > n_y - 2))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_extend_runs_once_per_level(self, monkeypatch):
        # The sweep extends only each level's accepted march.
        p = params_with(-0.02, -0.6)
        g = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9,
                         probe_y=[np.log(0.8)])
        calls = []
        extend = equilibrium._extend
        monkeypatch.setattr(equilibrium, "_extend",
                            lambda *a: calls.append(a[0].k) or extend(*a))
        _h, pol = fixed_point_solve(g, p)
        assert pol.iteration_meta.map_evals > g.t_nodes.size
        assert calls == list(range(g.t_nodes.size - 2, -1, -1))

    def test_each_level_prepared_once(self, monkeypatch):
        # The march's policy-free set-up runs once per time level, however
        # many map evaluations the level's fixed point takes.
        p = params_with(-0.02, -0.6)
        g = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9,
                         probe_y=[np.log(0.8)])
        calls = []
        windows = pide._slice_windows
        monkeypatch.setattr(pide, "_slice_windows",
                            lambda *a: calls.append(a[2]) or windows(*a))
        _h, pol = fixed_point_solve(g, p)
        meta = pol.iteration_meta
        assert meta.iterations >= 3
        assert meta.map_evals > g.t_nodes.size
        assert len(calls) == g.t_nodes.size - 1


class TestMapEvals:
    @pytest.mark.parametrize("mu_Y,rho", [(0.02, 0.6), (-0.02, -0.6)])
    def test_histogram_counts_every_iterated_level(self, mu_Y, rho, monkeypatch):
        p = params_with(mu_Y, rho)
        g = default_grid(p, n_t_steps=60, n_y=81, n_ybar=9, n_gh=11)
        rows = []
        hedging_row = equilibrium._hedging_row
        monkeypatch.setattr(equilibrium, "_hedging_row",
                            lambda *a: rows.append(1) or hedging_row(*a))
        _h, pol = fixed_point_solve(g, p)
        meta = pol.iteration_meta
        cut = _terminal_layer_cut(g, rho)
        assert 0 < cut < g.t_nodes.size - 1
        evals = [n for n, _count in meta.evals_histogram]
        assert evals == sorted(set(evals))
        assert sum(count for _n, count in meta.evals_histogram) == cut
        assert meta.map_evals == sum(n * count for n, count in meta.evals_histogram)
        assert meta.map_evals == len(rows)
        assert max(evals) == meta.iterations == len(meta.sup_changes)
        assert meta.t_worst in g.t_nodes[:cut]

        # The first level in march order that needs the most evaluations is
        # the one at t_worst.
        monkeypatch.setattr(equilibrium, "_MAX_EVALS", meta.iterations - 1)
        with pytest.raises(ConvergenceError) as exc:
            fixed_point_solve(g, p)
        assert f"t = {meta.t_worst!r}" in str(exc.value)

    def test_rho0_has_no_iterated_level(self):
        p = params_with(0.02, 0.0)
        g = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9)
        _h, pol = fixed_point_solve(g, p)
        meta = pol.iteration_meta
        assert meta.evals_histogram == ()
        assert meta.map_evals == 0
        assert meta.t_worst is None
