import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_banded

from prefhedge import (
    DegenerateTimeError,
    DomainError,
    ModelParams,
    OutOfGridError,
    PositivityError,
    coefficients,
    default_grid,
    residual,
    solve_h,
)
from prefhedge import pide
from prefhedge.pide import GridSpec, HSurface


def reference_march(policy, grid, params, slices=None):
    """Per-slice march: one scipy solve per slice and time level.

    Marches each slice on its own (slice-major), so a failure is reported
    at that slice's first failing level.  Returns values (n_t, n_y, n_ybar).
    """
    t, y, yb = grid.t_nodes, grid.y_nodes, grid.ybar_nodes
    n_t, n_y, n_s = grid.shape
    dy, R, W = grid.dy, 0.5 * params.sigma_Y**2, pide._W_MAX
    PI = pide.policy_values(policy, t, y)
    values = np.ones(grid.shape)
    for j in range(n_s) if slices is None else slices:
        full = np.zeros(n_y)
        for k in range(n_t - 2, -1, -1):
            a, b, blo, bhi = (int(v[j]) for v in pide._slice_windows(grid, params, t[k]))
            dt = t[k + 1] - t[k]
            P, Q, _ = coefficients(t[k], y[a:b], yb[j], PI[k, a:b], params)
            q = Q + R * np.gradient(full[a:b], dy)
            q[[0, -1]] = Q[[0, -1]]
            lower, diag, upper = pide._step_matrix(q, dt, dy, R, [0], [b - a - 1])
            ab = np.array([np.r_[0.0, upper[:-1]], diag, np.r_[lower[1:], 0.0]])
            w = solve_banded((1, 1), ab, full[a:b] + dt * P)
            band = np.abs(w[blo - a:bhi - a])
            if band.size and not band.max() < W:
                raise PositivityError("reference march", t=t[k], ybar=yb[j],
                                      y=y[blo + int(np.argmax(band))])
            full[a:b] = np.clip(np.nan_to_num(w, posinf=W, neginf=-W), -W, W)
            s = min(a + 1, b - 2)
            full[:a] = full[a] + (full[s + 1] - full[s]) / dy * (y[:a] - y[a])
            s = max(b - 3, a)
            full[b:] = full[b - 1] + (full[s + 1] - full[s]) / dy * (y[b:] - y[b - 1])
            values[k, :, j] = np.exp(np.clip(full, -W, W))
    return values


def reference_residual(h, policy, grid, params, coeff_fn=None):
    """Whole-array residual: every slice differenced in one (n_t, n_y, n_ybar) pass.

    The formulas of pide.residual on the full surface at once, reduced to
    the band with numpy's own norms and argmax; the streamed version must
    agree with it.
    """
    t, y, yb, v = grid.t_nodes, grid.y_nodes, grid.ybar_nodes, h.values
    with np.errstate(over="ignore", invalid="ignore"):
        ht = np.gradient(v, t, axis=0)
        hy = np.gradient(v, y, axis=1)
        hyy = np.empty_like(v)
        hyy[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / grid.dy**2
        hyy[:, 0] = hyy[:, 1]
        hyy[:, -1] = hyy[:, -2]
        PI = pide.policy_values(policy, t, y)
        fn = coefficients if coeff_fn is None else coeff_fn
        P, Q, R = fn(t[:, None, None], y[None, :, None], yb[None, None, :],
                     PI[:, :, None], params)
        res = ht + Q * hy + R * hyy + P * v
        rel = np.abs(res[1:-1, 1:-1, :] / v[1:-1, 1:-1, :])
    tau = (params.T - t[1:-1])[:, None, None]
    dev = yb[None, None, :] - y[None, 1:-1, None] - params.mu_Y * tau
    band = np.abs(dev) <= pide.QUAD_SD * params.sigma_Y * np.sqrt(tau)
    band &= (np.arange(1, t.size - 1) < pide._terminal_layer_cut(grid, params.rho))[:, None, None]
    rel_band = rel[band]
    k, i, j = np.unravel_index(np.argmax(np.where(band, rel, -np.inf)), rel.shape)
    with np.errstate(over="ignore"):
        return pide.ResidualNorms(
            max_rel_band=float(np.max(rel_band)),
            rms_rel_band=float(np.sqrt(np.mean(rel_band**2))),
            worst=(float(t[k + 1]), float(y[i + 1]), float(yb[j])),
        )


P06 = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.6,
                  mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))
P0 = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.0,
                 mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))


class TestCoefficients:
    def test_switched_off_control_and_correlation(self):
        t, y, yb = 10.0, 0.4, 1.1
        P, Q, R = coefficients(t, y, yb, 0.0, P0)
        gamma = np.exp(yb)
        assert P == pytest.approx(P0.r * (1 - gamma), rel=1e-14)
        assert Q == pytest.approx((yb - y) / (P0.T - t), rel=1e-14)
        assert R == pytest.approx(0.5 * P0.sigma_Y**2, rel=1e-15)

    def test_unit_gamma_point(self):
        # ybar = 0 is excluded from grids, but the formula itself is defined
        P, Q, R = coefficients(10.0, 0.4, 0.0, 0.3, P06)
        assert P == 0.0
        assert Q == pytest.approx(-0.4 / 30.0 + P06.rho * 0.3 * P06.sigma_S * P06.sigma_Y * 0.0)

    def test_matches_ungrouped_expansion(self):
        # independent regrouping: P' from the pre-collected equation, term by term
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = rng.uniform(0, 39.0)
            y = rng.normal(1.0, 1.0)
            yb = rng.normal(1.4, 1.0)
            pi = rng.uniform(-1.0, 2.0)
            gamma = np.exp(yb)
            tau = P06.T - t
            P, Q, R = coefficients(t, y, yb, pi, P06)
            P_ref = (
                (P06.r + pi * (P06.mu_S - P06.r
                               + P06.rho * (P06.sigma_S / P06.sigma_Y)
                               * ((yb - y - P06.mu_Y * tau) / tau))) * (1 - gamma)
                - 0.5 * pi**2 * P06.sigma_S**2 * gamma * (1 - gamma)
            )
            Q_ref = (yb - y) / tau + P06.rho * pi * P06.sigma_S * P06.sigma_Y * (1 - gamma)
            assert P == pytest.approx(P_ref, rel=1e-12, abs=1e-12)
            assert Q == pytest.approx(Q_ref, rel=1e-12, abs=1e-12)
            assert R == pytest.approx(0.5 * P06.sigma_Y**2)

    def test_degenerate_time(self):
        with pytest.raises(DegenerateTimeError):
            coefficients(P06.T, 0.0, 0.5, 0.3, P06)


class TestGridSpec:
    def test_default_grid_shapes(self):
        g = default_grid(P06, n_t_steps=50, n_y=61, n_ybar=9, n_gh=11)
        assert g.t_nodes.size == 51
        assert g.ybar_nodes.size == 9
        assert g.gh_nodes.size == 11
        assert g.ybar_weights.sum() == pytest.approx(1.0)
        assert np.all(np.abs(g.ybar_nodes) > 1e-8)

    def test_rejects_unsorted_times(self):
        g = default_grid(P06, n_t_steps=10, n_y=21, n_ybar=5)
        with pytest.raises(DomainError):
            GridSpec(T=g.T, eps_T=g.eps_T, t_nodes=g.t_nodes[::-1],
                     y_nodes=g.y_nodes, ybar_nodes=g.ybar_nodes,
                     gh_nodes=g.gh_nodes, ybar_weights=g.ybar_weights)

    def test_rejects_nonuniform_y(self):
        g = default_grid(P06, n_t_steps=10, n_y=21, n_ybar=5)
        y = g.y_nodes.copy()
        y[3] += 0.3 * (y[1] - y[0])
        with pytest.raises(DomainError):
            GridSpec(T=g.T, eps_T=g.eps_T, t_nodes=g.t_nodes, y_nodes=y,
                     ybar_nodes=g.ybar_nodes, gh_nodes=g.gh_nodes,
                     ybar_weights=g.ybar_weights)

    def test_rejects_gamma_one_slice(self):
        g = default_grid(P06, n_t_steps=10, n_y=21, n_ybar=5)
        yb = g.ybar_nodes.copy()
        yb[2] = 0.0
        with pytest.raises(DomainError):
            GridSpec(T=g.T, eps_T=g.eps_T, t_nodes=g.t_nodes, y_nodes=g.y_nodes,
                     ybar_nodes=yb, gh_nodes=g.gh_nodes,
                     ybar_weights=g.ybar_weights)

    def test_rejects_fewer_y_nodes_than_a_window(self):
        # A marched window needs pide._MIN_WINDOW = 5 rows: four y-nodes
        # are refused, five still march as the per-slice reference does.
        g = default_grid(P06, n_t_steps=10, n_y=21, n_ybar=3)
        i = int(np.searchsorted(g.y_nodes, P06.y0)) - 2
        with pytest.raises(DomainError, match="at least 5"):
            dataclasses.replace(g, y_nodes=g.y_nodes[i:i + 4])
        g5 = dataclasses.replace(g, y_nodes=g.y_nodes[i:i + 5])
        h = solve_h(0.3, g5, P06)
        assert np.array_equal(h.values, reference_march(0.3, g5, P06))

    @pytest.mark.parametrize("pad", [-1.0, 0.0, 2.9, float("nan")])
    def test_rejects_pad_below_three(self, pad):
        with pytest.raises(DomainError, match="ybar_pad_sd"):
            default_grid(P06, n_t_steps=10, n_y=21, n_ybar=5, ybar_pad_sd=pad)
        g = default_grid(P06, n_t_steps=10, n_y=21, n_ybar=5, ybar_pad_sd=3.0)
        assert g.ybar_nodes[-1] - g.ybar_nodes[0] == pytest.approx(
            6.0 * P06.sigma_Y * np.sqrt(P06.T))

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    @pytest.mark.parametrize("exp_y", [7.0, 10.0])
    def test_over_budget_is_refused(self, rho, exp_y):
        # mu_Y = 0.02, |rho| = 1: the factor budget admits the default pad at
        # exp_y = 2 and 4, not at 7 or 10; at 7 it admits a pad of 3.25.
        p = dataclasses.replace(P06, rho=rho)
        small = {"n_t_steps": 10, "n_y": 21, "n_ybar": 5}
        for fits in (2.0, 4.0):
            default_grid(p, **small, probe_y=[np.log(fits)])
        with pytest.raises(DomainError, match=r"budget estimate .* ybar_pad_sd = 5\.0"):
            default_grid(p, **small, probe_y=[np.log(exp_y)])
        narrow = {"probe_y": [np.log(exp_y)], "ybar_pad_sd": 3.25}
        if exp_y == 7.0:
            g = default_grid(p, **small, **narrow)
            assert g.ybar_nodes[-1] - g.ybar_nodes[0] == pytest.approx(
                6.5 * p.sigma_Y * np.sqrt(p.T))
        else:
            with pytest.raises(DomainError, match=r"ybar_pad_sd = 3\.25"):
                default_grid(p, **small, **narrow)


class TestHSurface:
    def test_rejects_nonpositive_values(self):
        g = default_grid(P06, n_t_steps=5, n_y=21, n_ybar=5)
        vals = np.ones(g.shape)
        vals[2, 3, 1] = -1.0
        with pytest.raises(PositivityError):
            HSurface(grid=g, values=vals)

    def test_interp_constant_surface(self):
        g = default_grid(P06, n_t_steps=5, n_y=21, n_ybar=5)
        h = HSurface(grid=g, values=np.full(g.shape, 2.5))
        got = h.interp(g.t_nodes[2] * 1.01, 0.5 * (g.y_nodes[3] + g.y_nodes[4]))
        assert np.allclose(got, 2.5)
        assert h.interp_at(1.0, g.y_nodes[5], g.ybar_nodes[0] + 0.01) == pytest.approx(2.5)


def searchsorted_locate(nodes, x, clip):
    """The bracket by searchsorted(side="right"): the reference _locate must equal."""
    x = np.asarray(x, dtype=float)
    span = nodes[-1] - nodes[0]
    slack = 1e-12 * max(abs(span), 1.0)
    if not clip and (np.any(x < nodes[0] - slack) or np.any(x > nodes[-1] + slack)):
        raise OutOfGridError(
            f"point(s) outside grid hull [{nodes[0]!r}, {nodes[-1]!r}]"
        )
    xc = np.clip(x, nodes[0], nodes[-1])
    hi = np.clip(np.searchsorted(nodes, xc, side="right"), 1, nodes.size - 1)
    lo = hi - 1
    w = (xc - nodes[lo]) / (nodes[hi] - nodes[lo])
    return lo, np.clip(w, 0.0, 1.0)


def reference_bilinear(t_nodes, y_nodes, values, t, y, clip=False):
    """Bilinear interpolation by 2-d gathers over the broadcast brackets."""
    ti, tw = searchsorted_locate(t_nodes, t, clip)
    yi, yw = searchsorted_locate(y_nodes, y, clip)
    ti, yi, tw, yw = np.broadcast_arrays(ti, yi, tw, yw)
    if values.ndim > 2:
        tw = tw[..., None]
        yw = yw[..., None]
    lo = values[ti, yi] * (1.0 - yw) + values[ti, yi + 1] * yw
    hi = values[ti + 1, yi] * (1.0 - yw) + values[ti + 1, yi + 1] * yw
    return lo * (1.0 - tw) + hi * tw


def bracket_points(nodes):
    """Nodes, one ulp either side of each node, and the midpoints."""
    return np.concatenate([nodes, np.nextafter(nodes, np.inf),
                           np.nextafter(nodes, -np.inf),
                           0.5 * (nodes[1:] + nodes[:-1])])


class TestLocate:
    GRID = default_grid(P06, n_t_steps=40, n_y=61, n_ybar=7)
    NONUNIFORM = np.cumsum(np.random.default_rng(3).uniform(0.01, 1.0, 40)) - 7.0

    @pytest.mark.parametrize("nodes", [GRID.y_nodes, GRID.t_nodes, GRID.ybar_nodes,
                                       np.linspace(-1.3, 2.7, 465), NONUNIFORM],
                             ids=["y", "t", "ybar", "linspace", "nonuniform"])
    def test_equals_searchsorted_bit_for_bit(self, nodes):
        span = nodes[-1] - nodes[0]
        outside = np.array([nodes[0] - 0.3 * span, nodes[-1] + 1e-9, nodes[-1] + span,
                            -np.inf, np.inf])
        points = np.concatenate([bracket_points(nodes), outside])
        for x in (points, points[:12].reshape(3, 4), points[5], float(points[-3])):
            lo, w = pide._locate(nodes, x, clip=True)
            ref_lo, ref_w = searchsorted_locate(nodes, x, clip=True)
            assert np.shape(lo) == np.shape(ref_lo) and lo.dtype == ref_lo.dtype
            assert np.array_equal(lo, ref_lo)
            assert np.array_equal(w, ref_w)
        inside = bracket_points(nodes)[nodes.size:]
        lo, w = pide._locate(nodes, inside, clip=False)
        assert np.array_equal(lo, searchsorted_locate(nodes, inside, clip=False)[0])

    @pytest.mark.parametrize("nodes", [GRID.y_nodes, NONUNIFORM], ids=["uniform", "nonuniform"])
    def test_same_out_of_grid_error_without_clip(self, nodes):
        for x in (nodes[-1] + 1e-3, np.array([nodes[0], nodes[0] - 1e-3])):
            with pytest.raises(OutOfGridError) as ref:
                searchsorted_locate(nodes, x, clip=False)
            with pytest.raises(OutOfGridError) as got:
                pide._locate(nodes, x, clip=False)
            assert str(got.value) == str(ref.value)
            with pytest.raises(OutOfGridError) as got:
                pide.bilinear_interp(nodes, nodes, np.zeros((nodes.size,) * 2),
                                     nodes[1], x)
            assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("kind", ["2d", "3d"])
    def test_bilinear_equals_reference(self, kind):
        g = self.GRID
        rng = np.random.default_rng(5)
        shape = g.shape if kind == "3d" else g.shape[:2]
        values = rng.normal(size=shape)
        ys = np.concatenate([bracket_points(g.y_nodes), [g.y_nodes[0] - 1.0, g.y_nodes[-1] + 1.0]])
        times = np.concatenate([bracket_points(g.t_nodes), [g.t_nodes[-1] + 0.5, g.T]])
        for t in times[::7]:
            got = pide.bilinear_interp(g.t_nodes, g.y_nodes, values, t, ys, clip=True)
            ref = reference_bilinear(g.t_nodes, g.y_nodes, values, t, ys, clip=True)
            assert np.array_equal(got, ref)
        tt = times[: ys.size] if times.size >= ys.size else np.resize(times, ys.size)
        for t, y in ((tt, ys), (tt[:, None], ys[None, :40]), (float(tt[3]), float(ys[4]))):
            got = pide.bilinear_interp(g.t_nodes, g.y_nodes, values, t, y, clip=True)
            ref = reference_bilinear(g.t_nodes, g.y_nodes, values, t, y, clip=True)
            assert np.shape(got) == np.shape(ref)
            assert np.array_equal(got, ref)


class TestSolveH:
    def test_terminal_slice_is_ones(self):
        g = default_grid(P0, n_t_steps=30, n_y=61, n_ybar=7)
        h = solve_h(0.0, g, P0)
        assert np.all(h.values[-1] == 1.0)

    def test_rejects_wrong_shaped_policy_array(self):
        g = default_grid(P0, n_t_steps=30, n_y=61, n_ybar=7)
        n_t, n_y, _ = g.shape
        with pytest.raises(DomainError, match="policy array"):
            solve_h(np.full((n_t, n_y - 1), 0.3), g, P0)

    def test_zero_policy_reaction_is_exact(self):
        # pi = 0 makes each slice's reaction spatially constant, so the
        # factor is exp(r (1-gamma) (T_eff - t)) exactly; transport and
        # diffusion act on a flat profile and contribute nothing.
        g = default_grid(P0, n_t_steps=40, n_y=81, n_ybar=7)
        h = solve_h(0.0, g, P0)
        for j, yb in enumerate(g.ybar_nodes):
            gamma = np.exp(yb)
            expect = np.exp(P0.r * (1 - gamma) * (g.t_nodes[-1] - g.t_nodes[0]))
            assert h.values[0, 40, j] == pytest.approx(expect, rel=1e-9)

    def test_deterministic_limit(self):
        # vanishing preference volatility with mu_Y = 0: the bridge pins
        # y ~ ybar and the factor solves dh/dt = -r(1-gamma) h
        p = ModelParams(r=0.03, mu_S=0.07, sigma_S=0.2, rho=0.4,
                        mu_Y=0.0, sigma_Y=1e-4, T=10.0, y0=np.log(2.0))
        g = default_grid(p, n_t_steps=200, n_y=81, n_ybar=7)
        h = solve_h(0.0, g, p)
        for j, yb in enumerate(g.ybar_nodes):
            gamma = np.exp(yb)
            iy = int(np.argmin(np.abs(g.y_nodes - yb)))
            expect = np.exp(p.r * (1 - gamma) * (g.t_nodes[-1] - g.t_nodes[0]))
            assert h.values[0, iy, j] == pytest.approx(expect, rel=0.01)

    def test_constant_policy_exact_solution(self):
        # log-affine closed form for a constant fraction: the strongest
        # end-to-end check of coefficients, stepping, and boundary handling
        pi0 = 0.3
        g = default_grid(P06)
        h = solve_h(pi0, g, P06)
        c1 = pi0 * P06.rho * P06.sigma_S / P06.sigma_Y
        a = P06.r + pi0 * (P06.mu_S - P06.r) - 0.5 * pi0**2 * P06.sigma_S**2
        errs = []
        for k in (0, 150, 300):
            t = g.t_nodes[k]
            tau = P06.T - t
            for j in range(2, g.ybar_nodes.size - 2, 3):
                yb = g.ybar_nodes[j]
                gamma = np.exp(yb)
                for dz in (-2.0, 0.0, 2.0):
                    y = yb - P06.mu_Y * tau + dz * P06.sigma_Y * np.sqrt(tau)
                    iy = int(np.argmin(np.abs(g.y_nodes - y)))
                    y = g.y_nodes[iy]
                    w_exact = (
                        (1 - gamma) * (a * tau + c1 * (yb - y - P06.mu_Y * tau))
                        + 0.5 * (1 - gamma)**2 * pi0**2 * P06.sigma_S**2
                        * (1 - P06.rho**2) * tau
                    )
                    errs.append(abs(np.log(h.values[k, iy, j]) - w_exact))
        assert max(errs) < 0.08
        assert np.median(errs) < 0.02

    def test_positivity_everywhere(self):
        g = default_grid(P06, n_t_steps=60, n_y=91, n_ybar=9)
        h = solve_h(0.4, g, P06)
        assert np.all(h.values > 0)
        assert np.all(np.isfinite(h.values))

    def test_discrete_maximum_principle_low_gamma(self):
        # all slices below gamma < 1 and nonnegative reaction: h >= 1
        p = ModelParams(r=0.03, mu_S=0.07, sigma_S=0.2, rho=0.0,
                        mu_Y=-0.05, sigma_Y=0.04, T=10.0, y0=-1.5)
        g = default_grid(p, n_t_steps=60, n_y=81, n_ybar=7)
        assert np.all(g.ybar_nodes < 0)
        h = solve_h(0.1, g, p)
        Pv, _, _ = coefficients(
            g.t_nodes[:, None, None], g.y_nodes[None, :, None],
            g.ybar_nodes[None, None, :], 0.1, p,
        )
        assert np.all(Pv >= 0)
        assert np.all(h.values >= 1.0 - 1e-12)

    def test_slices_do_not_couple(self):
        g = default_grid(P06, n_t_steps=40, n_y=81, n_ybar=9)
        h_full = solve_h(0.3, g, P06)
        sub = GridSpec(T=g.T, eps_T=g.eps_T, t_nodes=g.t_nodes, y_nodes=g.y_nodes,
                       ybar_nodes=g.ybar_nodes[2:5], gh_nodes=g.gh_nodes,
                       ybar_weights=g.ybar_weights)
        h_sub = solve_h(0.3, sub, P06)
        assert np.array_equal(h_sub.values, h_full.values[:, :, 2:5])


def both_stencil_step_matrix(Q, dt, dy, R, first, last):
    """The step matrix built with both stencils at every entry, one picked per entry.

    pide._step_matrix must equal it bit for bit; reference_march calls
    pide._step_matrix itself, so it cannot check the stencil.
    """
    a = dt * R / dy**2
    upwind = np.abs(Q) * dy > 2.0 * R
    Qp = np.where(Q > 0, Q, 0.0)
    Qm = np.where(Q < 0, -Q, 0.0)
    diag = np.where(upwind, 1.0 + 2.0 * a + dt * (Qp + Qm) / dy, 1.0 + 2.0 * a)
    upper = np.where(upwind, -(a + dt * Qp / dy), -(a + dt * Q / (2.0 * dy)))
    lower = np.where(upwind, -(a + dt * Qm / dy), -(a - dt * Q / (2.0 * dy)))
    q0 = Q[first]
    diag[first] = np.where(q0 > 0, 1.0 + dt * q0 / dy, 1.0)
    upper[first] = np.where(q0 > 0, -dt * q0 / dy, 0.0)
    lower[first] = 0.0
    qn = Q[last]
    diag[last] = np.where(qn < 0, 1.0 - dt * qn / dy, 1.0)
    lower[last] = np.where(qn < 0, dt * qn / dy, 0.0)
    upper[last] = 0.0
    return lower, diag, upper


class TestStepMatrix:
    # dy = 0.5 and R = 0.25 put the Peclet switch |Q| dy = 2R at |Q| = 1
    # exactly; there the stencil stays central.
    EDGE = [-3.0, -1.0, -0.0, 0.0, 1.0, 3.0]
    SWITCH = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]

    @pytest.mark.parametrize("dt", [0.1, 0.0997, 7.3])
    def test_equals_both_stencil_reference(self, dt):
        inner = self.SWITCH + [-v for v in self.SWITCH] + [0.0, -0.0, 0.3, -0.3, 40.0, -40.0]
        Q, first, last = [], [], []
        # One window per boundary value, each holding every interior value,
        # so every boundary row meets Q of both signs, zero and the switch.
        for q0, qn in zip(self.EDGE + self.SWITCH, self.SWITCH + self.EDGE[::-1]):
            first.append(len(Q))
            Q += [q0] + inner + [qn]
            last.append(len(Q) - 1)
        Q = np.array(Q)
        got = pide._step_matrix(Q, dt, 0.5, 0.25, np.array(first), np.array(last))
        want = both_stencil_step_matrix(Q, dt, 0.5, 0.25, np.array(first), np.array(last))
        for g_, w_ in zip(got, want):
            assert np.array_equal(g_, w_)
            assert np.array_equal(np.signbit(g_), np.signbit(w_))

    def test_equals_reference_on_marched_levels(self):
        p = _params(-0.02, -0.6)
        g = default_grid(p, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9)
        level = np.zeros((g.ybar_nodes.size, g.y_nodes.size))
        dy = g.dy
        seen_upwind = seen_central = False
        for k in range(g.t_nodes.size - 2, -1, -1):
            prep = pide._prepare_level(level, k, g, p)
            _P, Q = pide._policy_terms(np.full(prep.rows.size, 1.3), prep.bridge, p)
            Q[1:-1] += prep.w_slope
            args = (Q, prep.dt, dy, prep.R, prep.first, prep.last)
            for g_, w_ in zip(pide._step_matrix(*args), both_stencil_step_matrix(*args)):
                assert np.array_equal(g_, w_)
            upwind = np.abs(Q) * dy > 2.0 * prep.R
            seen_upwind |= upwind.any()
            seen_central |= (~upwind).any()
            level = pide._march_level(prep, np.full(g.y_nodes.size, 1.3), g, p)
        assert seen_upwind and seen_central


class TestSolveBanded:
    def test_equals_scipy_solve_banded(self):
        rng = np.random.default_rng(3)
        n = 40
        lower, upper = rng.normal(size=n - 1), rng.normal(size=n - 1)
        diag, rhs = rng.normal(size=n) + 3.0, rng.normal(size=n)
        ab = np.array([np.r_[0.0, upper], diag, np.r_[lower, 0.0]])
        want = solve_banded((1, 1), ab, rhs)
        got = pide.solve_banded(lower.copy(), diag.copy(), upper.copy(), rhs.copy())
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("where", ["lower", "diag", "upper", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_value_error(self, where, bad):
        arrays = {"lower": np.ones(3), "diag": np.full(4, 4.0), "upper": np.ones(3),
                  "rhs": np.ones(4)}
        arrays[where][1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            pide.solve_banded(**arrays)

    def test_singular_block_is_linalg_error(self):
        # Second block [[1, 1], [1, 1]] is singular: gtsv meets a zero pivot.
        lower = np.array([0.0, 0.0, 1.0])
        diag = np.array([2.0, 2.0, 1.0, 1.0])
        upper = np.array([1.0, 0.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            pide.solve_banded(lower, diag, upper, np.ones(4))

    def test_nan_policy_row_is_value_error(self):
        g = default_grid(P06, n_t_steps=20, n_y=41, n_ybar=5, n_gh=9)
        PI = np.full((g.t_nodes.size, g.y_nodes.size), 0.4)
        PI[10] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_h(PI, g, P06)

    def test_march_calls_module_solve_banded(self, monkeypatch):
        # The march looks the solver up by name at each step, so a wrapper
        # installed on the module (as a tracer does) sees every solve.
        calls = []
        inner = pide.solve_banded

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(pide, "solve_banded", counted)
        g = default_grid(P06, n_t_steps=20, n_y=41, n_ybar=5, n_gh=9)
        solve_h(0.4, g, P06)
        assert len(calls) == g.t_nodes.size - 1


class TestSlope:
    @pytest.mark.parametrize("kind", ["default_y", "default_t", "uniform", "graded"])
    def test_equals_np_gradient(self, kind):
        g = default_grid(P06, probe_y=[np.log(0.8)])
        nodes = {"default_y": g.y_nodes, "default_t": g.t_nodes,
                 "uniform": np.arange(9) * 0.25, "graded": np.linspace(0, 1, 12)**1.5}[kind]
        slope = pide._Slope.on(nodes)
        assert (slope.a is None) == (kind == "uniform")
        f = np.exp(np.random.default_rng(0).normal(size=(5, nodes.size)))
        assert np.array_equal(slope.full(f), np.gradient(f, nodes, axis=1))
        want = np.gradient(f.T, nodes, axis=0)
        assert np.array_equal(slope.interior(f.T, axis=0), want[1:-1])
        # A run of rows or columns with its halo, as the residual reads a
        # block's band hull.
        assert np.array_equal(slope.interior(f.T[2:8], axis=0, at=slice(2, 6)), want[3:7])
        assert np.array_equal(slope.interior(f[:, 2:8], axis=1, at=slice(2, 6)),
                              want.T[:, 3:7])


def _params(mu_Y, rho):
    return ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=rho, mu_Y=mu_Y,
                       sigma_Y=0.04, T=40.0, y0=np.log(2.0))


def _grid(params, kind):
    if kind == "two_slices":
        return default_grid(params, n_t_steps=30, n_y=61, n_ybar=2, n_gh=9)
    g = default_grid(params, n_t_steps=30, n_y=61, n_ybar=7, n_gh=9)
    if kind == "default":
        return g
    # Cut the y-domain so the outer slices' windows clip at both grid edges.
    return GridSpec(T=g.T, eps_T=g.eps_T, t_nodes=g.t_nodes,
                    y_nodes=g.y_nodes[18:-18], ybar_nodes=g.ybar_nodes,
                    gh_nodes=g.gh_nodes, ybar_weights=g.ybar_weights)


class TestBatchedMarch:
    @pytest.mark.parametrize("kind", ["default", "clipped", "two_slices"])
    @pytest.mark.parametrize("mu_Y,rho", [(0.02, 0.6), (-0.02, -0.6), (0.02, 0.0)])
    def test_matches_per_slice_reference(self, mu_Y, rho, kind):
        p = _params(mu_Y, rho)
        g = _grid(p, kind)
        if kind == "clipped":
            windows = [pide._slice_windows(g, p, t) for t in g.t_nodes]
            assert min(w[0].min() for w in windows) == 0
            assert max(w[1].max() for w in windows) == g.y_nodes.size

        def policy(t, y):
            return 0.3 + 0.2 * np.tanh(y - p.y0) + 0.002 * t

        h = solve_h(policy, g, p)
        assert np.array_equal(h.values, reference_march(policy, g, p))

    def test_positivity_error_is_reported_level_major(self):
        # Constant pi = 50 blows up several slices.  The march reports the
        # first failing level in march order (latest t), the lowest failing
        # slice there, and the node of largest |ln h| in its band.
        g = default_grid(P06, n_t_steps=40, n_y=61, n_ybar=7)
        with pytest.raises(PositivityError) as exc:
            solve_h(50.0, g, P06)
        fails = []
        for j in range(g.ybar_nodes.size):
            try:
                reference_march(50.0, g, P06, slices=[j])
            except PositivityError as e:
                fails.append((-e.t, j, e.y))
        assert len(fails) > 1
        neg_t, j, y = min(fails)
        assert (exc.value.t, exc.value.ybar, exc.value.y) == (-neg_t, g.ybar_nodes[j], y)


class TestResidual:
    def test_flat_surface_zero_coefficients(self):
        g = default_grid(P0, n_t_steps=20, n_y=41, n_ybar=5)
        h = HSurface(grid=g, values=np.ones(g.shape))

        def zero_coeffs(t, y, yb, pi, params):
            z = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(y),
                                             np.shape(yb), np.shape(pi)))
            return z, z, z

        r = residual(h, 0.0, g, P0, coeff_fn=zero_coeffs)
        assert (r.max_rel_band, r.rms_rel_band) == (0.0, 0.0)

    def test_manufactured_solution(self):
        a = 0.05
        g = default_grid(P0, n_t_steps=2000, n_y=41, n_ybar=5)
        tt = g.t_nodes[:, None, None]
        vals = np.broadcast_to(np.exp(a * (P0.T - tt)), g.shape).copy()
        h = HSurface(grid=g, values=vals)

        def mms_coeffs(t, y, yb, pi, params):
            shape = np.broadcast_shapes(np.shape(t), np.shape(y),
                                        np.shape(yb), np.shape(pi))
            return np.full(shape, a), np.zeros(shape), np.zeros(shape)

        r = residual(h, 0.0, g, P0, coeff_fn=mms_coeffs)
        assert r.max_rel_band < 1e-8

    def test_solver_self_check_rho0(self):
        from prefhedge import fixed_point_solve
        g = default_grid(P0)
        h, pol = fixed_point_solve(g, P0)
        r = residual(h, pol, g, P0)
        # tolerance pinned by the grid-refinement study: halving dt halves
        # both band norms (first-order march)
        assert r.max_rel_band < 1e-4
        assert r.rms_rel_band < 2e-5

    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory):
        from prefhedge import fixed_point_solve, load_h_surface, save_h_surface
        g = default_grid(P06, n_t_steps=40, n_y=61, n_ybar=7, n_gh=9)
        h, pol = fixed_point_solve(g, P06)
        path = tmp_path_factory.mktemp("residual") / "h.bin"
        save_h_surface(path, h, P06)
        loaded = load_h_surface(path, P06)
        contiguous = HSurface(grid=g, values=np.ascontiguousarray(loaded.values))
        return g, pol, {"fresh": h, "loaded": loaded, "contiguous": contiguous}

    @pytest.mark.parametrize("source", ["fresh", "loaded", "contiguous"])
    @pytest.mark.parametrize("case", ["model", "overflowing_coeffs", "empty_band",
                                      "nan_late_block", "late_worst"])
    def test_streamed_matches_whole_array_reference(self, solved, source, case, monkeypatch):
        g, pol, surfaces = solved
        h = surfaces[source]
        # 39 core time levels: a full block and a shorter last one.
        n_core = g.t_nodes.size - 2
        assert pide._RESIDUAL_BLOCK < n_core and n_core % pide._RESIDUAL_BLOCK != 0
        late = g.t_nodes[pide._RESIDUAL_BLOCK + 5]
        # The march and the loader keep the slice-major (ybar, t, y) layout;
        # the "contiguous" copy checks the (t, y, ybar) C layout as well.
        assert h.values.flags.c_contiguous == (source == "contiguous")
        assert np.moveaxis(h.values, 2, 0).flags.c_contiguous == (source != "contiguous")
        coeff_fn = None
        if case == "overflowing_coeffs":
            # P * h overflows at band nodes of every slice, on the top slice
            # from the first core level and on the lower ones only later:
            # the first-in-(k, i, j) rule picks the top slice, the first
            # block in march order would not.
            def coeff_fn(t, y, yb, pi, params):
                P, Q, R = coefficients(t, y, yb, pi, params)
                return P * (1e306 * np.exp(2.0 * yb + 0.5 * t)), Q, R
        elif case == "empty_band":
            monkeypatch.setattr(pide, "QUAD_SD", 1e-300)
        elif case == "nan_late_block":
            # NaN in P at one level of the second block: the band norms are
            # NaN, so the gate fails closed, and the worst node is there.
            def coeff_fn(t, y, yb, pi, params):
                P, Q, R = coefficients(t, y, yb, pi, params)
                return np.where(t == late, np.nan, P), Q, R
        elif case == "late_worst":
            def coeff_fn(t, y, yb, pi, params):
                P, Q, R = coefficients(t, y, yb, pi, params)
                return np.where(t == late, P * 1e60, P), Q, R
        if case == "empty_band":
            with pytest.raises(DomainError, match="band holds no"):
                residual(h, pol.pi, g, P06)
            return
        want = reference_residual(h, pol.pi, g, P06, coeff_fn=coeff_fn)
        got = residual(h, pol.pi, g, P06, coeff_fn=coeff_fn)
        if case == "overflowing_coeffs":
            assert np.isinf(want.max_rel_band)
            assert want.worst[::2] == (g.t_nodes[1], g.ybar_nodes[-1])
        if case == "nan_late_block":
            assert np.isnan(want.max_rel_band) and np.isnan(want.rms_rel_band)
        if case in ("nan_late_block", "late_worst"):
            assert want.worst[0] == late
        np.testing.assert_equal(got.max_rel_band, want.max_rel_band)
        assert got.worst == want.worst
        np.testing.assert_allclose(got.rms_rel_band, want.rms_rel_band, rtol=1e-12)

    def test_evaluates_only_band_hulls(self, solved):
        # Each coefficient call covers the levels of one block before the
        # terminal cut and exactly the rows of that block's band hull.
        g, pol, surfaces = solved
        t, y, yb = g.t_nodes, g.y_nodes, g.ybar_nodes
        calls = []

        def recording(t_, y_, yb_, pi, params):
            calls.append((t_[:, 0], y_[0], yb_))
            return coefficients(t_, y_, yb_, pi, params)

        got = residual(surfaces["fresh"], pol.pi, g, P06, coeff_fn=recording)
        assert got == residual(surfaces["fresh"], pol.pi, g, P06)
        cut = pide._terminal_layer_cut(g, P06.rho)
        assert 1 < cut < t.size - 1
        n_nodes = 0
        for t_, y_, yb_ in calls:
            assert t_.max() < t[cut]
            tau = P06.T - t_[:, None]
            band = (np.abs(yb_ - y[None, 1:-1] - P06.mu_Y * tau)
                    <= pide.QUAD_SD * P06.sigma_Y * np.sqrt(tau))
            hull = np.flatnonzero(band.any(axis=0)) + 1
            assert np.array_equal(y_, y[hull[0]:hull[-1] + 1])
            n_nodes += t_.size * y_.size
        assert sorted({c[2] for c in calls}) == list(yb)
        assert sorted({float(v) for c in calls for v in c[0]}) == list(t[1:cut])
        assert n_nodes < 0.5 * yb.size * (t.size - 2) * (y.size - 2)
