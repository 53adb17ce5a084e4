import numpy as np
import pytest
from scipy.integrate import quad

from prefhedge import (
    DegenerateTimeError,
    ModelParams,
    bridge_drift_y,
    conditional_density,
    score,
)

P = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.6,
                mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))


class TestDensity:
    def test_mode_value(self):
        t, y = 10.0, 0.3
        tau = P.T - t
        mode = y + P.mu_Y * tau
        expected = 1.0 / np.sqrt(2 * np.pi * P.sigma_Y**2 * tau)
        assert conditional_density(mode, t, y, P) == pytest.approx(expected, rel=1e-14)

    def test_one_sd_shape(self):
        t, y = 5.0, -0.2
        tau = P.T - t
        mode = y + P.mu_Y * tau
        sd = P.sigma_Y * np.sqrt(tau)
        ratio = conditional_density(mode + sd, t, y, P) / conditional_density(mode, t, y, P)
        assert ratio == pytest.approx(np.exp(-0.5), rel=1e-14)

    def test_normalization(self):
        t, y = 0.0, np.log(2.0)
        tau = P.T - t
        mode = y + P.mu_Y * tau
        sd = P.sigma_Y * np.sqrt(tau)
        val, _ = quad(lambda yb: conditional_density(yb, t, y, P),
                      mode - 8 * sd, mode + 8 * sd, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_time(self):
        with pytest.raises(DegenerateTimeError):
            conditional_density(0.0, P.T, 0.0, P)


class TestScore:
    def test_zero_at_conditional_mean(self):
        s, y = 12.0, 0.1
        ybar = y + P.mu_Y * (P.T - s)
        assert score(s, y, ybar, P) == pytest.approx(0.0, abs=1e-15)

    def test_unit_ratio_point(self):
        s, y = 12.0, 0.1
        tau = P.T - s
        ybar = y + P.mu_Y * tau + P.sigma_Y**2 * tau
        assert score(s, y, ybar, P) == pytest.approx(1.0, rel=1e-12)

    def test_matches_fd_of_log_density(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            s = rng.uniform(0.0, 0.95 * P.T)
            y = rng.normal(0.5, 1.0)
            ybar = y + P.mu_Y * (P.T - s) + rng.normal(0.0, 0.8)
            eps = 1e-5
            fd = (np.log(conditional_density(ybar, s, y + eps, P))
                  - np.log(conditional_density(ybar, s, y - eps, P))) / (2 * eps)
            sc = score(s, y, ybar, P)
            worst = max(worst, abs(fd - sc) / max(abs(sc), 1.0))
        assert worst < 1e-6

    def test_degenerate_time(self):
        with pytest.raises(DegenerateTimeError):
            score(P.T, 0.0, 0.0, P)


class TestBridgeDrift:
    def test_zero_at_target(self):
        assert bridge_drift_y(10.0, 0.7, 0.7, P) == 0.0

    def test_unit_slope_point(self):
        s = 25.0
        assert bridge_drift_y(s, 0.0, P.T - s, P) == pytest.approx(1.0)

    def test_identity_with_score_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = rng.uniform(0.0, 0.999 * P.T)
            y = rng.normal(0.0, 1.0)
            ybar = rng.normal(0.0, 1.0)
            lhs = bridge_drift_y(s, y, ybar, P)
            rhs = P.mu_Y + P.sigma_Y**2 * score(s, y, ybar, P)
            assert lhs == pytest.approx(rhs, abs=1e-14 * max(1.0, abs(lhs)))
