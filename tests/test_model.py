import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefhedge import (
    EPS_GAMMA,
    DomainError,
    ModelParams,
    SingularGammaError,
    crra_utility,
    expected_terminal_gamma,
    phi,
    phi_prime,
)
from prefhedge.model import eval_policy

PARAMS = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.0,
                     mu_Y=0.02, sigma_Y=0.04, T=40.0, y0=np.log(2.0))


class TestValidation:
    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError, match="sigma_S"):
            ModelParams(r=0.0, mu_S=0.0, sigma_S=0.0, rho=0.0,
                        mu_Y=0.0, sigma_Y=0.1, T=1.0)
        with pytest.raises(DomainError, match="sigma_Y"):
            ModelParams(r=0.0, mu_S=0.0, sigma_S=0.1, rho=0.0,
                        mu_Y=0.0, sigma_Y=-1.0, T=1.0)

    def test_rejects_bad_rho_and_T(self):
        with pytest.raises(DomainError, match="rho"):
            ModelParams(r=0.0, mu_S=0.0, sigma_S=0.1, rho=1.5,
                        mu_Y=0.0, sigma_Y=0.1, T=1.0)
        with pytest.raises(DomainError, match="T"):
            ModelParams(r=0.0, mu_S=0.0, sigma_S=0.1, rho=0.0,
                        mu_Y=0.0, sigma_Y=0.1, T=0.0)

    def test_risk_aversion_rejects_log_utility_point(self):
        with pytest.raises(SingularGammaError):
            crra_utility(1.5, np.exp(0.0))
        with pytest.raises(SingularGammaError):
            crra_utility(1.5, 1.0 + 0.5 * EPS_GAMMA)
        with pytest.raises(SingularGammaError):
            phi(-1.0, 1.0 - 0.5 * EPS_GAMMA)


class TestCrraExamples:
    def test_stated_values(self):
        assert crra_utility(1.0, 2.0) == pytest.approx(-1.0)
        assert crra_utility(4.0, 0.5) == pytest.approx(4.0)
        assert crra_utility(2.0, 3.0) == pytest.approx(-0.125)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            crra_utility(0.0, 2.0)
        with pytest.raises(DomainError):
            crra_utility(-1.0, 2.0)
        with pytest.raises(DomainError):
            phi(1.0, 2.0)   # (1-gamma) u <= 0

    def test_sign_by_gamma(self):
        assert crra_utility(3.0, 0.5) > 0
        assert crra_utility(3.0, 4.0) < 0

    def test_phi_examples(self):
        assert phi(-1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
        assert phi(4.0, 0.5) == pytest.approx(np.log(4.0))
        assert phi(-0.125, 3.0) == pytest.approx(np.log(2.0))

    def test_phi_prime_examples(self):
        assert phi_prime(-1.0, 2.0) == pytest.approx(1.0)
        assert phi_prime(4.0, 0.5) == pytest.approx(0.5)
        assert phi_prime(-0.5, 3.0) == pytest.approx(1.0)


@given(
    gamma=st.sampled_from([0.25, 0.5, 2.0, 3.0, 10.0]),
    logx=st.floats(min_value=np.log(1e-3), max_value=np.log(1e3)),
)
@settings(max_examples=200, deadline=None)
def test_round_trip(gamma, logx):
    x = float(np.exp(logx))
    assert phi(crra_utility(x, gamma), gamma) == pytest.approx(logx, rel=1e-12, abs=1e-12)


def test_monotonicity():
    xs = np.geomspace(1e-3, 1e3, 400)
    for gamma in (0.25, 0.5, 2.0, 3.0, 10.0):
        u = crra_utility(xs, gamma)
        assert np.all(np.diff(u) > 0)
        assert np.all(np.diff(phi(u, gamma)) > 0)


def test_phi_prime_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        gamma = float(rng.choice([0.25, 0.5, 2.0, 3.0, 10.0]))
        x = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        u = crra_utility(x, gamma)
        eps = 1e-6 * abs(u)
        fd = (phi(u + eps, gamma) - phi(u - eps, gamma)) / (2 * eps)
        assert phi_prime(u, gamma) == pytest.approx(fd, rel=1e-6)


class TestExpectedTerminalGamma:
    def test_zero_horizon(self):
        assert expected_terminal_gamma(PARAMS.T, np.log(2.0), PARAMS) == pytest.approx(2.0)

    def test_forty_year_example(self):
        val = expected_terminal_gamma(0.0, np.log(2.0), PARAMS)
        assert val == pytest.approx(2.0 * np.exp(0.832), rel=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(42)
        n = 400_000
        yT = np.log(2.0) + PARAMS.mu_Y * PARAMS.T + PARAMS.sigma_Y * np.sqrt(PARAMS.T) * rng.standard_normal(n)
        g = np.exp(yT)
        se = g.std(ddof=1) / np.sqrt(n)
        z = (g.mean() - expected_terminal_gamma(0.0, np.log(2.0), PARAMS)) / se
        assert abs(z) < 3

    def test_martingale_case_is_exactly_constant(self):
        sigma_Y = 0.04
        p = ModelParams(r=0.02, mu_S=0.07, sigma_S=0.2, rho=0.0,
                        mu_Y=-0.5 * sigma_Y**2, sigma_Y=sigma_Y, T=40.0)
        vals = expected_terminal_gamma(np.linspace(0, p.T, 23), 0.0, p)
        assert np.all(vals == 1.0)

    def test_non_martingale_varies(self):
        vals = expected_terminal_gamma(np.array([0.0, 20.0]), 0.0, PARAMS)
        assert vals[0] != vals[1]



def _linear(t, y):
    return 0.1 * np.asarray(t) + np.asarray(y)


class _Surface:
    """Stand-in for a policy surface: evaluated through .value(t, y)."""

    def value(self, t, y, clip=True):
        assert clip
        return _linear(t, y)


class TestEvalPolicy:
    @pytest.mark.parametrize("policy,expect", [
        (0.3, lambda t, y: 0.3),
        (lambda t, y: 0.3, lambda t, y: 0.3),
        (_linear, _linear),
        (_Surface(), _linear),
    ])
    @pytest.mark.parametrize("t,y,shape", [
        (2.0, np.zeros(3), (3,)),
        (np.arange(4.0)[:, None], np.zeros(3), (4, 3)),
        (np.arange(4.0)[:, None], 0.5, (4, 1)),
    ])
    def test_shape_is_broadcast_of_t_and_y(self, policy, expect, t, y, shape):
        out = eval_policy(policy, t, y)
        assert out.shape == shape
        assert np.array_equal(out, np.broadcast_to(expect(t, y), shape))
