import math

import numpy as np
import pytest

from skipdiff import (
    VarianceRule,
    build_linear_beta,
    build_sigma_grid,
    ddim_skip,
    ddim_skip_coeffs,
    ddpm_skip_sample,
    euler_skip,
)
from skipdiff.errors import IndexOutOfRange, InvalidSkip, TimestepOutOfRange


@pytest.fixture(scope="module")
def half_sched():
    # alpha_bar = [1, .5, .25, .125, .0625]; small enough to check by hand
    return build_linear_beta(4, 0.5, 0.5)


def posterior_mean(s, t, k, x_t, x0):
    """The skip posterior's mean: ddpm_skip_sample at z = 0."""
    return ddpm_skip_sample(s, t, k, x_t, x0, np.zeros_like(x_t))


def posterior_variance(s, t, k):
    """The skip posterior's variance: the square of ddpm_skip_sample at
    x_t = x0 = 0 and z = 1, where the mean is exactly 0."""
    return ddpm_skip_sample(s, t, k, np.zeros(1), np.zeros(1), np.ones(1))[0] ** 2


class TestDdpmSkip:
    def test_hand_checked_posterior(self, half_sched):
        # t=4, k=2: abar_t=1/16, abar_s=1/4, x_t=2, x0=0
        # mean = sqrt(1/4)*(3/4)*2 / (15/16) = 0.75/0.9375*... -> sqrt(2) form below
        mean = posterior_mean(half_sched, 4, 2, np.array([2.0]), np.array([0.0]))
        a_t, a_s = 1 / 16, 1 / 4
        expect_mean = math.sqrt(a_t / a_s) * (1 - a_s) * 2.0 / (1 - a_t)
        expect_var = (1 - a_t / a_s) * (1 - a_s) / (1 - a_t)
        assert mean[0] == pytest.approx(expect_mean, rel=1e-15)
        assert posterior_variance(half_sched, 4, 2) == pytest.approx(expect_var, rel=1e-15)

    def test_frozen_sample_value(self, half_sched):
        # mpmath-frozen (50 digits): t=2, k=1, x_t=1, x0=1, z=1
        got = ddpm_skip_sample(half_sched, 2, 1, np.array([1.0]), np.array([1.0]), np.array([1.0]))
        assert got[0] == pytest.approx(1.5201593107716891, rel=1e-14)

    def test_k1_matches_classic_posterior(self, half_sched):
        # k=1 must reduce to the textbook one-step posterior
        t = 3
        a_t, a_s = half_sched.alpha_bar[t], half_sched.alpha_bar[t - 1]
        beta = half_sched.betas[t]
        x_t, x0 = np.array([0.6]), np.array([-0.4])
        classic_mean = (
            math.sqrt(a_t / a_s) * (1 - a_s) / (1 - a_t) * x_t
            + math.sqrt(a_s) * beta / (1 - a_t) * x0
        )
        classic_var = (1 - a_s) / (1 - a_t) * beta
        np.testing.assert_allclose(posterior_mean(half_sched, t, 1, x_t, x0), classic_mean,
                                   rtol=1e-13)
        assert posterior_variance(half_sched, t, 1) == pytest.approx(classic_var, rel=1e-13)

    def test_skip_to_zero_is_deterministic(self, half_sched):
        assert posterior_variance(half_sched, 3, 3) == 0.0
        np.testing.assert_allclose(
            posterior_mean(half_sched, 3, 3, np.array([0.9]), np.array([0.2])), [0.2], atol=1e-15)
        # z may be omitted exactly in this degenerate case
        out = ddpm_skip_sample(half_sched, 3, 3, np.array([0.9]), np.array([0.2]), None)
        np.testing.assert_allclose(out, [0.2], atol=1e-15)
        with pytest.raises(ValueError):
            ddpm_skip_sample(half_sched, 3, 1, np.array([0.9]), np.array([0.2]), None)

    def test_variance_bounded_by_forward_marginal(self, half_sched):
        for t in range(1, 5):
            for k in range(1, t + 1):
                variance = posterior_variance(half_sched, t, k)
                assert 0.0 <= variance <= 1 - half_sched.alpha_bar[t - k] + 1e-15

    def test_invalid_args(self, half_sched):
        with pytest.raises(InvalidSkip):
            ddpm_skip_sample(half_sched, 2, 0, np.zeros(1), np.zeros(1), np.zeros(1))
        with pytest.raises(TimestepOutOfRange):
            ddpm_skip_sample(half_sched, 5, 1, np.zeros(1), np.zeros(1), np.zeros(1))
        with pytest.raises(TimestepOutOfRange):
            ddpm_skip_sample(half_sched, 2, 3, np.zeros(1), np.zeros(1), np.zeros(1))


class TestDdimCoeffs:
    def test_frozen_values(self, half_sched):
        # deterministic rule, t=4, k=2 on the halving schedule (mpmath-frozen)
        c = ddim_skip_coeffs(half_sched, 4, 2, VarianceRule.deterministic())
        assert c.kappa == pytest.approx(0.8944271909999159, rel=1e-14)
        assert c.lam == pytest.approx(0.2763932022500210, rel=1e-13)
        assert c.sigma == 0.0

    def test_frozen_stochastic_values(self, half_sched):
        # ddpm-induced rule, t=2, k=1 (mpmath-frozen)
        c = ddim_skip_coeffs(half_sched, 2, 1, VarianceRule.ddpm_induced())
        assert c.kappa == pytest.approx(0.4714045207910317, rel=1e-14)
        assert c.lam == pytest.approx(0.4714045207910317, rel=1e-14)

    def test_eta_interpolates(self, half_sched):
        full = ddim_skip_coeffs(half_sched, 3, 2, VarianceRule.ddpm_induced())
        half = ddim_skip_coeffs(half_sched, 3, 2, VarianceRule(0.5))
        zero = ddim_skip_coeffs(half_sched, 3, 2, VarianceRule(0.0))
        assert half.sigma == pytest.approx(full.sigma / 2, rel=1e-15)
        assert zero.sigma == 0.0

    def test_every_eta_one_skip_is_in_range(self):
        # sigma^2 at eta = 1 rounds one ulp past 1 - abar_{t-k} on 92 of these
        # 1275 skips; every one must still run and meet both constraints
        s, rule = build_linear_beta(50, 0.5, 0.999), VarianceRule.ddpm_induced()
        for t in range(1, s.T + 1):
            for k in range(1, t + 1):
                c = ddim_skip_coeffs(s, t, k, rule)
                a_t, a_s = s.alpha_bar[t], s.alpha_bar[t - k]
                assert abs(c.lam + c.kappa * math.sqrt(a_t) - math.sqrt(a_s)) <= 1e-10
                assert abs(c.kappa**2 * (1 - a_t) + c.sigma**2 - (1 - a_s)) <= 1e-10
                x = ddim_skip(s, t, k, np.array([1.0]), np.array([0.3]), rule, np.array([0.2]))
                assert np.isfinite(x).all()

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            VarianceRule(1.5)

    def test_a_rule_is_one_eta(self):
        # the named rules are the two ends of the eta range
        assert VarianceRule(1.0) == VarianceRule.ddpm_induced()
        assert VarianceRule(0.0) == VarianceRule.deterministic()


class TestDdimSkip:
    def test_frozen_update(self, half_sched):
        # t=4, k=2, x_t=1, eps=0.3, deterministic (mpmath-frozen)
        got = ddim_skip(half_sched, 4, 2, np.array([1.0]), np.array([0.3]),
                        VarianceRule.deterministic())
        assert got[0] == pytest.approx(1.6788601192042191, rel=1e-14)

    def test_matches_coefficient_form(self, half_sched):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = int(rng.integers(1, 5))
            k = int(rng.integers(1, t + 1))
            x_t, eps, z = rng.normal(size=(3, 2))
            rule = VarianceRule.ddpm_induced()
            c = ddim_skip_coeffs(half_sched, t, k, rule)
            a_t, a_s = half_sched.alpha_bar[t], half_sched.alpha_bar[t - k]
            x0_hat = (x_t - math.sqrt(1 - a_t) * eps) / math.sqrt(a_t)
            explicit = (
                math.sqrt(a_s) * x0_hat
                + math.sqrt(max(1 - a_s - c.sigma**2, 0.0)) * eps
                + c.sigma * z
            )
            got = ddim_skip(half_sched, t, k, x_t, eps, rule, z)
            np.testing.assert_allclose(got, explicit, rtol=1e-12, atol=1e-12)

    def test_kappa_lambda_form(self, half_sched):
        # x_{t-k} = kappa x_t + lambda x0_hat (+ sigma z)
        rng = np.random.default_rng(7)
        t, k = 4, 3
        x_t, eps, z = rng.normal(size=(3, 4))
        rule = VarianceRule(0.7)
        c = ddim_skip_coeffs(half_sched, t, k, rule)
        a_t = half_sched.alpha_bar[t]
        x0_hat = (x_t - math.sqrt(1 - a_t) * eps) / math.sqrt(a_t)
        np.testing.assert_allclose(
            ddim_skip(half_sched, t, k, x_t, eps, rule, z),
            c.kappa * x_t + c.lam * x0_hat + c.sigma * z,
            rtol=1e-12, atol=1e-12,
        )

    def test_missing_noise_rejected(self, half_sched):
        with pytest.raises(ValueError):
            ddim_skip(half_sched, 2, 1, np.ones(1), np.ones(1), VarianceRule.ddpm_induced())

    def test_deterministic_needs_no_noise(self, half_sched):
        out = ddim_skip(half_sched, 2, 1, np.ones(1), np.ones(1), VarianceRule.deterministic())
        assert np.all(np.isfinite(out))

    def test_skip_vs_composed_unit_steps(self):
        # a single deterministic k-skip approximates k composed unit steps with
        # a fixed eps; the gap shrinks as the schedule is refined
        gaps = []
        for T in (25, 50, 100):
            s = build_linear_beta(T, 0.002 * 50 / T, 0.4 * 50 / T)
            t, k = T, 5
            x = np.array([1.3])
            eps = np.array([0.4])
            skip = ddim_skip(s, t, k, x, eps, VarianceRule.deterministic())
            comp = x
            for j in range(k):
                comp = ddim_skip(s, t - j, 1, comp, eps, VarianceRule.deterministic())
            # with a state-independent eps the two are algebraically identical
            np.testing.assert_allclose(skip, comp, rtol=1e-12)
            gaps.append(abs(skip[0] - comp[0]))
        assert max(gaps) < 1e-10


class TestEulerSkip:
    def test_exact_linear_field(self):
        g = build_sigma_grid(4, 0.002, 80, 7)
        x, v = np.array([2.0]), np.array([0.5])
        got = euler_skip(g, 1, 2, x, v)
        np.testing.assert_allclose(got, x + (g.sigmas[3] - g.sigmas[1]) * v, rtol=1e-15)

    def test_skip_equals_composition_for_constant_v(self):
        g = build_sigma_grid(6, 0.01, 10, 3)
        x, v = np.array([1.0, -1.0]), np.array([0.2, 0.4])
        step = euler_skip(g, 0, 3, x, v)
        comp = x
        for j in range(3):
            comp = euler_skip(g, j, 1, comp, v)
        np.testing.assert_allclose(step, comp, rtol=1e-12)

    def test_bounds(self):
        g = build_sigma_grid(4, 0.002, 80, 7)
        with pytest.raises(InvalidSkip):
            euler_skip(g, 0, 0, np.zeros(1), np.zeros(1))
        with pytest.raises(IndexOutOfRange):
            euler_skip(g, 3, 2, np.zeros(1), np.zeros(1))
        with pytest.raises(IndexOutOfRange):
            euler_skip(g, -1, 1, np.zeros(1), np.zeros(1))
