import math

import numpy as np
import pytest

from skipdiff import (
    AnalyticEps,
    GaussianMixture,
    Operator,
    RngStream,
    Role,
    VarianceRule,
    build_linear_beta,
    build_sigma_grid,
    default_schedule,
    sample,
    standard_normal_mixture,
)
from skipdiff.errors import InvalidSubsequence, NonFiniteState
from skipdiff.rng import derive_noise


class TestSampleDdpm:
    def test_single_step_closed_form(self, std_normal_1d):
        # T=1: one eval, then a deterministic jump to x0_hat
        s = build_linear_beta(1, 0.5, 0.5)
        d = AnalyticEps(std_normal_1d)
        x_T = np.array([1.2])
        traj = sample(Operator("ddpm", d, s), x_T, RngStream(seed=0))
        assert traj.eval_count == 1
        assert traj.timesteps() == [1, 0]
        # eps* = sqrt(1-abar) x; x0_hat = x(1 - (1-abar))/sqrt(abar) = sqrt(abar) x
        np.testing.assert_allclose(traj.final, math.sqrt(0.5) * x_T, rtol=1e-13)

    def test_trajectory_shape_and_determinism(self, bimodal_1d, sched50):
        d = AnalyticEps(bimodal_1d)
        x_T = np.array([0.3])
        a = sample(Operator("ddpm", d, sched50), x_T, RngStream(seed=4))
        b = sample(Operator("ddpm", d, sched50), x_T, RngStream(seed=4))
        assert a.timesteps() == list(range(50, -1, -1))
        assert a.eval_count == 50
        for (ta, xa), (tb, xb) in zip(a.states, b.states):
            assert ta == tb
            np.testing.assert_array_equal(xa, xb)

    def test_marginal_moments(self, std_normal_1d):
        # with N(0,1) data the reverse chain keeps every marginal N(0,1) up to
        # discretization bias, so use a fine schedule (coarse T=50 betas up to
        # 0.4 leave an O(beta) variance deficit)
        s = build_linear_beta(200, 1e-4, 0.05)
        d = AnalyticEps(std_normal_1d)
        n = 4000
        stream = RngStream(seed=10)
        x_T = derive_noise(stream, s.T, Role.INIT, (n, 1))
        finals = sample(Operator("ddpm", d, s), x_T, stream).final[:, 0]
        se_mean = 1 / math.sqrt(n)
        se_var = math.sqrt(2 / (n - 1))
        assert abs(finals.mean()) <= 4 * se_mean
        assert abs(finals.var() - 1) <= 4 * se_var


class TestSampleDdim:
    def test_deterministic_consumes_no_noise(self, bimodal_1d, sched50):
        class Audit(RngStream):
            calls: list = []

            def derive(self, t, role, shape):
                Audit.calls.append((t, int(role)))
                return super().derive(t, role, shape)

        Audit.calls.clear()
        d = AnalyticEps(bimodal_1d)
        sample(Operator("ddim", d, sched50, rule=VarianceRule.deterministic()), np.array([0.5]),
               Audit(seed=1))
        assert Audit.calls == []

    def test_stochastic_noise_keys(self, bimodal_1d, sched50):
        # z entering timestep u must be keyed (u, TRANSITION), once per step
        class Audit(RngStream):
            calls: list = []

            def derive(self, t, role, shape):
                Audit.calls.append((t, Role(role)))
                return super().derive(t, role, shape)

        Audit.calls.clear()
        d = AnalyticEps(bimodal_1d)
        sample(Operator("ddim", d, sched50, rule=VarianceRule.ddpm_induced()), np.array([0.5]),
               Audit(seed=1))
        assert Audit.calls == [(u, Role.TRANSITION) for u in range(49, -1, -1)]

    def test_subsequence(self, bimodal_1d, sched50):
        d = AnalyticEps(bimodal_1d)
        sub = [50, 40, 25, 10, 0]
        traj = sample(Operator("ddim", d, sched50, sub, VarianceRule.deterministic()),
                      np.array([0.5]), RngStream(seed=2))
        assert traj.timesteps() == sub
        assert traj.eval_count == 4

    @pytest.mark.parametrize("bad", [[50, 0, 0], [50, 10], [], [10, 20, 0], [60, 0]])
    def test_invalid_subsequence(self, bimodal_1d, sched50, bad):
        d = AnalyticEps(bimodal_1d)
        with pytest.raises(InvalidSubsequence):
            sample(Operator("ddim", d, sched50, bad, VarianceRule.deterministic()),
                   np.array([0.5]), RngStream(seed=2))

    def test_deterministic_pulls_to_modes(self, bimodal_1d, sched50):
        # deterministic DDIM from a well-separated start lands near a data mode
        d = AnalyticEps(bimodal_1d)
        traj = sample(Operator("ddim", d, sched50, rule=VarianceRule.deterministic()),
                      np.array([2.5]), RngStream(seed=3))
        assert 0.5 < traj.final[0] < 4.5

    def test_stochastic_moments(self, std_normal_1d):
        # same discretization caveat as the DDPM moment test: use a fine grid
        s = build_linear_beta(200, 1e-4, 0.05)
        d = AnalyticEps(std_normal_1d)
        n = 4000
        stream = RngStream(seed=11)
        x_T = derive_noise(stream, s.T, Role.INIT, (n, 1))
        op = Operator("ddim", d, s, rule=VarianceRule.ddpm_induced())
        finals = sample(op, x_T, stream).final[:, 0]
        se_mean = 1 / math.sqrt(n)
        se_var = math.sqrt(2 / (n - 1))
        assert abs(finals.mean()) <= 4 * se_mean
        assert abs(finals.var() - 1) <= 4 * se_var


class TestSampleEuler:
    def test_accounting(self, std_normal_1d):
        g = build_sigma_grid(8, 0.02, 40, 7)
        traj = sample(Operator("euler", AnalyticEps(std_normal_1d), g), np.array([3.0]), None)
        assert traj.eval_count == 8
        assert traj.timesteps() == list(range(8, -1, -1))

    def test_convergence_to_analytic_solution(self, std_normal_1d):
        # for N(0,1) data the probability-flow field is v = x sigma/(1+sigma^2),
        # whose exact solution is x(sigma) = x(smax) sqrt((1+sigma^2)/(1+smax^2));
        # global Euler error should shrink linearly in the step count
        smax, smin = 10.0, 0.05
        x_start = np.array([2.0])

        def terminal_error(N):
            g = build_sigma_grid(N, smin, smax, 1.0)
            got = sample(Operator("euler", AnalyticEps(std_normal_1d), g), x_start, None).final[0]
            exact = 2.0 * math.sqrt(1.0 / (1 + smax**2))
            return abs(got - exact)

        e16, e32, e64 = terminal_error(16), terminal_error(32), terminal_error(64)
        assert e32 < e16 and e64 < e32
        assert 1.7 <= e16 / e32 <= 2.3
        assert 1.7 <= e32 / e64 <= 2.3

    def test_exact_along_grid_for_analytic_field(self, std_normal_1d):
        # each intermediate state matches one explicit Euler recursion step
        g = build_sigma_grid(5, 0.1, 4.0, 2.0)
        traj = sample(Operator("euler", AnalyticEps(std_normal_1d), g), np.array([1.0]), None)
        x = 1.0
        for i, (t, state) in enumerate(traj.states[1:]):
            sig = g.sigmas[i]
            x = x + (g.sigmas[i + 1] - sig) * (x * sig / (1 + sig**2))
            assert state[0] == pytest.approx(x, rel=1e-12)


def test_ddim_matches_ddpm_mean_at_k1(std_normal_1d, sched50):
    # with the ddpm-induced rule and shared z, a unit DDIM step equals the
    # DDPM ancestral step exactly (same posterior mean and std)
    d = AnalyticEps(std_normal_1d)
    x_T = np.array([1.7])
    a = sample(Operator("ddpm", d, sched50), x_T, RngStream(seed=21))
    b = sample(Operator("ddim", d, sched50, rule=VarianceRule.ddpm_induced()), x_T,
               RngStream(seed=21))
    for (ta, xa), (tb, xb) in zip(a.states, b.states):
        assert ta == tb
        np.testing.assert_allclose(xa, xb, rtol=1e-10, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_non_finite_state_names_the_step(sched50):
    # a finite mean near the float limit overflows the oracle at the first
    # evaluation; the skip that consumes the prediction raises
    gm = GaussianMixture(weights=[1.0], means=[[1e308]], variances=[1.0])
    op = Operator("ddim", AnalyticEps(gm), sched50)
    with pytest.raises(NonFiniteState, match="from t=50 to t=49"):
        sample(op, np.array([0.5]), None)
