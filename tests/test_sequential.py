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
    ddim_skip,
    ddim_skip_coeffs,
    ddpm_skip_sample,
    default_schedule,
    euler_skip,
    predicted_x0,
    sample,
    standard_normal_mixture,
)
from skipdiff.errors import InvalidSkip, InvalidSubsequence, NonFiniteState
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

    def test_needs_a_stream(self, bimodal_1d, sched50):
        with pytest.raises(ValueError, match="stream required for a stochastic ddpm operator"):
            sample(Operator("ddpm", AnalyticEps(bimodal_1d), sched50), np.array([0.5]), None)


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


class TestOperatorSkip:
    """Operator.skip must give, bit for bit, what the public transition
    function gives, and what the skip formula written out term by term gives."""

    GRID = build_sigma_grid(20, 0.02, 10.0, 3.0)
    SUB = (20, 17, 13, 12, 8, 4, 3, 1, 0)
    CASES = [
        ("ddim", VarianceRule.deterministic()),
        ("ddim", VarianceRule.ddpm_induced()),
        ("ddim", VarianceRule(0.5)),
        ("ddpm", VarianceRule.deterministic()),
        ("euler", VarianceRule.deterministic()),
    ]

    @staticmethod
    def _reference(op, i, k, x, v, z):
        t, u = op.labels[i], op.labels[i + k]
        if op.family == "euler":
            return euler_skip(op.levels, op.level(i), t - u, x, v)
        if op.family == "ddim":
            return ddim_skip(op.levels, t, t - u, x, v, op.rule, z)
        return ddpm_skip_sample(op.levels, t, t - u, x, predicted_x0(op.levels, x, v, t), z)

    @staticmethod
    def _formula(op, i, k, x, v, z):
        """The skip written out term by term, in the order the arithmetic runs."""
        t, u = op.labels[i], op.labels[i + k]
        if op.family == "euler":
            return x + (op.levels.sigmas[op.level(i) + t - u] - op.levels.sigmas[op.level(i)]) * v
        a_t, a_s = op.levels.alpha_bar[t], op.levels.alpha_bar[u]
        x0 = (x - math.sqrt(1.0 - a_t) * v) / math.sqrt(a_t)
        if op.family == "ddim":
            sigma = ddim_skip_coeffs(op.levels, t, t - u, op.rule).sigma
            out = math.sqrt(a_s) * x0 + math.sqrt(1.0 - a_s - sigma**2) * v
            return out + sigma * z if sigma > 0.0 else out
        ratio = a_t / a_s
        mean = (np.sqrt(ratio) * (1.0 - a_s) * x + np.sqrt(a_s) * (1.0 - ratio) * x0) / (1.0 - a_t)
        variance = (1.0 - ratio) * (1.0 - a_s) / (1.0 - a_t)
        return mean + math.sqrt(variance) * z if variance != 0.0 else mean

    @pytest.mark.parametrize("labels", [None, SUB], ids=["T20", "subsequence"])
    @pytest.mark.parametrize("family,rule", CASES,
                             ids=["ddim-det", "ddim-ddpm", "ddim-eta0.5", "ddpm", "euler"])
    def test_bitwise_equal_to_public_functions(self, family, rule, labels):
        levels = self.GRID if family == "euler" else default_schedule(20)
        op = Operator(family, AnalyticEps(standard_normal_mixture(2)), levels, labels, rule)
        rng = np.random.default_rng(7)
        for i in range(op.steps):
            for k in range(1, op.steps - i + 1):
                x, v, z = rng.standard_normal((3, 2))
                got = op.skip(i, k, x, v, z).tobytes()
                assert got == self._reference(op, i, k, x, v, z).tobytes(), (i, k)
                assert got == self._formula(op, i, k, x, v, z).tobytes(), (i, k)

    def test_invalid_skip_raises(self, std_normal_1d, sched50):
        op = Operator("ddim", AnalyticEps(std_normal_1d), sched50)
        x = np.zeros(1)
        with pytest.raises(InvalidSkip):
            op.skip(3, 0, x, x, None)
        with pytest.raises(IndexError):
            op.skip(48, 5, x, x, None)
