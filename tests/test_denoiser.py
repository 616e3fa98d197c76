import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from skipdiff import (
    AnalyticEps,
    GaussianMixture,
    Operator,
    StateIndependent,
    VirtualClock,
    build_sigma_grid,
    eps_oracle,
    evaluate,
    execute_round,
    sample,
    state_independent_eps,
    velocity_oracle,
    x0_posterior_mean,
)
from skipdiff import denoiser
from skipdiff.errors import DimensionMismatch, NonPositiveSigma, TimestepOutOfRange


def t_with_abar(sched, target):
    """Timestep whose alpha_bar is closest to target."""
    return int(np.argmin(np.abs(sched.alpha_bar - target)))


class TestEpsOracle:
    def test_standard_normal_fixed_point(self, std_normal_1d, sched50):
        # N(0,1) data keeps p_t = N(0,1), so eps* = sqrt(1-abar) x
        x = np.array([2.0])
        for t in (1, 10, 50):
            expected = np.sqrt(1 - sched50.alpha_bar[t]) * x
            np.testing.assert_allclose(eps_oracle(std_normal_1d, sched50, x, t), expected, rtol=1e-12)

    def test_delta_data_inversion(self, sched50):
        gm = GaussianMixture(weights=[1.0], means=[[1.5]], variances=[1e-12])
        t = 20
        abar = sched50.alpha_bar[t]
        x = np.array([0.4])
        expected = (x - np.sqrt(abar) * 1.5) / np.sqrt(1 - abar)
        np.testing.assert_allclose(eps_oracle(gm, sched50, x, t), expected, rtol=1e-6)

    def test_two_component_matches_finite_difference(self, bimodal_1d, sched50):
        t = t_with_abar(sched50, 0.25)
        abar = sched50.alpha_bar[t]
        x = 0.3
        h = 1e-6

        def logp(xx):
            centers = np.sqrt(abar) * bimodal_1d.means[:, 0]
            scales = abar * bimodal_1d.variances + 1 - abar
            comps = bimodal_1d.weights * np.exp(-0.5 * (xx - centers) ** 2 / scales) / np.sqrt(scales)
            return np.log(comps.sum())

        fd_score = (logp(x + h) - logp(x - h)) / (2 * h)
        expected = -np.sqrt(1 - abar) * fd_score
        got = eps_oracle(bimodal_1d, sched50, np.array([x]), t)[0]
        assert got == pytest.approx(expected, abs=1e-6)

    def test_errors(self, std_normal_1d, sched50):
        with pytest.raises(TimestepOutOfRange):
            eps_oracle(std_normal_1d, sched50, np.array([0.0]), 51)
        with pytest.raises(DimensionMismatch):
            eps_oracle(std_normal_1d, sched50, np.zeros(2), 5)

    def test_t0_returns_zero_residual(self, bimodal_1d, sched50):
        # the aggressive scheduler's final cached evaluation lands at t=0
        np.testing.assert_allclose(eps_oracle(bimodal_1d, sched50, np.array([0.3]), 0), [0.0])


class TestX0PosteriorMean:
    def test_standard_normal(self, std_normal_1d):
        got = x0_posterior_mean(std_normal_1d, np.array([2.0]), 0.25)
        np.testing.assert_allclose(got, [1.0], rtol=1e-12)

    def test_no_noise_identity(self, bimodal_1d):
        x = np.array([0.77])
        np.testing.assert_allclose(x0_posterior_mean(bimodal_1d, x, 1.0), x, rtol=1e-12)

    def test_two_component_matches_quadrature(self, bimodal_1d):
        abar, x = 0.25, 0.3
        sa, sn = np.sqrt(abar), np.sqrt(1 - abar)

        def prior(x0):
            return sum(
                w * np.exp(-0.5 * (x0 - m) ** 2 / v) / np.sqrt(2 * np.pi * v)
                for w, m, v in zip(bimodal_1d.weights, bimodal_1d.means[:, 0], bimodal_1d.variances)
            )

        def lik(x0):
            return np.exp(-0.5 * (x - sa * x0) ** 2 / (1 - abar)) / (np.sqrt(2 * np.pi) * sn)

        num = quad(lambda u: u * lik(u) * prior(u), -30, 30, limit=200)[0]
        den = quad(lambda u: lik(u) * prior(u), -30, 30, limit=200)[0]
        got = x0_posterior_mean(bimodal_1d, np.array([x]), abar)[0]
        assert got == pytest.approx(num / den, rel=1e-8)

    def test_duality_with_eps(self, bimodal_1d, sched50):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = int(rng.integers(1, 51))
            abar = sched50.alpha_bar[t]
            x = rng.normal(0, 2, 1)
            eps = eps_oracle(bimodal_1d, sched50, x, t)
            x0 = x0_posterior_mean(bimodal_1d, x, abar)
            np.testing.assert_allclose(
                np.sqrt(abar) * x0 + np.sqrt(1 - abar) * eps, x, atol=1e-10
            )


class TestVelocityOracle:
    def test_standard_normal(self, std_normal_1d):
        got = velocity_oracle(std_normal_1d, np.array([1.0]), 1.0)
        np.testing.assert_allclose(got, [0.5], rtol=1e-12)

    def test_large_sigma_closed_form(self, std_normal_1d):
        # x sigma / (1 + sigma^2) at x=1, sigma=100
        got = velocity_oracle(std_normal_1d, np.array([1.0]), 100.0)
        np.testing.assert_allclose(got, [100.0 / 10001.0], rtol=1e-10)

    def test_delta_data(self):
        gm = GaussianMixture(weights=[1.0], means=[[0.8]], variances=[1e-12])
        got = velocity_oracle(gm, np.array([2.0]), 2.0)
        np.testing.assert_allclose(got, [(2.0 - 0.8) / 2.0], rtol=1e-6)

    def test_nonpositive_sigma(self, std_normal_1d):
        with pytest.raises(NonPositiveSigma):
            velocity_oracle(std_normal_1d, np.array([1.0]), 0.0)

    @pytest.mark.parametrize("m, v", [(0.0, 1.0), (1.0, 0.5)])
    def test_small_sigma_closed_form(self, m, v):
        # sigma (x - m) / (v + sigma^2) for N(m, v) data; (x - x0_hat) / sigma
        # cancels to ~1e-13 here
        gm = GaussianMixture(weights=[1.0], means=[[m]], variances=[v])
        for sigma in (0.02, 0.05, 0.1):
            for x in (3.0, -2.5, 5.0):
                got = velocity_oracle(gm, np.array([x]), sigma)
                np.testing.assert_allclose(got, [sigma * (x - m) / (v + sigma**2)], rtol=1e-14)


class TestStateIndependent:
    def test_deterministic(self):
        a = state_independent_eps(7, 3, 4)
        b = state_independent_eps(7, 3, 4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_timesteps(self):
        a = state_independent_eps(7, 3, 4)
        b = state_independent_eps(7, 4, 4)
        assert not np.array_equal(a, b)

    def test_golden_regression(self):
        # pinned at first build; guards the stream keying against accidental change
        got = state_independent_eps(0, 1, 2)
        np.testing.assert_allclose(got, [0.6596311229815894, -1.0995664042571076], rtol=1e-15)


class TestEvaluateWrappers:
    """evaluate() is a pure prediction; the Operator's eval_ms is device time
    that a sampler charges where it dispatches the evaluation. One step from
    t = 7 to 0 makes one evaluation."""

    def test_latency_transparency_and_timing(self, bimodal_1d, sched50):
        x = np.array([0.4])
        base = AnalyticEps(bimodal_1d)
        t0 = time.monotonic()
        got = sample(Operator(base, sched50, (7, 0), eval_ms=50.0), x, None).final
        elapsed = time.monotonic() - t0
        np.testing.assert_array_equal(got, sample(Operator(base, sched50, (7, 0)),
                                                  x, None).final)
        assert elapsed >= 0.050

    def test_latency_computes_inner_inside_eval_time(self, bimodal_1d, sched50, monkeypatch):
        # the prediction takes 40 ms of host time, which a step spends inside
        # its 60 ms of device time instead of after it
        real = denoiser.eps_oracle

        def slow(*args):
            time.sleep(0.040)
            return real(*args)
        monkeypatch.setattr(denoiser, "eps_oracle", slow)
        op = Operator(AnalyticEps(bimodal_1d), sched50, (7, 0), eval_ms=60.0)
        t0 = time.monotonic()
        sample(op, np.array([0.4]), None)
        assert 0.060 <= time.monotonic() - t0 < 0.100

    @pytest.mark.parametrize("eval_ms", [-1.0, float("nan"), float("inf")])
    def test_latency_must_be_finite_and_non_negative(self, bimodal_1d, sched50, eval_ms):
        with pytest.raises(ValueError, match="eval_ms must be finite and >= 0"):
            Operator(AnalyticEps(bimodal_1d), sched50, eval_ms=eval_ms)

    def test_latency_virtual_clock(self, bimodal_1d, sched50):
        op = Operator(AnalyticEps(bimodal_1d), sched50, (7, 0), eval_ms=50.0)
        clock = VirtualClock()
        t0 = time.monotonic()
        sample(op, np.array([0.4]), None, clock)
        assert time.monotonic() - t0 < 0.040  # no real sleeping
        assert clock.elapsed_ms == 50.0

    def test_state_independent_dispatch(self, sched50):
        d = StateIndependent(seed=5, dim=3)
        got = evaluate(d, sched50, np.zeros(3), 9)
        np.testing.assert_array_equal(got, state_independent_eps(5, 9, 3))

    def test_state_independent_on_sigma_grid(self):
        grid = build_sigma_grid(16, 0.02, 20, 7)
        d = StateIndependent(seed=5, dim=3)
        np.testing.assert_array_equal(evaluate(d, grid, np.zeros(3), 16),
                                      state_independent_eps(5, 16, 3))
        with pytest.raises(TimestepOutOfRange):
            evaluate(d, grid, np.zeros(3), 17)


def test_batched_eval_matches_per_row(bimodal_2d, sched50):
    rng = np.random.default_rng(9)
    xs = rng.normal(0, 2, (8, 2))
    batch = eps_oracle(bimodal_2d, sched50, xs, 13)
    for i in range(8):
        np.testing.assert_allclose(batch[i], eps_oracle(bimodal_2d, sched50, xs[i], 13), rtol=1e-14)


@pytest.mark.parametrize("dim, comps", [(1, 2), (2, 3), (8, 5)])
def test_batched_oracles_bitwise_equal_per_row(sched50, dim, comps):
    rng = np.random.default_rng(dim * 10 + comps)
    gm = GaussianMixture(weights=rng.dirichlet(np.ones(comps)),
                         means=rng.normal(0, 2, (comps, dim)),
                         variances=rng.uniform(0.2, 1.5, comps))
    xs = rng.normal(0, 2, (16, dim))
    for t in (0, 1, 13, 50):
        batch = eps_oracle(gm, sched50, xs, t)
        for i in range(len(xs)):
            np.testing.assert_array_equal(batch[i], eps_oracle(gm, sched50, xs[i], t))
    for sigma in (0.02, 1.5, 20.0):
        batch = velocity_oracle(gm, xs, sigma)
        for i in range(len(xs)):
            np.testing.assert_array_equal(batch[i], velocity_oracle(gm, xs[i], sigma))


def test_zero_weight_component_is_silent_and_inert(bimodal_1d, sched50):
    padded = GaussianMixture(weights=[0.5, 0.5, 0.0], means=[[-2.0], [2.0], [7.0]],
                             variances=[1.0, 1.0, 0.5])
    xs = np.linspace(-4, 4, 9)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0, 1, 25, 50):
            np.testing.assert_array_equal(eps_oracle(padded, sched50, xs, t),
                                          eps_oracle(bimodal_1d, sched50, xs, t))
        np.testing.assert_array_equal(velocity_oracle(padded, xs, 0.5),
                                      velocity_oracle(bimodal_1d, xs, 0.5))
        np.testing.assert_array_equal(x0_posterior_mean(padded, xs, 0.5),
                                      x0_posterior_mean(bimodal_1d, xs, 0.5))


STACKED_DENOISERS = {
    "analytic": lambda gm: AnalyticEps(gm),
    "state-independent": lambda gm: StateIndependent(seed=4, dim=gm.dim),
    # an analytic round charged its device time, as execute_round dispatches it
    "latency": lambda gm: AnalyticEps(gm),
}


@pytest.mark.parametrize("kind", list(STACKED_DENOISERS))
@pytest.mark.parametrize("levels", ["schedule", "grid"])
@pytest.mark.parametrize("dim, comps", [(1, 2), (2, 3), (8, 5)])
@pytest.mark.parametrize("row_shape", ["(k, d)", "(k, n, d)"])
def test_stacked_rows_equal_one_row_calls(sched50, kind, levels, dim, comps, row_shape):
    # a stacked call with one timestep per row is what execute_round makes
    # for a round; each row must be bitwise the one-row call
    rng = np.random.default_rng(dim * 10 + comps)
    gm = GaussianMixture(weights=rng.dirichlet(np.ones(comps)),
                         means=rng.normal(0, 2, (comps, dim)),
                         variances=rng.uniform(0.2, 1.5, comps))
    s = sched50 if levels == "schedule" else build_sigma_grid(16, 0.02, 20, 7)
    ts = np.array([13, 1, 7, 13] if levels == "grid" else [50, 0, 13, 1])
    xs = rng.normal(0, 2, (4, dim) if row_shape == "(k, d)" else (4, 3, dim))
    d = STACKED_DENOISERS[kind](gm)
    if kind == "latency":
        stacked, _ = execute_round(d, s, list(zip(xs, ts)), len(ts), anchor_t=int(ts[0]),
                                   eval_ms=5.0, clock=VirtualClock())
    else:
        stacked = evaluate(d, s, xs, ts)
    for j in range(len(ts)):
        np.testing.assert_array_equal(stacked[j], evaluate(d, s, xs[j], int(ts[j])))


def test_stacked_call_counts_rows_and_charges_once(bimodal_1d, sched50):
    d = AnalyticEps(bimodal_1d)
    clock = VirtualClock()
    tasks = [(np.zeros(1), t) for t in (9, 8, 7)]
    vals, _ = execute_round(d, sched50, tasks, 3, anchor_t=9, eval_ms=5.0, clock=clock)
    assert np.shape(vals) == (3, 1)
    assert clock.elapsed_ms == 5.0
    op = Operator(d, sched50, (9, 0), eval_ms=5.0)
    sample(op, np.zeros((2, 1)), None, clock)  # a batch at one timestep is one eval
    assert clock.elapsed_ms == 10.0


def test_stacked_out_of_range_row_raises(bimodal_1d, sched50):
    grid = build_sigma_grid(16, 0.02, 20, 7)
    xs = np.zeros((3, 1))
    with pytest.raises(TimestepOutOfRange):
        evaluate(AnalyticEps(bimodal_1d), sched50, xs, np.array([3, 51, 2]))
    with pytest.raises(TimestepOutOfRange):
        evaluate(StateIndependent(seed=1, dim=1), sched50, xs, np.array([3, -1, 2]))
    with pytest.raises(TimestepOutOfRange):
        evaluate(AnalyticEps(bimodal_1d), grid, xs, np.array([3, 17, 2]))
    with pytest.raises(NonPositiveSigma):  # the grid's sigma = 0 node
        evaluate(AnalyticEps(bimodal_1d), grid, xs, np.array([3, 16, 2]))


class FakeTime:
    """Stands in for the time module inside skipdiff.denoiser: monotonic()
    ticks 1 us per read and records each reading; sleep(s) records s."""

    def __init__(self):
        self.now, self.reads, self.sleeps = 100.0, [], []

    def monotonic(self):
        self.now += 1e-6
        self.reads.append(self.now)
        return self.now

    def sleep(self, s):
        self.sleeps.append(s)
        self.now += s


class TestWallClockWait:
    """A wall-clock wait spins on the clock: it never sleeps and returns on
    the first reading at or past its deadline."""

    @pytest.fixture
    def fake(self, monkeypatch):
        fake = FakeTime()
        monkeypatch.setattr(denoiser, "time", fake)
        return fake

    @pytest.mark.parametrize("charges", [[5.0], [5.0, 5.0], [5.0, 0.1]],
                             ids=["one", "queued", "queued-short"])
    def test_spins_to_the_first_reading_at_the_deadline(self, fake, charges):
        clock = denoiser.WallClock()
        deadline = 0.0
        for ms in charges:
            clock.charge(ms)
            # the documented rule: ms after dispatch, queued behind a deadline still ahead
            deadline = max(deadline, fake.now) + ms / 1000.0
        before = len(fake.reads)
        clock.wait()
        *spun, last = fake.reads[before:]
        assert fake.sleeps == []
        assert spun and all(r < deadline for r in spun)
        assert last >= deadline

    def test_a_zero_charge_returns_at_once(self, fake):
        clock = denoiser.WallClock()
        clock.charge(0.0)
        before = len(fake.reads)
        clock.wait()
        assert fake.sleeps == []
        assert len(fake.reads) == before + 1  # one reading, already at the deadline

    def test_real_waits_never_return_early(self):
        clock = denoiser.WallClock()
        for _ in range(50):
            before = time.monotonic()
            clock.charge(5.0)
            clock.wait()
            assert time.monotonic() >= before + 0.005
