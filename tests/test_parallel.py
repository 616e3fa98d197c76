import math
import threading
import time

import numpy as np
import pytest

from skipdiff import (
    AnalyticEps,
    Mode,
    Operator,
    RngStream,
    Role,
    SampleSet,
    StateIndependent,
    VarianceRule,
    VirtualClock,
    build_linear_beta,
    build_sigma_grid,
    ddpm_skip_sample,
    default_schedule,
    plan_blocks,
    predicted_x0,
    run_parallel,
    sample,
    sliced_w2,
)
from skipdiff import parallel, sequential
from skipdiff.denoiser import WallClock
from skipdiff.errors import DimensionMismatch, InvalidPlanParams
from skipdiff.rng import derive_noise


def _ident(a, b):
    """Bit-identical trajectories: same timesteps, same arrays."""
    return a.timesteps() == b.timesteps() and all(
        np.array_equal(xa, xb) for (_, xa), (_, xb) in zip(a.states, b.states)
    )


class TestPlanBlocks:
    def test_aggressive_example(self):
        p = plan_blocks(10, 3, Mode.AGGRESSIVE)
        assert p.blocks == ((10, 3), (7, 3), (4, 3), (1, 1))
        assert p.total_evals == 11
        assert p.total_rounds == 5

    def test_conservative_example(self):
        p = plan_blocks(10, 3, Mode.CONSERVATIVE)
        assert p.blocks == ((10, 3), (6, 3), (2, 1))
        assert p.total_evals == 10
        assert p.total_rounds == 6

    def test_conservative_remainder_borrow(self):
        # T = 1 mod (devices+1): the preceding block shrinks by one step so no
        # block is left with a lone timestep
        p = plan_blocks(9, 3, Mode.CONSERVATIVE)
        assert sum(k + 1 for _, k in p.blocks) == 9
        assert all(k >= 1 for _, k in p.blocks)

    def test_conservative_degenerate_tail(self):
        # devices=1, odd T: blocks consume 2 each, so the final block is a
        # single stand-alone step
        p = plan_blocks(5, 1, Mode.CONSERVATIVE)
        assert p.blocks[-1][1] == 0
        assert sum(k + 1 for _, k in p.blocks) == 5

    def test_round_laws(self):
        # conservative: 2*ceil(T/(k+1)), one round fewer when the plan ends on a
        # lone step, which no block can lend a step to at T = 1 or on one device
        for T in range(1, 60):
            for devices in range(1, 9):
                lone = T % (devices + 1) == 1 and (T == 1 or devices == 1)
                assert plan_blocks(T, devices, Mode.CONSERVATIVE).total_rounds == \
                    2 * math.ceil(T / (devices + 1)) - lone
                assert plan_blocks(T, devices, Mode.AGGRESSIVE).total_rounds == \
                    1 + math.ceil(T / devices)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("T", [1, 2, 3, 7, 8, 20, 49, 50])
    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_coverage_invariants(self, mode, T, devices):
        p = plan_blocks(T, devices, mode)
        per_block = 1 if mode is Mode.AGGRESSIVE else 0
        consumed = sum(k + (1 - per_block) for _, k in p.blocks) if mode is Mode.CONSERVATIVE \
            else sum(k for _, k in p.blocks)
        assert consumed == T
        # anchors chain down contiguously
        t = T
        for anchor, k in p.blocks:
            assert anchor == t
            assert k <= devices
            t -= k if mode is Mode.AGGRESSIVE else k + 1
        assert t == 0

    def test_invalid(self):
        with pytest.raises(InvalidPlanParams):
            plan_blocks(0, 3, Mode.AGGRESSIVE)
        with pytest.raises(InvalidPlanParams):
            plan_blocks(10, 0, Mode.CONSERVATIVE)


class TestEquivalence:
    """With a state-independent denoiser every draft evaluation sees the eps
    the sequential sampler would have seen, so both modes must reproduce
    sequential DDIM bit-exactly. The (T, devices, rule) grid, rule = ddpm (the
    DDPM family) included, is `verify`'s equivalence suite, which acceptance
    test 01 runs."""

    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    @pytest.mark.parametrize("rule", [VarianceRule.deterministic(), VarianceRule.ddpm_induced()],
                             ids=["ddim-deterministic", "ddim-ddpm-induced"])
    def test_subsequence(self, sched50, devices, rule):
        # the subsequence is the operator's label list in every mode
        sub = [50, 44, 37, 30, 22, 15, 9, 4, 0]
        op = Operator(StateIndependent(seed=5, dim=2), sched50, sub, rule)
        stream = RngStream(seed=4)
        x_T = derive_noise(stream, 50, Role.INIT, 2)
        seq = sample(op, x_T, stream)
        assert seq.timesteps() == sub
        for mode in Mode:
            traj, _ = run_parallel(op, x_T, devices, mode, stream)
            assert _ident(traj, seq)


class TestAccounting:
    @pytest.mark.parametrize("T", [8, 20, 50])
    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_eval_and_round_laws(self, T, devices, round_calls):
        # the rows dispatched are the evals counted; `verify`'s accounting
        # suite (acceptance test 08) checks both counts against the laws
        s = default_schedule(T)
        stream = RngStream(seed=9)
        x_T = derive_noise(stream, T, Role.INIT, 1)
        op = Operator(StateIndependent(seed=3, dim=1), s, rule=VarianceRule.deterministic())
        for mode in Mode:
            round_calls.clear()
            traj, _ = run_parallel(op, x_T, devices, mode, stream)
            assert sum(rows for _, _, rows in round_calls) == traj.eval_count

    def test_round_reports(self, sched50):
        den = StateIndependent(seed=3, dim=1)
        stream = RngStream(seed=9)
        x_T = derive_noise(stream, 50, Role.INIT, 1)
        op = Operator(den, sched50, rule=VarianceRule.deterministic())
        _, reports = run_parallel(op, x_T, 4, Mode.AGGRESSIVE, stream)
        assert reports[0].parallel_evals == 1  # initial anchor round
        assert all(r.parallel_evals <= 4 for r in reports)
        assert sum(r.parallel_evals for r in reports) == 51


class TestExecuteRound:
    """A round of `run_parallel`: what it charges and what it raises."""

    def test_virtual_clock_round(self, sched50, bimodal_1d):
        # a round costs one eval_ms whatever its drafts and chains, as a
        # sequential step over a batch of chains does
        op = Operator(AnalyticEps(bimodal_1d), sched50, (9, 6, 3, 0), eval_ms=40.0)
        clock = VirtualClock()
        traj, reports = run_parallel(op, np.zeros((2, 1)), 3, Mode.AGGRESSIVE, None, clock=clock)
        assert [r.parallel_evals for r in reports] == [1, 3]
        assert [r.round_wall_ms for r in reports] == [40.0, 40.0]
        assert traj.wall_ms == clock.elapsed_ms == 80.0
        assert sample(op, np.zeros((2, 1)), None, clock).wall_ms == 3 * 40.0

    @pytest.mark.parametrize("mode", ["sequential", "aggressive", "conservative"])
    def test_drivers_raise_the_same_error(self, sched50, bimodal_2d, mode):
        # a 1-D state on a 2-D mixture: the evaluation's own error, in every driver
        op = Operator(AnalyticEps(bimodal_2d), sched50)
        with pytest.raises(DimensionMismatch):
            if mode == "sequential":
                sample(op, np.zeros(1), None, VirtualClock())
            else:
                run_parallel(op, np.zeros(1), 3, Mode(mode), None, clock=VirtualClock())


class TestDeterminism:
    def test_submit_order_invariance(self, sched50, bimodal_1d, shuffle_rounds):
        den = AnalyticEps(bimodal_1d)
        stream = RngStream(seed=13)
        x_T = derive_noise(stream, 50, Role.INIT, 1)
        op = Operator(den, sched50, rule=VarianceRule.ddpm_induced())
        ref, _ = run_parallel(op, x_T, 4, Mode.AGGRESSIVE, stream)
        for order_seed in (1, 2, 3):
            shuffle_rounds(order_seed)
            traj, _ = run_parallel(op, x_T, 4, Mode.AGGRESSIVE, stream)
            assert _ident(traj, ref)


class TestFidelity:
    def test_conservative_no_worse_than_aggressive(self, sched50, bimodal_1d):
        # conservative refreshes the anchor eps every block, so its terminal
        # deviation from sequential DDIM should not exceed the aggressive one
        # (checked in the mean over paired seeds)
        op = Operator(AnalyticEps(bimodal_1d), sched50, rule=VarianceRule.deterministic())
        agg_dev, con_dev = [], []
        for seed in range(20):
            stream = RngStream(seed=seed)
            x_T = derive_noise(stream, 50, Role.INIT, 1)
            seq = sample(op, x_T, stream)
            ta, _ = run_parallel(op, x_T, 3, Mode.AGGRESSIVE, stream)
            tc, _ = run_parallel(op, x_T, 3, Mode.CONSERVATIVE, stream)
            agg_dev.append(abs(ta.final[0] - seq.final[0]))
            con_dev.append(abs(tc.final[0] - seq.final[0]))
        assert np.mean(con_dev) <= np.mean(agg_dev)
        assert np.mean(agg_dev) < 0.1  # drafts stay close to the true path

    def test_deviation_shrinks_with_fewer_devices(self, bimodal_1d):
        # conservative mode on one device degenerates to sequential sampling
        # exactly (every skip is a unit step and every eps is evaluated at the
        # refined state), for every rule; odd T ends in a degenerate block
        rules = {"deterministic": VarianceRule.deterministic(),
                 "ddpm": VarianceRule.ddpm_induced(), "eta": VarianceRule(0.5)}
        for T in (50, 49):
            for rule in rules:
                op = Operator(AnalyticEps(bimodal_1d), default_schedule(T), rule=rules[rule])
                for seed in (3, 4):
                    stream = RngStream(seed=seed)
                    x_T = derive_noise(stream, T, Role.INIT, 1)
                    traj, _ = run_parallel(op, x_T, 1, Mode.CONSERVATIVE, stream)
                    assert _ident(traj, sample(op, x_T, stream)), (T, rule, seed)

    @pytest.mark.parametrize("rule", [VarianceRule.ddpm_induced()], ids=["ddim-ddpm"])
    def test_stochastic_distributional_quality(self, sched50, bimodal_2d, rule):
        # acceptance test 06 for a stochastic rule on two devices: the sliced W2
        # of each mode to sequential stays within 2x the seed-to-seed null
        n = 10_000
        op = Operator(AnalyticEps(bimodal_2d), sched50, rule=rule)

        def batch(seed, mode=None):
            stream = RngStream(seed=seed)
            x_T = derive_noise(stream, 50, Role.INIT, (n, 2))
            if mode is None:
                return SampleSet(sample(op, x_T, stream, clock=VirtualClock()).final)
            return SampleSet(run_parallel(op, x_T, 2, mode, stream, clock=VirtualClock())[0].final)

        seq = batch(0)
        null = sliced_w2(seq, batch(1))
        for mode in Mode:
            ratio = sliced_w2(batch(0, mode), seq) / null
            assert ratio <= 2.0, (mode, ratio)


class TestParallelEuler:
    @pytest.fixture(scope="class")
    @staticmethod
    def grid():
        return build_sigma_grid(16, 0.02, 20, 7)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_accounting_and_shape(self, grid, bimodal_1d, mode):
        op = Operator(AnalyticEps(bimodal_1d), grid)
        traj, reports = run_parallel(op, np.array([1.5]), 3, mode, None)
        assert traj.timesteps() == list(range(16, -1, -1))
        assert traj.eval_count == 16  # sigma=0 velocity tasks are dropped

    @pytest.mark.parametrize("mode", list(Mode))
    def test_close_to_sequential(self, grid, bimodal_1d, mode):
        op = Operator(AnalyticEps(bimodal_1d), grid)
        x0 = np.array([1.5])
        seq = sample(op, x0, None)
        traj, _ = run_parallel(op, x0, 3, mode, None)
        assert abs(traj.final[0] - seq.final[0]) < 0.05

    def test_devices_1_matches_sequential(self, grid, bimodal_1d):
        op = Operator(AnalyticEps(bimodal_1d), grid)
        x0 = np.array([1.5])
        seq = sample(op, x0, None)
        traj, _ = run_parallel(op, x0, 1, Mode.CONSERVATIVE, None)
        for (_, xa), (_, xb) in zip(seq.states, traj.states):
            np.testing.assert_allclose(xa, xb, rtol=1e-12)

    def test_deterministic(self, grid, bimodal_1d):
        op = Operator(AnalyticEps(bimodal_1d), grid)
        a, _ = run_parallel(op, np.array([1.5]), 4, Mode.AGGRESSIVE, None)
        b, _ = run_parallel(op, np.array([1.5]), 4, Mode.AGGRESSIVE, None)
        assert _ident(a, b)


class TestParallelEulerWrapperStack:
    """Euler runs through the same round dispatch as DDIM: latency, virtual
    clock, counting and stacked rounds all apply."""

    @pytest.fixture(scope="class")
    @staticmethod
    def grid():
        return build_sigma_grid(16, 0.02, 20, 7)

    @pytest.mark.parametrize("mode, rounds", [(Mode.AGGRESSIVE, 5), (Mode.CONSERVATIVE, 8)])
    def test_virtual_clock_round_law(self, grid, bimodal_1d, mode, rounds):
        eval_ms = 50.0
        op = Operator(AnalyticEps(bimodal_1d), grid, eval_ms=eval_ms)
        x0 = np.array([1.5])
        seq = sample(op, x0, None, VirtualClock())
        traj, reports = run_parallel(op, x0, 4, mode, None, clock=VirtualClock())
        assert seq.wall_ms == 16 * eval_ms
        assert traj.wall_ms == len(reports) * eval_ms == rounds * eval_ms

    @pytest.mark.parametrize("mode", list(Mode))
    def test_submit_order_invariance(self, grid, bimodal_1d, shuffle_rounds, mode):
        op = Operator(AnalyticEps(bimodal_1d), grid)
        ref, _ = run_parallel(op, np.array([1.5]), 4, mode, None)
        for order_seed in (1, 2, 3):
            shuffle_rounds(order_seed)
            traj, _ = run_parallel(op, np.array([1.5]), 4, mode, None)
            assert _ident(traj, ref)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_sigma_zero_task_not_dispatched(self, grid, bimodal_1d, mode, round_calls):
        op = Operator(AnalyticEps(bimodal_1d), grid)
        traj, reports = run_parallel(op, np.array([1.5]), 4, mode, None)
        assert sum(rows for _, _, rows in round_calls) == traj.eval_count == 16
        assert sum(r.parallel_evals for r in reports) == 16

    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_state_independent_equivalence(self, grid, devices):
        # the bit-exact equivalence oracle extends to the Euler family
        op = Operator(StateIndependent(seed=6, dim=2), grid)
        x0 = np.array([1.5, -0.5])
        seq = sample(op, x0, None)
        for mode in Mode:
            traj, _ = run_parallel(op, x0, devices, mode, None)
            assert _ident(traj, seq)


class TestSpeedupVirtualClock:
    """With an Operator's eval_ms the virtual clock reproduces the round
    laws exactly: wall time = rounds x eval time."""

    def test_aggressive_wall(self):
        T, devices, eval_ms = 48, 3, 50.0
        s = default_schedule(T)
        den = StateIndependent(seed=1, dim=1)
        stream = RngStream(seed=0)
        x_T = derive_noise(stream, T, Role.INIT, 1)
        clock = VirtualClock()
        op = Operator(den, s, rule=VarianceRule.deterministic(), eval_ms=eval_ms)
        traj, reports = run_parallel(op, x_T, devices, Mode.AGGRESSIVE, stream, clock=clock)
        assert traj.wall_ms == len(reports) * eval_ms == 17 * eval_ms

    def test_conservative_wall(self):
        T, devices, eval_ms = 48, 3, 50.0
        s = default_schedule(T)
        den = StateIndependent(seed=1, dim=1)
        stream = RngStream(seed=0)
        x_T = derive_noise(stream, T, Role.INIT, 1)
        clock = VirtualClock()
        op = Operator(den, s, rule=VarianceRule.deterministic(), eval_ms=eval_ms)
        traj, reports = run_parallel(op, x_T, devices, Mode.CONSERVATIVE, stream, clock=clock)
        assert traj.wall_ms == len(reports) * eval_ms == 24 * eval_ms

    def test_sequential_wall(self):
        T, eval_ms = 48, 50.0
        s = default_schedule(T)
        den = StateIndependent(seed=1, dim=1)
        stream = RngStream(seed=0)
        x_T = derive_noise(stream, T, Role.INIT, 1)
        clock = VirtualClock()
        op = Operator(den, s, rule=VarianceRule.deterministic(), eval_ms=eval_ms)
        traj = sample(op, x_T, stream, clock=clock)
        assert traj.wall_ms == T * eval_ms


class TestOverheadVirtualClock:
    """A stacked call (one parallel round) costs eval_ms, as a sequential
    step does, and a round that dispatches nothing costs nothing: Euler's
    last aggressive round at N = 17 on 4 devices holds only the sigma = 0
    draft."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("family, T, devices", [
        ("ddim", 20, 3), ("ddpm", 20, 3), ("euler", 16, 4), ("euler", 17, 4)])
    def test_run_wall(self, bimodal_1d, family, T, devices, mode):
        eval_ms = 5.0
        levels = build_sigma_grid(T, 0.02, 20, 7) if family == "euler" else default_schedule(T)
        rule = VarianceRule.ddpm_induced() if family == "ddpm" else VarianceRule.deterministic()
        op = Operator(AnalyticEps(bimodal_1d), levels, rule=rule, eval_ms=eval_ms)
        x, stream = np.array([1.5]), RngStream(seed=4)
        assert sample(op, x, stream, VirtualClock()).wall_ms == T * eval_ms
        traj, reports = run_parallel(op, x, devices, mode, stream, clock=VirtualClock())
        walls = [eval_ms if r.parallel_evals else 0.0 for r in reports]
        assert [r.round_wall_ms for r in reports] == walls
        assert traj.wall_ms == sum(walls)


class TestWallClockOverlap:
    """On a wall clock an evaluation is dispatched (its device time charged),
    host work overlaps that time, and the skip that consumes its prediction
    waits it out."""

    @pytest.mark.parametrize("mode", ["sequential", "aggressive", "conservative"])
    def test_skip_starts_eval_ms_after_dispatch(self, bimodal_1d, monkeypatch, mode):
        eval_ms = 20.0
        module = sequential if mode == "sequential" else parallel
        real_charge, real_evaluate, real_skip = WallClock.charge, module.evaluate, Operator.skip
        charged, dispatched, gaps = [], [], []

        def recording_charge(clock, ms):
            charged.append(time.monotonic())
            real_charge(clock, ms)

        def recording_evaluate(d, s, x, t):
            out = real_evaluate(d, s, x, t)
            dispatched.append((charged[-1], out))  # the charge made just before this call
            return out

        def recording_skip(op, i, k, x, v, z):
            start = time.monotonic()
            (sent,) = [t0 for t0, out in dispatched if np.shares_memory(v, out)]
            gaps.append(start - sent)
            return real_skip(op, i, k, x, v, z)
        monkeypatch.setattr(WallClock, "charge", recording_charge)
        monkeypatch.setattr(module, "evaluate", recording_evaluate)
        monkeypatch.setattr(Operator, "skip", recording_skip)
        # stochastic: noise is derived ahead
        op = Operator(AnalyticEps(bimodal_1d), default_schedule(6), rule=VarianceRule.ddpm_induced(),
                      eval_ms=eval_ms)
        if mode == "sequential":
            sample(op, np.array([0.3]), RngStream(seed=3))
        else:
            run_parallel(op, np.array([0.3]), 2, Mode(mode), RngStream(seed=3))
        assert len(gaps) >= 6 and min(gaps) >= eval_ms / 1000.0


class TestStackedRounds:
    """A round is one stacked evaluate() call on the scheduler thread."""

    @pytest.mark.parametrize("clock", [None, VirtualClock], ids=["default", "virtual-clock"])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_one_call_per_round_on_calling_thread(self, sched50, bimodal_1d, round_calls,
                                                  mode, clock):
        op = Operator(AnalyticEps(bimodal_1d), sched50)
        traj, reports = run_parallel(op, np.array([0.3]), 4, mode, None,
                                     clock=clock() if clock else None)
        assert len(round_calls) == len(reports)
        assert {ident for ident, _, _ in round_calls} == {threading.get_ident()}
        assert [(shape, rows) for _, shape, rows in round_calls] == \
            [((r.parallel_evals, 1), r.parallel_evals) for r in reports]
        assert sum(rows for _, _, rows in round_calls) == traj.eval_count

    def test_round_sleeps_once(self, sched50, bimodal_1d):
        # three drafts, one 40 ms latency: the round costs one evaluation, not
        # three (the upper bound leaves room for the host's sleep resolution)
        op = Operator(AnalyticEps(bimodal_1d), sched50, (9, 6, 3, 0), eval_ms=40.0)
        _, reports = run_parallel(op, np.zeros(1), 3, Mode.AGGRESSIVE, None)
        assert reports[-1].parallel_evals == 3
        assert 40.0 <= reports[-1].round_wall_ms < 80.0

    def test_empty_round_makes_no_call(self, bimodal_1d, round_calls):
        # N = 17 on 4 devices: the last aggressive block drafts only the
        # sigma = 0 node, whose task is dropped
        op = Operator(AnalyticEps(bimodal_1d), build_sigma_grid(17, 0.02, 20, 7))
        _, reports = run_parallel(op, np.array([1.5]), 4, Mode.AGGRESSIVE, None)
        assert reports[-1].parallel_evals == 0
        assert len(round_calls) == sum(1 for r in reports if r.parallel_evals) == len(reports) - 1


class TestDraftRule:
    """Draft j of the block at committed position p is evaluated at
    op.skip(p, j, x_p, eps_p, z): z is the TRANSITION noise of p+j for every
    j, the noise of the state the draft stands for, and eps_p is the eps the
    run holds for p."""

    @pytest.mark.parametrize("T,devices", [(11, 3), (7, 1)], ids=["T11-d3", "T7-d1-tail"])
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("rule", [VarianceRule.ddpm_induced()], ids=["ddim-ddpm"])
    def test_draft_rows(self, bimodal_1d, monkeypatch, rule, mode, T, devices):
        calls = []
        real = parallel.evaluate

        def recording(d, s, x, t):
            out = real(d, s, x, t)
            calls.append((np.array(x), [int(u) for u in t], out))
            return out
        monkeypatch.setattr(parallel, "evaluate", recording)
        op = Operator(AnalyticEps(bimodal_1d), default_schedule(T), rule=rule)
        stream = RngStream(seed=4)
        traj, _ = run_parallel(op, np.array([0.7]), devices, mode, stream, clock=VirtualClock())

        states, eps, rounds = dict(traj.states), {}, iter(calls)
        for t, k in plan_blocks(T, devices, mode).blocks:
            x_p = states[t]
            if t not in eps:  # no eps held for p: the block evaluates p alone first
                x, ts, out = next(rounds)
                assert ts == [t] and x[0].tobytes() == x_p.tobytes()
                eps[t] = out[0]
            if k == 0:
                continue
            x, ts, out = next(rounds)
            assert ts == [t - j for j in range(1, k + 1)]
            for j in range(1, k + 1):
                z = stream.derive(t - j, Role.TRANSITION, x_p.shape)
                draft = op.skip(T - t, j, x_p, eps[t], z)
                assert x[j - 1].tobytes() == draft.tobytes(), (t, j)
                eps[t - j] = out[j - 1]
        assert next(rounds, None) is None


class TestNoiseDraws:
    """Both modes draw exactly the noise `sample` draws: the TRANSITION vector
    into each state, each once."""

    @pytest.mark.parametrize("T,devices,labels", [(11, 3, None), (7, 1, None), (50, 4, None),
                                                  (50, 3, (50, 44, 37, 30, 22, 15, 9, 4, 0))],
                             ids=["T11-d3", "T7-d1", "T50-d4", "T50-d3-subsequence"])
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("rule", [VarianceRule.ddpm_induced(), VarianceRule(0.5)],
                             ids=["ddim-ddpm", "ddim-eta"])
    def test_sequential_draws_each_once(self, bimodal_1d, monkeypatch,
                                        rule, mode, T, devices, labels):
        draws = []
        real = RngStream.derive

        def recording(stream, t, role, shape):
            draws.append((t, role))
            return real(stream, t, role, shape)
        monkeypatch.setattr(RngStream, "derive", recording)
        op = Operator(AnalyticEps(bimodal_1d), default_schedule(T), labels, rule)
        x, stream = np.array([0.7]), RngStream(seed=6)
        sample(op, x, stream, clock=VirtualClock())
        expected = list(draws)
        draws.clear()
        run_parallel(op, x, devices, mode, stream, clock=VirtualClock())
        assert sorted(draws) == sorted(expected)
        assert len(set(draws)) == len(draws)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_stochastic_operator_needs_a_stream(self, sched50, bimodal_1d, mode):
        op = Operator(AnalyticEps(bimodal_1d), sched50, rule=VarianceRule.ddpm_induced())
        with pytest.raises(ValueError, match=r"stream required for a stochastic operator \(eta=1"):
            run_parallel(op, np.array([0.3]), 2, mode, None, clock=VirtualClock())



class PosteriorOperator(Operator):
    """The reference DDPM sampler: every transition and draft is the
    closed-form posterior draw `ddpm_skip_sample`, so `sample` runs it as a
    loop of unit posterior steps. The samplers' own rule = ddpm kernel is
    DDIM's skip at eta = 1."""

    def skip(self, i, k, x, v, z):
        t, u = self.labels[i], self.labels[i + k]
        return ddpm_skip_sample(self.levels, t, t - u, x, predicted_x0(self.levels, x, v, t), z)


class TestDdpmRuleAgreement:
    """Rule ddpm samples what the closed-form DDPM posterior samples: the same
    noise into each state, through a formula that agrees to rounding, not bit
    for bit. The steep schedule rounds sigma^2 past 1 - abar_{t-k} on some
    skips."""

    @pytest.mark.parametrize("labels", [None, (50, 25, 1, 0)], ids=["all", "subsequence"])
    @pytest.mark.parametrize("schedule", ["default", "steep"])
    def test_final_states_agree(self, bimodal_1d, schedule, labels):
        s = default_schedule(50) if schedule == "default" else build_linear_beta(50, 0.5, 0.999)
        ops = [PosteriorOperator(AnalyticEps(bimodal_1d), s, labels, VarianceRule.ddpm_induced()),
               Operator(AnalyticEps(bimodal_1d), s, labels, VarianceRule.ddpm_induced())]

        def finals(op, x, stream):
            """Final states of sample, then of each mode on 2, 4 and 40 devices."""
            return [sample(op, x, stream, VirtualClock()).final] + [
                run_parallel(op, x, devices, mode, stream, clock=VirtualClock())[0].final
                for mode in Mode for devices in (2, 4, 40)]

        for seed in range(4):
            stream = RngStream(seed=seed)
            x = derive_noise(stream, 50, Role.INIT, 1)
            for ddpm, ddim in zip(*(finals(op, x, stream) for op in ops)):
                assert abs(ddim - ddpm).max() <= 1e-9 * abs(ddpm).max()
