"""Acceptance suite: the nine properties that define a correct build.

Each test prints one PASS/FAIL line (visible even under pytest capture via
capsys.disabled) and asserts the stated tolerance. Criteria 5 uses real
sleeps and is the slowest item; everything else runs in seconds.
"""

import math
import time

import numpy as np
import pytest

from skipdiff import (
    AnalyticEps,
    GaussianMixture,
    Mode,
    Operator,
    RngStream,
    Role,
    SampleSet,
    StateIndependent,
    VarianceRule,
    build_linear_beta,
    build_sigma_grid,
    ddim_skip,
    ddim_skip_coeffs,
    ddpm_skip_sample,
    default_schedule,
    euler_skip,
    run_parallel,
    sample,
    sliced_w2,
    standard_normal_mixture,
)
from skipdiff.rng import derive_noise


def _report(capsys, name: str, passed: bool, detail: str = ""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[acceptance] {status} {name}" + (f"  ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def _ident(a, b):
    return a.timesteps() == b.timesteps() and all(
        np.array_equal(xa, xb) for (_, xa), (_, xb) in zip(a.states, b.states)
    )


def test_01_equivalence_oracle(capsys):
    """State-independent denoiser: parallel modes bit-identical to sequential
    DDIM over T x devices x rule."""
    failures = []
    for T in (8, 20, 50):
        s = default_schedule(T)
        den = StateIndependent(seed=11, dim=2)
        stream = RngStream(seed=T)
        x_T = derive_noise(stream, T, Role.INIT, 2)
        for rule in (VarianceRule.deterministic(), VarianceRule.ddpm_induced()):
            op = Operator("ddim", den, s, rule=rule)
            seq = sample(op, x_T, stream)
            for devices in (1, 2, 3, 4):
                for mode in Mode:
                    traj, _ = run_parallel(op, x_T, devices, mode, stream)
                    if not _ident(traj, seq):
                        failures.append((mode.value, T, devices, rule.eta))
    _report(capsys, "equivalence oracle (bit-identical to sequential DDIM)",
            not failures, f"failures={failures}" if failures else "48 configurations")


def test_02_k1_reductions(capsys):
    """All three skip operators reduce to their unit-step counterparts at k=1
    (up to floating-point round-off in the cumulative-product identity)."""
    rng = np.random.default_rng(0)
    s = default_schedule(50)
    g = build_sigma_grid(32, 0.02, 10, 3)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 51))
        x, eps, z = rng.normal(size=(3, 2))
        a_t, a_s = s.alpha_bar[t], s.alpha_bar[t - 1]
        beta = s.betas[t]

        # textbook one-step DDPM posterior (alpha_t written as 1 - beta_t)
        x0 = rng.normal(size=2)
        classic = (
            math.sqrt(1 - beta) * (1 - a_s) / (1 - a_t) * x
            + math.sqrt(a_s) * beta / (1 - a_t) * x0
            + math.sqrt((1 - a_s) / (1 - a_t) * beta) * z
        ) if t > 1 else x0  # t=1: variance and x-coefficient vanish
        got = ddpm_skip_sample(s, t, 1, x, x0, z)
        worst = max(worst, float(np.max(np.abs(got - classic) / np.maximum(np.abs(classic), 1e-12))))

        # textbook one-step DDIM update (deterministic)
        x0_hat = (x - math.sqrt(1 - a_t) * eps) / math.sqrt(a_t)
        classic = math.sqrt(a_s) * x0_hat + math.sqrt(1 - a_s) * eps
        got = ddim_skip(s, t, 1, x, eps, VarianceRule.deterministic())
        worst = max(worst, float(np.max(np.abs(got - classic) / np.maximum(np.abs(classic), 1e-12))))

        # one-interval Euler step
        i = int(rng.integers(0, g.N))
        v = rng.normal(size=2)
        classic = x + (g.sigmas[i + 1] - g.sigmas[i]) * v
        got = euler_skip(g, i, 1, x, v)
        worst = max(worst, float(np.max(np.abs(got - classic))))
    _report(capsys, "k=1 reductions (1000 random inputs)", worst <= 1e-12,
            f"worst rel err={worst:.2e}")


def test_03_marginal_consistency(capsys):
    """Skip-transition Monte-Carlo moments match forward-marginal closed forms
    within 4 standard errors at 1e5 draws, 20 random (t, k)."""
    draws = 100_000
    rng = np.random.default_rng(0)
    s = default_schedule(50)
    x0 = np.ones(1) * 0.7
    fails = []
    for case in range(20):
        t = int(rng.integers(2, 51))
        k = int(rng.integers(1, t))
        a_t, a_s = s.alpha_bar[t], s.alpha_bar[t - k]
        x_t = math.sqrt(a_t) * x0 + math.sqrt(1 - a_t) * rng.standard_normal((draws, 1))
        z = rng.standard_normal((draws, 1))
        eps = (x_t - math.sqrt(a_t) * x0) / math.sqrt(1 - a_t)
        for label, out in (
            ("ddpm", ddpm_skip_sample(s, t, k, x_t, np.broadcast_to(x0, x_t.shape), z)),
            ("ddim", ddim_skip(s, t, k, x_t, eps, VarianceRule.ddpm_induced(), z)),
        ):
            mean_t, var_t = math.sqrt(a_s) * float(x0[0]), 1 - a_s
            se_mean = math.sqrt(var_t / draws)
            se_var = var_t * math.sqrt(2 / (draws - 1))
            if abs(out.mean() - mean_t) > 4 * se_mean or abs(out.var() - var_t) > 4 * se_var:
                fails.append((label, case, t, k))
    _report(capsys, "marginal consistency (MC moments, 20 cases x 2 operators)",
            not fails, f"failures={fails}" if fails else "all within 4 SE")


def test_04_coefficient_constraints(capsys):
    """kappa/lambda/sigma satisfy both defining identities to 1e-10 on 1000
    random (schedule, t, k, rule) tuples."""
    rng = np.random.default_rng(1)
    schedules = [default_schedule(50), build_linear_beta(100, 0.001, 0.2),
                 build_linear_beta(30, 0.01, 0.3)]
    worst = 0.0
    for _ in range(1000):
        s = schedules[rng.integers(len(schedules))]
        t = int(rng.integers(1, s.T + 1))
        k = int(rng.integers(1, t + 1))
        rule = [VarianceRule.deterministic(), VarianceRule.ddpm_induced(),
                VarianceRule(float(rng.uniform(0, 1)))][rng.integers(3)]
        c = ddim_skip_coeffs(s, t, k, rule)
        a_t, a_s = s.alpha_bar[t], s.alpha_bar[t - k]
        worst = max(worst,
                    abs(c.lam + c.kappa * math.sqrt(a_t) - math.sqrt(a_s)),
                    abs(c.kappa**2 * (1 - a_t) + c.sigma**2 - (1 - a_s)))
    _report(capsys, "coefficient constraints (1000 random tuples)", worst <= 1e-10,
            f"worst={worst:.2e}")


def test_05_speedup_laws(capsys):
    """Real 50 ms evaluations, T=48: measured speedup >= 0.9x the corrected
    theory T/rounds for devices in {2,3,4}, both modes; aggressive devices=3
    reaches >= 2.5x."""
    T, eval_ms = 48, 50.0
    s = default_schedule(T)
    gm = standard_normal_mixture(1)
    den = AnalyticEps(gm)
    rule = VarianceRule.deterministic()
    stream = RngStream(seed=0)
    x_T = derive_noise(stream, T, Role.INIT, 1)

    def timed(fn, repeats=2):
        # min over repeats: scheduling noise only ever adds time
        best = math.inf
        for _ in range(repeats):
            t0 = time.monotonic()
            fn()
            best = min(best, (time.monotonic() - t0) * 1000.0)
        return best

    op = Operator("ddim", den, s, rule=rule, eval_ms=eval_ms)
    seq_ms = timed(lambda: sample(op, x_T, stream))

    fails, details = [], []
    for devices in (2, 3, 4):
        lone = T % (devices + 1) == 1 and (T == 1 or devices == 1)  # the plan ends on a lone step
        for label, mode, rounds in (
            ("aggressive", Mode.AGGRESSIVE, 1 + math.ceil(T / devices)),
            ("conservative", Mode.CONSERVATIVE, 2 * math.ceil(T / (devices + 1)) - lone),
        ):
            par_ms = timed(lambda: run_parallel(op, x_T, devices, mode, stream))
            speedup = seq_ms / par_ms
            theory = T / rounds
            details.append(f"{label}/d{devices}: {speedup:.2f}x (theory {theory:.2f}x)")
            if speedup < 0.9 * theory:
                fails.append((label, devices, round(speedup, 3), round(theory, 3)))
            if label == "aggressive" and devices == 3 and speedup < 2.5:
                fails.append(("aggressive-3-headline", round(speedup, 3)))
    _report(capsys, "speedup laws (50 ms evals, T=48)", not fails,
            "; ".join(details) + (f"; failures={fails}" if fails else ""))


def test_06_distributional_quality(capsys):
    """2-D mixture, T=50 deterministic DDIM: sliced-W2 between each parallel
    mode (devices=4) and sequential stays within 2x the seed-to-seed null."""
    n = 10_000
    s = default_schedule(50)
    gm = GaussianMixture(weights=[0.5, 0.5], means=[[-2.0, 0.0], [2.0, 0.0]],
                         variances=[1.0, 1.0])
    op = Operator("ddim", AnalyticEps(gm), s, rule=VarianceRule.deterministic())

    def batch(seed, mode=None):
        stream = RngStream(seed=seed)
        x_T = derive_noise(stream, 50, Role.INIT, (n, 2))
        if mode is None:
            return sample(op, x_T, stream).final
        return run_parallel(op, x_T, 4, mode, stream)[0].final

    seq_a, seq_b = batch(0), batch(1)
    null = sliced_w2(SampleSet(seq_a), SampleSet(seq_b))
    w2_agg = sliced_w2(SampleSet(batch(0, Mode.AGGRESSIVE)), SampleSet(seq_a))
    w2_con = sliced_w2(SampleSet(batch(0, Mode.CONSERVATIVE)), SampleSet(seq_a))
    ok = w2_agg <= 2 * null and w2_con <= 2 * null
    _report(capsys, "distributional quality (sliced-W2 vs seed-null)", ok,
            f"null={null:.4g} aggressive={w2_agg:.4g} conservative={w2_con:.4g}")


def test_07_euler_convergence(capsys):
    """Global Euler error against the closed-form standard-normal ODE solution
    halves when N doubles (ratio in [1.7, 2.3] for 16 -> 32 -> 64)."""
    gm = standard_normal_mixture(1)
    smax, smin = 10.0, 0.05
    x_start = np.array([2.0])
    exact = 2.0 * math.sqrt(1.0 / (1 + smax**2))

    def err(N):
        g = build_sigma_grid(N, smin, smax, 1.0)
        return abs(sample(Operator("euler", AnalyticEps(gm), g), x_start, None).final[0] - exact)

    e16, e32, e64 = err(16), err(32), err(64)
    r1, r2 = e16 / e32, e32 / e64
    ok = 1.7 <= r1 <= 2.3 and 1.7 <= r2 <= 2.3
    _report(capsys, "Euler first-order convergence", ok,
            f"ratios {r1:.3f}, {r2:.3f}")


def test_08_accounting_laws(capsys):
    """Eval counts T+1 / T and round counts 1+ceil(T/d) / 2 ceil(T/(d+1)),
    less one round when the conservative plan ends on a lone step, hold
    exactly over the full grid."""
    fails = []
    for T in (8, 20, 50):
        s = default_schedule(T)
        den = StateIndependent(seed=3, dim=1)
        stream = RngStream(seed=9)
        x_T = derive_noise(stream, T, Role.INIT, 1)
        op = Operator("ddim", den, s, rule=VarianceRule.deterministic())
        for devices in (1, 2, 3, 4):
            lone = T % (devices + 1) == 1 and (T == 1 or devices == 1)  # the plan ends on a lone step
            ta, ra = run_parallel(op, x_T, devices, Mode.AGGRESSIVE, stream)
            tc, rc = run_parallel(op, x_T, devices, Mode.CONSERVATIVE, stream)
            if not (ta.eval_count == T + 1 and tc.eval_count == T
                    and len(ra) == 1 + math.ceil(T / devices)
                    and len(rc) == 2 * math.ceil(T / (devices + 1)) - lone):
                fails.append((T, devices))
    _report(capsys, "accounting laws (evals and rounds on the full grid)",
            not fails, f"failures={fails}" if fails else "12 configurations x 2 modes")


def test_09_scheduling_order_invariance(capsys, shuffle_rounds):
    """Outputs bit-identical across 20 shuffled row orders of every stacked
    round executing the same plan."""
    s = default_schedule(50)
    gm = GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]], variances=[1.0, 1.0])
    op = Operator("ddim", AnalyticEps(gm), s, rule=VarianceRule.ddpm_induced())
    stream = RngStream(seed=13)
    x_T = derive_noise(stream, 50, Role.INIT, 1)
    refs = {mode: run_parallel(op, x_T, 4, mode, stream)[0] for mode in Mode}
    fails = []
    for mode in Mode:
        for trial in range(20):
            shuffle_rounds(trial + 1)
            traj, _ = run_parallel(op, x_T, 4, mode, stream)
            if not _ident(traj, refs[mode]):
                fails.append((mode.value, "order", trial))
    _report(capsys, "scheduling-order invariance (20 row shuffles per mode)",
            not fails, f"failures={fails}" if fails else "bit-identical throughout")
