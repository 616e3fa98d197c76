"""Acceptance suite: the nine properties that define a correct build.

Each test prints one PASS/FAIL line (visible even under pytest capture via
capsys.disabled) and asserts the stated tolerance. Criteria 5 uses real
sleeps and is the slowest item; everything else runs in seconds.
"""

import math
import time

import numpy as np

from skipdiff import (
    AnalyticEps,
    GaussianMixture,
    Mode,
    Operator,
    RngStream,
    Role,
    SampleSet,
    VarianceRule,
    build_sigma_grid,
    ddim_skip,
    ddpm_skip_sample,
    default_schedule,
    euler_skip,
    plan_blocks,
    run_parallel,
    sample,
    sliced_w2,
    standard_normal_mixture,
)
from skipdiff import verify
from skipdiff.rng import derive_noise


def _report(capsys, name: str, passed: bool, detail: str = ""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[acceptance] {status} {name}" + (f"  ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def _report_suite(capsys, name: str, suite: str):
    """Run one `verify` suite and report it as one acceptance property."""
    results = verify.SUITES[suite]()
    failed = [prop for prop, passed, _ in results if not passed]
    detail = results[0][2] if len(results) == 1 else f"{len(results)} checks"
    if failed:
        detail += f"; failed: {', '.join(failed)}"
    _report(capsys, name, bool(results) and not failed, detail)


def _ident(a, b):
    return a.timesteps() == b.timesteps() and all(
        np.array_equal(xa, xb) for (_, xa), (_, xb) in zip(a.states, b.states)
    )


def test_01_equivalence_oracle(capsys):
    """State-independent denoiser: parallel modes bit-identical to sequential
    DDIM over T x devices x rule."""
    _report_suite(capsys, "equivalence oracle (bit-identical to sequential DDIM)", "equivalence")


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
    _report_suite(capsys, "marginal consistency (MC moments, 20 cases x 2 operators)", "marginals")


def test_04_coefficient_constraints(capsys):
    """kappa/lambda/sigma satisfy both defining identities, and ddim_skip
    applies them, to 1e-10 on 1000 random (schedule, t, k, rule) tuples."""
    _report_suite(capsys, "coefficient constraints (1000 random tuples)", "coeffs")


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
        for mode in Mode:
            par_ms = timed(lambda: run_parallel(op, x_T, devices, mode, stream))
            speedup = seq_ms / par_ms
            theory = T / plan_blocks(T, devices, mode).total_rounds
            details.append(f"{mode.value}/d{devices}: {speedup:.2f}x (theory {theory:.2f}x)")
            if speedup < 0.9 * theory:
                fails.append((mode.value, devices, round(speedup, 3), round(theory, 3)))
            if mode is Mode.AGGRESSIVE and devices == 3 and speedup < 2.5:
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
    _report_suite(capsys, "accounting laws (evals and rounds on the full grid)", "accounting")


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
