"""Self-contained property suites behind the `verify` CLI command.

Each suite returns a list of (property name, passed, detail) tuples; the CLI
turns them into a JSON summary and an exit code.
"""

import math

import numpy as np

from .denoiser import GaussianMixture, StateIndependent, eps_oracle
from .errors import SuiteNotFound
from .parallel import Mode, plan_blocks, run_parallel
from .rng import RngStream, Role, derive_noise
from .schedule import build_cosine, build_linear_beta, default_schedule
from .sequential import Operator, sample
from .transitions import (
    VarianceRule,
    ddim_skip,
    ddim_skip_coeffs,
    ddpm_skip_sample,
)


def _result(name, passed, detail=""):
    return (name, bool(passed), detail)


def _state_independent_runs():
    """Each (T, rule, devices, mode) of the state-independent grid, with the
    sequential DDIM trajectory and the parallel one and its round reports."""
    rules = {"deterministic": VarianceRule.deterministic(), "ddpm": VarianceRule.ddpm_induced()}
    for T in (8, 20, 50):
        s = default_schedule(T)
        den = StateIndependent(seed=11, dim=2)
        stream = RngStream(seed=T)
        x_T = derive_noise(stream, T, Role.INIT, 2)
        for name, rule in rules.items():
            op = Operator("ddim", den, s, rule=rule)
            seq = sample(op, x_T, stream)
            for devices in (1, 2, 3, 4):
                for mode in Mode:
                    traj, reports = run_parallel(op, x_T, devices, mode, stream)
                    yield T, name, devices, mode, seq, traj, reports


def suite_equivalence():
    """State-independent denoiser: both parallel modes reproduce sequential
    DDIM bit-exactly across a (T, devices, rule) grid."""
    return [
        _result(
            f"equivalence[{mode.value},T={T},devices={devices},rule={name}]",
            traj.timesteps() == seq.timesteps() and all(
                np.array_equal(a[1], b[1]) for a, b in zip(seq.states, traj.states)),
        )
        for T, name, devices, mode, seq, traj, _ in _state_independent_runs()
    ]


def suite_marginals():
    """Monte-Carlo moments after a skip transition match the forward marginal
    closed forms within 4 standard errors (1-D, fixed x0)."""
    rng = np.random.default_rng(0)
    s = default_schedule(50)
    results = []
    x0 = np.ones(1) * 0.7
    draws = 100_000
    for case in range(20):
        t = int(rng.integers(2, s.T + 1))
        k = int(rng.integers(1, t))  # keep t-k >= 1 so the target variance is nonzero
        a_t, a_s = s.alpha_bar[t], s.alpha_bar[t - k]
        x_t = math.sqrt(a_t) * x0 + math.sqrt(1 - a_t) * rng.standard_normal((draws, 1))
        z = rng.standard_normal((draws, 1))
        eps = (x_t - math.sqrt(a_t) * x0) / math.sqrt(1 - a_t)
        for label, samples in (
            ("ddpm", ddpm_skip_sample(s, t, k, x_t, np.broadcast_to(x0, x_t.shape), z)),
            ("ddim", ddim_skip(s, t, k, x_t, eps, VarianceRule.ddpm_induced(), z)),
        ):
            target_mean = math.sqrt(a_s) * float(x0[0])
            target_var = 1 - a_s
            se_mean = math.sqrt(target_var / draws)
            se_var = target_var * math.sqrt(2.0 / (draws - 1))
            mean_ok = abs(samples.mean() - target_mean) <= 4 * se_mean
            var_ok = abs(samples.var() - target_var) <= 4 * se_var
            results.append(_result(
                f"marginals[{label},case={case},t={t},k={k}]",
                mean_ok and var_ok,
                f"mean_err={samples.mean() - target_mean:.2e} var_err={samples.var() - target_var:.2e}",
            ))
    return results


def suite_coeffs():
    """Appendix-style constraints on the DDIM skip coefficients:
    lambda + kappa sqrt(abar_t) = sqrt(abar_{t-k}) and
    kappa^2 (1-abar_t) + sigma^2 = 1 - abar_{t-k}, to 1e-10; and the skip the
    samplers run, ddim_skip, gives kappa x_t + lambda x0_hat + sigma z, to 1e-10."""
    rng = np.random.default_rng(1)
    schedules = [default_schedule(50), build_cosine(40), build_linear_beta(30, 0.01, 0.3),
                 build_linear_beta(100, 0.001, 0.2), build_linear_beta(50, 0.002, 0.4)]
    worst = 0.0
    for _ in range(1000):
        s = schedules[rng.integers(len(schedules))]
        t = int(rng.integers(1, s.T + 1))
        k = int(rng.integers(1, t + 1))
        rule = [
            VarianceRule.deterministic(),
            VarianceRule.ddpm_induced(),
            VarianceRule(float(rng.uniform(0, 1))),
        ][rng.integers(3)]
        x, eps, z = rng.standard_normal((3, 2))
        c = ddim_skip_coeffs(s, t, k, rule)
        a_t, a_s = s.alpha_bar[t], s.alpha_bar[t - k]
        x0_hat = (x - math.sqrt(1 - a_t) * eps) / math.sqrt(a_t)
        err1 = abs(c.lam + c.kappa * math.sqrt(a_t) - math.sqrt(a_s))
        err2 = abs(c.kappa**2 * (1 - a_t) + c.sigma**2 - (1 - a_s))
        err3 = np.max(np.abs(
            ddim_skip(s, t, k, x, eps, rule, z) - (c.kappa * x + c.lam * x0_hat + c.sigma * z)))
        worst = max(worst, err1, err2, float(err3))
    return [_result("coeffs[1000 random tuples]", worst <= 1e-10, f"worst={worst:.2e}")]


def suite_accounting():
    """Eval counts T+1 / T and round counts 1+ceil(T/d) / 2 ceil(T/(d+1)), less
    one round when the conservative plan ends on a lone step, match the plan
    exactly in both modes and both rules of the state-independent grid."""
    ok = {}
    for T, _, devices, mode, _, traj, reports in _state_independent_runs():
        lone = T % (devices + 1) == 1 and (T == 1 or devices == 1)  # the plan ends on a lone step
        laws = {Mode.AGGRESSIVE: (T + 1, 1 + math.ceil(T / devices)),
                Mode.CONSERVATIVE: (T, 2 * math.ceil(T / (devices + 1)) - lone)}
        plan = plan_blocks(T, devices, mode)
        ok[T, devices] = ok.get((T, devices), True) and (
            (traj.eval_count, len(reports)) == laws[mode] == (plan.total_evals, plan.total_rounds))
    return [_result(f"accounting[T={T},devices={devices}]", passed)
            for (T, devices), passed in ok.items()]


def suite_rng():
    """Counter-based stream: determinism, key separation, and normality."""
    stream = RngStream(seed=42)
    a = derive_noise(stream, 5, Role.TRANSITION, 16)
    results = [
        _result("rng[determinism]", np.array_equal(a, derive_noise(stream, 5, Role.TRANSITION, 16))),
        _result("rng[role separation]", not np.array_equal(a, derive_noise(stream, 5, Role.INIT, 16))),
    ]
    keys, per = 20, 5_000  # 100 000 draws
    chunks = [derive_noise(stream, t, Role.TRANSITION, per) for t in range(keys)]
    flat = np.concatenate(chunks)
    se_mean = 1 / math.sqrt(flat.size)
    se_var = math.sqrt(2 / (flat.size - 1))
    results.append(_result(
        "rng[moments]",
        abs(flat.mean()) <= 4 * se_mean and abs(flat.var() - 1) <= 4 * se_var,
        f"mean={flat.mean():.2e} var={flat.var():.4f}",
    ))
    corr = max(
        abs(float(np.corrcoef(chunks[i], chunks[i + 1])[0, 1])) for i in range(keys - 1)
    )
    results.append(_result("rng[pairwise correlation < 0.05]", corr < 0.05, f"max|corr|={corr:.3f}"))
    return results


def suite_oracles():
    """eps_oracle agrees with a finite-difference score on 100 random probes,
    to 1e-5 relative and 1e-8 absolute."""
    rng = np.random.default_rng(4)
    s = default_schedule(50)
    gm = GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]], variances=[1.0, 0.5])
    worst = 0.0
    h = 1e-6
    for _ in range(100):
        t = int(rng.integers(1, s.T + 1))
        x = rng.normal(0, 2, 1)
        abar = s.alpha_bar[t]

        def logp(xx):
            centers = math.sqrt(abar) * gm.means[:, 0]
            scales = abar * gm.variances + 1 - abar
            comps = gm.weights * np.exp(-0.5 * (xx - centers) ** 2 / scales) / np.sqrt(scales)
            return math.log(comps.sum())

        fd = (logp(x[0] + h) - logp(x[0] - h)) / (2 * h)
        expected = -math.sqrt(1 - abar) * fd
        got = eps_oracle(gm, s, x, t)[0]
        # |err| <= max(1e-5 |expected|, 1e-8): relative 1e-5, absolute 1e-8 near 0
        worst = max(worst, abs(got - expected) / max(abs(expected), 1e-3))
    return [_result("oracles[eps vs finite differences]", worst <= 1e-5, f"worst={worst:.2e}")]


SUITES = {
    "equivalence": suite_equivalence,
    "marginals": suite_marginals,
    "coeffs": suite_coeffs,
    "accounting": suite_accounting,
    "rng": suite_rng,
    "oracles": suite_oracles,
}


def run_suite(name: str):
    if name == "all":
        return [result for fn in SUITES.values() for result in fn()]
    if name not in SUITES:
        raise SuiteNotFound(f"unknown suite {name!r}; available: {', '.join(SUITES)} or 'all'")
    return SUITES[name]()
