"""Self-contained property suites behind the `verify` CLI command.

Each suite returns a list of (property name, passed, detail) tuples; the CLI
turns them into a JSON summary and an exit code.
"""

import math

import numpy as np

from .denoiser import StateIndependent, eps_oracle
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


def suite_equivalence():
    """State-independent denoiser: both parallel modes reproduce sequential
    DDIM bit-exactly across a (T, devices, rule) grid."""
    results = []
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
                    traj, _ = run_parallel(op, x_T, devices, mode, stream)
                    same = traj.timesteps() == seq.timesteps() and all(
                        np.array_equal(a[1], b[1]) for a, b in zip(seq.states, traj.states)
                    )
                    results.append(_result(
                        f"equivalence[{mode.value},T={T},devices={devices},rule={name}]",
                        same,
                    ))
    return results


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
        for label, samples in (
            ("ddpm", ddpm_skip_sample(s, t, k, x_t, np.broadcast_to(x0, x_t.shape), z)),
            ("ddim", ddim_skip(
                s, t, k, x_t,
                (x_t - math.sqrt(a_t) * x0) / math.sqrt(1 - a_t),
                VarianceRule.ddpm_induced(), z,
            )),
        ):
            target_mean = math.sqrt(a_s) * float(x0[0])
            target_var = 1 - a_s
            sd = math.sqrt(target_var)
            se_mean = sd / math.sqrt(draws)
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
    kappa^2 (1-abar_t) + sigma^2 = 1 - abar_{t-k}, to 1e-10."""
    rng = np.random.default_rng(1)
    schedules = [default_schedule(50), build_cosine(40), build_linear_beta(30, 0.01, 0.3)]
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
        c = ddim_skip_coeffs(s, t, k, rule)
        a_t, a_s = s.alpha_bar[t], s.alpha_bar[t - k]
        err1 = abs(c.lam + c.kappa * math.sqrt(a_t) - math.sqrt(a_s))
        err2 = abs(c.kappa**2 * (1 - a_t) + c.sigma**2 - (1 - a_s))
        worst = max(worst, err1, err2)
    return [_result("coeffs[1000 random tuples]", worst <= 1e-10, f"worst={worst:.2e}")]


def suite_accounting():
    """Eval and round counts match the exact plan laws on the full test grid."""
    results = []
    for T in (8, 20, 50):
        s = default_schedule(T)
        den = StateIndependent(seed=3, dim=1)
        stream = RngStream(seed=9)
        x_T = derive_noise(stream, T, Role.INIT, 1)
        op = Operator("ddim", den, s)
        for devices in (1, 2, 3, 4):
            lone = T % (devices + 1) == 1 and (T == 1 or devices == 1)  # the plan ends on a lone step
            laws = {Mode.AGGRESSIVE: (T + 1, 1 + math.ceil(T / devices)),
                    Mode.CONSERVATIVE: (T, 2 * math.ceil(T / (devices + 1)) - lone)}
            ok = True
            for mode in Mode:
                traj, reports = run_parallel(op, x_T, devices, mode, stream)
                ok = ok and (traj.eval_count, len(reports)) == laws[mode] and (
                    len(reports) == plan_blocks(T, devices, mode).total_rounds)
            results.append(_result(f"accounting[T={T},devices={devices}]", ok))
    return results


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
    """eps_oracle agrees with a finite-difference score on 100 random probes."""
    rng = np.random.default_rng(4)
    s = default_schedule(50)
    from .denoiser import GaussianMixture

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
        denom = max(abs(expected), 1.0)
        worst = max(worst, abs(got - expected) / denom)
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
        results = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    if name not in SUITES:
        raise SuiteNotFound(f"unknown suite {name!r}; available: {', '.join(SUITES)} or 'all'")
    return SUITES[name]()
