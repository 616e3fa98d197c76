"""Workload definitions: config text generated from the workload seed, the
round laws each request must satisfy, and the output checks.

Every workload is a closed loop with one caller issuing one `skipdiff sample
--config` request at a time. All configs use T = 50 steps (grid.N = 50 for
Euler) and k = 4 devices, where T mod (k+1) = 0, so the conservative plan has
no degenerate block and the closed-form round laws below are exact.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

T = 50
K = 4
MODES = ("sequential", "aggressive", "conservative")


@dataclass
class Config:
    """One request kind of a workload: config text minus seed and outputs."""

    name: str
    family: str
    mode: str
    dim: int
    body: str
    mixture: tuple | None = None  # (weights, means, variances) for quality
    base_seed: int = 0

    def law(self):
        """Expected (evals, rounds) per chain as a set of accepted pairs."""
        if self.mode == "sequential":
            return {(T, 0)}
        if self.mode == "aggressive":
            rounds = 1 + math.ceil(T / K)
            # run_parallel_euler documents that it drops the one task at the
            # final grid node (sigma = 0); both counts satisfy the T+1 law.
            evals = {T + 1, T} if self.family == "euler" else {T + 1}
            return {(e, rounds) for e in evals}
        return {(T, 2 * math.ceil(T / (K + 1)))}

    def text(self, seed: int, samples: int, out_samples: str, out_report: str) -> str:
        return (f"{self.body}seed = {seed}\nsamples = {samples}\n"
                f"output.samples = {out_samples}\noutput.report = {out_report}\n")


@dataclass
class Workload:
    name: str
    why: str
    configs: list  # timed request mix, issued round-robin
    equivalence: list  # state-independent seq/aggressive/conservative configs
    samples: int  # chains per request
    eval_ms: float = 0.0
    mixture: tuple | None = None


def _fmt_vec(v):
    return " ".join(repr(float(x)) for x in v)


def _mixture_text(weights, means, variances):
    return (f"mixture.weights = {', '.join(repr(float(w)) for w in weights)}\n"
            f"mixture.means = {'; '.join(_fmt_vec(m) for m in means)}\n"
            f"mixture.variances = {', '.join(repr(float(v)) for v in variances)}\n")


def _one_d_mixture(rng):
    w = float(rng.uniform(0.35, 0.65))
    return (np.array([w, 1.0 - w]), np.array([[-2.0], [2.0]]), np.array([1.0, 1.0]))


def _eight_d_mixture(rng):
    weights = rng.dirichlet(np.full(5, 4.0))
    weights[-1] = 1.0 - weights[:-1].sum()  # exact unit sum for the config check
    means = rng.normal(0.0, 2.0, size=(5, 8))
    variances = rng.uniform(0.5, 1.5, size=5)
    return weights, means, variances


def _head(family, mode, rule, extra=""):
    return (f"schedule.kind = linear\nschedule.T = {T}\ngrid.N = {T}\n"
            f"sampler.family = {family}\nsampler.mode = {mode}\n"
            f"sampler.devices = {1 if mode == 'sequential' else K}\n"
            f"sampler.rule = {rule}\n{extra}")


def _configs(rng, families, mixture, rule, latency=""):
    mix = _mixture_text(*mixture)
    out = []
    for family in families:
        for mode in MODES:
            body = _head(family, mode, rule, latency) + mix
            out.append(Config(f"{family}-{mode}", family, mode, mixture[1].shape[1], body,
                              mixture, int(rng.integers(0, 2**31))))
    return out


def _equivalence(rng, dim, rule, latency=""):
    base = int(rng.integers(0, 2**31))
    den_seed = int(rng.integers(0, 2**31))
    return [Config(f"si-ddim-{mode}", "ddim", mode, dim,
                   _head("ddim", mode, rule, latency)
                   + f"denoiser.kind = state-independent\ndenoiser.seed = {den_seed}\n"
                   + f"dim = {dim}\n", None, base)
            for mode in MODES]


def build(name: str, seed: int) -> Workload:
    """The named workload, with mixtures and chain seeds drawn from `seed`."""
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    if name == "sde-8d-sleep":
        mix = _eight_d_mixture(rng)
        lat = "latency.eval_ms = 5\n"
        return Workload(
            name, "8-D stochastic samplers with 5 ms sleeping evaluations: counter-keyed "
                  "noise on every transition and draft, larger (8,5) oracle",
            _configs(rng, ("ddim", "ddpm"), mix, "ddpm", lat),
            _equivalence(rng, 8, "ddpm", lat), samples=1, eval_ms=5.0, mixture=mix)
    if name == "latency-sleep":
        mix = _one_d_mixture(rng)
        lat = "latency.eval_ms = 5\n"
        return Workload(
            name, "5 ms sleeping evaluations: wall time is rounds x eval_ms, the "
                  "paper's speedup claim",
            _configs(rng, ("ddim",), mix, "deterministic", lat),
            _equivalence(rng, 1, "deterministic", lat), samples=1, eval_ms=5.0,
            mixture=mix)
    raise KeyError(name)


NAMES = ("sde-8d-sleep", "latency-sleep")


PROBE_EVAL_MS = 5.0


def euler_probe_config(mixture) -> Config:
    """A parallel Euler request with a latency model: the known-defect probe."""
    body = _head("euler", "aggressive", "deterministic",
                 f"latency.eval_ms = {PROBE_EVAL_MS}\n")
    return Config("euler-aggressive-latency", "euler", "aggressive", mixture[1].shape[1],
                  body + _mixture_text(*mixture), mixture, 0)


def check_outputs(cfg: Config, seed: int, samples: int, csv_path: str, report_path: str):
    """Return (finals array, problems list, report totals) for one request."""
    problems = []
    finals = None
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        if header != ["seed"] + [f"dim{j}" for j in range(cfg.dim)]:
            problems.append(f"CSV header {header}")
        if [int(r[0]) for r in body] != list(range(seed, seed + samples)):
            problems.append("CSV seeds")
        finals = np.array([[float(v) for v in r[1:]] for r in body])
        if finals.shape != (samples, cfg.dim) or not np.all(np.isfinite(finals)):
            problems.append(f"CSV shape {finals.shape} or non-finite values")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"CSV unreadable: {exc}")
    totals = None
    try:
        with open(report_path) as fh:
            totals = json.load(fh)["totals"]
        evals, rounds = totals["evals"], totals["rounds"]
        if not any(evals == e * samples and rounds == r * samples for e, r in cfg.law()):
            problems.append(f"totals evals={evals} rounds={rounds} break the round law "
                            f"{sorted(cfg.law())} x {samples}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"report unreadable: {exc}")
    return finals, problems, totals
