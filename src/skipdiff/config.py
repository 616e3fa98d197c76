"""Run configuration: a flat `key = value` text format with strict
unknown-key rejection (silent typos would corrupt benchmark sweeps).

Example::

    # 2-D bimodal mixture, aggressive mode on 3 devices
    schedule.kind = linear
    schedule.T = 50
    denoiser.kind = mixture
    mixture.weights = 0.5, 0.5
    mixture.means = -2 0; 2 0
    mixture.variances = 1, 1
    sampler.family = ddim
    sampler.mode = aggressive
    sampler.devices = 3
    sampler.rule = deterministic
    seed = 0
    samples = 100
    output.samples = samples.csv

Lists are comma-separated; vector lists are space-separated vectors joined
by semicolons. Lines starting with # are comments.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .denoiser import AnalyticEps, GaussianMixture, StateIndependent
from .errors import ConfigError, SkipDiffError
from .schedule import build_cosine, build_linear_beta, build_sigma_grid
from .sequential import Operator
from .transitions import VarianceRule

# a latency no run could wait out: half of threading.TIMEOUT_MAX, 146 years on 64-bit Linux
_MAX_LATENCY_MS = threading.TIMEOUT_MAX / 2 * 1000.0
_SEED_KEYS = 2**48  # RngStream keys use the low 48 bits of a chain seed
_MAX_DIM = np.iinfo(np.intp).max // 8  # the longest float64 vector numpy can size in bytes

# key -> (default, meaning); a key whose default is None is absent unless given.
# The report echoes the defaults in this order, then the other given keys.
KNOWN_KEYS = {
    "schedule.kind": ("linear", "DDIM/DDPM schedule: linear | cosine"),
    "schedule.T": ("50", "DDIM/DDPM total discrete steps"),
    "schedule.beta_start": ("0.002", "DDIM/DDPM linear schedule start rate"),
    "schedule.beta_end": ("0.4", "DDIM/DDPM linear schedule end rate"),
    "schedule.offset": ("0.008", "DDIM/DDPM cosine schedule offset"),
    "grid.N": ("32", "Euler steps"),
    "grid.sigma_min": ("0.02", "Euler sigma the spacing reaches at step N, where the grid puts 0"),
    "grid.sigma_max": ("10", "Euler largest sigma"),
    "grid.rho": ("3", "Euler grid spacing exponent"),
    "denoiser.kind": ("mixture", "mixture | state-independent"),
    "denoiser.seed": ("0", "state-independent stream seed"),
    "mixture.weights": ("1", "component weights (comma list)"),
    "mixture.means": ("0 0", "component means (semicolon-separated vectors)"),
    "mixture.variances": ("1", "per-component isotropic variances (comma list)"),
    "latency.eval_ms": (None, "simulated per-evaluation latency"),
    "sampler.family": ("ddim", "ddpm | ddim | euler"),
    "sampler.mode": ("sequential", "sequential | aggressive | conservative"),
    "sampler.devices": ("1", "parallel devices (block size k)"),
    "sampler.rule": ("deterministic", "deterministic | ddpm | eta"),
    "sampler.eta": ("0.5", "eta for rule=eta"),
    "sampler.subsequence": (None, "DDIM/DDPM timestep subsequence (comma list, ends at 0)"),
    "seed": ("0", "base RNG seed; run i uses seed+i"),
    "samples": ("1", "number of samples to generate"),
    "dim": (None, "state dimension (required for state-independent denoiser)"),
    "output.samples": (None, "samples CSV path"),
    "output.report": (None, "JSON report path"),
}


def parse_kv_text(text: str) -> dict:
    """Parse `key = value` lines; reject unknown keys and duplicates."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass
class RunConfig:
    """Validated, runnable description of a run: its Operator and how to drive it."""

    raw: dict = field(repr=False)
    op: Operator
    mode: str
    devices: int
    seed: int
    samples: int
    dim: int
    out_samples: str | None
    out_report: str | None


def _finite(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value {text!r}")
    return val


def _number(kv, key, parse=_finite, lo=None, hi=None):
    """kv[key] as an integer (parse=int) or a finite float, within [lo, hi]."""
    try:
        val = parse(kv[key])
    except ValueError:
        expected = "integer" if parse is int else "finite number"
        raise ValueError(f"{key}: expected {expected}, got {kv[key]!r}") from None
    if lo is not None and val < lo:
        raise ValueError(f"{key}: must be >= {lo}, got {val}")
    if hi is not None and val > hi:
        raise ValueError(f"{key}: must be <= {hi}, got {val}")
    return val


def _floats(kv, key, rows=False):
    """kv[key] as finite floats separated by commas or spaces or, with `rows`,
    as one list per semicolon-separated vector of space-separated floats."""
    try:
        if rows:
            return [[_finite(v) for v in row.split()] for row in kv[key].split(";")]
        return [_finite(v) for v in kv[key].replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"{key}: expected finite number list, got {kv[key]!r}") from None


def _applies(given, key, condition, where):
    """Reject a given key that the run would ignore."""
    if key in given and not condition:
        raise ValueError(f"{key} applies to {where} only")


def load_config(text: str) -> RunConfig:
    """Config text to a runnable RunConfig; every bad value raises ConfigError."""
    given = parse_kv_text(text)
    kv = {key: default for key, (default, _) in KNOWN_KEYS.items() if default is not None}
    kv.update(given)
    try:
        return _build(kv, given)
    except (SkipDiffError, ValueError, MemoryError) as exc:
        raise ConfigError(str(exc)) from exc


def _build(kv: dict, given: dict) -> RunConfig:
    """Raises ValueError on a bad value; load_config reports it as a ConfigError."""
    family, mode, schedule = kv["sampler.family"], kv["sampler.mode"], kv["schedule.kind"]
    if family not in ("ddpm", "ddim", "euler"):
        raise ValueError(f"sampler.family: unknown family {family!r}")
    if mode not in ("sequential", "aggressive", "conservative"):
        raise ValueError(f"sampler.mode: unknown mode {mode!r}")
    if schedule not in ("linear", "cosine"):
        raise ValueError(f"schedule.kind: unknown kind {schedule!r}")
    euler = family == "euler"  # Euler samples on a sigma grid, DDIM and DDPM on a schedule
    for key in ("grid.sigma_min", "grid.sigma_max", "grid.rho"):
        _applies(given, key, euler, "sampler.family = euler")
    for key, kind in (("schedule.beta_start", "linear"), ("schedule.beta_end", "linear"),
                      ("schedule.offset", "cosine")):
        _applies(given, key, not euler and schedule == kind, f"ddim/ddpm on the {kind} schedule")
    # every benchmark request writes grid.N, schedule.kind and schedule.T, so these stay
    # accepted and range-checked with every family, though only the family's levels are built
    T, N = _number(kv, "schedule.T", int, 1), _number(kv, "grid.N", int, 1)
    if euler:
        levels = build_sigma_grid(N, _number(kv, "grid.sigma_min"),
                                  _number(kv, "grid.sigma_max"), _number(kv, "grid.rho"))
    elif schedule == "linear":
        levels = build_linear_beta(T, _number(kv, "schedule.beta_start"),
                                   _number(kv, "schedule.beta_end"))
    else:
        levels = build_cosine(T, _number(kv, "schedule.offset"))

    rules = {"deterministic": VarianceRule.deterministic(), "ddpm": VarianceRule.ddpm_induced(),
             "eta": VarianceRule(_number(kv, "sampler.eta"))}
    if kv["sampler.rule"] not in rules:
        raise ValueError(f"sampler.rule: unknown rule {kv['sampler.rule']!r}")
    _applies(given, "sampler.eta", kv["sampler.rule"] == "eta", "sampler.rule = eta")
    only = {"ddpm": "ddpm", "euler": "deterministic"}.get(family, kv["sampler.rule"])
    if "sampler.rule" in given and kv["sampler.rule"] != only:
        raise ValueError(f"sampler.rule: the {family} family samples with rule {only} only")
    kv["sampler.rule"] = only  # the report echoes the rule the run samples with

    _applies(given, "sampler.subsequence", not euler, "the ddim and ddpm families")
    labels = None
    if "sampler.subsequence" in kv:
        try:
            labels = [int(v) for v in kv["sampler.subsequence"].split(",")]
        except ValueError:
            raise ValueError("sampler.subsequence: expected comma-separated integers") from None

    kind = kv["denoiser.kind"]
    _applies(given, "denoiser.seed", kind == "state-independent",
             "denoiser.kind = state-independent")
    for key in ("mixture.weights", "mixture.means", "mixture.variances"):
        _applies(given, key, kind == "mixture", "denoiser.kind = mixture")
    dim = _number(kv, "dim", int, 1, _MAX_DIM) if "dim" in kv else None
    mixture = None
    if kind == "mixture":
        mixture = GaussianMixture(weights=_floats(kv, "mixture.weights"),
                                  means=_floats(kv, "mixture.means", rows=True),
                                  variances=_floats(kv, "mixture.variances"))
        if dim is not None and dim != mixture.dim:
            raise ValueError(f"dim={kv['dim']} disagrees with denoiser dim {mixture.dim}")
        dim = mixture.dim
        denoiser = AnalyticEps(mixture)
    elif kind == "state-independent":
        if dim is None:
            raise ValueError("dim is required for the state-independent denoiser")
        denoiser = StateIndependent(seed=_number(kv, "denoiser.seed", int, 0, 2**32 - 1), dim=dim)
    else:
        raise ValueError(f"denoiser.kind: unknown kind {kind!r}")

    eval_ms = (_number(kv, "latency.eval_ms", lo=0.0, hi=_MAX_LATENCY_MS)
               if "latency.eval_ms" in kv else 0.0)

    if euler and mixture is None:
        raise ValueError("sampler.family=euler requires a mixture denoiser")
    samples = _number(kv, "samples", int, 1, _SEED_KEYS)
    return RunConfig(
        raw=kv,
        op=Operator(denoiser, levels, labels, rules[kv["sampler.rule"]], eval_ms),
        mode=mode, devices=_number(kv, "sampler.devices", int, 1),
        seed=_number(kv, "seed", int, 0, _SEED_KEYS - samples),  # run i uses seed + i
        samples=samples, dim=dim,
        out_samples=kv.get("output.samples"),
        out_report=kv.get("output.report"),
    )


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config(text)
