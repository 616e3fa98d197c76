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

from dataclasses import dataclass, field

import numpy as np

from .denoiser import (
    AnalyticEps,
    GaussianMixture,
    Latency,
    LatencyModel,
    Perturbed,
    StateIndependent,
)
from .errors import ConfigError
from .schedule import build_cosine, build_linear_beta, build_sigma_grid
from .transitions import VarianceRule

KNOWN_KEYS = {
    "schedule.kind": "linear | cosine",
    "schedule.T": "total discrete steps",
    "schedule.beta_start": "linear schedule start rate",
    "schedule.beta_end": "linear schedule end rate",
    "schedule.offset": "cosine schedule offset",
    "grid.N": "Euler steps",
    "grid.sigma_min": "smallest positive sigma",
    "grid.sigma_max": "largest sigma",
    "grid.rho": "grid spacing exponent",
    "denoiser.kind": "mixture | state-independent",
    "denoiser.seed": "state-independent stream seed",
    "denoiser.perturb_scale": "optional perturbation wrapper magnitude",
    "mixture.weights": "component weights (comma list)",
    "mixture.means": "component means (semicolon-separated vectors)",
    "mixture.variances": "per-component isotropic variances (comma list)",
    "latency.eval_ms": "simulated per-evaluation latency",
    "latency.overhead_ms": "simulated per-round dispatch overhead",
    "sampler.family": "ddpm | ddim | euler",
    "sampler.mode": "sequential | aggressive | conservative",
    "sampler.devices": "parallel devices (block size k)",
    "sampler.rule": "deterministic | ddpm | eta",
    "sampler.eta": "eta for rule=eta",
    "sampler.subsequence": "DDIM/DDPM timestep subsequence (comma list, ends at 0)",
    "sampler.recompute_anchor_eps": "aggressive-mode ablation: re-evaluate eps at refined anchors",
    "seed": "base RNG seed; run i uses seed+i",
    "samples": "number of samples to generate",
    "dim": "state dimension (required for state-independent denoiser)",
    "output.samples": "samples CSV path",
    "output.report": "JSON report path",
    "output.rounds": "round-report CSV path",
}

_DEFAULTS = {
    "schedule.kind": "linear",
    "schedule.T": "50",
    "schedule.beta_start": "0.002",
    "schedule.beta_end": "0.4",
    "schedule.offset": "0.008",
    "grid.N": "32",
    "grid.sigma_min": "0.02",
    "grid.sigma_max": "10",
    "grid.rho": "3",
    "denoiser.kind": "mixture",
    "denoiser.seed": "0",
    "denoiser.perturb_scale": "0",
    "mixture.weights": "1",
    "mixture.means": "0 0",
    "mixture.variances": "1",
    "sampler.family": "ddim",
    "sampler.mode": "sequential",
    "sampler.devices": "1",
    "sampler.rule": "deterministic",
    "sampler.eta": "0.5",
    "sampler.recompute_anchor_eps": "false",
    "seed": "0",
    "samples": "1",
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
    """Validated, constructible pipeline description."""

    raw: dict = field(repr=False)
    schedule: object = None
    grid: object = None
    mixture: GaussianMixture | None = None
    denoiser: object = None
    family: str = "ddim"
    mode: str = "sequential"
    devices: int = 1
    rule: VarianceRule = None
    subsequence: list | None = None
    recompute_anchor_eps: bool = False
    latency: LatencyModel | None = None
    seed: int = 0
    samples: int = 1
    dim: int = 1
    out_samples: str | None = None
    out_report: str | None = None
    out_rounds: str | None = None


def _get_int(kv, key, minimum=None):
    try:
        val = int(kv[key])
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {kv[key]!r}") from None
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {val}")
    return val


def _get_float(kv, key):
    try:
        return float(kv[key])
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {kv[key]!r}") from None


def _get_floats(kv, key):
    try:
        return [float(v) for v in kv[key].replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"{key}: expected number list, got {kv[key]!r}") from None


def load_config(text: str) -> RunConfig:
    kv = dict(_DEFAULTS)
    kv.update(parse_kv_text(text))
    cfg = RunConfig(raw=dict(kv))

    try:
        if kv["schedule.kind"] == "linear":
            cfg.schedule = build_linear_beta(
                _get_int(kv, "schedule.T", 1),
                _get_float(kv, "schedule.beta_start"),
                _get_float(kv, "schedule.beta_end"),
            )
        elif kv["schedule.kind"] == "cosine":
            cfg.schedule = build_cosine(
                _get_int(kv, "schedule.T", 1), _get_float(kv, "schedule.offset")
            )
        else:
            raise ConfigError(f"schedule.kind: unknown kind {kv['schedule.kind']!r}")
        cfg.grid = build_sigma_grid(
            _get_int(kv, "grid.N", 1),
            _get_float(kv, "grid.sigma_min"),
            _get_float(kv, "grid.sigma_max"),
            _get_float(kv, "grid.rho"),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc

    cfg.family = kv["sampler.family"]
    if cfg.family not in ("ddpm", "ddim", "euler"):
        raise ConfigError(f"sampler.family: unknown family {kv['sampler.family']!r}")
    cfg.mode = kv["sampler.mode"]
    if cfg.mode not in ("sequential", "aggressive", "conservative"):
        raise ConfigError(f"sampler.mode: unknown mode {kv['sampler.mode']!r}")
    cfg.devices = _get_int(kv, "sampler.devices", 1)
    cfg.seed = _get_int(kv, "seed")
    cfg.samples = _get_int(kv, "samples", 1)
    flag = kv["sampler.recompute_anchor_eps"].lower()
    if flag not in ("true", "1", "yes", "false", "0", "no"):
        raise ConfigError(f"sampler.recompute_anchor_eps: expected true or false, got {flag!r}")
    cfg.recompute_anchor_eps = flag in ("true", "1", "yes")
    if cfg.recompute_anchor_eps and cfg.mode != "aggressive":
        raise ConfigError("sampler.recompute_anchor_eps applies to sampler.mode = aggressive only")

    rule_name = kv["sampler.rule"]
    if rule_name == "deterministic":
        cfg.rule = VarianceRule.deterministic()
    elif rule_name == "ddpm":
        cfg.rule = VarianceRule.ddpm_induced()
    elif rule_name == "eta":
        eta = _get_float(kv, "sampler.eta")
        if not 0.0 <= eta <= 1.0:
            raise ConfigError(f"sampler.eta: must lie in [0, 1], got {eta}")
        cfg.rule = VarianceRule.eta_scaled(eta)
    else:
        raise ConfigError(f"sampler.rule: unknown rule {rule_name!r}")

    if "sampler.subsequence" in kv:
        if cfg.family == "euler":
            raise ConfigError("sampler.subsequence applies to the ddim and ddpm families only")
        try:
            cfg.subsequence = [int(v) for v in kv["sampler.subsequence"].split(",")]
        except ValueError:
            raise ConfigError("sampler.subsequence: expected comma-separated integers") from None

    # denoiser
    if kv["denoiser.kind"] == "mixture":
        weights = _get_floats(kv, "mixture.weights")
        variances = _get_floats(kv, "mixture.variances")
        try:
            means = [[float(v) for v in vec.split()] for vec in kv["mixture.means"].split(";")]
            cfg.mixture = GaussianMixture(
                weights=np.array(weights), means=np.array(means), variances=np.array(variances)
            )
        except Exception as exc:
            raise ConfigError(f"mixture: {exc}") from exc
        cfg.dim = cfg.mixture.dim
        cfg.denoiser = AnalyticEps(cfg.mixture)
    elif kv["denoiser.kind"] == "state-independent":
        if "dim" not in kv:
            raise ConfigError("dim is required for the state-independent denoiser")
        cfg.dim = _get_int(kv, "dim", 1)
        cfg.denoiser = StateIndependent(seed=_get_int(kv, "denoiser.seed"), dim=cfg.dim)
    else:
        raise ConfigError(f"denoiser.kind: unknown kind {kv['denoiser.kind']!r}")
    if "dim" in kv and _get_int(kv, "dim", 1) != cfg.dim:
        raise ConfigError(f"dim={kv['dim']} disagrees with denoiser dim {cfg.dim}")

    scale = _get_float(kv, "denoiser.perturb_scale")
    if scale > 0:
        cfg.denoiser = Perturbed(cfg.denoiser, scale)
    if "latency.eval_ms" in kv:
        cfg.latency = LatencyModel(
            eval_time_ms=_get_float(kv, "latency.eval_ms"),
            dispatch_overhead_ms=_get_float(kv, "latency.overhead_ms")
            if "latency.overhead_ms" in kv
            else 0.0,
        )
        cfg.denoiser = Latency(cfg.denoiser, cfg.latency)

    if cfg.family == "euler" and cfg.mixture is None:
        raise ConfigError("sampler.family=euler requires a mixture denoiser")

    cfg.out_samples = kv.get("output.samples")
    cfg.out_report = kv.get("output.report")
    cfg.out_rounds = kv.get("output.rounds")
    return cfg


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config(text)
