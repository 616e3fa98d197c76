"""Noise-prediction denoisers: exact Gaussian-mixture oracles plus test wrappers.

The analytic oracles stand in for a pretrained network, so every downstream
claim about the samplers can be checked against closed forms. All denoisers
are pure functions of their inputs and construction parameters, and safe to
evaluate concurrently from any number of workers.

State vectors are plain float arrays of shape (dim,) or batched (n, dim);
every oracle broadcasts over the leading batch axis.
"""

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveSigma, TimestepOutOfRange
from .schedule import NoiseSchedule, SigmaGrid

_STATE_INDEP_SALT = 0x51DE  # keeps state_independent_eps streams apart from RngStream keys
_PERTURB_SALT = b"perturb"
_PERTURB_QUANTUM = 1e-8


@dataclass(frozen=True)
class GaussianMixture:
    """Isotropic Gaussian mixture: weights (n_comp,), means (n_comp, dim),
    variances (n_comp,) per-component isotropic variance."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        v = np.asarray(self.variances, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(v <= 0):
            raise ValueError("variances must be positive")
        if len(w) != m.shape[0] or len(w) != len(v):
            raise DimensionMismatch("weights/means/variances lengths disagree")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Direct draws from the mixture, shape (n, dim)."""
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        return self.means[comp] + np.sqrt(self.variances[comp])[:, None] * eps


def standard_normal_mixture(dim: int = 1) -> GaussianMixture:
    """Single-component N(0, I) data distribution."""
    return GaussianMixture(weights=[1.0], means=np.zeros((1, dim)), variances=[1.0])


def _posterior(gm: GaussianMixture, x, a: float, noise_var: float):
    """Component posterior of x = a x0 + sqrt(noise_var) eps with x0 ~ gm.

    The noised marginal is sum_i w_i N(a m_i, s_i I) with s_i = a^2 v_i + noise_var.
    Returns (offsets a m_i - x, shape (..., n_comp, dim); s, shape (n_comp,);
    responsibilities, shape (..., n_comp)). The score of the marginal is
    sum_i r_i offsets_i / s_i. A zero-weight component gets zero responsibility.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != gm.dim:
        raise DimensionMismatch(f"state dim {x.shape[-1]} != mixture dim {gm.dim}")
    offsets = a * gm.means - x[..., None, :]
    scales = a * a * gm.variances + noise_var
    log_w = np.log(gm.weights, out=np.full_like(gm.weights, -np.inf), where=gm.weights > 0)
    log_r = log_w - 0.5 * (np.sum(offsets * offsets, axis=-1) / scales + gm.dim * np.log(scales))
    r = np.exp(log_r - log_r.max(axis=-1, keepdims=True))
    return offsets, scales, r / r.sum(axis=-1, keepdims=True)


def eps_oracle(gm: GaussianMixture, s: NoiseSchedule, x: np.ndarray, t: int) -> np.ndarray:
    """Bayes-optimal noise prediction under variance-preserving noising.

    The noised marginal is p_t = sum_i w_i N(sqrt(abar) m_i, (abar v_i + 1-abar) I)
    and eps*(x, t) = -sqrt(1-abar) * grad log p_t(x).

    t=0 is allowed (abar=1) and returns the zero vector: the state carries no
    residual noise, which is what the parallel scheduler's final cached
    evaluation expects.
    """
    if not 0 <= t <= s.T:
        raise TimestepOutOfRange(f"t={t} outside 0..{s.T}")
    abar = s.alpha_bar[t]
    offsets, scales, r = _posterior(gm, x, np.sqrt(abar), 1.0 - abar)
    score = np.sum(r[..., None] * offsets / scales[:, None], axis=-2)
    return -np.sqrt(1.0 - abar) * score


def x0_posterior_mean(gm: GaussianMixture, x: np.ndarray, abar: float) -> np.ndarray:
    """E[x_0 | x_t = x] under the same variance-preserving noising as eps_oracle."""
    if not 0.0 < abar <= 1.0:
        raise ValueError(f"abar must lie in (0, 1], got {abar}")
    # per-component conditional means m_i + gain_i (x - a m_i); Tweedie's
    # (x + (1-abar) score) / sqrt(abar) would lose digits at small abar
    offsets, scales, r = _posterior(gm, x, np.sqrt(abar), 1.0 - abar)
    gain = np.sqrt(abar) * gm.variances / scales
    cond_mean = gm.means - gain[:, None] * offsets
    return np.sum(r[..., None] * cond_mean, axis=-2)


def velocity_oracle(gm: GaussianMixture, x: np.ndarray, sigma: float) -> np.ndarray:
    """ODE velocity (x - x0_hat)/sigma = -sigma * grad log p_sigma(x) under
    variance-exploding noising p_sigma = sum_i w_i N(m_i, (v_i + sigma^2) I).

    The score form avoids the cancellation in x - x0_hat at small sigma.
    """
    if not sigma > 0.0:
        raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
    offsets, scales, r = _posterior(gm, x, 1.0, sigma**2)
    return -sigma * np.sum(r[..., None] * offsets / scales[:, None], axis=-2)


def state_independent_eps(seed: int, t: int, dim: int) -> np.ndarray:
    """Deterministic pseudo-noise that depends only on (seed, t, dim), never on
    the state. Makes draft-and-refine provably identical to sequential sampling."""
    if t < 0:
        raise TimestepOutOfRange(f"t={t} must be >= 0")
    rng = np.random.default_rng((_STATE_INDEP_SALT, seed & 0xFFFFFFFF, t))
    return rng.standard_normal(dim)


@dataclass(frozen=True)
class LatencyModel:
    """Simulated cost of one network evaluation plus per-round dispatch overhead."""

    eval_time_ms: float
    dispatch_overhead_ms: float = 0.0

    def __post_init__(self):
        if not (self.eval_time_ms >= 0 and np.isfinite(self.eval_time_ms)):
            raise ValueError("eval_time_ms must be finite and >= 0")
        if not (self.dispatch_overhead_ms >= 0 and np.isfinite(self.dispatch_overhead_ms)):
            raise ValueError("dispatch_overhead_ms must be finite and >= 0")


class VirtualClock:
    """Accumulates simulated milliseconds instead of sleeping.

    One clock belongs to one scheduler thread; parallel rounds charge it with
    the per-round maximum, never from inside workers.
    """

    def __init__(self):
        self.elapsed_ms = 0.0

    def charge(self, ms: float):
        self.elapsed_ms += ms


@dataclass(frozen=True)
class AnalyticEps:
    """Exact mixture eps oracle."""

    gm: GaussianMixture


@dataclass(frozen=True)
class StateIndependent:
    """Equivalence oracle: eps is a pure function of (seed, t)."""

    seed: int
    dim: int


@dataclass(frozen=True)
class Perturbed:
    """Adds deterministic pseudo-noise of magnitude `scale`, keyed by the
    quantized state and timestep, to probe robustness reproducibly."""

    inner: "Denoiser"
    scale: float

    def __post_init__(self):
        if not (self.scale >= 0 and np.isfinite(self.scale)):
            raise ValueError("scale must be finite and >= 0")


@dataclass(frozen=True)
class Latency:
    """Transparent wrapper: identical values, plus simulated evaluation cost."""

    inner: "Denoiser"
    model: LatencyModel


class Counting:
    """Instrumentation wrapper counting evaluate() calls. The single mutable
    denoiser; counts are advisory and never affect returned values."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0


Denoiser = AnalyticEps | StateIndependent | Perturbed | Latency | Counting


def _perturbation(x: np.ndarray, t: int, scale: float) -> np.ndarray:
    q = np.round(np.asarray(x, dtype=float) / _PERTURB_QUANTUM).astype(np.int64)
    digest = hashlib.blake2b(
        _PERTURB_SALT + int(t).to_bytes(8, "little", signed=True) + q.tobytes(),
        digest_size=8,
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return scale * rng.standard_normal(x.shape)


def evaluate(
    d: Denoiser,
    s: NoiseSchedule | SigmaGrid,
    x: np.ndarray,
    t: int,
    clock: VirtualClock | None = None,
) -> np.ndarray:
    """Single entry point the samplers and schedulers call.

    On a NoiseSchedule, t is a timestep and the result a noise prediction;
    on a SigmaGrid, t is a grid index and the result the ODE velocity at
    sigmas[t] for an analytic mixture, or the state-independent pseudo-noise
    keyed by t.

    With a VirtualClock, Latency wrappers charge the clock instead of
    sleeping (fast CI); without one they sleep for eval_time_ms of real
    wall time, which is what the worker-pool benchmarks measure.
    """
    if isinstance(d, AnalyticEps):
        if isinstance(s, SigmaGrid):
            return velocity_oracle(d.gm, x, float(s.sigmas[t]))
        return eps_oracle(d.gm, s, x, t)
    if isinstance(d, StateIndependent):
        last = s.N if isinstance(s, SigmaGrid) else s.T
        if not 0 <= t <= last:
            raise TimestepOutOfRange(f"t={t} outside 0..{last}")
        return state_independent_eps(d.seed, t, d.dim)
    if isinstance(d, Perturbed):
        value = evaluate(d.inner, s, x, t, clock)
        if d.scale == 0.0:
            return value
        return value + _perturbation(x, t, d.scale)
    if isinstance(d, Latency):
        if clock is not None:
            clock.charge(d.model.eval_time_ms)
        elif d.model.eval_time_ms > 0:
            time.sleep(d.model.eval_time_ms / 1000.0)
        return evaluate(d.inner, s, x, t, clock)
    if isinstance(d, Counting):
        d.count += 1
        return evaluate(d.inner, s, x, t, clock)
    raise TypeError(f"unknown denoiser kind: {type(d).__name__}")


def latency_of(d: Denoiser) -> LatencyModel | None:
    """Innermost latency model in a wrapper stack, if any (used by the
    scheduler to account dispatch overhead per round)."""
    if isinstance(d, Latency):
        return d.model
    if isinstance(d, (Perturbed, Counting)):
        return latency_of(d.inner)
    return None
