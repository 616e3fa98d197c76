"""Noise-prediction denoisers: exact Gaussian-mixture oracles plus a latency wrapper.

The analytic oracles stand in for a pretrained network, so every downstream
claim about the samplers can be checked against closed forms. All denoisers
are pure functions of their inputs and construction parameters.

State vectors are plain float arrays of shape (dim,) or batched (n, dim);
every oracle broadcasts over the leading batch axis.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveSigma, TimestepOutOfRange
from .schedule import NoiseSchedule, SigmaGrid

_STATE_INDEP_SALT = 0x51DE  # keeps state_independent_eps streams apart from RngStream keys


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
        if m.shape[1] == 0:
            raise DimensionMismatch("means must have at least one coordinate")
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


def _rows(values, x):
    """Per-row values (one per stacked row of x) shaped to broadcast over the
    trailing axes of x; a scalar stays a scalar."""
    if np.isscalar(values):
        return values
    return np.reshape(values, (-1,) + (1,) * (np.ndim(x) - 1))


def _check_t(t, last: int):
    """Raise unless t, or every entry of a per-row t, lies in 0..last."""
    for u in [t] if np.isscalar(t) else t:
        if not 0 <= u <= last:
            raise TimestepOutOfRange(f"t={u} outside 0..{last}")


def _posterior(gm: GaussianMixture, x, a, noise_var):
    """Component posterior of x = a x0 + sqrt(noise_var) eps with x0 ~ gm.

    The noised marginal is sum_i w_i N(a m_i, s_i I) with s_i = a^2 v_i + noise_var.
    `a` and `noise_var` are scalars or per-row values shaped by _rows.
    Returns (offsets a m_i - x, shape (..., n_comp, dim); s, shape (..., n_comp);
    responsibilities, shape (..., n_comp)). The score of the marginal is
    sum_i r_i offsets_i / s_i. A zero-weight component gets zero responsibility.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != gm.dim:
        raise DimensionMismatch(f"state dim {x.shape[-1]} != mixture dim {gm.dim}")
    offsets = (a if np.isscalar(a) else a[..., None]) * gm.means - x[..., None, :]
    scales = a * a * gm.variances + noise_var
    log_w = np.log(gm.weights, out=np.full_like(gm.weights, -np.inf), where=gm.weights > 0)
    log_r = log_w - 0.5 * (np.sum(offsets * offsets, axis=-1) / scales + gm.dim * np.log(scales))
    r = np.exp(log_r - log_r.max(axis=-1, keepdims=True))
    return offsets, scales, r / r.sum(axis=-1, keepdims=True)


def eps_oracle(gm: GaussianMixture, s: NoiseSchedule, x: np.ndarray, t) -> np.ndarray:
    """Bayes-optimal noise prediction under variance-preserving noising.

    The noised marginal is p_t = sum_i w_i N(sqrt(abar) m_i, (abar v_i + 1-abar) I)
    and eps*(x, t) = -sqrt(1-abar) * grad log p_t(x).

    t=0 is allowed (abar=1) and returns the zero vector: the state carries no
    residual noise, which is what the parallel scheduler's final cached
    evaluation expects. A 1-D t gives one timestep per row of x.
    """
    _check_t(t, s.T)
    abar = _rows(s.alpha_bar[t], x)
    offsets, scales, r = _posterior(gm, x, np.sqrt(abar), 1.0 - abar)
    score = np.sum(r[..., None] * offsets / scales[..., None], axis=-2)
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


def velocity_oracle(gm: GaussianMixture, x: np.ndarray, sigma) -> np.ndarray:
    """ODE velocity (x - x0_hat)/sigma = -sigma * grad log p_sigma(x) under
    variance-exploding noising p_sigma = sum_i w_i N(m_i, (v_i + sigma^2) I).

    The score form avoids the cancellation in x - x0_hat at small sigma. A
    1-D sigma gives one level per row of x.
    """
    scalar = np.isscalar(sigma)
    levels = [sigma] if scalar else np.asarray(sigma).tolist()
    if not all(u > 0.0 for u in levels):
        raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
    # Row by row on Python floats: numpy squares an array with a multiply,
    # which rounds differently from the scalar pow of a one-row call.
    noise_var = sigma**2 if scalar else _rows([u**2 for u in levels], x)
    offsets, scales, r = _posterior(gm, x, 1.0, noise_var)
    return -_rows(sigma, x) * np.sum(r[..., None] * offsets / scales[..., None], axis=-2)


def state_independent_eps(seed: int, t: int, dim: int) -> np.ndarray:
    """Deterministic pseudo-noise that depends only on (seed, t, dim), never on
    the state. Makes draft-and-refine provably identical to sequential sampling."""
    if t < 0:
        raise TimestepOutOfRange(f"t={t} must be >= 0")
    rng = np.random.default_rng((_STATE_INDEP_SALT, seed & 0xFFFFFFFF, t))
    return rng.standard_normal(dim)


class VirtualClock:
    """Accumulates simulated milliseconds instead of sleeping.

    One clock belongs to one scheduler thread; a parallel round charges it
    once, with one stacked evaluation.
    """

    def __init__(self):
        self.elapsed_ms = 0.0

    def charge(self, ms: float):
        self.elapsed_ms += ms

    def wait(self):
        """Simulated work is ready as soon as it is charged."""


class WallClock:
    """Real time behind the VirtualClock interface: `charge(ms)` sets a ready
    deadline ms after dispatch (queued behind a deadline still ahead), and
    host work before `wait` overlaps the device time. `wait` spins on the
    clock until the deadline, as a GPU host under spin scheduling does: it
    returns on the first reading at or past the deadline, never before it,
    and the host never idles, so its caches stay warm. A run on this clock
    keeps one core busy."""

    def __init__(self):
        self._origin = self._ready = time.monotonic()

    @property
    def elapsed_ms(self) -> float:
        return (time.monotonic() - self._origin) * 1000.0

    def charge(self, ms: float):
        self._ready = max(self._ready, time.monotonic()) + ms / 1000.0

    def wait(self):
        while time.monotonic() < self._ready:
            pass


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
class Latency:
    """Transparent wrapper: identical values, computed inside eval_ms from dispatch."""

    inner: "Denoiser"
    eval_ms: float

    def __post_init__(self):
        if not (self.eval_ms >= 0 and np.isfinite(self.eval_ms)):
            raise ValueError("eval_ms must be finite and >= 0")


Denoiser = AnalyticEps | StateIndependent | Latency


def evaluate(
    d: Denoiser,
    s: NoiseSchedule | SigmaGrid,
    x: np.ndarray,
    t,
    clock: VirtualClock | WallClock | None = None,
) -> np.ndarray:
    """Single entry point the samplers and schedulers call.

    On a NoiseSchedule, t is a timestep and the result a noise prediction;
    on a SigmaGrid, t is a grid index and the result the ODE velocity at
    sigmas[t] for an analytic mixture, or the state-independent pseudo-noise
    keyed by t.

    t may also be a 1-D int array, one timestep per row of x: row j of the
    result is then bitwise evaluate(d, s, x[j], t[j]). Latency charges such
    a stacked call (one parallel round) eval_ms once, as it does an unstacked
    one.

    Latency charges eval_ms to `clock` (a VirtualClock in fast CI) and
    returns without waiting, so the caller can overlap host work before
    clock.wait(); without one it waits on its own WallClock, as direct calls
    should take eval_ms.
    """
    if isinstance(d, AnalyticEps):
        if isinstance(s, SigmaGrid):
            _check_t(t, s.N)
            return velocity_oracle(d.gm, x, s.sigmas[t])
        return eps_oracle(d.gm, s, x, t)
    if isinstance(d, StateIndependent):
        _check_t(t, s.N if isinstance(s, SigmaGrid) else s.T)
        if np.isscalar(t):
            return state_independent_eps(d.seed, t, d.dim)
        return np.stack([state_independent_eps(d.seed, int(u), d.dim) for u in t])
    if isinstance(d, Latency):
        own = clock is None
        clock = WallClock() if own else clock
        clock.charge(d.eval_ms)
        value = evaluate(d.inner, s, x, t, clock)
        if own:
            clock.wait()
        return value
    raise TypeError(f"unknown denoiser kind: {type(d).__name__}")

