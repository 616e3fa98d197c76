"""Closed-form skip transitions: jump from x_t directly to x_{t-k}.

Three operator families, all pure and safe for unrestricted concurrent use:

  * DDPM posterior skip -- Bayes posterior q(x_{t-k} | x_t, x_0):
        mu' = [sqrt(abar_t/abar_{t-k}) (1-abar_{t-k}) x_t
               + sqrt(abar_{t-k}) (1-abar_t/abar_{t-k}) x_0] / (1-abar_t)
        var = (1-abar_t/abar_{t-k}) (1-abar_{t-k}) / (1-abar_t)
  * DDIM marginal-consistency skip with sigma = eta sqrt(var), eta in [0, 1],
    and coefficients
        kappa = sqrt(1-abar_{t-k}-sigma^2) / sqrt(1-abar_t)
        lambda = sqrt(abar_{t-k}) - kappa sqrt(abar_t)
  * Euler ODE skip -- one fused integration step across k grid intervals.

Noise z is always injected by the caller; nothing here samples, so the
parallel scheduler's determinism contract holds by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidSkip, TimestepOutOfRange
from .schedule import NoiseSchedule, SigmaGrid


@dataclass(frozen=True)
class VarianceRule:
    """Transition-std policy sigma_{t,k} = eta x the DDPM-induced std, eta in
    [0, 1]: eta = 0 is deterministic, eta = 1 the DDPM-induced value. Since
    eta <= 1, sigma never exceeds the DDPM-induced std (the rounded product
    eta x std cannot pass std either)."""

    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")

    @classmethod
    def deterministic(cls):
        return cls(0.0)

    @classmethod
    def ddpm_induced(cls):
        return cls(1.0)

    @property
    def stochastic(self) -> bool:
        return self.eta > 0.0


@dataclass(frozen=True)
class SkipCoeffs:
    """DDIM skip coefficients: x_{t-k} = kappa x_t + lambda x_0 + sigma z."""

    kappa: float
    lam: float
    sigma: float


def _skip_levels(s: NoiseSchedule, t: int, k: int) -> tuple:
    """Range-checked abar_t and abar_{t-k} of the skip t -> t-k, and its
    DDPM-induced variance."""
    if k < 1:
        raise InvalidSkip(f"k={k} must be >= 1")
    if t > s.T or k > t:
        raise TimestepOutOfRange(f"(t={t}, k={k}) outside 1 <= k <= t <= {s.T}")
    a_t, a_s = s.alpha_bar[t], s.alpha_bar[t - k]
    return a_t, a_s, (1.0 - a_t / a_s) * (1.0 - a_s) / (1.0 - a_t)


def predicted_x0(s: NoiseSchedule, x_t: np.ndarray, eps: np.ndarray, t: int) -> np.ndarray:
    """x0_hat = (x_t - sqrt(1-abar_t) eps) / sqrt(abar_t)."""
    a_t = s.alpha_bar[t]
    return (x_t - math.sqrt(1.0 - a_t) * eps) / math.sqrt(a_t)


def _add_noise(mean: np.ndarray, sigma: float, z: np.ndarray | None) -> np.ndarray:
    """mean + sigma z; z may be None only when sigma is 0."""
    if sigma == 0.0:
        return mean
    if z is None:
        raise ValueError("z required for a stochastic transition")
    return mean + sigma * z


def ddpm_skip_sample(
    s: NoiseSchedule,
    t: int,
    k: int,
    x_t: np.ndarray,
    x0_hat: np.ndarray,
    z: np.ndarray | None,
) -> np.ndarray:
    """A draw from the k-step analogue of the one-step DDPM posterior,
    mean + sqrt(variance) * z. z may be None only when the variance is 0
    (the skip-to-0 degeneracy)."""
    a_t, a_s, variance = _skip_levels(s, t, k)
    ratio = a_t / a_s
    mean = (np.sqrt(ratio) * (1.0 - a_s) * x_t
            + np.sqrt(a_s) * (1.0 - ratio) * x0_hat) / (1.0 - a_t)
    return _add_noise(mean, math.sqrt(variance), z)


def _ddim_sigma(s: NoiseSchedule, t: int, k: int, rule: VarianceRule) -> tuple:
    """Range-checked abar_t, abar_{t-k} and sigma_{t,k} of a DDIM skip. At
    eta = 1, 1 - abar_{t-k} - sigma^2 can round below 0, so callers clamp it."""
    a_t, a_s, variance = _skip_levels(s, t, k)
    return a_t, a_s, rule.eta * math.sqrt(variance) if rule.stochastic else 0.0


def ddim_skip_coeffs(s: NoiseSchedule, t: int, k: int, rule: VarianceRule) -> SkipCoeffs:
    """Coefficients solving the marginal-consistency constraints
    lambda + kappa sqrt(abar_t) = sqrt(abar_{t-k}) and
    kappa^2 (1-abar_t) + sigma^2 = 1 - abar_{t-k}."""
    a_t, a_s, sigma = _ddim_sigma(s, t, k, rule)
    kappa = math.sqrt(max(0.0, 1.0 - a_s - sigma * sigma)) / math.sqrt(1.0 - a_t)
    lam = math.sqrt(a_s) - kappa * math.sqrt(a_t)
    return SkipCoeffs(kappa=kappa, lam=lam, sigma=sigma)


def ddim_skip(
    s: NoiseSchedule,
    t: int,
    k: int,
    x_t: np.ndarray,
    eps: np.ndarray,
    rule: VarianceRule,
    z: np.ndarray | None = None,
) -> np.ndarray:
    """DDIM skip update:

        x_{t-k} = sqrt(abar_{t-k}) x0_hat + sqrt(1-abar_{t-k}-sigma^2) eps + sigma z,
        x0_hat  = (x_t - sqrt(1-abar_t) eps) / sqrt(abar_t).
    """
    _, a_s, sigma = _ddim_sigma(s, t, k, rule)
    keep = math.sqrt(max(0.0, 1.0 - a_s - sigma**2))
    out = math.sqrt(a_s) * predicted_x0(s, x_t, eps, t) + keep * eps
    return _add_noise(out, sigma, z)


def euler_skip(g: SigmaGrid, i: int, k: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Fused Euler step across k grid intervals: x + (sigma_{i+k} - sigma_i) v."""
    if k < 1:
        raise InvalidSkip(f"k={k} must be >= 1")
    if i < 0 or i + k > g.N:
        raise IndexOutOfRange(f"(i={i}, k={k}) outside 0 <= i, i+k <= {g.N}")
    return x + (g.sigmas[i + k] - g.sigmas[i]) * v
