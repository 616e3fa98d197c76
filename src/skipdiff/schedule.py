"""Discrete noise schedules for variance-preserving sampling and sigma grids for ODE sampling.

Convention used everywhere in this package: ``alpha_bar[t]`` is the CUMULATIVE
signal retention at step t, i.e. the forward marginal is

    x_t = sqrt(alpha_bar[t]) * x_0 + sqrt(1 - alpha_bar[t]) * eps,

with ``alpha_bar[0] = 1`` exactly (t=0 is clean data). Per-step rates live in
``betas[t] = 1 - alpha_bar[t]/alpha_bar[t-1]``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidScheduleParams

# betas for the cosine schedule are clamped here so alpha_bar never collapses
# to 0, which would break 1/(1 - alpha_bar) terms downstream.
MAX_BETA = 0.999

DEFAULT_T = 50


@dataclass(frozen=True)
class NoiseSchedule:
    """Discrete alpha_bar grid. Immutable; safe for concurrent reads.

    alpha_bar has length T+1 (indexed 0..T); betas has length T+1 with
    betas[0] unused (kept 0 so both arrays share indexing).
    """

    T: int
    alpha_bar: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        self.alpha_bar.setflags(write=False)
        self.betas.setflags(write=False)


@dataclass(frozen=True)
class SigmaGrid:
    """Descending noise levels sigmas[0..N] with sigmas[N] = 0."""

    sigmas: np.ndarray
    N: int = field(init=False)

    def __post_init__(self):
        self.sigmas.setflags(write=False)
        object.__setattr__(self, "N", len(self.sigmas) - 1)


def build_linear_beta(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """DDPM-style schedule with betas linearly spaced in [beta_start, beta_end]."""
    if T < 1:
        raise InvalidScheduleParams(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise InvalidScheduleParams(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    betas = np.concatenate([[0.0], np.linspace(beta_start, beta_end, T)])
    alpha_bar = np.cumprod(1.0 - betas)
    return NoiseSchedule(T=T, alpha_bar=alpha_bar, betas=betas)


def build_cosine(T: int, offset: float = 0.008) -> NoiseSchedule:
    """Cosine schedule: alpha_bar[t] = f(t/T)/f(0), f(u) = cos((u+offset)/(1+offset) * pi/2)^2.

    Back-derived betas are clamped to MAX_BETA and alpha_bar recomputed from
    the clamped betas so the strict-decrease invariant always holds.
    """
    if T < 1:
        raise InvalidScheduleParams(f"T must be >= 1, got {T}")
    if not (offset > 0.0 and np.isfinite(offset)):
        raise InvalidScheduleParams(f"offset must be > 0, got {offset}")

    def f(u):
        return np.cos((u + offset) / (1.0 + offset) * np.pi / 2.0) ** 2

    raw = f(np.arange(T + 1) / T) / f(0.0)
    betas = np.zeros(T + 1)
    betas[1:] = np.clip(1.0 - raw[1:] / raw[:-1], 0.0, MAX_BETA)
    alpha_bar = np.cumprod(1.0 - betas)
    return NoiseSchedule(T=T, alpha_bar=alpha_bar, betas=betas)


def build_sigma_grid(N: int, sigma_min: float, sigma_max: float, rho: float = 7.0) -> SigmaGrid:
    """rho-spaced sigma grid from sigma_max down to sigma_min, with a final 0 entry."""
    if N < 1:
        raise InvalidScheduleParams(f"N must be >= 1, got {N}")
    if not (0.0 < sigma_min < sigma_max):
        raise InvalidScheduleParams(
            f"need 0 < sigma_min < sigma_max, got ({sigma_min}, {sigma_max})"
        )
    if rho < 1.0:
        raise InvalidScheduleParams(f"rho must be >= 1, got {rho}")
    i = np.arange(N)
    interior = (
        sigma_max ** (1.0 / rho)
        + (i / N) * (sigma_min ** (1.0 / rho) - sigma_max ** (1.0 / rho))
    ) ** rho
    sigmas = np.concatenate([interior, [0.0]])
    return SigmaGrid(sigmas=sigmas)


def default_schedule(T: int = DEFAULT_T) -> NoiseSchedule:
    """Desk-scale default: linear-beta with the usual (1e-4, 0.02) endpoints
    rescaled from the 1000-step convention to T steps."""
    scale = 1000.0 / T
    return build_linear_beta(T, 1e-4 * scale, min(0.02 * scale, 0.999))
