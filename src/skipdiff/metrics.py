"""Desk-scale distribution distances.

These stand in for perceptual metrics: at this scale the quality question
reduces to "does the parallel sampler's output distribution match the
sequential one", which sliced Wasserstein-2 and MMD test directly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySet, InsufficientSamples


@dataclass(frozen=True)
class SampleSet:
    """Samples as an (n, dim) array with a human-readable label."""

    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if arr.size == 0:
            raise EmptySet(f"sample set {self.label!r} is empty")
        object.__setattr__(self, "samples", arr)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return self.samples.shape[0]


def _check_dims(a: SampleSet, b: SampleSet):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims differ: {a.dim} vs {b.dim}")


def sliced_w2(a: SampleSet, b: SampleSet, projections: int = 64, seed: int = 0) -> float:
    """Average over random unit directions of the squared 1-D Wasserstein-2
    distance between the projected empirical distributions.

    Equal-size sets pair sorted values directly; unequal sizes pair midpoint
    quantiles at the smaller set's resolution. Deterministic given seed."""
    _check_dims(a, b)
    if projections < 1:
        raise ValueError("projections must be >= 1")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((projections, a.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj_a = a.samples @ dirs.T  # (n_a, projections)
    proj_b = b.samples @ dirs.T
    m = min(len(a), len(b))
    qs = (np.arange(m) + 0.5) / m

    def quantiles(proj):
        if proj.shape[0] == m:
            return np.sort(proj, axis=0)
        return np.quantile(proj, qs, axis=0)

    diff = quantiles(proj_a) - quantiles(proj_b)
    # fixed index-order summation keeps the result order-independent
    return float(np.mean(diff * diff))


def mmd_gaussian(a: SampleSet, b: SampleSet, bandwidth: float) -> float:
    """Unbiased MMD^2 estimate with kernel exp(-||u - v||^2 / (2 bandwidth^2))."""
    _check_dims(a, b)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    if len(a) < 2 or len(b) < 2:
        raise InsufficientSamples("unbiased MMD needs at least 2 samples per set")

    def sqdists(u, v):
        uu = np.sum(u * u, axis=1)
        vv = np.sum(v * v, axis=1)
        return np.maximum(uu[:, None] + vv[None, :] - 2.0 * (u @ v.T), 0.0)

    gamma = 1.0 / (2.0 * bandwidth**2)
    k_aa = np.exp(-gamma * sqdists(a.samples, a.samples))
    k_bb = np.exp(-gamma * sqdists(b.samples, b.samples))
    k_ab = np.exp(-gamma * sqdists(a.samples, b.samples))
    n, m = len(a), len(b)
    term_aa = (k_aa.sum() - np.trace(k_aa)) / (n * (n - 1))
    term_bb = (k_bb.sum() - np.trace(k_bb)) / (m * (m - 1))
    return float(term_aa + term_bb - 2.0 * k_ab.mean())

