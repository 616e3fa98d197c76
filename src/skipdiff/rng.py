"""Counter-based randomness: every normal draw is a pure function of
(seed, timestep, role), so execution order never changes the sampled noise."""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_STREAM_SALT = 0x7A9C


class Role(IntEnum):
    TRANSITION = 0  # noise of the transition into timestep t, shared by its drafts
    INIT = 2        # the run's initial x_T


@dataclass(frozen=True)
class RngStream:
    seed: int

    def derive(self, t: int, role: Role, shape) -> np.ndarray:
        return derive_noise(self, t, role, shape)


def derive_noise(stream: RngStream, t: int, role: Role, shape) -> np.ndarray:
    """Standard-normal vector keyed purely by (seed, t, role). `shape` may be
    an int (dim) or a full array shape for batched states."""
    if t < 0:
        raise ValueError(f"t={t} must be >= 0")
    rng = np.random.default_rng((_STREAM_SALT, stream.seed & 0xFFFFFFFFFFFF, t, int(role)))
    return rng.standard_normal(shape)
