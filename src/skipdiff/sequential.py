"""Single-stream baseline sampler and the sampling operator shared with the
parallel schedulers. The sequential loop is the ground truth the parallel
schedulers must match (exactly, for the state-independent denoiser) or
approximate (within the skip-vs-compose bound, for real denoisers). Each
step derives its transition noise during its evaluation's simulated device
time, and makes the transition after the wait."""

from dataclasses import dataclass, field

import numpy as np

from .denoiser import Denoiser, VirtualClock, WallClock, evaluate
from .errors import InvalidSubsequence, NonFiniteState
from .rng import RngStream, Role
from .schedule import NoiseSchedule, SigmaGrid
from .transitions import VarianceRule, ddim_skip, euler_skip


@dataclass
class Trajectory:
    """Ordered (t, x) states from the start of sampling down to t=0, plus
    evaluation and wall-time accounting."""

    states: list[tuple[int, np.ndarray]] = field(default_factory=list)
    eval_count: int = 0
    wall_ms: float = 0.0

    @property
    def final(self) -> np.ndarray:
        return self.states[-1][1]

    def timesteps(self) -> list[int]:
        return [t for t, _ in self.states]


@dataclass(frozen=True)
class Operator:
    """One sampler on one trajectory, addressed by position i in `labels`.

    `levels` choose the kernel: on a NoiseSchedule every transition and draft
    is `ddim_skip` under `rule` (the DDPM sampler is rule = ddpm, DDIM at
    eta = 1); on a SigmaGrid it is `euler_skip`, which takes no noise, so a
    stochastic rule is rejected. `labels` are the trajectory timesteps from
    the start down to 0 (default: every level, T..0 on a schedule and N..0 on
    a grid, where a label counts the remaining grid intervals); a strictly
    decreasing subsequence samples a schedule on fewer steps. `eval_ms` is the
    simulated device time of one dispatched evaluation, a step or a round.
    """

    denoiser: Denoiser
    levels: NoiseSchedule | SigmaGrid
    labels: tuple | None = None
    rule: VarianceRule = VarianceRule.deterministic()
    eval_ms: float = 0.0

    def __post_init__(self):
        if not (self.eval_ms >= 0 and np.isfinite(self.eval_ms)):
            raise ValueError("eval_ms must be finite and >= 0")
        if isinstance(self.levels, SigmaGrid) and self.rule.stochastic:
            raise ValueError(f"an Euler skip takes no noise: rule eta={self.rule.eta} "
                             "cannot run on a SigmaGrid")
        top = self.top
        ts = tuple(range(top, -1, -1) if self.labels is None else self.labels)
        if not ts or ts[-1] != 0 or ts[0] > top:
            raise InvalidSubsequence(f"subsequence must start <= {top} and end at 0: {list(ts)}")
        if any(a <= b for a, b in zip(ts, ts[1:])):
            raise InvalidSubsequence(f"subsequence must be strictly decreasing: {list(ts)}")
        object.__setattr__(self, "labels", ts)

    @property
    def top(self) -> int:
        """Number of levels below the first: T on a schedule, N on a grid."""
        return self.levels.N if isinstance(self.levels, SigmaGrid) else self.levels.T

    @property
    def steps(self) -> int:
        return len(self.labels) - 1

    def level(self, i: int) -> int:
        """The index into `levels` that evaluate() takes at position i."""
        return self.top - self.labels[i] if isinstance(self.levels, SigmaGrid) else self.labels[i]

    def predicts(self, i: int) -> bool:
        """False at a level with no prediction: the grid's sigma = 0 node,
        where the velocity is undefined and nothing downstream needs it."""
        return not isinstance(self.levels, SigmaGrid) or self.labels[i] > 0

    def noise(self, stream: RngStream | None, i: int, shape):
        """The TRANSITION z into the state at position i, keyed by its label;
        None when the operator consumes no noise."""
        if not self.rule.stochastic:
            return None
        if stream is None:
            raise ValueError(f"stream required for a stochastic operator (eta={self.rule.eta})")
        return stream.derive(self.labels[i], Role.TRANSITION, shape)

    def skip(self, i: int, k: int, x: np.ndarray, v: np.ndarray, z) -> np.ndarray:
        """The jump from position i to i+k with the prediction v made at i.
        Every transition and draft of `sample` and `run_parallel` passes here,
        so a non-finite state is caught where made."""
        t, u = self.labels[i], self.labels[i + k]
        if isinstance(self.levels, SigmaGrid):
            out = euler_skip(self.levels, self.level(i), t - u, x, v)
        else:
            out = ddim_skip(self.levels, t, t - u, x, v, self.rule, z)
        if not np.isfinite(out).all():
            raise NonFiniteState(f"skip from t={t} to t={u} gave a non-finite state")
        return out


def sample(
    op: Operator,
    x: np.ndarray,
    stream: RngStream | None,
    clock: VirtualClock | WallClock | None = None,
) -> Trajectory:
    """Sequential sampling: one evaluation and one unit step per label, each
    evaluation charged `op.eval_ms` on `clock` (default: a new WallClock).

    The z consumed by the transition into label u is always
    stream.derive(u, TRANSITION); an operator without noise consumes none
    (`stream` may then be None, and must not be otherwise)."""
    clock = clock or WallClock()
    start = clock.elapsed_ms
    x = np.asarray(x, dtype=float)
    traj = Trajectory(states=[(op.labels[0], x)])
    for i in range(op.steps):
        clock.charge(op.eval_ms)
        v = evaluate(op.denoiser, op.levels, x, op.level(i))
        traj.eval_count += 1
        z = op.noise(stream, i + 1, x.shape)
        clock.wait()
        x = op.skip(i, 1, x, v, z)
        traj.states.append((op.labels[i + 1], x))
    traj.wall_ms = clock.elapsed_ms - start
    return traj
