"""Draft-and-refine parallel schedulers.

Aggressive mode: from an anchor (x_t, eps_t), draft x_{t-1}..x_{t-k} with skip
transitions, evaluate all k noises in one parallel round, replay the unit-step
updates to refine, and reuse the draft-evaluated eps_{t-k} at the next anchor.
One parallel round per k steps; T+1 evaluations total; ideal speedup k.

Conservative mode: each block starts with a stand-alone evaluation at the
refined anchor, then one parallel round of k draft evaluations, and uses
eps_{t-k} to push one extra unit step. Two rounds per k+1 steps; T evaluations
total; ideal speedup (k+1)/2.

Both modes run any sequential.Operator: DDIM and DDPM predict eps on a noise
schedule, Euler predicts the ODE velocity on a sigma grid, and all three go
through the same denoiser wrapper stack (latency, virtual clock, counting).

Execution and determinism: each round is one evaluate() call over its drafts
stacked in task order on a new leading axis, on the scheduler thread. All
noise comes from counter-based RngStream keys and a stacked row equals its
one-row call bitwise, so the order of the rows in a round never changes the
output. The same keys let a round derive, during its simulated device time,
the noise used up to the next round; its predictions are used after its wait.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .denoiser import Denoiser, VirtualClock, WallClock, evaluate, latency_of
from .errors import InvalidPlanParams, PlanMismatch, WorkerFailure
from .rng import RngStream, Role
from .schedule import NoiseSchedule, SigmaGrid
from .sequential import Operator, Trajectory


class Mode(Enum):
    AGGRESSIVE = "aggressive"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class BlockPlan:
    """Partition of T..1 into blocks (anchor_t, k). Aggressive blocks consume
    k steps; conservative blocks consume k+1 (a degenerate final k=0 block
    consumes 1 when T = 1 mod (devices+1) and no donor block exists)."""

    mode: Mode
    blocks: tuple
    total_rounds: int
    total_evals: int


@dataclass
class RoundReport:
    anchor_t: int
    parallel_evals: int
    round_wall_ms: float


def plan_blocks(T: int, devices: int, mode: Mode) -> BlockPlan:
    if T < 1 or devices < 1:
        raise InvalidPlanParams(f"need T >= 1 and devices >= 1, got ({T}, {devices})")
    blocks = []
    t = T
    if mode is Mode.AGGRESSIVE:
        while t > 0:
            k = min(devices, t)
            blocks.append((t, k))
            t -= k
        return BlockPlan(mode, tuple(blocks), total_rounds=1 + len(blocks), total_evals=T + 1)
    while t > 0:
        consume = min(devices + 1, t)
        # never leave a remainder of exactly 1 if this block can absorb it
        if t - consume == 1 and consume > 2:
            consume -= 1
        blocks.append((t, consume - 1))
        t -= consume
    rounds = sum(2 if k >= 1 else 1 for _, k in blocks)
    return BlockPlan(mode, tuple(blocks), total_rounds=rounds, total_evals=T)


def execute_round(
    d: Denoiser,
    s: NoiseSchedule | SigmaGrid,
    tasks: list,
    devices: int,
    *,
    anchor_t: int,
    pool=None,
    clock: VirtualClock | WallClock | None = None,
    meanwhile=None,
) -> tuple[list, RoundReport]:
    """Evaluate all (x, t) tasks in one round: one evaluate() call on this
    thread over the states stacked in task order (none if there are no
    tasks), `meanwhile()` during its simulated device time, then the wait on
    `clock` (default: a new WallClock). Returns the predictions by task index
    and the round's report, timed from dispatch to the end of the wait.
    `pool` is accepted and ignored, because `perfbench/micro.py` passes one."""
    if len(tasks) > devices:
        raise InvalidPlanParams(f"{len(tasks)} tasks exceed {devices} devices")
    clock = clock or WallClock()
    model = latency_of(d)
    t0 = clock.elapsed_ms
    clock.charge(model.dispatch_overhead_ms if model else 0.0)
    results = []
    if tasks:
        try:
            results = list(evaluate(d, s, np.stack([x for x, _ in tasks]),
                                    np.array([t for _, t in tasks]), clock))
        except Exception as exc:
            raise WorkerFailure(str(exc)) from exc
    if meanwhile is not None:
        meanwhile()
    clock.wait()
    return results, RoundReport(anchor_t, len(tasks), clock.elapsed_ms - t0)


def run_parallel(
    op: Operator,
    x: np.ndarray,
    devices: int,
    mode: Mode,
    stream: RngStream | None,
    *,
    clock: VirtualClock | WallClock | None = None,
    recompute_anchor_eps: bool = False,
) -> tuple[Trajectory, list[RoundReport]]:
    """Draft-and-refine run of any operator in either mode, one stacked
    evaluation per round, timed on `clock` (default: a new WallClock).
    `recompute_anchor_eps` (aggressive only) replaces each cached anchor
    prediction with a stand-alone evaluation at the refined state (ablation;
    adds one round and one eval per interior block). Tasks at levels with no
    prediction (Euler's sigma = 0 node) are dropped: nothing consumes them."""
    clock = clock or WallClock()
    start = clock.elapsed_ms
    plan = plan_blocks(op.steps, devices, mode)
    aggressive = mode is Mode.AGGRESSIVE
    x = np.asarray(x, dtype=float)
    traj = Trajectory(states=[(op.labels[0], x)])
    reports: list[RoundReport] = []
    noise, derived = {}, []  # z by (position, role); the blocks whose z is derived

    def derive_through(b):
        """Derive the z that the drafts and transitions of blocks up to b take."""
        for r, k in plan.blocks[len(derived):b + 1]:
            i = op.steps - r
            keys = [(i + j, Role.TRANSITION) for j in range(1, (k if aggressive else k + 1) + 1)]
            keys += [(i + j, Role.DRAFT) for j in range(2, k + 1)]
            noise.update({key: op.noise(stream, *key, x.shape) for key in keys})
            derived.append(r)

    def round_(tasks, anchor, b):
        """Evaluate (x, position) tasks in one round of block b, deriving the
        z needed before the next round meanwhile; predictions by position."""
        live = [(xx, i) for xx, i in tasks if op.predicts(i)]
        vals, report = execute_round(op.denoiser, op.levels, [(xx, op.level(i)) for xx, i in live],
                                     devices, anchor_t=op.labels[anchor], clock=clock,
                                     meanwhile=lambda: derive_through(b + 1))
        reports.append(report)
        traj.eval_count += len(live)
        return {i: v for (_, i), v in zip(live, vals)}

    def advance(i, k, x, v, role=Role.TRANSITION):
        return op.skip(i, k, x, v, noise.pop((i + k, role)))

    if aggressive:
        v = round_([(x, 0)], 0, 0)[0]
    for b, (r, k) in enumerate(plan.blocks):
        i = op.steps - r
        if not aggressive or (recompute_anchor_eps and i > 0):
            v = round_([(x, i)], i, b)[i]
        if k == 0:  # degenerate final conservative block: one unit step, no round
            x = advance(i, 1, x, v)
            traj.states.append((op.labels[i + 1], x))
            continue
        # The j=1 draft IS the kept state at i+1, so it takes that
        # state's TRANSITION noise; deeper drafts are discarded after
        # their evaluation and take DRAFT keys.
        drafts = [advance(i, j, x, v, Role.TRANSITION if j == 1 else Role.DRAFT)
                  for j in range(1, k + 1)]
        vals = round_([(drafts[j - 1], i + j) for j in range(1, k + 1)], i, b)
        x = drafts[0]
        traj.states.append((op.labels[i + 1], x))
        for j in range(2, (k if aggressive else k + 1) + 1):
            x = advance(i + j - 1, 1, x, vals[i + j - 1])
            traj.states.append((op.labels[i + j], x))
        v = vals.get(i + k)  # aggressive: the cached draft prediction for the next anchor

    if traj.states[-1][0] != 0:
        raise PlanMismatch(f"trajectory ends at t={traj.states[-1][0]}, expected 0")
    expected = plan.total_evals
    if aggressive and recompute_anchor_eps:
        expected += len(plan.blocks) - 1  # one anchor re-evaluation per interior block
    if aggressive and not op.predicts(op.steps):
        expected -= 1  # the final draft, at sigma = 0, is never dispatched
    if traj.eval_count != expected:
        raise PlanMismatch(f"{traj.eval_count} evals, plan expected {expected}")
    traj.wall_ms = clock.elapsed_ms - start
    return traj, reports
