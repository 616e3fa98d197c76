"""Draft-and-refine parallel schedulers: one block loop for both modes.

A block at committed position p drafts p+1..p+k from (x_p, eps_p) with skip
transitions, evaluates the k drafts in one parallel round, and refines with
unit steps that use their eps. `plan_blocks` sets how far each block commits.
Draft j takes the TRANSITION noise of the state p+j it stands for, which the
refine into p+j takes too, so a run derives the noise `sample` derives, once
per position.

Aggressive mode: k steps, carrying the draft-evaluated eps_{p+k} to the next
block. One round per k steps plus one; T+1 evaluations; ideal speedup k.

Conservative mode: k+1 steps, so each block first evaluates its refined start
alone. 2*ceil(T/(k+1)) rounds, one fewer when the plan ends on a lone step
(T = 1, or k = 1 and T odd); T evaluations; ideal speedup (k+1)/2.

Both modes run any sequential.Operator: DDIM and DDPM predict eps on a noise
schedule, Euler predicts the ODE velocity on a sigma grid, and all three are
charged the Operator's `eval_ms` per round on the same clocks.

Execution and determinism: a round runs inside `run_parallel`, on the
scheduler thread: one `eval_ms` charged to the clock at its dispatch and one
evaluate() call over its drafts stacked in task order on a new leading axis,
and its RoundReport is timed from that dispatch to the end of its wait. All
noise comes from counter-based RngStream keys and a stacked row equals its
one-row call bitwise, so the order of the rows in a round never changes the
output. The same keys let a round derive, during its simulated device time,
the noise used up to the next round; its predictions are used after its wait.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .denoiser import VirtualClock, WallClock, evaluate
from .errors import InvalidPlanParams, PlanMismatch
from .rng import RngStream
from .sequential import Operator, Trajectory


class Mode(Enum):
    AGGRESSIVE = "aggressive"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class BlockPlan:
    """Partition of T..1 into blocks (anchor_t, k). Aggressive blocks consume
    k steps; conservative blocks consume k+1 (a final k=0 block consumes 1
    when T = 1 mod (devices+1) and T = 1 or devices = 1: no block can lend)."""

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
        return BlockPlan(tuple(blocks), total_rounds=1 + len(blocks), total_evals=T + 1)
    while t > 0:
        consume = min(devices + 1, t)
        # never leave a remainder of exactly 1 if this block can absorb it
        if t - consume == 1 and consume > 2:
            consume -= 1
        blocks.append((t, consume - 1))
        t -= consume
    rounds = sum(2 if k >= 1 else 1 for _, k in blocks)
    return BlockPlan(tuple(blocks), total_rounds=rounds, total_evals=T)


def run_parallel(
    op: Operator,
    x: np.ndarray,
    devices: int,
    mode: Mode,
    stream: RngStream | None,
    *,
    clock: VirtualClock | WallClock | None = None,
) -> tuple[Trajectory, list[RoundReport]]:
    """Run the blocks of `plan_blocks`, the only place the loop reads `mode`
    (see the module docstring), one stacked evaluation per round, timed on
    `clock` (default: a new WallClock). Tasks at levels with no prediction
    (Euler's sigma = 0 node) are dropped: nothing consumes them."""
    clock = clock or WallClock()
    start = clock.elapsed_ms
    plan = plan_blocks(op.steps, devices, mode)
    starts = [op.steps - r for r, _ in plan.blocks] + [op.steps]
    blocks = [(p, k, end) for (_, k), p, end in zip(plan.blocks, starts, starts[1:])]
    x = np.asarray(x, dtype=float)
    traj = Trajectory(states=[(op.labels[0], x)])
    reports: list[RoundReport] = []
    z = [None]  # the TRANSITION noise into each position, derived a block ahead

    def derive_through(b):
        """Derive the z into every position through the end of block b (or the last block)."""
        end = blocks[min(b, len(blocks) - 1)][2]
        z.extend(op.noise(stream, q, x.shape) for q in range(len(z), end + 1))

    def round_(tasks, b):
        """Evaluate (x, position) tasks in one round of block b, deriving the
        z needed before the next round meanwhile; predictions by position.
        No tasks, no round; no live task, no charge and no call."""
        if not tasks:
            return {}
        live = [(xx, i) for xx, i in tasks if op.predicts(i)]
        t0 = clock.elapsed_ms
        vals = []
        if live:
            clock.charge(op.eval_ms)
            vals = evaluate(op.denoiser, op.levels, np.array([xx for xx, _ in live]),
                            np.array([op.level(i) for _, i in live]))
        derive_through(b + 1)
        clock.wait()
        reports.append(RoundReport(op.labels[blocks[b][0]], len(live), clock.elapsed_ms - t0))
        traj.eval_count += len(live)
        return {i: v for (_, i), v in zip(live, vals)}

    v = None  # the eps cached for the next block's start
    for b, (p, k, end) in enumerate(blocks):
        if v is None:
            v = round_([(x, p)], b)[p]
        # draft j takes the noise of the state p+j it stands for; j = 1 IS x_{p+1} (even at k = 0)
        drafts = [op.skip(p, j, x, v, z[p + j]) for j in range(1, max(k, 1) + 1)]
        eps = round_([(xx, p + j) for j, xx in enumerate(drafts[:k], 1)], b)
        x = drafts[0]
        traj.states.append((op.labels[p + 1], x))
        for q in range(p + 1, end):
            x = op.skip(q, 1, x, eps[q], z[q + 1])
            traj.states.append((op.labels[q + 1], x))
        v = eps.get(end)

    if traj.states[-1][0] != 0:
        raise PlanMismatch(f"trajectory ends at t={traj.states[-1][0]}, expected 0")
    expected = plan.total_evals
    if mode is Mode.AGGRESSIVE and not op.predicts(op.steps):
        expected -= 1  # the final draft, at sigma = 0, is never dispatched
    if traj.eval_count != expected:
        raise PlanMismatch(f"{traj.eval_count} evals, plan expected {expected}")
    traj.wall_ms = clock.elapsed_ms - start
    return traj, reports
