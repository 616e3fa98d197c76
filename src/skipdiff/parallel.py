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

Determinism: all noise comes from counter-based RngStream keys, drafts are
computed on the scheduler thread, and round results are gathered by task
index, so outputs are bit-identical across worker counts and completion
orders.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .denoiser import AnalyticEps, Denoiser, GaussianMixture, VirtualClock, evaluate, latency_of
from .errors import ConfigError, InvalidPlanParams, PlanMismatch, WorkerFailure
from .rng import RngStream, Role
from .schedule import NoiseSchedule, SigmaGrid
from .sequential import Operator, Trajectory, _now_ms
from .transitions import VarianceRule

WORKER_CAP_ENV = "SKIPDIFF_MAX_WORKERS"


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
    worker_spans: list = field(default_factory=list)  # (task index, start ms, end ms)


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


def _worker_cap(requested: int) -> int:
    cap = os.environ.get(WORKER_CAP_ENV)
    if not cap:
        return requested
    try:
        return max(1, min(requested, int(cap)))
    except ValueError:
        raise ConfigError(f"{WORKER_CAP_ENV}: expected integer, got {cap!r}") from None


def execute_round(
    d: Denoiser,
    s: NoiseSchedule | SigmaGrid,
    tasks: list,
    devices: int,
    *,
    anchor_t: int,
    pool: ThreadPoolExecutor | None = None,
    clock: VirtualClock | None = None,
    submit_order=None,
) -> tuple[list, RoundReport]:
    """Dispatch all (x, t) tasks concurrently; return noise predictions ordered
    by task index plus a RoundReport. Round wall time is the max over workers
    (plus dispatch overhead), not the sum."""
    if len(tasks) > devices:
        raise InvalidPlanParams(f"{len(tasks)} tasks exceed {devices} devices")
    model = latency_of(d)
    overhead_ms = model.dispatch_overhead_ms if model else 0.0

    if clock is not None:
        # virtual clock: serial execution, per-task sub-accumulators, round
        # time is their max
        results, spans = [], []
        for i, (x, t) in enumerate(tasks):
            sub = VirtualClock()
            results.append(evaluate(d, s, x, t, sub))
            spans.append((i, 0.0, sub.elapsed_ms))
        round_ms = max((ms for _, _, ms in spans), default=0.0) + overhead_ms
        clock.charge(round_ms)
        return results, RoundReport(anchor_t, len(tasks), round_ms, spans)

    t0 = time.monotonic()
    if overhead_ms > 0:
        time.sleep(overhead_ms / 1000.0)

    def work(i):
        x, t = tasks[i]
        start = time.monotonic()
        val = evaluate(d, s, x, t)
        return i, val, start, time.monotonic()
    order = list(submit_order) if submit_order is not None else range(len(tasks))
    owns_pool = pool is None
    if owns_pool:
        pool = ThreadPoolExecutor(max_workers=_worker_cap(devices))
    try:
        futures = [pool.submit(work, i) for i in order]
        results = [None] * len(tasks)
        spans = [None] * len(tasks)
        error = None
        for f in futures:
            try:
                i, val, start, end = f.result()
            except Exception as exc:  # drain the round before raising
                if error is None:
                    error = exc
                continue
            results[i] = val
            spans[i] = (i, (start - t0) * 1000.0, (end - t0) * 1000.0)
        if error is not None:
            raise WorkerFailure(str(error)) from error
    finally:
        if owns_pool:
            pool.shutdown(wait=True)
    round_ms = (time.monotonic() - t0) * 1000.0
    return results, RoundReport(anchor_t, len(tasks), round_ms, spans)


def run_parallel(
    op: Operator,
    x: np.ndarray,
    devices: int,
    mode: Mode,
    stream: RngStream | None,
    *,
    clock: VirtualClock | None = None,
    workers: int | None = None,
    submit_order_seed: int | None = None,
    recompute_anchor_eps: bool = False,
) -> tuple[Trajectory, list[RoundReport]]:
    """Draft-and-refine run of any operator in either mode. `workers` sizes
    the physical pool (defaults to `devices`; never changes outputs),
    `submit_order_seed` shuffles per-round submission order (for
    order-invariance testing), and `recompute_anchor_eps` (aggressive only)
    replaces each cached anchor prediction with a stand-alone evaluation at
    the refined state (ablation; adds one round and one eval per interior
    block). Tasks at levels with no prediction (Euler's sigma = 0 node) are
    dropped: nothing downstream consumes them."""
    start = _now_ms(clock)
    plan = plan_blocks(op.steps, devices, mode)
    aggressive = mode is Mode.AGGRESSIVE
    x = np.asarray(x, dtype=float)
    traj = Trajectory(states=[(op.labels[0], x)])
    reports: list[RoundReport] = []
    shuffle = (
        np.random.default_rng(submit_order_seed) if submit_order_seed is not None else None
    )
    pool = ThreadPoolExecutor(max_workers=_worker_cap(workers or devices))

    def round_(tasks, anchor):
        """Evaluate (x, position) tasks in one round; predictions by position."""
        live = [(xx, i) for xx, i in tasks if op.predicts(i)]
        order = shuffle.permutation(len(live)) if shuffle is not None else None
        vals, report = execute_round(
            op.denoiser, op.levels, [(xx, op.level(i)) for xx, i in live], devices,
            anchor_t=op.labels[anchor], pool=pool, clock=clock, submit_order=order,
        )
        reports.append(report)
        traj.eval_count += len(live)
        return {i: v for (_, i), v in zip(live, vals)}

    def advance(i, k, x, v, role=Role.TRANSITION):
        return op.skip(i, k, x, v, op.noise(stream, i + k, role, x.shape))

    try:
        if aggressive:
            v = round_([(x, 0)], 0)[0]
        for r, k in plan.blocks:
            i = op.steps - r
            if not aggressive or (recompute_anchor_eps and i > 0):
                v = round_([(x, i)], i)[i]
            if k == 0:  # degenerate final conservative block: one unit step, no round
                x = advance(i, 1, x, v)
                traj.states.append((op.labels[i + 1], x))
                continue
            # The j=1 draft IS the kept state at i+1, so it takes that
            # state's TRANSITION noise; deeper drafts are discarded after
            # their evaluation and take DRAFT keys.
            drafts = [advance(i, j, x, v, Role.TRANSITION if j == 1 else Role.DRAFT)
                      for j in range(1, k + 1)]
            vals = round_([(drafts[j - 1], i + j) for j in range(1, k + 1)], i)
            x = drafts[0]
            traj.states.append((op.labels[i + 1], x))
            for j in range(2, (k if aggressive else k + 1) + 1):
                x = advance(i + j - 1, 1, x, vals[i + j - 1])
                traj.states.append((op.labels[i + j], x))
            v = vals.get(i + k)  # aggressive: the cached draft prediction for the next anchor
    finally:
        pool.shutdown(wait=True)

    if traj.states[-1][0] != 0:
        raise PlanMismatch(f"trajectory ends at t={traj.states[-1][0]}, expected 0")
    expected = plan.total_evals
    if aggressive and recompute_anchor_eps:
        expected += len(plan.blocks) - 1  # one anchor re-evaluation per interior block
    if aggressive and not op.predicts(op.steps):
        expected -= 1  # the final draft, at sigma = 0, is never dispatched
    if traj.eval_count != expected:
        raise PlanMismatch(f"{traj.eval_count} evals, plan expected {expected}")
    traj.wall_ms = _now_ms(clock) - start
    return traj, reports


def run_aggressive(
    s: NoiseSchedule,
    d: Denoiser,
    x_T: np.ndarray,
    devices: int,
    rule: VarianceRule,
    stream: RngStream,
    *,
    clock: VirtualClock | None = None,
    workers: int | None = None,
    submit_order_seed: int | None = None,
    recompute_anchor_eps: bool = False,
    update_family: str = "ddim",
) -> tuple[Trajectory, list[RoundReport]]:
    """Aggressive draft-and-refine run on every timestep T..0 (see
    run_parallel). `update_family` selects the block update: "ddim"
    (default) or "ddpm" (posterior skips; always stochastic, `rule`
    ignored)."""
    return run_parallel(
        Operator(update_family, d, s, rule=rule), x_T, devices, Mode.AGGRESSIVE, stream,
        clock=clock, workers=workers, submit_order_seed=submit_order_seed,
        recompute_anchor_eps=recompute_anchor_eps,
    )


def run_conservative(
    s: NoiseSchedule,
    d: Denoiser,
    x_T: np.ndarray,
    devices: int,
    rule: VarianceRule,
    stream: RngStream,
    *,
    clock: VirtualClock | None = None,
    workers: int | None = None,
    submit_order_seed: int | None = None,
    update_family: str = "ddim",
) -> tuple[Trajectory, list[RoundReport]]:
    """Conservative run: stand-alone anchor evaluation, then one parallel
    round per block, pushing k+1 steps."""
    return run_parallel(
        Operator(update_family, d, s, rule=rule), x_T, devices, Mode.CONSERVATIVE, stream,
        clock=clock, workers=workers, submit_order_seed=submit_order_seed,
    )


def run_parallel_euler(
    g: SigmaGrid,
    gm: GaussianMixture,
    x_init: np.ndarray,
    devices: int,
    mode: Mode,
    *,
    workers: int | None = None,
) -> tuple[Trajectory, list[RoundReport]]:
    """Euler-family variant of the two schedulers on a sigma grid, using the
    analytic velocity oracle. Deterministic; trajectory timesteps count
    remaining grid intervals, as in sample_euler."""
    return run_parallel(Operator("euler", AnalyticEps(gm), g), x_init, devices, mode, None,
                        workers=workers)
