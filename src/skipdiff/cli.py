"""Command-line harness.

Commands: sample, bench, verify, compare, dump-schedule, probe.

Exit codes: 0 success; 2 configuration, input parse or unwritable output
path error; 3 verification failure; 4 runtime/pipeline error (including a
non-finite sampler state or prediction, or a state too large to allocate);
5 unknown verification suite. A failed command removes the regular files it
wrote, never a symlink, device or pipe.

`sample` runs each parallel round as one stacked evaluation on one thread.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

from .config import RunConfig, check_output_path, load_config_file
from .denoiser import Latency, VirtualClock, WallClock, evaluate
from .errors import ConfigError, NonFiniteState, ParseError, SkipDiffError, SuiteNotFound
from .metrics import SampleSet, mmd_gaussian, sliced_w2
from .parallel import Mode, run_parallel
from .rng import RngStream, Role, derive_noise
from .sequential import sample
from .verify import run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY_FAIL = 3
EXIT_RUNTIME = 4
EXIT_SUITE_NOT_FOUND = 5
_MIN_2BW2 = 1 / sys.float_info.max  # 2 * bandwidth**2 must exceed this for a finite reciprocal


def _run_once(cfg: RunConfig, seed: int, clock: VirtualClock | WallClock | None = None):
    """One sampling run, timed on `clock` (default: a new WallClock);
    returns (trajectory, round reports)."""
    stream = RngStream(seed=seed)
    op = cfg.op
    x = derive_noise(stream, op.top, Role.INIT, cfg.dim)
    if op.family == "euler":
        x = op.levels.sigmas[0] * x  # the variance-exploding start
    if cfg.mode == "sequential":
        return sample(op, x, stream, clock), []
    return run_parallel(op, x, cfg.devices, Mode(cfg.mode), stream, clock=clock)


def _write_outputs(*outputs) -> None:
    """Write each (path, content) in turn, to stdout for a None path: content
    is text or an iterable of CSV rows. On any failure, remove the files
    written so far that are regular ones (never a symlink, device or pipe),
    then re-raise."""
    written = []
    try:
        for path, content in outputs:
            with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
                written.append(path)
                if isinstance(content, str):
                    fh.write(content)
                else:
                    csv.writer(fh).writerows(content)
    except BaseException as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = path  # a failed write or close names no file; None is stdout
        for path in filter(None, written):
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
        raise


def cmd_sample(args) -> int:
    cfg = load_config_file(args.config)
    finals, all_reports = [], []
    totals = {"evals": 0, "rounds": 0, "wall_ms": 0.0}
    for i in range(cfg.samples):
        traj, reports = _run_once(cfg, cfg.seed + i)
        finals.append((cfg.seed + i, traj.final))
        all_reports.extend(reports)
        totals["evals"] += traj.eval_count
        totals["rounds"] += len(reports)
        totals["wall_ms"] += traj.wall_ms

    samples_csv = itertools.chain([["seed"] + [f"dim{j}" for j in range(cfg.dim)]], (
        [seed] + [repr(float(v)) for v in np.atleast_1d(x)] for seed, x in finals))
    report = {"config": cfg.raw, "totals": totals, "rounds": [vars(r) for r in all_reports]}
    outputs = ((cfg.out_samples, samples_csv), (cfg.out_report, json.dumps(report, indent=2)))
    _write_outputs(*((path, content) for path, content in outputs if path))
    print(json.dumps({"totals": totals, "samples": cfg.samples}, indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = load_config_file(args.config)
    # config puts Latency outermost; at eval_ms = 0 a speedup would read 0 / 0
    if not isinstance(cfg.op.denoiser, Latency) or cfg.op.denoiser.eval_ms == 0:
        raise ConfigError("bench requires a latency model with latency.eval_ms > 0")
    devices_list = _parse_list(args.devices, int, "--devices")
    if min(devices_list) < 1:
        raise ConfigError("--devices must be >= 1")

    def wall(mode, devices):
        """The simulated latency of one run, summed on a virtual clock."""
        run_cfg = dataclasses.replace(cfg, mode=mode, devices=devices)
        return _run_once(run_cfg, cfg.seed, VirtualClock())[0].wall_ms

    seq_ms = wall("sequential", 1)
    rows = [("sequential", 1, seq_ms, 1.0, seq_ms)]
    for mode in ("aggressive", "conservative"):
        for devices in devices_list:
            ms = wall(mode, devices)
            bound = seq_ms / devices if mode == "aggressive" else seq_ms * 2 / (devices + 1)
            rows.append((mode, devices, ms, seq_ms / ms, bound))

    _write_outputs((args.out, [["mode", "devices", "wall_ms", "speedup", "theory_bound"]] + [
        [mode, devices, f"{ms:.3f}", f"{speedup:.4f}", f"{bound:.3f}"]
        for mode, devices, ms, speedup, bound in rows]))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    summary = [{"property": name, "passed": passed, "detail": detail}
               for name, passed, detail in results]
    for entry in summary:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"{status} {entry['property']} {entry['detail']}".rstrip())
    if args.json:
        _write_outputs((args.json, json.dumps(summary, indent=2)))
    failed = sum(1 for e in summary if not e["passed"])
    print(f"{len(summary) - failed}/{len(summary)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def _read_samples_csv(path: str) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in rows if row]  # csv reads a blank line as []
    if not rows:
        raise ParseError(f"{path}: empty file")
    start_col = 0
    if rows[0][0].strip().lower() == "seed":
        start_col = 1
        rows = rows[1:]
    try:
        data = np.array([[float(v) for v in row[start_col:]] for row in rows])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if data.ndim != 2 or data.size == 0:
        raise ParseError(f"{path}: no sample rows")
    if len(data) < 2:  # the unbiased MMD needs two rows per set
        raise ParseError(f"{path}: needs at least 2 sample rows, got 1")
    if not np.isfinite(data).all():
        raise ParseError(f"{path}: non-finite sample value")
    return data


def _parse_list(text: str, kind, flag: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: expected a comma-separated list, got {text!r}") from None


def cmd_compare(args) -> int:
    if args.projections < 1:
        raise ConfigError(f"--projections: must be >= 1, got {args.projections}")
    if args.seed < 0:  # np.random.default_rng rejects a negative seed
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    bw = args.bandwidth  # mmd_gaussian's kernel scale is 1 / (2 * bandwidth**2)
    if bw is not None and not (bw > 0 and _MIN_2BW2 < 2 * bw * bw < math.inf):
        raise ConfigError(f"--bandwidth: need bw > 0 with 1 / (2 * bw**2) finite and > 0, got {bw}")
    a = SampleSet(_read_samples_csv(args.file_a), label=args.file_a)
    b = SampleSet(_read_samples_csv(args.file_b), label=args.file_b)
    if a.dim != b.dim:
        raise ParseError(f"{args.file_b}: {b.dim} columns, but {args.file_a} has {a.dim}")
    files = f"{args.file_a}, {args.file_b}"
    if bw is None:  # median pairwise distance heuristic on a subsample
        pooled = np.vstack([a.samples[:500], b.samples[:500]])
        d = np.sqrt(((pooled[:, None, :] - pooled[None, :, :]) ** 2).sum(-1))
        bw = float(np.median(d[np.triu_indices(len(pooled), 1)]))
        if not _MIN_2BW2 < 2 * bw * bw < math.inf:
            raise ConfigError(f"{files}: the pooled samples' median pairwise distance is "
                              f"{bw}, which gives no kernel scale: give --bandwidth")
    sw2, mmd = sliced_w2(a, b, args.projections, args.seed), mmd_gaussian(a, b, bw)
    if not (math.isfinite(sw2) and math.isfinite(mmd)):
        raise ParseError(f"{files}: values too large for finite distances "
                         f"(sliced_w2 {sw2}, mmd {mmd})")
    result = {
        "sliced_w2": sw2,
        "mmd": mmd,
        "n_a": len(a),
        "n_b": len(b),
        "params": {"projections": args.projections, "seed": args.seed, "bandwidth": bw},
    }
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_dump_schedule(args) -> int:
    cfg = load_config_file(args.config)
    lv = cfg.op.levels
    if cfg.op.family == "euler":
        rows = [["i", "sigma"]] + [[i, repr(float(v))] for i, v in enumerate(lv.sigmas)]
    else:
        rows = [["t", "alpha_bar", "beta"]] + [
            [t, repr(float(lv.alpha_bar[t])), repr(float(lv.betas[t]))] for t in range(lv.T + 1)]
    _write_outputs((args.out, rows))
    return EXIT_OK


def cmd_probe(args) -> int:
    cfg = load_config_file(args.config)
    x = np.array(_parse_list(args.x, float, "--x"))
    last = cfg.op.top - (cfg.op.family == "euler")  # the grid's sigma_N = 0 has no velocity
    if not 0 <= args.t <= last:
        raise ConfigError(f"--t {args.t} outside 0..{last}")
    if len(x) != cfg.dim or not np.isfinite(x).all():
        raise ConfigError(f"--x must hold {cfg.dim} finite numbers, got {args.x!r}")
    eps = evaluate(cfg.op.denoiser, cfg.op.levels, x, args.t)
    if not np.isfinite(eps).all():
        raise NonFiniteState(f"the prediction at --t {args.t} is non-finite: {eps}")
    print(" ".join(repr(float(v)) for v in np.atleast_1d(eps)))
    return EXIT_OK


@functools.cache  # parsing is stateless; building costs ~1 ms per request
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="skipdiff", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="run the configured sampler and write samples")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_sample)

    bp = sub.add_parser("bench", help="simulated-latency sweep over modes and device counts")
    bp.add_argument("--config", required=True)
    bp.add_argument("--devices", default="2,3,4", help="comma list of device counts")
    bp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    bp.set_defaults(fn=cmd_bench)

    vp = sub.add_parser("verify", help="run a property suite")
    vp.add_argument("suite", help="suite name or 'all'")
    vp.add_argument("--json", default=None, help="write JSON summary here")
    vp.set_defaults(fn=cmd_verify)

    cp = sub.add_parser("compare", help="distribution distances between two sample CSVs")
    cp.add_argument("file_a")
    cp.add_argument("file_b")
    cp.add_argument("--projections", type=int, default=64)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--bandwidth", type=float, default=None)
    cp.set_defaults(fn=cmd_compare)

    dp = sub.add_parser("dump-schedule", help="emit the noise levels the sampler runs on as CSV")
    dp.add_argument("--config", required=True)
    dp.add_argument("--out", default=None)
    dp.set_defaults(fn=cmd_dump_schedule)

    pp = sub.add_parser("probe", help="evaluate the denoiser at (x, t)")
    pp.add_argument("--config", required=True)
    pp.add_argument("--x", required=True, help="comma-separated state vector")
    pp.add_argument("--t", type=int, required=True)
    pp.set_defaults(fn=cmd_probe)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("out", "json"):
            if (path := getattr(args, flag, None)) is not None:  # None is stdout, or no file
                check_output_path(f"--{flag}", path)
        with np.errstate(all="ignore"):  # outputs are checked: Operator.skip, probe, compare
            return args.fn(args)
    except SuiteNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUITE_NOT_FOUND
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # inputs are read under ConfigError/ParseError: this is an output path
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except (SkipDiffError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
