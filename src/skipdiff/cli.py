"""Command-line harness.

Commands: sample, bench, verify, compare, dump-schedule, probe.

Exit codes: 0 success; 2 configuration, input parse or unwritable output
path error; 3 verification failure; 4 runtime/pipeline error (including a
non-finite sampler state or one too large to allocate); 5 unknown
verification suite.

`sample` runs each parallel round as one stacked evaluation on one thread.
"""

import argparse
import csv
import functools
import json
import math
import os
import statistics
import sys

import numpy as np

from .config import RunConfig, load_config_file
from .denoiser import evaluate
from .errors import ConfigError, ParseError, SkipDiffError, SuiteNotFound
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


def _run_once(cfg: RunConfig, seed: int):
    """One sampling run; returns (trajectory, round reports)."""
    stream = RngStream(seed=seed)
    op = cfg.op
    x = derive_noise(stream, op.top, Role.INIT, cfg.dim)
    if op.family == "euler":
        x = op.levels.sigmas[0] * x  # the variance-exploding start
    if cfg.mode == "sequential":
        return sample(op, x, stream), []
    return run_parallel(op, x, cfg.devices, Mode(cfg.mode), stream,
                        recompute_anchor_eps=cfg.recompute_anchor_eps)


def cmd_sample(args) -> int:
    cfg = load_config_file(args.config)
    written = []
    try:
        finals, all_reports = [], []
        totals = {"evals": 0, "rounds": 0, "wall_ms": 0.0}
        for i in range(cfg.samples):
            traj, reports = _run_once(cfg, cfg.seed + i)
            finals.append((cfg.seed + i, traj.final))
            all_reports.extend(reports)
            totals["evals"] += traj.eval_count
            totals["rounds"] += len(reports)
            totals["wall_ms"] += traj.wall_ms

        if cfg.out_samples:
            with open(cfg.out_samples, "w", newline="") as fh:
                written.append(cfg.out_samples)
                w = csv.writer(fh)
                w.writerow(["seed"] + [f"dim{j}" for j in range(cfg.dim)])
                for seed, x in finals:
                    w.writerow([seed] + [repr(float(v)) for v in np.atleast_1d(x)])
        if cfg.out_rounds:
            with open(cfg.out_rounds, "w", newline="") as fh:
                written.append(cfg.out_rounds)
                w = csv.writer(fh)
                w.writerow(["round", "anchor_t", "parallel_evals", "round_wall_ms"])
                for n, r in enumerate(all_reports):
                    w.writerow([n, r.anchor_t, r.parallel_evals, f"{r.round_wall_ms:.3f}"])
        report = {
            "config": cfg.raw,
            "totals": totals,
            "rounds": [
                {"anchor_t": r.anchor_t, "parallel_evals": r.parallel_evals,
                 "round_wall_ms": r.round_wall_ms}
                for r in all_reports
            ],
            "artifacts": {"samples": cfg.out_samples, "rounds": cfg.out_rounds},
        }
        if cfg.out_report:
            with open(cfg.out_report, "w") as fh:
                written.append(cfg.out_report)
                json.dump(report, fh, indent=2)
        print(json.dumps({"totals": totals, "samples": cfg.samples}, indent=2))
        return EXIT_OK
    except Exception:
        for path in written:  # no partial outputs on failure
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def cmd_bench(args) -> int:
    cfg = load_config_file(args.config)
    if cfg.latency is None:
        raise ConfigError("bench requires a latency model (latency.eval_ms)")
    devices_list = _parse_list(args.devices, int, "--devices")
    if min(devices_list) < 1 or args.repeats < 1:
        raise ConfigError("--devices and --repeats must be >= 1")
    modes = args.modes.split(",")
    for m in modes:
        if m not in ("aggressive", "conservative"):
            raise ConfigError(f"unknown bench mode {m!r}")

    def median_wall(mode, devices):
        import dataclasses
        run_cfg = dataclasses.replace(cfg, mode=mode, devices=devices)
        _run_once(run_cfg, cfg.seed)  # warm-up
        walls = [_run_once(run_cfg, cfg.seed)[0].wall_ms for _ in range(args.repeats)]
        return statistics.median(walls)

    seq_ms = median_wall("sequential", 1)
    rows = [("sequential", 1, seq_ms, 1.0, seq_ms)]
    for mode in modes:
        for devices in devices_list:
            ms = median_wall(mode, devices)
            bound = seq_ms / devices if mode == "aggressive" else seq_ms * 2 / (devices + 1)
            rows.append((mode, devices, ms, seq_ms / ms, bound))

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["mode", "devices", "median_ms", "speedup", "theory_bound"])
        for mode, devices, ms, speedup, bound in rows:
            w.writerow([mode, devices, f"{ms:.3f}", f"{speedup:.4f}", f"{bound:.3f}"])
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    summary = [{"property": name, "passed": passed, "detail": detail}
               for name, passed, detail in results]
    for entry in summary:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"{status} {entry['property']} {entry['detail']}".rstrip())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
    failed = sum(1 for e in summary if not e["passed"])
    print(f"{len(summary) - failed}/{len(summary)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def _read_samples_csv(path: str) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file")
    start_col = 0
    if rows[0] and rows[0][0].strip().lower() == "seed":
        start_col = 1
        rows = rows[1:]
    elif not _is_float(rows[0][0]):
        rows = rows[1:]  # some other header
    try:
        data = np.array([[float(v) for v in row[start_col:]] for row in rows])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if data.ndim != 2 or data.size == 0:
        raise ParseError(f"{path}: no sample rows")
    return data


def _parse_list(text: str, kind, flag: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: expected a comma-separated list, got {text!r}") from None


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def cmd_compare(args) -> int:
    if args.projections < 1:
        raise ConfigError(f"--projections: must be >= 1, got {args.projections}")
    if args.bandwidth is not None and not args.bandwidth > 0:
        raise ConfigError(f"--bandwidth: must be > 0, got {args.bandwidth}")
    a = SampleSet(_read_samples_csv(args.file_a), label=args.file_a)
    b = SampleSet(_read_samples_csv(args.file_b), label=args.file_b)
    if args.bandwidth is not None:
        bandwidth = args.bandwidth
    else:
        # median pairwise distance heuristic on a subsample
        pooled = np.vstack([a.samples[:500], b.samples[:500]])
        d = np.sqrt(np.maximum(
            ((pooled[:, None, :] - pooled[None, :, :]) ** 2).sum(-1), 1e-300))
        bandwidth = float(np.median(d[np.triu_indices(len(pooled), 1)]))
    result = {
        "sliced_w2": sliced_w2(a, b, projections=args.projections, seed=args.seed),
        "mmd": mmd_gaussian(a, b, bandwidth),
        "n_a": len(a),
        "n_b": len(b),
        "params": {"projections": args.projections, "seed": args.seed, "bandwidth": bandwidth},
    }
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_dump_schedule(args) -> int:
    cfg = load_config_file(args.config)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["t", "alpha_bar", "beta"])
        for t in range(cfg.schedule.T + 1):
            w.writerow([t, repr(float(cfg.schedule.alpha_bar[t])),
                        repr(float(cfg.schedule.betas[t]))])
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_probe(args) -> int:
    cfg = load_config_file(args.config)
    x = np.array(_parse_list(args.x, float, "--x"))
    if not 0 <= args.t <= cfg.schedule.T:
        raise ConfigError(f"--t {args.t} outside 0..{cfg.schedule.T}")
    if len(x) != cfg.dim or not np.isfinite(x).all():
        raise ConfigError(f"--x must hold {cfg.dim} finite numbers, got {args.x!r}")
    eps = evaluate(cfg.op.denoiser, cfg.schedule, x, args.t)
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

    bp = sub.add_parser("bench", help="latency sweep over modes and device counts")
    bp.add_argument("--config", required=True)
    bp.add_argument("--devices", default="2,3,4", help="comma list of device counts")
    bp.add_argument("--modes", default="aggressive,conservative")
    bp.add_argument("--repeats", type=int, default=5)
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

    dp = sub.add_parser("dump-schedule", help="emit the configured schedule as CSV")
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
        return args.fn(args)
    except SuiteNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUITE_NOT_FOUND
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # inputs are read under ConfigError/ParseError: this is an output path
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except (SkipDiffError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
