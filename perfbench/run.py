"""skipdiff benchmark: one closed-loop caller issuing `skipdiff sample
--config` requests in-process, timed from outside, every output checked.

    python3 perfbench/run.py --workload sde-8d-sleep --seed 1 --seconds 45 --trace 0

Run from anywhere; the program is imported from `src/` of the checkout that
holds this file. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
half the time untraced and half traced, then prints the per-layer metrics and
writes the span file under `.perfbench_out/`. Human-readable lines come first;
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7  # spread over the timed loop, so they sample the same machine load
QUALITY_CYCLES = 16  # the first cycles' chains form the fixed quality set


def _percentile_tail(values):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value, with that percentile and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class NoResults(Exception):
    """A request kind never succeeded, so no timing can be reported."""


class Harness:
    """Issues checked requests for one workload and keeps their outcomes."""

    def __init__(self, wl, outdir, cli, check):
        self.wl, self.outdir, self.cli, self.check = wl, outdir, cli, check
        self.tracer = None
        self.attempted = 0
        self.failures = []

    def request(self, cfg, seed, samples, scored=True):
        """Run one request; return (wall s, finals, totals, csv bytes), or
        None if it failed. An unscored request is neither counted nor
        held to the latency law."""
        paths = [str(self.outdir / f"{cfg.name}.{ext}") for ext in ("cfg", "csv", "json")]
        for p in paths[1:]:
            if os.path.exists(p):
                os.remove(p)
        with open(paths[0], "w") as fh:
            fh.write(cfg.text(seed, samples, paths[1], paths[2]))
        argv = ["sample", "--config", paths[0]]
        out, err = io.StringIO(), io.StringIO()
        if scored:
            self.attempted += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:
                    self.tracer.request = (cfg.name, seed)
                    rc = self.tracer.span("cli.request", self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed request
                rc = repr(exc)
            wall = time.perf_counter() - t0
        if rc != 0:
            finals, problems, totals = None, [f"exit {rc} {err.getvalue().strip()[-200:]}"], None
        else:
            finals, problems, totals = self.check(cfg, seed, samples, paths[1], paths[2])
        if scored and self.wl.eval_ms and totals and cfg.mode != "sequential":
            law_ms = totals["rounds"] * self.wl.eval_ms
            if wall * 1e3 < law_ms:
                problems.append(f"wall {wall * 1e3:.1f} ms < rounds x eval_ms = {law_ms} ms")
        if problems:
            if scored:
                self.failures.append(f"{cfg.name} seed {seed}: {'; '.join(problems)}")
            return None
        with open(paths[1], "rb") as fh:
            data = fh.read()
        return wall, finals, totals, data


def timed_loop(h, seconds, between_cycles=None):
    """Round-robin over the workload's request kinds, whole cycles only,
    until `seconds` have passed and the quality set is complete.
    `between_cycles(elapsed_s)` runs before each cycle, outside any request."""
    wl = h.wl
    walls = {c.name: [] for c in wl.configs}
    unreported = {c.name: [] for c in wl.configs}
    finals = {c.name: [] for c in wl.configs}
    chains, cycle = 0, 0
    start = time.perf_counter()
    while cycle < QUALITY_CYCLES or time.perf_counter() - start < seconds:
        if between_cycles is not None:
            between_cycles(time.perf_counter() - start)
        for cfg in wl.configs:
            seed = cfg.base_seed + cycle * wl.samples
            res = h.request(cfg, seed, wl.samples)
            if res is None:
                continue
            wall, fin, totals, _ = res
            walls[cfg.name].append(wall)
            unreported[cfg.name].append((wall * 1e3 - totals["wall_ms"]) / wl.samples)
            if cycle < QUALITY_CYCLES:
                finals[cfg.name].append(fin)
            chains += wl.samples
        cycle += 1
    if not all(walls.values()):
        raise NoResults([k for k, v in walls.items() if not v])
    return {"walls": walls, "unreported": unreported, "finals": finals,
            "chains": chains, "cycles": cycle}


def warm_and_equivalence(h):
    """One untimed request per kind (lazy set-up, caches), then the bit-exact
    oracle: with the state-independent denoiser the parallel CSVs must equal
    the sequential DDIM CSV byte for byte."""
    for cfg in h.wl.configs:
        h.request(cfg, cfg.base_seed + 10**6, 1)
    outs = {c.mode: h.request(c, c.base_seed, h.wl.samples) for c in h.wl.equivalence}
    for mode in ("aggressive", "conservative"):
        h.attempted += 1
        if outs["sequential"] is None or outs[mode] is None:
            h.failures.append(f"equivalence {mode}: request failed")
        elif outs[mode][3] != outs["sequential"][3]:
            h.failures.append(f"equivalence {mode}: CSV differs from sequential DDIM")


def quality(h, loop, seed):
    """sliced W2^2 of each mixture config's fixed quality set against as many
    direct mixture draws. Sampling noise dominates it at these sizes, so it is
    reported but not scored."""
    import numpy as np
    from skipdiff.denoiser import GaussianMixture
    from skipdiff.metrics import SampleSet, sliced_w2
    out = {}
    for cfg in h.wl.configs:
        h.attempted += 1
        parts = loop["finals"][cfg.name]
        if not parts:
            h.failures.append(f"quality {cfg.name}: no samples")
            continue
        x = np.vstack(parts)
        w, m, v = cfg.mixture
        ref = GaussianMixture(weights=w, means=m, variances=v).sample(
            len(x), np.random.default_rng([seed, cfg.base_seed]))
        value = sliced_w2(SampleSet(x), SampleSet(ref))
        if not np.isfinite(value):
            h.failures.append(f"quality {cfg.name}: sliced W2 not finite")
            continue
        out[cfg.name] = value
    return out


def euler_probe(h, cfg, eval_ms):
    """Known defect, recorded but not scored: parallel Euler ignores the
    latency model. Returns measured wall over rounds x eval_ms."""
    res = h.request(cfg, 0, 1, scored=False)
    if res is None:
        return float("nan")
    return res[0] * 1e3 / (res[2]["rounds"] * eval_ms)


def throughput(loop, wl):
    """Chains per second of request wall time: chains per cycle over the sum
    of per-kind median request times, so one preempted request cannot move
    it."""
    return wl.samples * len(wl.configs) / sum(
        statistics.median(v) for v in loop["walls"].values())


def end_to_end(h, loop, setup):
    wl = h.wl
    all_walls = [w for ws in loop["walls"].values() for w in ws]
    tail, pct, n = _percentile_tail(all_walls)

    def med(name):
        return statistics.median(loop["walls"][name])

    fam = wl.configs[0].family
    seq = med(f"{fam}-sequential")
    # The median over request kinds of each kind's median. The median of the
    # pooled requests falls where one kind's tail meets another kind's body,
    # so a few slow requests of a faster kind move it far.
    p50 = statistics.median(med(c.name) for c in wl.configs)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "samples_per_s": (throughput(loop, wl), "1/s"),
        "request_ms_p50": (1e3 * p50, "ms"),
        "request_ms_tail": (1e3 * tail, "ms"),
        "speedup_aggressive": (seq / med(f"{fam}-aggressive"), "ratio"),
        "speedup_conservative": (seq / med(f"{fam}-conservative"), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, (pct, n)


def underreport_ms(loop, wl):
    """How much totals.wall_ms under-reports a parallel chain's outside wall
    time, net of the CLI overhead a sequential chain also shows."""
    fam = wl.configs[0].family
    seq = statistics.median(loop["unreported"][f"{fam}-sequential"])
    par = [u for m in ("aggressive", "conservative") for u in loop["unreported"][f"{fam}-{m}"]]
    return statistics.median(par) - seq


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "skipdiff" / "cli.py").is_file():
        print(f"error: no skipdiff sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skipdiff
    if Path(skipdiff.__file__).resolve().parent != (SRC / "skipdiff").resolve():
        print(f"error: imported skipdiff from {skipdiff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from skipdiff import cli, config, parallel, rng, sequential
    import micro
    import tracing
    import workloads
    from layers import PER_LAYER

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    machine = micro.machine_info()
    os.environ.pop("SKIPDIFF_MAX_WORKERS", None)  # one worker thread per device

    base = ROOT / ".perfbench_out"
    outdir = base / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
        print(f"workload {wl.name} seed {args.seed}: {wl.why}")
        print(f"  closed loop, 1 caller, {len(wl.configs)} request kinds round-robin, "
              f"{wl.samples} chain(s) per request, T=50, k=4")
        h = Harness(wl, outdir, cli, workloads.check_outputs)
        warm_and_equivalence(h)
        probe = euler_probe(h, workloads.euler_probe_config(wl.mixture),
                            workloads.PROBE_EVAL_MS)
        print(f"probe euler-aggressive with latency.eval_ms={workloads.PROBE_EVAL_MS:g}: "
              f"wall / (rounds x eval_ms) = "
              f"{probe:.3f}; latency honoured: {probe >= 1.0} (known defect while False)")

        if args.trace == 0:
            setup_cfg = outdir / "setup.cfg"
            setup_cfg.write_text(wl.configs[0].text(0, 1, "unused.csv", "unused.json"))
            setup = []

            def measure_setup(elapsed):
                if len(setup) < SETUP_REPS and elapsed >= len(setup) * args.seconds / SETUP_REPS:
                    setup.append(micro.setup_seconds(str(ROOT), str(setup_cfg)))

            loop = timed_loop(h, args.seconds, measure_setup)
            while len(setup) < SETUP_REPS:
                setup.append(micro.setup_seconds(str(ROOT), str(setup_cfg)))
            metrics, (pct, n) = end_to_end(h, loop, setup)
            q = quality(h, loop, args.seed)
            for name, (value, unit) in metrics.items():
                note = ""
                if name == "request_ms_tail":
                    note = f"  (p{pct:.2f} of {n} requests)"
                elif name == "request_ms_p50":
                    note = (f"  (median of {len(wl.configs)} per-kind medians; {n} requests, "
                            f"{loop['cycles']} cycles)")
                elif name == "speedup_aggressive":
                    note = f"  (round law: ideal k = 4, T/rounds = {50 / 14:.3f})"
                elif name == "speedup_conservative":
                    note = f"  (round law: ideal (k+1)/2 = 2.5, T/rounds = {50 / 20:.3f})"
                print(f"end_to_end {name} = {value:.6g} {unit}{note}")
            print("info median request ms by kind: " + " ".join(
                f"{k}={1e3 * statistics.median(v):.3f}" for k, v in loop["walls"].items()))
            qmean = statistics.fmean(q.values()) if q else float("nan")
            print(f"end_to_end quality_sw2 = {qmean:.6g} W2^2  (mean over configs, "
                  f"{QUALITY_CYCLES * wl.samples} chains each; not scored: seed noise "
                  "dominates) " + " ".join(f"{k}={v:.4g}" for k, v in q.items()))
            print(f"end_to_end failed_share = {len(h.failures) / h.attempted:.6g} ratio  "
                  f"({len(h.failures)} of {h.attempted}; carried as failed/attempted)")
            print(f"info totals.wall_ms under-reports a parallel chain by "
                  f"{underreport_ms(loop, wl):.3f} ms (outside wall, net of CLI overhead)")
            result = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        else:
            half = args.seconds / 2.0
            plain = timed_loop(h, half)
            tracer = tracing.Tracer()
            tracer.install({"cli": cli, "config": config, "parallel": parallel, "rng": rng,
                            "sequential": sequential})
            h.tracer = tracer
            try:
                traced = timed_loop(h, half)
            finally:
                tracer.uninstall()
                h.tracer = None
            quality(h, plain, args.seed)
            micro_us = micro.run_micro()
            shape = "d8c5" if wl.configs[0].dim == 8 else "d1c2"
            layer = tracing.analyse(tracer.spans, traced["chains"], wl.eval_ms,
                                    micro_us[f"denoiser.eps_oracle_us.{shape}.b1"])
            layer.update(micro_us)
            layer["denoiser.import_ms"] = micro.import_ms(str(ROOT))
            sps_plain, sps_traced = throughput(plain, wl), throughput(traced, wl)
            layer["trace.overhead_share"] = 1.0 - sps_traced / sps_plain
            layer["parallel.wall_underreport_ms"] = underreport_ms(plain, wl)
            layer["probe.euler_latency_wall_share"] = probe
            span_path = base / f"spans-{wl.name}-seed{args.seed}.json"
            tracer.write(span_path)
            print(f"trace {len(tracer.spans)} spans -> {span_path.relative_to(ROOT)}; "
                  f"not traced: {', '.join(tracer.not_traced)}")
            print(f"trace samples_per_s untraced {sps_plain:.4g} traced {sps_traced:.4g}")
            result = {}
            for name, unit, _, moves, where in PER_LAYER:
                result[name] = {"value": layer[name], "unit": unit}
                print(f"per_layer {name} = {layer[name]:.6g} {unit}  (moves {moves} on {where})")
    except NoResults as exc:
        print(f"error: no successful request of kinds {exc.args[0]}; no metrics",
              file=sys.stderr)
        for f in h.failures[:20]:
            print(f"FAILED {f}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for f in h.failures:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not h.failures, "attempted": h.attempted,
                      "failed": len(h.failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
