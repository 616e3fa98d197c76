"""Span tracing from outside the program.

`Tracer.install` replaces public functions with timing wrappers *as the
calling modules imported them* (for example `skipdiff.parallel.evaluate`, not
`skipdiff.denoiser.evaluate`), so only calls that cross a layer boundary are
recorded. Nothing under `src/` is edited. A name that a module no longer has
is reported as not traced and the run continues.

A span is (id, name, start, end, parent id, request id). Spans opened on a
pool thread with nothing open on that thread take as parent the span open on
the scheduler thread at that moment, which is the round that dispatched
them. Spans are kept in memory and written out when the run ends.
"""

import itertools
import json
import statistics
import threading
import time

# (module, attribute) -> span name. Euler rounds run through the private
# `parallel._execute_tasks`; it is deliberately not hooked.
HOOKS = [
    ("cli", "load_config_file", "config.load"),
    ("cli", "derive_noise", "rng.derive_noise"),
    ("cli", "sample_ddim", "sequential.chain"),
    ("cli", "sample_ddpm", "sequential.chain"),
    ("cli", "sample_euler", "sequential.chain"),
    ("cli", "run_aggressive", "parallel.chain"),
    ("cli", "run_conservative", "parallel.chain"),
    ("cli", "run_parallel_euler", "parallel.chain"),
    ("config", "build_linear_beta", "schedule.build"),
    ("config", "build_cosine", "schedule.build"),
    ("config", "build_sigma_grid", "schedule.build"),
    ("rng", "derive_noise", "rng.derive_noise"),
    ("parallel", "execute_round", "parallel.round"),
    ("parallel", "derive_noise", "rng.derive_noise"),
]
for _mod in ("sequential", "parallel"):
    HOOKS += [
        (_mod, "evaluate", "denoiser.evaluate"),
        (_mod, "velocity_oracle", "denoiser.velocity_oracle"),
        (_mod, "ddim_skip", "transitions.ddim_skip"),
        (_mod, "ddpm_skip_sample", "transitions.ddpm_skip_sample"),
        (_mod, "euler_skip", "transitions.euler_skip"),
    ]
EVAL_NAMES = ("denoiser.evaluate", "denoiser.velocity_oracle")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, request]
        self.request = None
        self.not_traced = ["parallel._execute_tasks (Euler rounds)"]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._patched = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # pool thread: attribute to the scheduler thread's open span
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.request))

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules: dict):
        for mod_name, attr, name in HOOKS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                self.not_traced.append(f"{mod_name}.{attr}")
                continue
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "request"],
                       "not_traced": self.not_traced, "spans": self.spans}, fh)


def _union(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def analyse(spans, chains: int, eval_ms: float, oracle_us: float) -> dict:
    """Per-layer metrics from recorded spans. `chains` is the number of
    chains the traced requests ran; `oracle_us` the isolated oracle cost at the
    workload's shape, subtracted to get the latency wrapper's overshoot."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def dur(s):
        return s[3] - s[2]

    def self_time(s, only=None):
        kids = [(c[2], c[3]) for c in children.get(s[0], ())
                if only is None or c[1] in only]
        return dur(s) - _union(kids, s[2], s[3])

    def descendants(s):
        out, todo = [], list(children.get(s[0], ()))
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(children.get(c[0], ()))
        return out

    named = {}
    for s in spans:
        named.setdefault(s[1], []).append(s)
    requests = named.get("cli.request", [])
    seq_chains = named.get("sequential.chain", [])
    par_chains = named.get("parallel.chain", [])
    # parallel chains whose rounds are hooked (DDIM/DDPM; Euler rounds are not)
    round_chains = [c for c in par_chains
                    if any(k[1] == "parallel.round" for k in children.get(c[0], ()))]
    rounds = named.get("parallel.round", [])
    evals = [s for n in EVAL_NAMES for s in named.get(n, [])]
    rng_spans = named.get("rng.derive_noise", [])
    trans = [s for n in ("transitions.ddim_skip", "transitions.ddpm_skip_sample",
                         "transitions.euler_skip") for s in named.get(n, [])]

    dispatch, skew = [], []
    for r in rounds:
        ev = [c for c in children.get(r[0], ()) if c[1] in EVAL_NAMES]
        if ev:
            dispatch.append(dur(r) - max(dur(c) for c in ev))
        if len(ev) >= 2:
            skew.append(max(c[3] for c in ev) - min(c[3] for c in ev))
    build_per_request = {}  # the linear schedule and the sigma grid, per config load
    for s in named.get("schedule.build", []):
        build_per_request[s[5]] = build_per_request.get(s[5], 0.0) + dur(s)
    per_chain = max(chains, 1)
    return {
        "cli.request_self_ms": 1e3 * _median(
            [self_time(r, ("sequential.chain", "parallel.chain")) for r in requests]),
        "config.load_us": 1e6 * _median([dur(s) for s in named.get("config.load", [])]),
        "schedule.build_us": 1e6 * _median(list(build_per_request.values())),
        "sequential.chain_self_ms": 1e3 * _median([self_time(c) for c in seq_chains]),
        "parallel.chain_self_ms": 1e3 * _median([self_time(c) for c in round_chains]),
        "parallel.round_ms_p50": 1e3 * _median([dur(r) for r in rounds]),
        "parallel.round_dispatch_ms": 1e3 * _median(dispatch),
        "parallel.worker_skew_ms": 1e3 * _median(skew),
        "parallel.rounds_per_chain": _mean(
            [sum(k[1] == "parallel.round" for k in children.get(c[0], ()))
             for c in round_chains]),
        "parallel.evals_per_chain": _mean(
            [sum(d[1] in EVAL_NAMES for d in descendants(c)) for c in round_chains]),
        "denoiser.evals_per_chain": len(evals) / per_chain,
        "denoiser.self_ms_per_chain": 1e3 * sum(self_time(s) for s in evals) / per_chain,
        "denoiser.sleep_overshoot_us": _median(
            [1e6 * dur(s) - 1e3 * eval_ms - oracle_us
             for s in named.get("denoiser.evaluate", [])]),
        "rng.calls_per_chain": len(rng_spans) / per_chain,
        "rng.self_ms_per_chain": 1e3 * sum(dur(s) for s in rng_spans) / per_chain,
        "transitions.calls_per_chain": len(trans) / per_chain,
        "transitions.self_ms_per_chain": 1e3 * sum(dur(s) for s in trans) / per_chain,
    }
