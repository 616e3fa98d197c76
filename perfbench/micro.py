"""Isolated per-layer microbenchmarks, fresh-interpreter set-up timing and
machine information.

Microbenchmarks time one public function at a fixed shape, in a loop, with
no tracing: the median over several batches of the per-call time in
microseconds. Shapes follow the ROADMAP: (dim, components) in {(1,2), (8,5)}
and batch in {1, 1000}; `execute_round` at k = 1..4 with a zero-latency
analytic denoiser and a persistent pool, as the schedulers use it.
"""

import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from skipdiff import denoiser, parallel, rng, schedule, transitions


def _per_call_us(fn, target_s=0.04, batches=5):
    fn()  # warm
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 0.005:
        fn()
        n += 1
    calls = max(1, int(n * target_s / 0.005))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times)


def _mixture(dim, comps):
    r = np.random.default_rng(dim * 100 + comps)
    return denoiser.GaussianMixture(weights=np.full(comps, 1.0 / comps),
                                    means=r.normal(0.0, 2.0, (comps, dim)),
                                    variances=r.uniform(0.5, 1.5, comps))


def run_micro() -> dict:
    """Per-call microseconds for each isolated per-layer metric."""
    s = schedule.build_linear_beta(50, 0.002, 0.4)
    g = schedule.build_sigma_grid(50, 0.02, 10.0, 3.0)
    r = np.random.default_rng(0)
    out = {}
    for dim, comps in ((1, 2), (8, 5)):
        gm = _mixture(dim, comps)
        for batch in (1, 1000):
            x = r.standard_normal((batch, dim)) if batch > 1 else r.standard_normal(dim)
            out[f"denoiser.eps_oracle_us.d{dim}c{comps}.b{batch}"] = _per_call_us(
                lambda: denoiser.eps_oracle(gm, s, x, 25))
    gm1 = _mixture(1, 2)
    x1 = np.array([0.3])
    out["denoiser.velocity_oracle_us.d1c2.b1"] = _per_call_us(
        lambda: denoiser.velocity_oracle(gm1, x1, 1.5))
    stream = rng.RngStream(seed=7)
    out["rng.derive_noise_us"] = _per_call_us(
        lambda: rng.derive_noise(stream, 25, rng.Role.TRANSITION, 1))
    eps, z = np.array([0.1]), np.array([0.2])
    det = transitions.VarianceRule.deterministic()
    out["transitions.ddim_skip_us"] = _per_call_us(
        lambda: transitions.ddim_skip(s, 25, 1, x1, eps, det))
    out["transitions.ddpm_skip_sample_us"] = _per_call_us(
        lambda: transitions.ddpm_skip_sample(s, 25, 1, x1, x1, z))
    out["transitions.euler_skip_us"] = _per_call_us(
        lambda: transitions.euler_skip(g, 10, 1, x1, eps))
    den = denoiser.AnalyticEps(gm1)
    execute_round = getattr(parallel, "execute_round", None)
    for k in range(1, 5):
        key = f"parallel.execute_round_us.k{k}"
        if execute_round is None:
            out[key] = 0.0
            continue
        tasks = [(np.array([0.1 * i]), 30 - i) for i in range(k)]
        with ThreadPoolExecutor(max_workers=k) as pool:
            out[key] = _per_call_us(
                lambda: execute_round(den, s, tasks, k, anchor_t=30, pool=pool))
    return out


def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("SKIPDIFF_MAX_WORKERS", None)
    return env


def setup_seconds(root, config_path) -> float:
    """Wall time of a fresh interpreter that imports skipdiff.cli and loads
    the workload config, timed from outside."""
    code = ("import sys\nfrom skipdiff.cli import load_config_file\n"
            "load_config_file(sys.argv[1])\n")
    t0 = time.perf_counter()
    # Captured output makes run() wait on the pipes; without it, wait() with a
    # timeout polls the child every 50 ms and quantizes the time to 50 ms.
    subprocess.run([sys.executable, "-c", code, config_path], cwd=root,
                   env=_child_env(root), check=True, timeout=60, capture_output=True)
    return time.perf_counter() - t0


def import_ms(root, module="skipdiff.denoiser", reps=3) -> float:
    """Median cumulative import time of `module`, from `-X importtime`."""
    values = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import skipdiff.cli"],
                              cwd=root, env=_child_env(root), capture_output=True,
                              text=True, check=True, timeout=60)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                values.append(int(parts[1]) / 1000.0)
    return statistics.median(values) if values else 0.0


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
