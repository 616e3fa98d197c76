"""Per-layer metrics of the traced run: unit, which way is better, the
end-to-end metric each should move, and the workload it should move it on.
Workloads in brackets are where no change is predicted.

`metrics`, `verify` and `errors` are not on the sampling path and have no
layer metric. The `*_us` entries marked "isolated" come from microbenchmarks,
not from spans.
"""

S, L = "sde-8d-sleep", "latency-sleep"
PER_LAYER = [
    # name, unit, better, should move, on workload
    ("denoiser.import_ms", "ms", "lower", "setup_s", "both (-X importtime)"),
    ("config.load_us", "us", "lower", "setup_s", "both"),
    ("schedule.build_us", "us", "lower", "setup_s", "both"),
    ("cli.request_self_ms", "ms", "lower", "samples_per_s, request_ms_p50", f"{S} [{L}]"),
    ("sequential.chain_self_ms", "ms", "lower", "samples_per_s, request_ms_tail", S),
    ("parallel.chain_self_ms", "ms", "lower", "speedup_*", f"{S}, {L}"),
    ("parallel.round_dispatch_ms", "ms", "lower", "speedup_*", f"{S}, {L}"),
    ("parallel.execute_round_us.k1", "us", "lower", "speedup_* (isolated)", S),
    ("parallel.execute_round_us.k2", "us", "lower", "speedup_* (isolated)", S),
    ("parallel.execute_round_us.k3", "us", "lower", "speedup_* (isolated)", S),
    ("parallel.execute_round_us.k4", "us", "lower", "speedup_* (isolated)", S),
    ("parallel.round_ms_p50", "ms", "lower", "speedup_*, request_ms_p50", L),
    ("parallel.worker_skew_ms", "ms", "lower", "speedup_*, request_ms_p50", L),
    ("parallel.rounds_per_chain", "count", "lower", "speedup_* (must equal plan_blocks)", L),
    ("parallel.evals_per_chain", "count", "lower", "speedup_* (must equal plan_blocks)", L),
    ("parallel.wall_underreport_ms", "ms", "lower",
     "none: outside wall minus totals.wall_ms, per parallel chain", L),
    ("denoiser.eps_oracle_us.d1c2.b1", "us", "lower", "samples_per_s (isolated)", f"[{L}]"),
    ("denoiser.eps_oracle_us.d1c2.b1000", "us", "lower",
     "none yet: batched chains (isolated)", "[both]"),
    ("denoiser.eps_oracle_us.d8c5.b1", "us", "lower", "samples_per_s (isolated)", f"{S} [{L}]"),
    ("denoiser.eps_oracle_us.d8c5.b1000", "us", "lower",
     "none yet: batched chains (isolated)", "[both]"),
    ("denoiser.velocity_oracle_us.d1c2.b1", "us", "lower",
     "none: Euler runs only in the probe (isolated)", "[both]"),
    ("denoiser.evals_per_chain", "count", "lower", "samples_per_s", S),
    ("denoiser.self_ms_per_chain", "ms", "lower", "samples_per_s", S),
    ("denoiser.sleep_overshoot_us", "us", "lower", "speedup_*, request_ms_p50", f"{L}, {S}"),
    ("rng.derive_noise_us", "us", "lower", "samples_per_s (isolated)", f"{S} [{L}]"),
    ("rng.calls_per_chain", "count", "lower", "samples_per_s", f"{S} [{L}]"),
    ("rng.self_ms_per_chain", "ms", "lower", "samples_per_s", f"{S} [{L}]"),
    ("transitions.ddim_skip_us", "us", "lower", "samples_per_s (isolated)", S),
    ("transitions.ddpm_skip_sample_us", "us", "lower", "samples_per_s (isolated)", S),
    ("transitions.euler_skip_us", "us", "lower",
     "none: Euler runs only in the probe (isolated)", "[both]"),
    ("transitions.calls_per_chain", "count", "lower", "samples_per_s", S),
    ("transitions.self_ms_per_chain", "ms", "lower", "samples_per_s", S),
    ("trace.overhead_share", "ratio", "lower", "none: traced vs untraced samples_per_s", "both"),
    ("probe.euler_latency_wall_share", "ratio", "higher",
     "none: known defect, >= 1 once parallel Euler honours latency", "both"),
]
