import tracemalloc

import numpy as np
import pytest

from skipdiff import AnalyticEps, NoiseSchedule, SigmaGrid, StateIndependent, VarianceRule
from skipdiff.config import load_config, load_config_file, parse_kv_text
from skipdiff.errors import ConfigError


class TestParseKvText:
    def test_basic(self):
        kv = parse_kv_text("schedule.T = 20\n# comment\n\nseed = 3\n")
        assert kv == {"schedule.T": "20", "seed": "3"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_kv_text("schedule.t = 20")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_text("seed = 1\nseed = 2")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_kv_text("seed 1")

    def test_value_may_contain_equals(self):
        # only the first '=' splits
        kv = parse_kv_text("output.report = out=dir.json")
        assert kv["output.report"] == "out=dir.json"


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config("")
        assert cfg.op.levels.T == 50
        assert isinstance(cfg.op.levels, NoiseSchedule)
        assert cfg.mode == "sequential"
        assert cfg.devices == 1
        assert cfg.op.rule == VarianceRule.deterministic()
        assert isinstance(cfg.op.denoiser, AnalyticEps)
        assert cfg.dim == 2  # default mean "0 0"

    def test_mixture_parsing(self):
        cfg = load_config(
            "mixture.weights = 0.25, 0.75\n"
            "mixture.means = -2 0; 2 0\n"
            "mixture.variances = 1, 0.5\n"
        )
        np.testing.assert_allclose(cfg.op.denoiser.gm.weights, [0.25, 0.75])
        np.testing.assert_allclose(cfg.op.denoiser.gm.means, [[-2, 0], [2, 0]])
        np.testing.assert_allclose(cfg.op.denoiser.gm.variances, [1, 0.5])
        assert cfg.dim == 2

    def test_state_independent_requires_dim(self):
        with pytest.raises(ConfigError, match="dim"):
            load_config("denoiser.kind = state-independent")
        cfg = load_config("denoiser.kind = state-independent\ndim = 3")
        assert isinstance(cfg.op.denoiser, StateIndependent)
        assert cfg.dim == 3

    def test_dim_consistency_check(self):
        with pytest.raises(ConfigError, match="disagrees"):
            load_config("mixture.means = 0 0\ndim = 3")

    def test_wrappers_compose(self):
        # the latency is the Operator's, charged where work is dispatched, not a denoiser wrapper
        cfg = load_config("latency.eval_ms = 5\n")
        assert isinstance(cfg.op.denoiser, AnalyticEps)
        assert cfg.op.eval_ms == 5.0
        assert load_config("").op.eval_ms == 0.0

    def test_rules(self):
        assert load_config("sampler.rule = ddpm").op.rule == VarianceRule.ddpm_induced()
        assert load_config("sampler.rule = eta\nsampler.eta = 0.3").op.rule == VarianceRule(0.3)
        with pytest.raises(ConfigError):
            load_config("sampler.rule = eta\nsampler.eta = 1.5")
        with pytest.raises(ConfigError):
            load_config("sampler.rule = cosine")

    def test_subsequence(self):
        cfg = load_config("sampler.subsequence = 50, 25, 0")
        assert cfg.op.labels == (50, 25, 0)
        with pytest.raises(ConfigError):
            load_config("sampler.subsequence = a, b")

    @pytest.mark.parametrize("text", [
        "schedule.kind = quadratic",
        "schedule.T = zero",
        "schedule.T = 0",
        "sampler.family = heun",
        "sampler.mode = turbo",
        "sampler.devices = 0",
        "denoiser.kind = resnet",
        "samples = 0",
        "mixture.weights = nan",
        "mixture.means = inf 0",
        "grid.rho = nan",
    ])
    def test_rejections(self, text):
        with pytest.raises(ConfigError):
            load_config(text)

    @pytest.mark.parametrize("text", [
        "sampler.family = euler\nsampler.subsequence = 50, 25, 0",
    ])
    def test_rejects_keys_the_run_would_ignore(self, text):
        with pytest.raises(ConfigError):
            load_config(text)

    def test_euler_needs_mixture(self):
        with pytest.raises(ConfigError, match="euler"):
            load_config("sampler.family = euler\ndenoiser.kind = state-independent\ndim = 1")

    @pytest.mark.parametrize("family, rule", [("ddim", "deterministic"), ("ddpm", "ddpm"),
                                              ("euler", "deterministic")])
    @pytest.mark.parametrize("mode", ["sequential", "aggressive", "conservative"])
    def test_benchmark_request_head_loads(self, family, mode, rule):
        # the benchmark writes these level keys into every request, whatever its family
        cfg = load_config(f"schedule.kind = linear\nschedule.T = 50\ngrid.N = 50\n"
                          f"sampler.family = {family}\nsampler.mode = {mode}\n"
                          f"sampler.devices = {1 if mode == 'sequential' else 4}\n"
                          f"sampler.rule = {rule}\n")
        assert isinstance(cfg.op.levels, SigmaGrid if family == "euler" else NoiseSchedule)
        assert cfg.op.top == 50

    @pytest.mark.parametrize("text, steps", [
        ("grid.N = 10000000\n", 50),
        ("sampler.family = euler\nschedule.T = 10000000\n", 32),
    ], ids=["ddim-grid-N", "euler-schedule-T"])
    def test_builds_only_the_levels_its_family_samples_on(self, text, steps):
        # 10**7 levels the family never reads would trace 229 MiB
        tracemalloc.start()
        try:
            cfg = load_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert cfg.op.steps == steps  # the default levels of the family's own kind

    def test_raw_echo_includes_defaults(self):
        cfg = load_config("seed = 7")
        assert cfg.raw["seed"] == "7"
        assert cfg.raw["schedule.T"] == "50"  # defaults echoed for reproducibility


def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("schedule.T = 8\nseed = 2\n")
    cfg = load_config_file(str(p))
    assert cfg.op.levels.T == 8
    assert cfg.seed == 2
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.cfg"))
