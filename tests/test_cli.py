import csv
import errno
import functools
import io
import json
import os
import re
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipdiff import (
    GaussianMixture,
    Mode,
    VirtualClock,
    build_sigma_grid,
    cli,
    plan_blocks,
    velocity_oracle,
    verify,
)
from skipdiff.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_SUITE_NOT_FOUND,
    EXIT_VERIFY_FAIL,
    main,
)
from skipdiff.config import KNOWN_KEYS

BIMODAL = (
    "mixture.weights = 0.5, 0.5\n"
    "mixture.means = -2; 2\n"
    "mixture.variances = 1, 1\n"
)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_bytes(text) if isinstance(text, bytes) else p.write_text(text)
    return str(p)


class TestSample:
    def test_sequential_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"samples = 5\n"
            f"output.samples = {tmp_path}/s.csv\n"
            f"output.report = {tmp_path}/r.json\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_OK
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "dim0"]
        assert len(rows) == 6
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["totals"]["evals"] == 5 * 50
        assert report["config"]["schedule.T"] == "50"
        summary = json.loads(capsys.readouterr().out)
        assert summary["samples"] == 5

    def test_parallel_writes_rounds(self, tmp_path):
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"sampler.mode = aggressive\n"
            f"sampler.devices = 3\n"
            f"schedule.T = 10\n"
            f"samples = 2\n"
            f"output.report = {tmp_path}/r.json\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_OK
        rounds = json.loads((tmp_path / "r.json").read_text())["rounds"]
        assert len(rounds) == 2 * 5  # 5 rounds per run, 2 runs
        assert all(sorted(r) == ["anchor_t", "parallel_evals", "round_wall_ms"] for r in rounds)
        # per run: x_10 alone, then blocks of 3 drafts from 10, 7 and 4, and 1 draft from 1
        assert [(r["anchor_t"], r["parallel_evals"]) for r in rounds] == \
            [(10, 1), (10, 3), (7, 3), (4, 3), (1, 1)] * 2

    def test_reproducible(self, tmp_path):
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"samples = 3\nseed = 11\noutput.samples = {tmp_path}/a.csv\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_OK
        a = (tmp_path / "a.csv").read_text()
        cfg2 = write_cfg(tmp_path, BIMODAL + (
            f"samples = 3\nseed = 11\noutput.samples = {tmp_path}/b.csv\n"
        ), name="run2.cfg")
        assert main(["sample", "--config", cfg2]) == EXIT_OK
        b = (tmp_path / "b.csv").read_text()
        assert a.splitlines()[1:] == b.splitlines()[1:]

    def test_euler_family(self, tmp_path):
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"sampler.family = euler\ngrid.N = 8\nsamples = 2\n"
            f"output.samples = {tmp_path}/e.csv\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_OK

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bogus.key = 1\n")
        assert main(["sample", "--config", cfg]) == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["sample", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_failed_write_removes_partial_outputs(self, tmp_path, capsys):
        # the samples CSV is written first; the report to /dev/full then fails as
        # a full disk would
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"schedule.T = 4\n"
            f"output.samples = {tmp_path}/p.csv\n"
            f"output.report = /dev/full\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "p.csv").exists()

    def test_missing_output_directory_runs_no_chain(self, tmp_path, capsys, monkeypatch):
        # the path is checked when the config loads, so no chain's work is lost to it
        monkeypatch.setattr(cli, "_run_once", lambda *args: pytest.fail("a chain ran"))
        path = tmp_path / "missing" / "s.csv"
        cfg = write_cfg(tmp_path, BIMODAL + f"output.samples = {path}\n")
        assert main(["sample", "--config", cfg]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and str(path) in err

    def test_report_naming_the_samples_file_runs_no_chain(self, tmp_path, capsys, monkeypatch):
        # through a symlink, the report would overwrite the samples CSV
        monkeypatch.setattr(cli, "_run_once", lambda *args: pytest.fail("a chain ran"))
        (tmp_path / "link.csv").symlink_to(tmp_path / "s.csv")
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"output.samples = {tmp_path}/s.csv\noutput.report = {tmp_path}/link.csv\n"))
        assert main(["sample", "--config", cfg]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and f"{tmp_path}/link.csv" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("kind", ["symlink", "fifo"])
    def test_failed_write_keeps_non_regular_outputs(self, tmp_path, capsys, kind):
        # cleanup removes only regular files: a symlink (and its target) or a
        # pipe named as an output survives the failed report write
        out = tmp_path / "out"
        if kind == "symlink":
            (tmp_path / "target.csv").write_text("")
            out.symlink_to(tmp_path / "target.csv")
        else:
            os.mkfifo(out)
            reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write cannot block
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"schedule.T = 4\noutput.samples = {out}\noutput.report = /dev/full\n"
        ))
        try:
            assert main(["sample", "--config", cfg]) == EXIT_CONFIG
        finally:
            if kind == "fifo":
                os.close(reader)
        assert capsys.readouterr().err.startswith("error: ")
        if kind == "symlink":
            assert out.is_symlink() and (tmp_path / "target.csv").read_text().startswith("seed,")
        else:
            assert stat.S_ISFIFO(os.lstat(out).st_mode)

    @pytest.mark.parametrize("mode", ["sequential", "aggressive"])
    def test_non_finite_state_exits_runtime(self, tmp_path, capsys, mode):
        # a finite mean near the float limit overflows the oracle; numpy warns of
        # nothing, because the non-finite state itself is the one error reported
        cfg = write_cfg(tmp_path, (
            f"mixture.means = 1e308\nsampler.mode = {mode}\nsampler.devices = 2\n"
            f"output.samples = {tmp_path}/p.csv\n"
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--config", cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite state" in err
        assert not (tmp_path / "p.csv").exists()

    def test_steep_schedule_loads_and_exits_runtime(self, tmp_path, capsys):
        # the smallest alpha_bar is 1.17e-293 > 0, so the schedule is valid; the
        # run then reaches a non-finite state, and that is the error reported
        cfg = write_cfg(tmp_path, BIMODAL + (
            "schedule.T = 400\nschedule.beta_start = 0.5\nschedule.beta_end = 0.999\n"
            "sampler.family = ddpm\nsampler.mode = aggressive\nsampler.devices = 3\n"
            f"output.samples = {tmp_path}/p.csv\n"))
        assert main(["sample", "--config", cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "error: skip from t=53 to t=52 gave a non-finite state\n"
        assert not (tmp_path / "p.csv").exists()

    def test_unallocatable_state_exits_runtime(self, tmp_path, capsys):
        # 8e17 bytes exceed any address space, so the allocation fails up front
        cfg = write_cfg(tmp_path, "denoiser.kind = state-independent\ndim = 100000000000000000\n"
                        f"output.samples = {tmp_path}/p.csv\n")
        assert main(["sample", "--config", cfg]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "p.csv").exists()

    def test_subsequence_applies_in_parallel_modes(self, tmp_path):
        for mode, evals, rounds in (("aggressive", 3, 2), ("conservative", 2, 2)):
            cfg = write_cfg(tmp_path, BIMODAL + (
                f"sampler.mode = {mode}\nsampler.devices = 2\n"
                f"sampler.subsequence = 50, 25, 0\noutput.report = {tmp_path}/r.json\n"
            ))
            assert main(["sample", "--config", cfg]) == EXIT_OK
            totals = json.loads((tmp_path / "r.json").read_text())["totals"]
            assert (totals["evals"], totals["rounds"]) == (evals, rounds)

    @pytest.mark.parametrize("extra", [
        "sampler.subsequence = 36, 1, 0\n",
        "sampler.mode = aggressive\nsampler.devices = 40\n",
    ], ids=["subsequence", "aggressive-40"])
    def test_ddim_rule_ddpm_on_a_steep_schedule(self, tmp_path, extra):
        # on this schedule sigma^2 at eta = 1 rounds one ulp past 1 - alpha_bar[t-k]
        # on some skips, 36 -> 1 among them; the run is valid and must sample
        cfg = write_cfg(tmp_path, BIMODAL + extra + (
            "schedule.beta_start = 0.5\nschedule.beta_end = 0.999\n"
            "sampler.family = ddim\nsampler.rule = ddpm\n"))
        assert main(["sample", "--config", cfg]) == EXIT_OK

    @pytest.mark.parametrize("family, rule", [("ddpm", "ddpm"), ("euler", "deterministic")])
    @pytest.mark.parametrize("mode", ["sequential", "aggressive", "conservative"])
    def test_family_rule_changes_no_sample(self, tmp_path, family, rule, mode):
        # the one rule each of these families accepts is the one it samples with anyway
        outputs = []
        for name, extra in (("plain", ""), ("ruled", f"sampler.rule = {rule}\n")):
            cfg = write_cfg(tmp_path, BIMODAL + extra + (
                f"sampler.family = {family}\nsampler.mode = {mode}\nsampler.devices = 3\n"
                f"schedule.T = 20\ngrid.N = 20\nsamples = 2\n"
                f"output.samples = {tmp_path}/{name}.csv\n"), name=f"{name}.cfg")
            assert main(["sample", "--config", cfg]) == EXIT_OK
            outputs.append((tmp_path / f"{name}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("subsequence", ["", "sampler.subsequence = 20, 17, 11, 6, 2, 0\n"],
                             ids=["all", "subsequence"])
    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", ["sequential", "aggressive", "conservative"])
    def test_ddpm_family_is_ddim_at_rule_ddpm(self, tmp_path, mode, devices, subsequence):
        # one kernel: the DDPM sampler is DDIM's skip at eta = 1, bit for bit
        runs = []
        for name, sampler in (("ddpm", "sampler.family = ddpm\n"),
                              ("ddim", "sampler.family = ddim\nsampler.rule = ddpm\n")):
            cfg = write_cfg(tmp_path, BIMODAL + sampler + subsequence + (
                f"sampler.mode = {mode}\nsampler.devices = {devices}\nschedule.T = 20\n"
                f"samples = 2\noutput.samples = {tmp_path}/{name}.csv\n"
                f"output.report = {tmp_path}/{name}.json\n"), name=f"{name}.cfg")
            assert main(["sample", "--config", cfg]) == EXIT_OK
            report = json.loads((tmp_path / f"{name}.json").read_text())
            runs.append(((tmp_path / f"{name}.csv").read_bytes(),
                         report["totals"]["evals"], report["totals"]["rounds"],
                         [(r["anchor_t"], r["parallel_evals"]) for r in report["rounds"]],
                         report["config"]["sampler.rule"]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("family, rule", [("ddim", "deterministic"), ("ddpm", "ddpm"),
                                              ("euler", "deterministic")])
    def test_report_echoes_the_rule_sampled_with(self, tmp_path, family, rule):
        # a family that fixes its rule echoes that rule, though the config leaves it unset
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"sampler.family = {family}\nschedule.T = 4\ngrid.N = 4\n"
            f"output.report = {tmp_path}/r.json\n"))
        assert main(["sample", "--config", cfg]) == EXIT_OK
        assert json.loads((tmp_path / "r.json").read_text())["config"]["sampler.rule"] == rule

    @pytest.mark.parametrize("eta, rule", [("1", "ddpm"), ("0", "deterministic")])
    @pytest.mark.parametrize("mode", ["sequential", "aggressive", "conservative"])
    def test_eta_rule_at_an_end_is_the_named_rule(self, tmp_path, eta, rule, mode):
        # a variance rule is one eta: ddpm is eta = 1 and deterministic is eta = 0
        outputs = []
        for name, extra in (("eta", f"sampler.rule = eta\nsampler.eta = {eta}\n"),
                            ("named", f"sampler.rule = {rule}\n")):
            cfg = write_cfg(tmp_path, BIMODAL + extra + (
                f"sampler.mode = {mode}\nsampler.devices = 3\nschedule.T = 20\nsamples = 2\n"
                f"output.samples = {tmp_path}/{name}.csv\n"), name=f"{name}.cfg")
            assert main(["sample", "--config", cfg]) == EXIT_OK
            outputs.append((tmp_path / f"{name}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("sampler", [
        "sampler.family = ddim\n",
        "sampler.family = ddim\nsampler.rule = ddpm\n",
        "sampler.family = ddpm\n",
    ], ids=["ddim", "ddim-rule-ddpm", "ddpm"])
    @pytest.mark.parametrize("mode", ["sequential", "aggressive", "conservative"])
    def test_wall_and_virtual_clocks_sample_alike(self, tmp_path, monkeypatch, sampler, mode):
        # the clock decides how long a run takes, never what it samples
        cfg = write_cfg(tmp_path, BIMODAL + sampler + (
            f"sampler.mode = {mode}\nsampler.devices = 3\nschedule.T = 12\nsamples = 2\n"
            f"latency.eval_ms = 1\noutput.samples = {tmp_path}/s.csv\n"))
        assert main(["sample", "--config", cfg]) == EXIT_OK
        wall = (tmp_path / "s.csv").read_bytes()
        monkeypatch.setattr(cli, "_run_once",
                            functools.partial(cli._run_once, clock=VirtualClock()))
        assert main(["sample", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "s.csv").read_bytes() == wall


BAD_INPUTS = {
    "mixture-means": ("mixture.weights = 0.5, 0.5\nmixture.means = -2; abc\n"
                      "mixture.variances = 1, 1\n", ["sample"]),
    "probe-x": (BIMODAL, ["probe", "--x", "foo", "--t", "1"]),
    "probe-t-out-of-range": (BIMODAL + "schedule.T = 10\n", ["probe", "--x", "0", "--t", "999"]),
    # the grid's last node, sigma_N = 0, has no velocity
    "probe-t-euler-sigma-zero": (BIMODAL + "sampler.family = euler\ngrid.N = 8\n",
                                 ["probe", "--x", "0", "--t", "8"]),
    "probe-x-wrong-length": (BIMODAL, ["probe", "--x", "0,0", "--t", "1"]),
    "probe-x-nan": ("denoiser.kind = state-independent\ndim = 2\n",
                    ["probe", "--x", "nan,0", "--t", "1"]),
    "bench-devices": (BIMODAL + "latency.eval_ms = 1\n", ["bench", "--devices", "a"]),
    "bench-devices-zero": (BIMODAL + "latency.eval_ms = 1\n", ["bench", "--devices", "0"]),
    # with no simulated latency every speedup would read 0 / 0
    "bench-eval-zero": (BIMODAL + "latency.eval_ms = 0\n", ["bench"]),
    "recompute-anchor-typo": (BIMODAL + "sampler.mode = aggressive\n"
                              "sampler.recompute_anchor_eps = ture\n", ["sample"]),
    "mixture-weights-nan": ("mixture.weights = nan, 0.5\nmixture.means = -2; 2\n"
                            "mixture.variances = 1, 1\n", ["sample"]),
    "eta-without-eta-rule": (BIMODAL + "sampler.eta = 0.3\n", ["sample"]),
    "mixture-key-state-independent": ("denoiser.kind = state-independent\ndim = 1\n"
                                      "mixture.weights = 1\n", ["sample"]),
    "denoiser-seed-mixture": (BIMODAL + "denoiser.seed = 3\n", ["sample"]),
    "latency-eval-negative": (BIMODAL + "latency.eval_ms = -1\n", ["sample"]),
    # latency.overhead_ms is not a key, so it is rejected as unknown
    "latency-overhead-negative": (BIMODAL + "latency.eval_ms = 1\nlatency.overhead_ms = -1\n",
                                  ["sample"]),
    # denoiser.perturb_scale is not a key, so it is rejected as unknown
    "perturb-scale-negative": (BIMODAL + "denoiser.perturb_scale = -0.5\n", ["sample"]),
    # past half of threading.TIMEOUT_MAX, a latency no run could wait out
    "latency-eval-too-long": (BIMODAL + "latency.eval_ms = 1e300\n", ["sample"]),
    # RngStream keys hold 48 bits of a chain seed, the state-independent denoiser 32
    "seed-negative": (BIMODAL + "seed = -1\n", ["sample"]),
    "seed-past-key-range": (BIMODAL + "seed = 281474976710655\nsamples = 2\n", ["sample"]),
    "denoiser-seed-past-32-bits": ("denoiser.kind = state-independent\ndim = 1\n"
                                   "denoiser.seed = 4294967296\n", ["sample"]),
    "mixture-means-empty": ("mixture.means =\n", ["sample"]),
    "subsequence-not-ending-at-zero": (BIMODAL + "sampler.subsequence = 50, 10\n", ["sample"]),
    "subsequence-past-T": (BIMODAL + "sampler.subsequence = 60, 30, 0\n", ["sample"]),
    # numpy cannot size a float64 state of 2**60 entries in bytes
    "dim-2**60": ("denoiser.kind = state-independent\ndim = 1152921504606846976\n", ["sample"]),
    "dim-2**63": ("denoiser.kind = state-independent\ndim = 9223372036854775808\n", ["sample"]),
    # /dev/null is not a directory, so nothing can be created below it
    "output-samples-path": (BIMODAL + "schedule.T = 4\noutput.samples = /dev/null/s.csv\n",
                            ["sample"]),
    "output-report-path": (BIMODAL + "schedule.T = 4\noutput.report = /dev/null/r.json\n",
                           ["sample"]),
    "output-report-directory": (BIMODAL + "output.report = /\n", ["sample"]),
    # one file for both outputs: the report would overwrite the samples
    "output-report-is-output-samples": (BIMODAL + "schedule.T = 4\noutput.samples = /dev/null\n"
                                        "output.report = /dev/../dev/null\n", ["sample"]),
    # output.rounds is not a key: the report holds the rounds
    "output-rounds-unknown": (BIMODAL + "output.rounds = r.csv\n", ["sample"]),
    # an empty path would write nothing, without notice
    "output-samples-empty": (BIMODAL + "output.samples =\n", ["sample"]),
    "output-report-empty": (BIMODAL + "output.report =\n", ["sample"]),
    "bench-out-path": (BIMODAL + "latency.eval_ms = 1\nschedule.T = 4\n",
                       ["bench", "--devices", "2", "--out", "/dev/null/b.csv"]),
    "dump-schedule-out-path": (BIMODAL, ["dump-schedule", "--out", "/dev/null/d.csv"]),
    # a byte that no UTF-8 text holds
    "config-undecodable": (BIMODAL.encode() + b"seed = 1\xff\n", ["sample"]),
    "config-undecodable-dump-schedule": (b"\xff" + BIMODAL.encode(), ["dump-schedule"]),
    # keys the chosen schedule or family would ignore
    "beta-start-cosine": (BIMODAL + "schedule.kind = cosine\nschedule.beta_start = 0.01\n",
                          ["sample"]),
    "beta-end-cosine": (BIMODAL + "schedule.kind = cosine\nschedule.beta_end = 0.3\n", ["sample"]),
    "offset-linear": (BIMODAL + "schedule.offset = 0.01\n", ["sample"]),
    # 1 - 1e-20 rounds to 1, so alpha_bar[1] = 1 and a stochastic skip into t = 0 divides by 0
    "schedule-alpha-bar-one": (BIMODAL + "schedule.T = 10\nschedule.beta_start = 1e-20\n",
                               ["sample"]),
    "ddpm-rule-deterministic": (BIMODAL + "sampler.family = ddpm\nsampler.rule = deterministic\n",
                                ["sample"]),
    "ddpm-rule-eta": (BIMODAL + "sampler.family = ddpm\nsampler.rule = eta\nsampler.eta = 0.3\n",
                      ["sample"]),
    "euler-rule-ddpm": (BIMODAL + "sampler.family = euler\nsampler.rule = ddpm\n", ["sample"]),
    "euler-rule-eta": (BIMODAL + "sampler.family = euler\nsampler.rule = eta\nsampler.eta = 0\n",
                       ["sample"]),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_config(tmp_path, capsys, case):
    text, (command, *flags) = BAD_INPUTS[case]
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if isinstance(text, bytes):  # an unreadable file is named
        assert cfg in err


@pytest.mark.parametrize("command", [["bench", "--devices", "2"], ["dump-schedule"]],
                         ids=["bench", "dump-schedule"])
def test_output_keys_of_sample_are_not_checked_elsewhere(tmp_path, capsys, command):
    # only `sample` writes output.samples and output.report, so only it checks them
    missing = tmp_path / "missing"
    cfg = write_cfg(tmp_path, BIMODAL + (
        f"schedule.T = 4\nlatency.eval_ms = 1\n"
        f"output.samples = {missing}/s.csv\noutput.report = {missing}/r.json\n"))
    assert main([command[0], "--config", cfg, *command[1:]]) == EXIT_OK
    assert capsys.readouterr().out and not missing.exists()


EDGE_TOKENS = ["nan", "inf", "-1", "0", "1e300", "", "abc", "1,2", "-2 0; 2",
               str(2**64), str(10**30)]
# sizes stay small and latencies short or unsleepable, so each run takes milliseconds
SIZE_TOKENS = ["-1", "0", "", "abc", "1,2", "nan", "1e300"]
LATENCY_TOKENS = ["-1", "nan", "inf", "1e300", str(2**64), "", "abc"]
VALID_TOKENS = {  # one or two accepted values per key, so runs get past the first check
    "schedule.kind": ["linear", "cosine"], "schedule.T": ["3", "9"],
    "schedule.beta_start": ["0.002"], "schedule.beta_end": ["0.4"],
    "schedule.offset": ["0.008"], "grid.N": ["4"], "grid.sigma_min": ["0.02"],
    "grid.sigma_max": ["10"], "grid.rho": ["3"],
    "denoiser.kind": ["mixture", "state-independent"], "denoiser.seed": ["3"],
    "mixture.weights": ["0.5, 0.5"],
    "mixture.means": ["-2; 2", "-2 0; 2 0"], "mixture.variances": ["1, 1"],
    "latency.eval_ms": ["0", "0.01"],
    "sampler.family": ["ddpm", "ddim", "euler"],
    "sampler.mode": ["sequential", "aggressive", "conservative"],
    "sampler.devices": ["2", "3"], "sampler.rule": ["deterministic", "ddpm", "eta"],
    "sampler.eta": ["0.5"], "sampler.subsequence": ["50, 25, 0", "3, 1, 0"],
    "seed": ["7"], "samples": ["2"],
    "dim": ["1", "2"], "output.samples": ["s.csv"], "output.report": ["r.json"],
}


def _edge_tokens(key):
    if key == "dim":  # past numpy's byte-size limit, so rejected before any allocation
        return SIZE_TOKENS + [str(2**60), str(2**64)]
    if key in ("schedule.T", "grid.N", "samples", "sampler.devices"):
        return SIZE_TOKENS
    return LATENCY_TOKENS if key.startswith("latency.") else EDGE_TOKENS


EDGE_PAIRS = [(key, token) for key in sorted(KNOWN_KEYS) for token in _edge_tokens(key)]


@st.composite
def config_texts(draw):
    """Up to two edge values on top of up to four accepted ones."""
    edge = draw(st.lists(st.sampled_from(EDGE_PAIRS), min_size=1, max_size=2,
                         unique_by=lambda pair: pair[0]))
    valid = draw(st.lists(st.sampled_from(sorted(KNOWN_KEYS)), max_size=4, unique=True))
    entries = dict(edge)
    for key in valid:
        entries.setdefault(key, draw(st.sampled_from(VALID_TOKENS[key])))
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=config_texts())
def test_fuzzed_config_never_raises(tmp_path_factory, text):
    # relative output paths such as "abc" land in a fresh directory
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "run.cfg").write_text(text)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(["sample", "--config", "run.cfg"]) in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("command", [
    ["compare", "{csv}", "{csv}", "--projections", "0"],
    ["compare", "{csv}", "{csv}", "--bandwidth", "-1"],
    ["compare", "{csv}", "{csv}", "--seed", "-1"],
    ["verify", "coeffs", "--json", "/dev/null/v.json"],
    # an empty path is no path: not stdout, and not "write no file"
    ["dump-schedule", "--config", "{cfg}", "--out", ""],
    ["bench", "--config", "{cfg}", "--out", ""],
    ["verify", "coeffs", "--json", ""],
    ["dump-schedule", "--config", "{cfg}", "--out", "/"],
], ids=["compare-projections", "compare-bandwidth", "compare-seed", "verify-json",
        "dump-schedule-out-empty", "bench-out-empty", "verify-json-empty",
        "dump-schedule-out-directory"])
def test_bad_flag_exits_config(tmp_path, capsys, command):
    samples = tmp_path / "s.csv"
    samples.write_text("seed,dim0\n0,0.5\n1,-0.5\n2,1.5\n")
    cfg = write_cfg(tmp_path, BIMODAL + "latency.eval_ms = 1\n")
    assert main([arg.format(csv=samples, cfg=cfg) for arg in command]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (command[-1] or command[-2]) in err  # names the bad value or path, else the flag
    assert out == ""  # a bad flag or path is found before any work prints


@pytest.mark.parametrize("command", [
    ["sample", "--config", "{cfg}"],
    ["bench", "--config", "{cfg}", "--devices", "2", "--out", "{out}"],
    ["dump-schedule", "--config", "{cfg}", "--out", "{out}"],
    ["verify", "coeffs", "--json", "{out}"],
], ids=["sample", "bench", "dump-schedule", "verify"])
def test_write_failing_part_way_leaves_no_file(tmp_path, capsys, monkeypatch, command):
    # every write puts half its text on disk, then fails as a full disk would
    def half_writing_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        real_write = fh.write

        def write(text):
            real_write(text[: len(text) // 2 + 1])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), args[0])

        fh.write = write
        return fh

    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, BIMODAL + (
        f"schedule.T = 4\nlatency.eval_ms = 1\noutput.samples = {out}\n"
    ))
    monkeypatch.setattr(cli, "open", half_writing_open, raising=False)
    assert main([arg.format(cfg=cfg, out=out) for arg in command]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("out", [None, "d.csv"], ids=["stdout", "path"])
def test_failed_write_names_its_output(tmp_path, capsys, monkeypatch, out):
    # a write into a closed pipe or a full device raises an OSError that names no file
    class Failing(io.StringIO):
        def write(self, text):
            raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))

    def failing_open(file, *args, **kwargs):
        open(file, *args, **kwargs).close()  # the file exists, as after a real open
        return Failing()

    path = tmp_path / out if out else None
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    monkeypatch.setattr(sys, "stdout", Failing())
    cfg = write_cfg(tmp_path, BIMODAL)
    assert main(["dump-schedule", "--config", cfg] + (["--out", str(path)] if out else [])) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: cannot write {path or 'stdout'}: Broken pipe\n"
    assert path is None or not path.exists()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    code = ("import sys, skipdiff.cli\n"
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestVerify:
    def test_unknown_suite(self, capsys):
        assert main(["verify", "nope"]) == EXIT_SUITE_NOT_FOUND
        assert "unknown suite" in capsys.readouterr().err

    # `all` runs every suite; acceptance tests 01, 03, 04 and 08 each run one of them
    @pytest.mark.parametrize("suite", ["rng", "all"])
    def test_passing_suite_exits_ok(self, tmp_path, capsys, suite):
        out = tmp_path / "v.json"
        assert main(["verify", suite, "--json", str(out)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload and all(entry["passed"] for entry in payload)

    def test_failed_property_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "broken", lambda: [("broken[x]", False, "err=1")])
        out = tmp_path / "v.json"
        assert main(["verify", "broken", "--json", str(out)]) == EXIT_VERIFY_FAIL == 3
        printed = capsys.readouterr().out
        assert "FAIL broken[x] err=1" in printed
        assert "0/1 properties passed" in printed
        assert '"passed": false' in out.read_text()
        assert main(["verify", "all"]) == EXIT_VERIFY_FAIL
        assert "FAIL broken[x] err=1" in capsys.readouterr().out


class TestCompare:
    def _write_samples(self, path, data):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["seed"] + [f"dim{j}" for j in range(data.shape[1])])
            for i, row in enumerate(data):
                w.writerow([i] + [repr(float(v)) for v in row])

    def test_self_compare_is_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 2))
        a = tmp_path / "a.csv"
        self._write_samples(a, data)
        assert main(["compare", str(a), str(a)]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["sliced_w2"] == 0.0
        assert result["n_a"] == result["n_b"] == 50

    def test_shifted_sets_nonzero(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(50, 1))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_samples(a, data)
        self._write_samples(b, data + 2.0)
        assert main(["compare", str(a), str(b), "--bandwidth", "1.0"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["sliced_w2"] == pytest.approx(4.0, rel=1e-6)
        assert result["mmd"] > 0.1

    @pytest.mark.parametrize("text, width", [
        ("seed,dim0\n0,not-a-number\n", 1),
        # a first row that is neither a seed header nor numbers is not skipped
        ("x,y\n1.0,2.0\n3.0,4.0\n", 2),
    ], ids=["bad-value", "unknown-header"])
    def test_malformed_csv(self, tmp_path, capsys, text, width):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        good = tmp_path / "good.csv"
        self._write_samples(good, np.zeros((3, width)))
        assert main(["compare", str(bad), str(good)]) == EXIT_CONFIG
        assert "bad.csv" in capsys.readouterr().err

    def test_undecodable_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"seed,dim0\n0,1.5\n1,\xff\n")
        good = tmp_path / "good.csv"
        self._write_samples(good, np.zeros((3, 1)))
        assert main(["compare", str(good), str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "bad.csv" in captured.err
        assert captured.out == ""

    def test_missing_file(self, tmp_path):
        good = tmp_path / "good.csv"
        self._write_samples(good, np.zeros((3, 1)))
        assert main(["compare", str(tmp_path / "nope.csv"), str(good)]) == EXIT_CONFIG

    @pytest.mark.parametrize("extra", [[], ["--bandwidth", "1"]], ids=["heuristic", "bandwidth"])
    def test_different_widths(self, tmp_path, capsys, extra):
        a, b = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        self._write_samples(a, np.zeros((3, 2)))
        self._write_samples(b, np.zeros((3, 1)))
        assert main(["compare", str(a), str(b)] + extra) == EXIT_CONFIG
        assert "narrow.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"seed,dim0\n0,1.5\n1,{value}\n")
        good = tmp_path / "good.csv"
        self._write_samples(good, np.zeros((3, 1)))
        assert main(["compare", str(good), str(bad)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "bad.csv" in captured.err and captured.out == ""

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_one_row_csv(self, tmp_path, capsys, first):
        one, three = tmp_path / "one.csv", tmp_path / "three.csv"
        self._write_samples(one, np.zeros((1, 1)))
        self._write_samples(three, np.arange(3.0)[:, None])
        files = [one, three] if first else [three, one]
        assert main(["compare", *map(str, files)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "one.csv" in captured.err and captured.out == ""

    @pytest.mark.parametrize("bandwidth", ["1e-200", "1e-155", "1e200", "inf"])
    def test_bandwidth_without_kernel_scale(self, tmp_path, capsys, bandwidth):
        # 2 * bandwidth**2 underflows to 0, its reciprocal overflows, or it is infinite
        a = tmp_path / "a.csv"
        self._write_samples(a, np.arange(3.0)[:, None])
        assert main(["compare", str(a), str(a), "--bandwidth", bandwidth]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --bandwidth") and captured.out == ""

    @pytest.mark.parametrize("extra", [[], ["--bandwidth", "1"]], ids=["heuristic", "bandwidth"])
    def test_overflowing_distances(self, tmp_path, capsys, extra):
        # finite values whose squares overflow leave no finite distance to print
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_samples(a, np.array([[0.0], [1e160], [-1e160]]))
        self._write_samples(b, np.arange(3.0)[:, None])
        for files in ([a, a], [a, b]):
            assert main(["compare", *map(str, files)] + extra) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert all(str(f) in captured.err for f in files)

    @pytest.mark.parametrize("text", [
        "\nseed,dim0\n0,0.5\n1,-0.5\n2,1.5\n",
        "seed,dim0\n0,0.5\n1,-0.5\n2,1.5\n\n\n",
        "0.5\n-0.5\n1.5\n",
    ], ids=["leading-blank", "trailing-blank", "headerless"])
    def test_variant_compares_like_its_twin(self, tmp_path, capsys, text):
        twin, variant, other = tmp_path / "twin.csv", tmp_path / "variant.csv", tmp_path / "o.csv"
        twin.write_text("seed,dim0\n0,0.5\n1,-0.5\n2,1.5\n")
        variant.write_text(text)
        self._write_samples(other, np.arange(4.0)[:, None])
        assert main(["compare", str(twin), str(other)]) == EXIT_OK
        expected = json.loads(capsys.readouterr().out)
        assert main(["compare", str(variant), str(other)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == expected

    def test_blank_file(self, tmp_path, capsys):
        blank = tmp_path / "blank.csv"
        blank.write_text("\n\n")
        assert main(["compare", str(blank), str(blank)]) == EXIT_CONFIG
        assert "blank.csv: empty file" in capsys.readouterr().err

    def test_identical_rows_need_a_bandwidth(self, tmp_path, capsys):
        # every pooled distance is 0, so the median heuristic has no scale
        a = tmp_path / "a.csv"
        self._write_samples(a, np.ones((3, 2)))
        assert main(["compare", str(a), str(a)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--bandwidth" in captured.err and captured.out == ""
        assert main(["compare", str(a), str(a), "--bandwidth", "1"]) == EXIT_OK


def test_readme_names_every_config_key():
    # a removed key must not linger in the docs, and a new key must be documented
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sections = "|".join({key.split(".")[0] for key in KNOWN_KEYS if "." in key})
    named = set(re.findall(rf"(?<![\w.])(?:{sections})\.\w+", readme))
    assert named == {key for key in KNOWN_KEYS if "." in key}


class TestDumpSchedule:
    def test_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, "schedule.T = 8\n")
        out = tmp_path / "sched.csv"
        assert main(["dump-schedule", "--config", cfg, "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "alpha_bar", "beta"]
        assert len(rows) == 10  # header + t = 0..8
        assert float(rows[1][1]) == 1.0
        abars = [float(r[1]) for r in rows[1:]]
        assert all(x > y for x, y in zip(abars, abars[1:]))

    def test_euler_writes_its_sigma_grid(self, tmp_path, capsys):
        # the Euler sampler runs on the sigma grid, not on the noise schedule
        cfg = write_cfg(tmp_path, BIMODAL + "sampler.family = euler\nschedule.T = 7\n"
                        "grid.N = 12\ngrid.sigma_min = 0.02\ngrid.sigma_max = 10\ngrid.rho = 3\n")
        assert main(["dump-schedule", "--config", cfg]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["i", "sigma"]
        assert rows[1:] == [[str(i), repr(float(v))]
                            for i, v in enumerate(build_sigma_grid(12, 0.02, 10, 3).sigmas)]
        assert len(rows) == 14 and float(rows[-1][1]) == 0.0


class TestProbe:
    def test_state_independent_probe(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "denoiser.kind = state-independent\ndim = 2\n")
        assert main(["probe", "--config", cfg, "--x", "0,0", "--t", "1"]) == EXIT_OK
        vals = [float(v) for v in capsys.readouterr().out.split()]
        from skipdiff import state_independent_eps
        np.testing.assert_allclose(vals, state_independent_eps(0, 1, 2), rtol=1e-15)

    def test_mixture_probe(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BIMODAL)
        assert main(["probe", "--config", cfg, "--x", "0.5", "--t", "10"]) == EXIT_OK
        vals = [float(v) for v in capsys.readouterr().out.split()]
        assert len(vals) == 1 and np.isfinite(vals[0])

    def test_euler_probe_is_the_samplers_velocity(self, tmp_path, capsys):
        # the Euler sampler evaluates the velocity at a grid index, not eps on the schedule
        cfg = write_cfg(tmp_path, BIMODAL + "sampler.family = euler\ngrid.N = 32\n"
                        "grid.sigma_min = 0.02\ngrid.sigma_max = 10\ngrid.rho = 3\n")
        assert main(["probe", "--config", cfg, "--x", "0.5", "--t", "31"]) == EXIT_OK
        assert main(["probe", "--config", cfg, "--x", "0.5", "--t", "10"]) == EXIT_OK
        *_, last, tenth = capsys.readouterr().out.splitlines()
        gm = GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]], variances=[1.0, 1.0])
        sigmas = build_sigma_grid(32, 0.02, 10, 3).sigmas
        for out, i in ((last, 31), (tenth, 10)):
            assert [float(v) for v in out.split()] == \
                list(velocity_oracle(gm, np.array([0.5]), sigmas[i]))

    def test_latency_never_delays_a_probe(self, tmp_path, capsys):
        # device time is charged where a sampler dispatches work; a probe dispatches none
        plain = write_cfg(tmp_path, BIMODAL, name="plain.cfg")
        assert main(["probe", "--config", plain, "--x", "0.5", "--t", "10"]) == EXIT_OK
        cfg = write_cfg(tmp_path, BIMODAL + "latency.eval_ms = 2000\n")
        t0 = time.monotonic()
        assert main(["probe", "--config", cfg, "--x", "0.5", "--t", "10"]) == EXIT_OK
        assert time.monotonic() - t0 < 1.0
        plain_out, out = capsys.readouterr().out.splitlines()
        assert out == plain_out

    def test_non_finite_prediction_exits_runtime(self, tmp_path, capsys):
        # a finite state near the float limit overflows the mixture oracle
        cfg = write_cfg(tmp_path, BIMODAL)
        assert main(["probe", "--config", cfg, "--x", "1e308", "--t", "4"]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "non-finite" in captured.err


class TestBench:
    def test_requires_latency(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BIMODAL)
        assert main(["bench", "--config", cfg]) == EXIT_CONFIG
        assert "latency" in capsys.readouterr().err

    def test_virtual_sweep_csv(self, tmp_path):
        # T = 12 on the virtual clock: the walls are rounds x eval_ms, exactly
        cfg = write_cfg(tmp_path, BIMODAL + "latency.eval_ms = 1\nschedule.T = 12\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--config", cfg, "--devices", "2,3",
                     "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["mode", "devices", "wall_ms", "speedup", "theory_bound"],
                        ["sequential", "1", "12.000", "1.0000", "12.000"],
                        ["aggressive", "2", "7.000", "1.7143", "6.000"],
                        ["aggressive", "3", "5.000", "2.4000", "4.000"],
                        ["conservative", "2", "8.000", "1.5000", "8.000"],
                        ["conservative", "3", "6.000", "2.0000", "6.000"]]

    def test_speedups_are_the_round_laws(self, tmp_path):
        # README's run, T = 50: a stacked round costs eval_ms, as a sequential
        # step does; two sweeps write the same bytes
        cfg = write_cfg(tmp_path, BIMODAL + "schedule.T = 50\nlatency.eval_ms = 50\n")
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["bench", "--config", cfg, "--devices", "2,3,4",
                         "--out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        with open(outs[0], newline="") as fh:
            rows = list(csv.reader(fh))[2:]
        laws = [(mode, devices, plan_blocks(50, devices, Mode(mode)).total_rounds)
                for mode in ("aggressive", "conservative") for devices in (2, 3, 4)]
        assert [r[:4] for r in rows] == [
            [mode, str(devices), f"{rounds * 50:.3f}", f"{50 / rounds:.4f}"]
            for mode, devices, rounds in laws]
        assert rows[2][3] == "3.5714"  # aggressive d=4: 50 steps in 14 rounds
