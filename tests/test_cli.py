import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    p.write_text(text)
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
            f"output.rounds = {tmp_path}/rounds.csv\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_OK
        with open(tmp_path / "rounds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "anchor_t", "parallel_evals", "round_wall_ms"]
        assert len(rows) == 1 + 2 * 5  # 5 rounds per run, 2 runs

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
        # the samples CSV is written first; the report below /dev/null then cannot be
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"schedule.T = 4\n"
            f"output.samples = {tmp_path}/p.csv\n"
            f"output.report = /dev/null/r.json\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    @pytest.mark.parametrize("mode", ["sequential", "aggressive"])
    def test_non_finite_state_exits_runtime(self, tmp_path, capsys, mode):
        # a finite mean near the float limit overflows the oracle
        cfg = write_cfg(tmp_path, (
            f"mixture.means = 1e308\nsampler.mode = {mode}\nsampler.devices = 2\n"
            f"output.samples = {tmp_path}/p.csv\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_RUNTIME
        assert "non-finite state" in capsys.readouterr().err
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


BAD_INPUTS = {
    "mixture-means": ("mixture.weights = 0.5, 0.5\nmixture.means = -2; abc\n"
                      "mixture.variances = 1, 1\n", ["sample"]),
    "probe-x": (BIMODAL, ["probe", "--x", "foo", "--t", "1"]),
    "probe-t-out-of-range": (BIMODAL + "schedule.T = 10\n", ["probe", "--x", "0", "--t", "999"]),
    "probe-x-wrong-length": (BIMODAL, ["probe", "--x", "0,0", "--t", "1"]),
    "probe-x-nan": ("denoiser.kind = state-independent\ndim = 2\n",
                    ["probe", "--x", "nan,0", "--t", "1"]),
    "bench-repeats": (BIMODAL + "latency.eval_ms = 1\n", ["bench", "--repeats", "0"]),
    "bench-devices": (BIMODAL + "latency.eval_ms = 1\n", ["bench", "--devices", "a"]),
    "recompute-anchor-typo": (BIMODAL + "sampler.mode = aggressive\n"
                              "sampler.recompute_anchor_eps = ture\n", ["sample"]),
    "mixture-weights-nan": ("mixture.weights = nan, 0.5\nmixture.means = -2; 2\n"
                            "mixture.variances = 1, 1\n", ["sample"]),
    "eta-without-eta-rule": (BIMODAL + "sampler.eta = 0.3\n", ["sample"]),
    "overhead-without-eval": (BIMODAL + "latency.overhead_ms = 1\n", ["sample"]),
    "mixture-key-state-independent": ("denoiser.kind = state-independent\ndim = 1\n"
                                      "mixture.weights = 1\n", ["sample"]),
    "denoiser-seed-mixture": (BIMODAL + "denoiser.seed = 3\n", ["sample"]),
    "latency-eval-negative": (BIMODAL + "latency.eval_ms = -1\n", ["sample"]),
    "latency-overhead-negative": (BIMODAL + "latency.eval_ms = 1\nlatency.overhead_ms = -1\n",
                                  ["sample"]),
    "perturb-scale-negative": (BIMODAL + "denoiser.perturb_scale = -0.5\n", ["sample"]),
    # past threading.TIMEOUT_MAX time.sleep raises OverflowError or OSError
    "latency-eval-too-long": (BIMODAL + "latency.eval_ms = 1e300\n", ["sample"]),
    "latency-overhead-too-long": (BIMODAL + "sampler.mode = aggressive\nlatency.eval_ms = 1\n"
                                  "latency.overhead_ms = 1e300\n", ["sample"]),
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
    "output-rounds-path": (BIMODAL + "schedule.T = 4\noutput.rounds = /dev/null/r.csv\n",
                           ["sample"]),
    "bench-out-path": (BIMODAL + "latency.eval_ms = 1\nschedule.T = 4\n",
                       ["bench", "--devices", "2", "--repeats", "1", "--out", "/dev/null/b.csv"]),
    "dump-schedule-out-path": (BIMODAL, ["dump-schedule", "--out", "/dev/null/d.csv"]),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_config(tmp_path, capsys, case):
    text, (command, *flags) = BAD_INPUTS[case]
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


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
    "denoiser.perturb_scale": ["0.1"], "mixture.weights": ["0.5, 0.5"],
    "mixture.means": ["-2; 2", "-2 0; 2 0"], "mixture.variances": ["1, 1"],
    "latency.eval_ms": ["0", "0.01"], "latency.overhead_ms": ["0", "0.01"],
    "sampler.family": ["ddpm", "ddim", "euler"],
    "sampler.mode": ["sequential", "aggressive", "conservative"],
    "sampler.devices": ["2", "3"], "sampler.rule": ["deterministic", "ddpm", "eta"],
    "sampler.eta": ["0.5"], "sampler.subsequence": ["50, 25, 0", "3, 1, 0"],
    "sampler.recompute_anchor_eps": ["true", "false"], "seed": ["7"], "samples": ["2"],
    "dim": ["1", "2"], "output.samples": ["s.csv"], "output.report": ["r.json"],
    "output.rounds": ["r.csv"],
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing values are drawn on purpose
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
    ["verify", "coeffs", "--json", "/dev/null/v.json"],
], ids=["compare-projections", "compare-bandwidth", "verify-json"])
def test_bad_flag_exits_config(tmp_path, capsys, command):
    samples = tmp_path / "s.csv"
    samples.write_text("seed,dim0\n0,0.5\n1,-0.5\n2,1.5\n")
    assert main([arg.format(csv=samples) for arg in command]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and command[-1] in err  # names the bad value or path


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

    @pytest.mark.parametrize("suite", ["coeffs", "equivalence", "accounting"])
    def test_coeffs_suite_passes(self, tmp_path, capsys, suite):
        out = tmp_path / "v.json"
        assert main(["verify", suite, "--json", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "PASS" in printed
        payload = json.loads(out.read_text())
        assert all(entry["passed"] for entry in payload)

    def test_exit_code_constant_for_failures(self):
        # the failure path is exercised by construction: EXIT_VERIFY_FAIL is
        # reserved and distinct from the other codes
        assert EXIT_VERIFY_FAIL not in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_SUITE_NOT_FOUND)


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

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("seed,dim0\n0,not-a-number\n")
        good = tmp_path / "good.csv"
        self._write_samples(good, np.zeros((3, 1)))
        assert main(["compare", str(bad), str(good)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        good = tmp_path / "good.csv"
        self._write_samples(good, np.zeros((3, 1)))
        assert main(["compare", str(tmp_path / "nope.csv"), str(good)]) == EXIT_CONFIG


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


class TestBench:
    def test_requires_latency(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BIMODAL)
        assert main(["bench", "--config", cfg]) == EXIT_CONFIG
        assert "latency" in capsys.readouterr().err

    def test_virtual_sweep_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, BIMODAL + "latency.eval_ms = 1\nschedule.T = 12\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--config", cfg, "--devices", "2,3",
                     "--repeats", "1", "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mode", "devices", "median_ms", "speedup", "theory_bound"]
        assert [r[0] for r in rows[1:]] == ["sequential", "aggressive", "aggressive",
                                            "conservative", "conservative"]
        for row in rows[2:]:
            assert float(row[2]) > 0
            assert float(row[3]) > 0
