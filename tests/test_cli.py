import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skipdiff.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_SUITE_NOT_FOUND,
    EXIT_VERIFY_FAIL,
    main,
)

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

    def test_runtime_error_removes_partial_outputs(self, tmp_path, capsys):
        # subsequence for a stochastic run hits no error, so force a runtime
        # failure via an invalid subsequence instead
        cfg = write_cfg(tmp_path, BIMODAL + (
            f"sampler.subsequence = 50, 10\n"
            f"output.samples = {tmp_path}/p.csv\n"
        ))
        assert main(["sample", "--config", cfg]) == EXIT_RUNTIME
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
                      "mixture.variances = 1, 1\n", ["sample"], None),
    "worker-cap-env": (BIMODAL + "sampler.mode = aggressive\nsampler.devices = 2\n",
                       ["sample"], "abc"),
    "probe-x": (BIMODAL, ["probe", "--x", "foo", "--t", "1"], None),
    "bench-repeats": (BIMODAL + "latency.eval_ms = 1\n", ["bench", "--repeats", "0"], None),
    "bench-devices": (BIMODAL + "latency.eval_ms = 1\n", ["bench", "--devices", "a"], None),
    "recompute-anchor-typo": (BIMODAL + "sampler.mode = aggressive\n"
                              "sampler.recompute_anchor_eps = ture\n", ["sample"], None),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_config(tmp_path, monkeypatch, capsys, case):
    text, (command, *flags), worker_cap = BAD_INPUTS[case]
    if worker_cap is not None:
        from skipdiff.parallel import WORKER_CAP_ENV
        monkeypatch.setenv(WORKER_CAP_ENV, worker_cap)
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


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

    def test_coeffs_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert main(["verify", "coeffs", "--json", str(out)]) == EXIT_OK
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
