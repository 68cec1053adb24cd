"""End-to-end command-line runs against temp directories."""

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fiberbundle import cli
from fiberbundle.cli import main
from test_csvtext import write_rows


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_outputs_and_tail_fit(self, tmp_path):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--rows", "1", "--cols", "2", "--rule", "equal",
            "--structure", "parallel", "--family", "exponential", "--scale", "1",
            "--replicas", "60000", "--seed", "3", "--tail-lo", "1e-4",
            "--tail-hi", "1e-2", "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        for name in ("samples.csv", "weibull_plot.csv", "tail_fit.json", "manifest.json"):
            assert (out / name).exists()
        fit = json.loads((out / "tail_fit.json").read_text())
        assert 1.5 < fit["slope"] < 2.3  # two-component bundle: tail exponent 2
        assert fit["inflation_factor"] == pytest.approx(fit["slope"])
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "simulate"
        assert man["config"]["replicas"] == 60000

    def test_two_component_run_matches_closed_form(self, tmp_path):
        # a 1x2 equal-rule grid is a two-component bundle; for unit
        # exponentials F(x) = (1-e^-2x)^2 - (e^-x - e^-2x)^2
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--rows", "1", "--cols", "2", "--rule", "equal",
            "--structure", "column-paths", "--family", "exponential", "--scale", "1",
            "--replicas", "120000", "--seed", "8", "--tail-lo", "1e-3",
            "--tail-hi", "1e-1", "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out / "samples.csv")
        got = np.array([float(r[0]) for r in rows])

        def cdf(x):
            return (1 - np.exp(-2 * x)) ** 2 - (np.exp(-x) - np.exp(-2 * x)) ** 2

        from scipy import stats as sps

        assert sps.kstest(got, cdf).statistic < 0.01

    def test_matches_library_samples(self, tmp_path):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--rows", "2", "--cols", "2", "--rule", "absorbing",
            "--structure", "column-paths", "--family", "weibull", "--shape", "5",
            "--scale", "2", "--replicas", "3000", "--seed", "11",
            "--tail-lo", "1e-3", "--tail-hi", "1e-1", "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out / "samples.csv")
        got = np.array([float(r[0]) for r in rows])
        from fiberbundle.cascade import StructureFunction, sample_bundle_strengths
        from fiberbundle.distributions import StrengthModel
        from fiberbundle.loadshare import AbsorbingRule, build_grid_graph, transition_matrix

        expected = sample_bundle_strengths(
            StrengthModel("weibull", 5.0, 2.0),
            AbsorbingRule(transition_matrix(build_grid_graph(2, 2))),
            StructureFunction.column_paths(2, 2), 3000, seed=11,
        )
        assert np.array_equal(got, expected)

    def test_chain_output(self, tmp_path):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--rows", "1", "--cols", "2", "--rule", "equal",
            "--structure", "parallel", "--family", "exponential", "--scale", "1",
            "--replicas", "50000", "--chain", "5", "--seed", "2",
            "--tail-lo", "1e-3", "--tail-hi", "1e-1", "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "chain.csv").exists()
        _, rows = read_csv(out / "chain.csv")
        assert len(rows) == 10000

    def test_zero_replicas_usage_error(self, tmp_path):
        assert main(["simulate", "--replicas", "0", "--out", str(tmp_path / "x")]) == 2

    def test_unknown_flag_usage_error(self):
        assert main(["simulate", "--bogus"]) == 2

    def test_tail_window_checked_before_sampling(self, tmp_path, capsys):
        # 5000 replicas put 5 points in the default window (1e-5, 1e-3)
        out = tmp_path / "o"
        assert main(["simulate", "--rows", "2", "--cols", "2", "--replicas", "5000",
                     "--out", str(out)]) == 2
        assert "only 5 points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window", [["--tail-lo", "nan"], ["--tail-lo", "0.5", "--tail-hi", "0.1"]],
                             ids=["nan", "inverted"])
    def test_bad_tail_window_named(self, tmp_path, capsys, window):
        out = tmp_path / "o"
        assert main(["simulate", *_SMALL, "--replicas", "5000", *window, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "quantile window (" in err and "lo <= hi" in err
        assert "replica count" not in err
        assert not out.exists()

    def test_zero_draws_over_twenty_components(self, tmp_path):
        # shape 0.01 underflows some of the 21 x 2000 draws to 0.0; the scalar
        # path fails them at load 0, as the kernel does
        out = tmp_path / "sim"
        assert main(["simulate", "--rows", "3", "--cols", "7", "--rule", "equal",
                     "--structure", "parallel", "--shape", "0.01", "--replicas", "2000",
                     "--tail-lo", "0", "--tail-hi", "0.9", "--workers", "1",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "samples.csv")
        assert len(rows) == 2000

    def test_zero_strengths_in_the_tail_window_are_numerical(self, tmp_path, capsys):
        # shape 0.005 at scale 1e-300 underflows about half of the draws to 0.0
        # and overflows none, and the window (0, 0.5) holds only zero
        # strengths: no Weibull-plot point, so no tail fit
        out = tmp_path / "sim"
        assert main(["simulate", "--rows", "3", "--cols", "2", "--rule", "equal",
                     "--shape", "0.005", "--scale", "1e-300", "--replicas", "20000",
                     "--tail-lo", "0", "--tail-hi", "0.5", "--workers", "1",
                     "--out", str(out)]) == 3
        assert "10000 of the 10000 strengths in quantile window" in capsys.readouterr().err
        assert not (out / "tail_fit.json").exists()

    def test_overflowing_draws_are_numerical(self, tmp_path, capsys):
        # shape 0.001 overflows some draws to inf: a bundle that never breaks,
        # and inf * 0 shares in the kernel; the window (0.6, 0.9) misses them
        out = tmp_path / "sim"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # what Python would print to stderr
            assert main(["simulate", "--rows", "3", "--cols", "2", "--rule", "equal",
                         "--shape", "0.001", "--replicas", "20000", "--tail-lo", "0.6",
                         "--tail-hi", "0.9", "--workers", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "component strength draws overflowed to inf" in err
        # the CLI's message is the only report: no NumPy overflow warning
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in err
        assert not (out / "samples.csv").exists()
        assert not (out / "tail_fit.json").exists()

    def test_json_outputs_are_strict(self, tmp_path):
        with pytest.raises(ArithmeticError, match="fit.json: Out of range float"):
            cli._write_json(tmp_path / "fit.json", {"slope": math.nan})
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("command", [[], ["--rule", "absorbing"]], ids=["default", "absorbing"])
    def test_grid_over_the_matrix_bound_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "sim"
        assert main(["simulate", "--rows", "400", "--cols", "400", *command,
                     "--out", str(out)]) == 2
        assert "transition matrix for n = 160000 takes 204800000000 bytes" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_across_worker_counts(self, tmp_path):
        texts = []
        for w in (1, 2):
            out = tmp_path / f"w{w}"
            rc = main([
                "simulate", "--rows", "1", "--cols", "2", "--rule", "equal",
                "--structure", "parallel", "--family", "exponential", "--scale", "1",
                "--replicas", "140000", "--seed", "5", "--tail-lo", "1e-3",
                "--tail-hi", "1e-1", "--workers", str(w), "--out", str(out),
            ])
            assert rc == 0
            texts.append((out / "samples.csv").read_bytes())
        assert texts[0] == texts[1]


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "rows=1\ncols=2\nrule=equal\nstructure=parallel\nfamily=exponential\n"
            "scale=1.0\nreplicas=5000\nseed=9\ntail-lo=1e-3\ntail-hi=1e-1\nworkers=1\n"
        )
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--replicas", "7000", "--out", str(out)])
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["replicas"] == 7000  # flag wins
        assert man["config"]["rows"] == 1  # file value survives

    def test_bad_config_line_reported(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rows=1\nnot a setting\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 4

    def test_key_of_another_command_reported(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rows=1\nkind=pattern\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
        assert f"{cfg}:2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, named", [
        ("rule=bogus", "absorbing, equal, unit"),
        ("replicas=0", "positive"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_km_and_fit(self, tmp_path):
        rng = np.random.default_rng(0)
        xs = rng.weibull(5.0, size=200) * 2.0
        cut = np.quantile(xs, 0.9)
        f = tmp_path / "obs.csv"
        f.write_text("value,censored\n" + "\n".join(
            f"{min(v, cut)},{int(v > cut)}" for v in xs
        ) + "\n")
        out = tmp_path / "an"
        assert main(["analyze", "--input", str(f), "--out", str(out)]) == 0
        header, rows = read_csv(out / "km.csv")
        assert header == ["time", "surv", "lo", "hi"]
        surv = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(surv) <= 1e-12)
        fit = json.loads((out / "weibull_fit.json").read_text())
        assert fit["converged"] and 3.5 < fit["rho"] < 6.5

    def test_malformed_rows_reported_with_lines(self, tmp_path, capsys):
        f = tmp_path / "obs.csv"
        f.write_text("value,censored\n1.0,0\nbogus,7\n2.0,0\n,1\n")
        assert main(["analyze", "--input", str(f), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "3" in err and "5" in err  # 1-based line numbers of bad rows
        assert not (tmp_path / "o").exists()

    def test_non_finite_value_is_malformed(self, tmp_path, capsys):
        f = tmp_path / "obs.csv"
        f.write_text("value,censored\n1.0,0\ninf,1\n2.0,0\nnan,0\n")
        assert main(["analyze", "--input", str(f), "--out", str(tmp_path / "o")]) == 4
        assert "lines [3, 5]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_all_censored_km_only(self, tmp_path, caplog):
        f = tmp_path / "obs.csv"
        f.write_text("value,censored\n1.0,1\n2.0,1\n")
        out = tmp_path / "an"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # logged, not warned
            assert main(["analyze", "--input", str(f), "--out", str(out)]) == 0
        assert [(r.name, r.levelname) for r in caplog.records] == [("fiberbundle.stats", "WARNING")]
        assert "all observations are censored" in caplog.records[0].getMessage()
        assert not (out / "weibull_fit.json").exists()
        assert (out / "km.csv").read_text() == "time,surv,lo,hi\n"

    def test_all_censored_warning_is_one_stderr_line_per_run(self, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("value,censored\n1.0,1\n2.0,1\n")
        script = ("import logging, sys\nimport fiberbundle.cli as cli\n"
                  "rcs = [cli.main(['analyze', '--input', sys.argv[1], '--out', sys.argv[2] + str(k)])"
                  " for k in range(2)]\n"
                  "print(*rcs, len(logging.getLogger('fiberbundle').handlers))")
        proc = subprocess.run([sys.executable, "-c", script, str(f), str(tmp_path / "an")],
                              capture_output=True, text=True, env=_child_env(), timeout=120)
        assert proc.stdout.split() == ["0", "0", "0"]  # both runs exit 0, and no handler is left
        line = "WARNING fiberbundle.stats: all observations are censored; survival curve is constant 1\n"
        assert proc.stderr == 2 * line

    def test_missing_input_flag(self, tmp_path):
        assert main(["analyze", "--out", str(tmp_path / "o")]) == 2


class TestCycles:
    def test_high_peak_all_first_cycle(self, tmp_path):
        out = tmp_path / "cy"
        rc = main([
            "cycles", "--rows", "1", "--cols", "2", "--rule", "equal",
            "--structure", "parallel", "--family", "exponential", "--scale", "1",
            "--replicas", "4000", "--a", "0.8", "--s-star", "60.0",
            "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out / "cycles.csv")
        assert all(r[0] == "1" for r in rows)

    def test_degradation_bound_rejected(self, tmp_path):
        for a in ("1.0", "1.2", "1.4"):
            assert main(["cycles", "--a", a, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_summary_quantiles(self, tmp_path):
        out = tmp_path / "cy"
        rc = main([
            "cycles", "--rows", "1", "--cols", "2", "--rule", "equal",
            "--structure", "parallel", "--family", "exponential", "--scale", "1",
            "--replicas", "4000", "--a", "0.6", "--s-star", "0.4",
            "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads((out / "cycles_summary.json").read_text())
        assert summary["q5"] <= summary["q50"] <= summary["q95"]

    def test_unallocatable_replica_count_is_a_usage_error(self, tmp_path):
        # the child caps its own address space, so the 80 GB array fails to allocate
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
                  "import fiberbundle.cli as cli\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        argv = ["cycles", "--rows", "2", "--cols", "2", "--replicas", "10000000000",
                "--out", str(tmp_path / "cy")]
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=_child_env(), timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert re.fullmatch(r"error: 10000000000 replicas: [^\n]*\n", proc.stderr), proc.stderr
        assert not (tmp_path / "cy" / "cycles.csv").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--shape", "nan"), ("simulate", "--scale", "nan"),
    ("simulate", "--shape", "inf"), ("simulate", "--scale", "inf"),
    ("cycles", "--s-star", "nan"), ("cycles", "--s-star", "inf"),
])
def test_non_finite_model_or_load_is_a_usage_error(tmp_path, capsys, command, flag, value):
    out = tmp_path / "o"
    assert main([command, "--rows", "2", "--cols", "2", "--replicas", "2000", "--workers", "1",
                 flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: must be positive and finite, got {value}\n"
    assert not out.exists()


_EXPONENTIAL = {
    "simulate": ["simulate", "--rows", "2", "--cols", "2", "--replicas", "1000",
                 "--tail-lo", "0.01", "--tail-hi", "0.5", "--workers", "1"],
    "gibbs": ["gibbs", "--rows", "2", "--cols", "2", "--replicas", "1000",
              "--percentiles", "10,50", "--workers", "1"],
    "cycles": ["cycles", "--rows", "2", "--cols", "2", "--replicas", "1000", "--workers", "1"],
    "density": ["density", "--kind", "pattern", "--pattern", "1 2", "--rows", "1",
                "--cols", "2", "--s", "0.2,0.5"],
}


@pytest.mark.parametrize("command", list(_EXPONENTIAL))
@pytest.mark.parametrize("via", ["flag", "config"])
def test_shape_with_exponential_family_is_a_usage_error(tmp_path, capsys, command, via):
    # the exponential law has shape 1, so a given --shape would be echoed but not used
    out = tmp_path / "o"
    argv = [*_EXPONENTIAL[command], "--family", "exponential", "--out", str(out)]
    if via == "flag":
        argv += ["--shape", "3"]
    else:
        (tmp_path / "c.cfg").write_text("shape=3\n")
        argv += ["--config", str(tmp_path / "c.cfg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --shape: --family exponential fixes the shape at 1"), err
    assert not out.exists()
    assert main(argv[:argv.index("--out") + 2]) == 0  # without --shape it runs
    # and its manifest echoes the shape the law uses, not the --shape default
    assert json.loads((out / "manifest.json").read_text())["config"]["shape"] == 1.0
    if command == "simulate":
        assert json.loads((out / "tail_fit.json").read_text())["component_shape"] == 1.0


@pytest.mark.parametrize("argv, solves", [
    # the pre-check, the sampler and each build_gibbs read one 4,095-row table
    (["gibbs", "--rows", "3", "--cols", "4", "--percentiles", "1,50", "--replicas", "2000"], 4095),
    (["cycles", "--rows", "3", "--cols", "3", "--replicas", "2000"], 511),
], ids=["gibbs-3x4", "cycles-3x3"])
def test_one_absorbing_solve_per_mask_per_run(tmp_path, monkeypatch, argv, solves):
    from fiberbundle import loadshare

    calls = []
    solve = loadshare.absorption_probabilities

    def counting(p, member):
        calls.append(int(member @ (1 << np.arange(member.size))))
        return solve(p, member)

    monkeypatch.setattr(loadshare, "absorption_probabilities", counting)
    assert main([*argv, "--workers", "1", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == solves and sorted(calls) == list(range(1, solves + 1))


@pytest.mark.parametrize("command, per_replica", [
    ("cycles", 16), ("simulate", 24),
    pytest.param("simulate --chain 2", 24, id="simulate-chain-24"),
    # the chain (replicas / 2 strengths) is drawn before the sample is sorted in place
    pytest.param("simulate --chain 2", 20, id="simulate-chain-20"),
])
def test_memory_per_replica(tmp_path, command, per_replica):
    # the sampler's one 8-byte strength array, plus what the command holds beside it
    # while it writes; a first small run loads what any run loads
    grid = [*command.split(), "--rows", "2", "--cols", "2", "--workers", "1"]
    window = ["--tail-lo", "1e-3", "--tail-hi", "1e-1"] if command.startswith("simulate") else []
    assert main([*grid, "--replicas", "20000", *window, "--out", str(tmp_path / "warm")]) == 0
    replicas = 400_000
    tracemalloc.start()
    try:
        rc = main([*grid, "--replicas", str(replicas), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak / replicas <= per_replica, peak / replicas


class TestGibbsCommand:
    def test_small_grid_lmf_records(self, tmp_path):
        out = tmp_path / "gb"
        rc = main([
            "gibbs", "--rows", "1", "--cols", "2", "--rule", "equal",
            "--structure", "parallel", "--family", "weibull", "--shape", "5",
            "--scale", "2", "--replicas", "20000", "--percentiles", "10,50,90",
            "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out / "potentials.csv")
        assert header == ["subset_mask", "subset_size", "V", "U"]
        assert len(rows) == 4
        records = json.loads((out / "lmf.json").read_text())
        assert [r["p_prime"] for r in records] == [50.0, 90.0]
        assert all(r["p"] == 10.0 for r in records)

    def test_samples_file_source(self, tmp_path):
        samples = tmp_path / "s.csv"
        xs = np.random.default_rng(0).weibull(5.0, size=5000) * 1.4
        samples.write_text("strength\n" + "\n".join(repr(float(v)) for v in xs) + "\n")
        out = tmp_path / "gb"
        rc = main([
            "gibbs", "--rows", "1", "--cols", "2", "--rule", "equal",
            "--structure", "parallel", "--family", "weibull", "--shape", "5",
            "--scale", "2", "--samples", str(samples), "--percentiles", "50,90",
            "--out", str(out),
        ])
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        levels = man["derived"]["strength_levels"]
        assert levels["50.0"] == pytest.approx(float(np.quantile(xs, 0.5)))

    @pytest.mark.parametrize("ps, message", [
        ("1,abc", "--percentiles: could not convert string to float: 'abc'"),
        ("50,100", "--percentiles: percentiles must lie in (0, 100)"),
    ], ids=["unreadable", "out-of-range"])
    def test_bad_percentile_names_its_flag(self, tmp_path, capsys, ps, message):
        assert main(["gibbs", "--rows", "1", "--cols", "2", "--percentiles", ps,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_empty_percentiles_usage_error(self, tmp_path):
        assert main([
            "gibbs", "--rows", "1", "--cols", "2", "--percentiles", "",
            "--out", str(tmp_path / "o"),
        ]) == 2

    def test_positivity_failure_is_numerical(self, tmp_path, capsys, monkeypatch):
        # strengths of 1e-80 put every component CDF at 0, so the log odds
        # are undefined: exit 3 (numerical failure), not 2 (usage)
        samples = tmp_path / "tiny.csv"
        samples.write_text("strength\n" + "1e-80\n" * 5)
        assert main([
            "gibbs", "--rows", "2", "--cols", "2", "--percentiles", "50",
            "--samples", str(samples), "--out", str(tmp_path / "o"),
        ]) == 3
        assert "positivity" in capsys.readouterr().err
        # the exit code follows the error's kind, checked numerical first
        for exc, code in ((ValueError("usage"), 2), (OverflowError("overflow"), 3)):
            def fail(cfg, exc=exc):
                raise exc

            monkeypatch.setitem(cli._COMMANDS, "analyze", (fail, cli._COMMANDS["analyze"][1]))
            assert main(["analyze", "--out", str(tmp_path / "o")]) == code

    def test_underflowed_strength_level_is_numerical(self, tmp_path, capsys, monkeypatch):
        # under Weibull(0.01, 1e-300) the 10th percentile strength underflows to 0.0;
        # that is no usage error, and the run stops before it builds any measure
        from fiberbundle import gibbs

        def never(*args):
            raise AssertionError("build_gibbs ran")

        monkeypatch.setattr(gibbs, "build_gibbs", never)
        assert main([
            "gibbs", "--rows", "2", "--cols", "2", "--replicas", "2000", "--shape", "0.01",
            "--scale", "1e-300", "--percentiles", "10,50", "--workers", "1",
            "--out", str(tmp_path / "o"),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the 10.0 percentile strength level is 0.0"), err

    def test_fit_at_one_component_rejected_before_sampling(self, tmp_path, capsys, monkeypatch):
        # at n = 1 the reference measure has one potential, so every LMF fit is degenerate
        def never(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(cli, "sample_bundle_strengths", never)
        argv = ["gibbs", "--rows", "1", "--cols", "1", "--rule", "equal", "--percentiles", "1,50",
                "--replicas", "200", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: an LMF fit needs n >= 2 components, got n = 1; give one --percentiles\n")
        assert not (tmp_path / "o").exists()
        monkeypatch.undo()
        assert main(argv[:-5] + ["50"] + argv[-4:]) == 0
        assert json.loads((tmp_path / "o" / "lmf.json").read_text()) == []

    def test_too_large_grid_rejected(self, tmp_path):
        assert main([
            "gibbs", "--rows", "5", "--cols", "5", "--percentiles", "50",
            "--out", str(tmp_path / "o"),
        ]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ["nan", "-3"])
    def test_non_positive_strength_is_malformed(self, tmp_path, capsys, bad):
        samples = tmp_path / "s.csv"
        samples.write_text(f"strength\n1.5\n{bad}\n2.0\n")
        assert main([
            "gibbs", "--rows", "1", "--cols", "2", "--percentiles", "50",
            "--samples", str(samples), "--out", str(tmp_path / "o"),
        ]) == 4
        assert "lines [3]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestDensityCommand:
    def test_irwin_hall_triangle(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["density", "--kind", "irwin-hall", "--m", "2",
                   "--grid", "0:2:0.5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "density.csv")
        vals = [float(r[1]) for r in rows]
        assert vals == pytest.approx([0.0, 0.5, 1.0, 0.5, 0.0])

    def test_irwin_hall_scratch_bounded_before_allocating(self, tmp_path, capsys):
        # the default grid has 1,000,001 points: 10^11 values per scratch array
        out = tmp_path / "d"
        assert main(["density", "--kind", "irwin-hall", "--m", "100000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --m: m = 100000 at 1000001 points")
        assert not out.exists()

    def test_order_stat_joint_overflowing_grid_is_a_usage_error(self, tmp_path, capsys):
        # y = x + (y - x) = 1e308 + 1e308 overflows to inf
        out = tmp_path / "d"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # what Python would print to stderr
            assert main(["density", "--kind", "order-stat-joint", "--x-grid", "1e308:1e308:1",
                         "--y-grid", "1e308:1e308:1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: --x-grid, --y-grid: y = x + (y - x) overflows a float64\n"
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_mixing_normalizer_reported(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["density", "--kind", "mixing", "--k", "2", "--n", "5", "--out", str(out)])
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        # 1/N = 4 * 5, and its log stays finite where 1/N overflows a float64
        assert man["derived"] == {"log_normalizing_constant": pytest.approx(math.log(20.0),
                                                                            rel=0.0, abs=1e-15)}

    @pytest.mark.parametrize("args", [
        ["--kind", "tilted", "--k", "170", "--l", "173", "--n", "400", "--x", "5", "--y", "6"],
        ["--kind", "tilted", "--k", "3", "--l", "6", "--n", "8", "--x", "1e3", "--y", "1e6"],
        ["--kind", "tilted", "--k", "3", "--l", "6", "--n", "8", "--x", "1", "--y", "1e308"],
        ["--kind", "mixing", "--k", "170", "--n", "400"],
    ], ids=["tilted", "tilted-steep", "tilted-overflowing-tilt", "mixing"])
    def test_underflowed_normalizer_tabulates_finite_density(self, tmp_path, capsys, args):
        # 1 / (231 * 232 * ... * 400) underflows, and so does e^{-5 theta} on [231, 400];
        # tilt * theta overflows at y = 1e308.  The pdf reads log N, and its tilt term
        # is tilt * (theta - shift)
        out = tmp_path / "d"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # what Python would print to stderr
            assert main(["density", *args, "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        table = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(table))
        if args[1] == "mixing":
            theta, pdf = table.T
            assert pdf.max() == pytest.approx(0.102, abs=1e-3)
            assert np.sum(pdf) * (theta[1] - theta[0]) == pytest.approx(1.0, abs=1e-6)
        man = json.loads((out / "manifest.json").read_text())
        assert all(math.isfinite(v) for v in man.get("derived", {}).values())

    def test_overflowing_tilted_density_is_a_numerical_failure(self, tmp_path, capsys):
        # each factor peaks near its tilt, 1e300 and 1.7e308: their product is past the floats
        out = tmp_path / "d"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # what Python would print to stderr
            assert main(["density", "--kind", "tilted", "--k", "2", "--l", "4", "--n", "6",
                         "--x", "1e300", "--y", "1.7e308", "--out", str(out)]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ("numerical failure: the tilted density at x = 1e+300, "
                                           "y = 1.7e+308 overflows a float64\n")
        assert not (out / "density.csv").exists()

    @pytest.mark.parametrize("k, l, n", [(4, 200, 1000), (170, 172, 400)])
    def test_order_stat_joint_needs_no_float_normalizer(self, tmp_path, k, l, n):
        # the spacing law's normalizer, 1 / (801 * 802 * ... * 996) at (4, 200, 1000),
        # underflows a float64, but the gamma mixtures read its logarithm
        out = tmp_path / "d"
        assert main(["density", "--kind", "order-stat-joint", "--k", str(k), "--l", str(l),
                     "--n", str(n), "--out", str(out)]) == 0
        table = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
        direct, mixture, rel = table[:, 2], table[:, 3], table[:, 4]
        shown = direct > 0
        assert shown.sum() >= 5
        # direct, in log space, does not underflow where the mixture is positive
        assert np.array_equal(shown, mixture > 0)
        assert np.all(np.abs(mixture[shown] - direct[shown]) <= 1e-9 * direct[shown])
        assert np.all(rel <= 1e-9)

    def test_order_stat_joint_with_overflowing_constant(self, tmp_path):
        # n!/((k-1)! (l-k-1)! (n-l)!) is about 10^453 at (250, 500, 1000): no float holds it
        out = tmp_path / "d"
        assert main(["density", "--kind", "order-stat-joint", "--k", "250", "--l", "500",
                     "--n", "1000", "--x-grid", "0.3:0.3:1", "--y-grid", "0.4:0.4:1",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "density.csv")
        (x, y, direct, mixture, rel), = [[float(v) for v in r] for r in rows]
        assert (x, y) == (0.3, 0.7) and math.isfinite(direct) and direct > 1.0
        assert abs(mixture - direct) <= 1e-9 * direct and rel <= 1e-9

    def test_order_stat_joint_overflow_warns_nothing(self, tmp_path):
        # rate * y overflows at y = 1e308 in both paths; e^-inf = 0 is the density there
        out = tmp_path / "d"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # what Python would print to stderr
            assert main(["density", "--kind", "order-stat-joint", "--k", "2", "--l", "4",
                         "--n", "6", "--x-grid", "1e-300:1e-300:1", "--y-grid", "1e308:1e308:1",
                         "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        _, rows = read_csv(out / "density.csv")
        assert [[float(v) for v in r[2:]] for r in rows] == [[0.0, 0.0, 0.0]]

    def test_order_stat_joint_disagreement_column(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["density", "--kind", "order-stat-joint", "--k", "2", "--l", "4",
                   "--n", "6", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "density.csv")
        assert max(float(r[4]) for r in rows) < 1e-6

    def test_order_stat_joint_integrand_calls(self, tmp_path, monkeypatch):
        # the benchmark's density sizes: the gamma mixtures and their normalizers
        # are closed forms, so no Irwin-Hall density is evaluated
        from fiberbundle import threshold

        calls = []
        pdf = threshold.irwin_hall_pdf
        monkeypatch.setattr(threshold, "irwin_hall_pdf", lambda m, t: calls.append(m) or pdf(m, t))
        rc = main(["density", "--kind", "order-stat-joint", "--k", "4", "--l", "9", "--n", "12",
                   "--x-grid", "0.13:1.93:0.2", "--y-grid", "0.17:1.97:0.2",
                   "--out", str(tmp_path / "d")])
        assert rc == 0
        _, rows = read_csv(tmp_path / "d" / "density.csv")
        assert len(rows) == 100
        assert calls == []

    def test_pattern_density_row(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["density", "--kind", "pattern", "--pattern", "1(2)", "--rows", "1",
                   "--cols", "2", "--rule", "equal", "--family", "exponential",
                   "--scale", "1", "--s", "0.3", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "density.csv")
        expected = (np.exp(-0.3) - np.exp(-0.6)) * np.exp(-0.3)
        assert float(rows[0][1]) == pytest.approx(expected)

    @pytest.mark.parametrize("pattern, s", [("1 2", "1,1e300"), ("1(2)", "1e300")])
    def test_pattern_density_at_an_overflowing_hazard(self, tmp_path, pattern, s):
        # (s / scale)**5 overflows a float64 at s = 1e300: the density there is 0
        out = tmp_path / "d"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # what Python would print to stderr
            assert main(["density", "--kind", "pattern", "--pattern", pattern, "--s", s,
                         "--rows", "1", "--cols", "2", "--rule", "equal",
                         "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        _, rows = read_csv(out / "density.csv")
        assert [r[-1] for r in rows] == ["0.0"]

    def test_pattern_input_built_once(self, tmp_path, monkeypatch):
        # five working sets on the pattern's walk, solved once for all ten --s
        from fiberbundle import loadshare

        calls = []
        solve = loadshare.absorption_probabilities

        def counting(p, member):
            calls.append(int(member @ (1 << np.arange(member.size))))
            return solve(p, member)

        monkeypatch.setattr(loadshare, "absorption_probabilities", counting)
        stresses = [f"{0.1 * k},{0.1 * k + 0.2},{0.1 * k + 0.5}" for k in range(1, 11)]
        rc = main(["density", "--kind", "pattern", "--pattern", "1(2,3) 4(5) 6", "--rows", "2",
                   "--cols", "3", "--rule", "absorbing", *(f"--s={s}" for s in stresses),
                   "--out", str(tmp_path / "d")])
        assert rc == 0
        _, rows = read_csv(tmp_path / "d" / "density.csv")
        assert len(rows) == 10
        assert len(calls) == 5 and len(set(calls)) == 5

    def test_pattern_label_outside_bundle(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["density", "--kind", "pattern", "--pattern", "3", "--rows", "1", "--cols", "2",
                     "--rule", "equal", "--s", "0.3", "--out", str(out)]) == 2
        assert "component 3, but the bundle has n = 2" in capsys.readouterr().err
        assert not out.exists()

    def test_pattern_label_zero_named(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["density", "--kind", "pattern", "--pattern", "0 1", "--rows", "1",
                     "--cols", "2", "--rule", "equal", "--s", "0.5,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: bad pattern at position 0: expected component label >= 1, got 0 in '0 1'\n")
        assert not out.exists()

    def test_options_the_kind_does_not_read_rejected(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["density", "--kind", "irwin-hall", "--m", "2", "--pattern", "1(2)",
                     "--k", "9", "--out", str(out)]) == 2
        assert "--kind irwin-hall does not read --k, --pattern" in capsys.readouterr().err
        conf = tmp_path / "c.cfg"
        conf.write_text("kind=mixing\nk=2\nn=5\nrule=equal\n")
        assert main(["density", "--config", str(conf), "--out", str(out)]) == 2
        assert "--kind mixing does not read --rule" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["--kind", "irwin-hall", "--m", "2", "--grid", "0:1e15:1"], "--grid"),
        (["--kind", "irwin-hall", "--m", "2", "--grid", "0:1:1e-8"], "--grid"),
        (["--kind", "irwin-hall", "--m", "2", "--grid", "0:inf:1"], "--grid"),
        (["--kind", "irwin-hall", "--m", "2", "--grid", "0:1:nan"], "--grid"),
        (["--kind", "irwin-hall", "--m", "2", "--grid=-1e308:1e308:1"], "--grid"),
        (["--kind", "mixing", "--k", "2", "--n", "5", "--grid", "nan:5:0.1"], "--grid"),
        (["--kind", "order-stat-joint", "--x-grid", "0.1:1:inf"], "--x-grid"),
        (["--kind", "order-stat-joint", "--x-grid", "0:2:1e-3", "--y-grid", "0:1:1e-3"],
         "--x-grid x --y-grid"),
    ], ids=["huge", "fine", "inf", "nan", "overflow", "mixing-nan", "x-inf", "product"])
    def test_grid_bounded_before_allocating(self, tmp_path, capsys, args, flag):
        out = tmp_path / "d"
        assert main(["density", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
        assert not out.exists()

    def test_grid_at_the_row_bound_runs(self, tmp_path):
        out = tmp_path / "d"
        top = cli._MAX_TABLE_ROWS - 1
        assert main(["density", "--kind", "irwin-hall", "--m", "1", "--grid", f"0:{top}:1",
                     "--out", str(out)]) == 0
        assert (out / "density.csv").read_text().count("\n") == cli._MAX_TABLE_ROWS + 1

    def test_no_grid_point_past_hi(self, tmp_path):
        out = tmp_path / "d"
        assert main(["density", "--kind", "irwin-hall", "--m", "2", "--grid", "0:1:0.6",
                     "--out", str(out)]) == 0
        assert [row.split(",")[0] for row in (out / "density.csv").read_text().split()] == [
            "t", "0.0", "0.6"]
        # a span within rounding of an integer keeps the point at hi
        for spec, count in [("0:1:0.1", 11), ("0.2:1.0:0.2", 5), ("0:0.3:0.1", 4), ("0:1:0.5", 3),
                            ("0:1:0.3", 4), ("0:2:0.6", 4), ("5:5:1", 1)]:
            assert cli._grid_values(spec).size == count, spec
        from fiberbundle import threshold as th

        for k, n in ((k, n) for n in range(2, 12) for k in range(2, n + 1)):
            lo, hi = th.order_stat_mixing(k, n).support  # the mixing kind's default grid
            assert cli._grid_values(f"{lo}:{hi}:{(hi - lo) / 50}").size == 51
            tc = th.TiltedConditional(k, n + 2, n + 2, 0.5, 1.0)
            for lo, hi in (tc.law1.support, tc.law2.support):  # the tilted kind's grids
                assert cli._grid_values(f"{lo}:{hi}:{(hi - lo) / 20}").size == 21

    def test_unreadable_stress_names_its_flag(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["density", "--kind", "pattern", "--pattern", "1 2", "--rows", "1",
                     "--cols", "2", "--rule", "equal", "--s", "0.3,abc", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --s: stress vector '0.3,abc': could not convert string to float: 'abc'\n")
        assert not out.exists()

    @pytest.mark.parametrize("s", ["1,nan", "inf"])
    def test_non_finite_stress_rejected(self, tmp_path, capsys, s):
        out = tmp_path / "d"
        pattern = "1 2" if "," in s else "1(2)"
        assert main(["density", "--kind", "pattern", "--pattern", pattern, "--rows", "1",
                     "--cols", "2", "--rule", "equal", "--s", s, "--out", str(out)]) == 2
        assert "--s: stress vector" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("s, why", [("0.5,0.3", "strictly increasing"),
                                         ("0.3", "must have 2 entries")])
    def test_bad_stress_vector_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                         s, why):
        from fiberbundle import loadshare

        def solve(p, member):
            raise AssertionError("absorbing system solved for a rejected --s")

        monkeypatch.setattr(loadshare, "absorption_probabilities", solve)
        out = tmp_path / "d"
        assert main(["density", "--kind", "pattern", "--pattern", "1 2", "--rows", "2",
                     "--cols", "2", "--rule", "absorbing", "--s", s, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--s: stress vector '{s}'" in err and why in err
        assert not out.exists()

    def test_unknown_kind(self, tmp_path):
        assert main(["density", "--kind", "irwin-hall", "--m", "-3",
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["density", "--out", str(tmp_path / "o")]) == 2


_ROWS = {
    "simulate": {"rows", "cols", "rule", "structure", "family", "shape", "scale", "replicas",
                 "seed", "workers", "chain", "tail_lo", "tail_hi", "out"},
    "gibbs": {"rows", "cols", "rule", "structure", "family", "shape", "scale", "replicas",
              "seed", "workers", "percentiles", "samples", "out"},
    "analyze": {"input", "out"},
    "cycles": {"rows", "cols", "rule", "structure", "family", "shape", "scale", "replicas",
               "seed", "workers", "a", "s_star", "out"},
    "density": {"kind", "m", "k", "l", "n", "grid", "x_grid", "y_grid", "x", "y", "pattern",
                "s", "rows", "cols", "rule", "family", "shape", "scale", "out"},
}
_SMALL = ["--rows", "1", "--cols", "2", "--rule", "equal", "--family", "exponential",
          "--scale", "1"]


class TestOptionRows:
    def test_each_command_takes_its_own_flags(self):
        sub = next(a for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for name, keys in _ROWS.items():
            flags = {f for a in sub.choices[name]._actions for f in a.option_strings}
            assert flags - {"-h", "--help", "--config"} == {
                "--" + k.replace("_", "-") for k in keys}

    @pytest.mark.parametrize("command", list(_ROWS))
    def test_command_help_equals_full_parser(self, command, capsys):
        # main builds only the running command's arguments
        with pytest.raises(SystemExit):
            cli._parser().parse_args([command, "--help"])
        full = capsys.readouterr().out
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == full and full.startswith(f"usage: fiberbundle {command}")

    def test_top_level_help_unchanged_by_chosen_command(self, capsys):
        full = cli._parser().format_help()
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == full
        for command in _ROWS:
            parser = cli._parser(command)
            assert parser.format_help() == full
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            bare = [name for name, p in sub.choices.items() if len(p._actions) == 1]
            assert sorted(bare) == sorted(set(_ROWS) - {command})

    @pytest.mark.parametrize("argv", [
        ["analyze", "--input", "obs.csv", "--replicas", "5"],
        ["density", "--kind", "irwin-hall", "--chain", "2"],
        ["simulate", "--kind", "pattern"],
    ], ids=["analyze-replicas", "density-chain", "simulate-kind"])
    def test_flag_of_another_command_rejected(self, tmp_path, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--s", "0.3"], ["--pattern", "1(2)"]],
                             ids=["no-pattern", "no-stress"])
    def test_rejected_pattern_density_leaves_no_output_directory(self, tmp_path, args):
        out = tmp_path / "o"
        assert main(["density", "--kind", "pattern", *args, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, args", [
        ("simulate", [*_SMALL, "--replicas", "5000", "--tail-lo", "1e-3", "--tail-hi", "1e-1",
                      "--workers", "1"]),
        ("gibbs", [*_SMALL, "--replicas", "2000", "--percentiles", "10,50", "--workers", "1"]),
        ("analyze", ["--input", "{obs}"]),
        ("cycles", [*_SMALL, "--replicas", "2000", "--a", "0.8", "--workers", "1"]),
        ("density", ["--kind", "irwin-hall", "--m", "2"]),
    ])
    def test_manifest_echoes_only_the_commands_options(self, tmp_path, command, args):
        obs = tmp_path / "obs.csv"
        obs.write_text("value,censored\n1.0,0\n1.5,0\n2.0,0\n")
        out = tmp_path / "o"
        argv = [command, *(a.format(obs=obs) for a in args), "--out", str(out)]
        assert main(argv) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        if command == "density":  # of its flags, a density kind echoes those it reads
            assert set(config) == {"kind", "m", "grid", "out"}
        else:
            assert set(config) == _ROWS[command]

    @pytest.mark.parametrize("args, reads", [
        (["--kind", "irwin-hall"], {"m", "grid"}),
        (["--kind", "mixing"], {"k", "n", "grid"}),
        (["--kind", "order-stat-joint"], {"k", "l", "n", "x_grid", "y_grid"}),
        (["--kind", "tilted"], {"k", "l", "n", "x", "y"}),
        (["--kind", "pattern", "--pattern", "1 2", "--s", "0.5,1", *_SMALL],
         {"pattern", "s", "rows", "cols", "rule", "family", "shape", "scale"}),
    ], ids=["irwin-hall", "mixing", "order-stat-joint", "tilted", "pattern"])
    def test_density_manifest_echoes_only_the_kinds_options(self, tmp_path, args, reads):
        out = tmp_path / "o"
        assert main(["density", *args, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == {"kind", "out", *reads}


def _readme_command_line():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_examples_parse():
    block = _readme_command_line().split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("fiberbundle ")]
    assert len(commands) == 7
    for argv in commands:
        cli._parser().parse_args(argv[1:])


def test_readme_option_table_matches_rows():
    listed = {}
    for line in _readme_command_line().splitlines():
        cells = [c.strip(" `") for c in line.split("|")[1:-1]]
        if len(cells) == 2 and cells[0] in _ROWS:
            listed[cells[0]] = set(cells[1].split())
    assert listed == {name: {"--" + k.replace("_", "-") for k in keys}
                      for name, keys in _ROWS.items()}


def test_readme_kind_table_matches_reads():
    listed = {}
    for line in _readme_command_line().splitlines():
        cells = [c.strip(" `") for c in line.split("|")[1:-1]]
        if len(cells) == 2 and cells[0] in cli._KIND_READS:
            listed[cells[0]] = cells[1].split()
    assert listed == {kind: [cli._flag(k) for k in keys] for kind, keys in cli._KIND_READS.items()}


def _density_rows(kind):
    """density.csv rows evaluated one grid point at a time, as the CLI once did."""
    from fiberbundle import threshold as th
    from fiberbundle.cascade import parse_pattern
    from fiberbundle.distributions import StrengthModel
    from fiberbundle.loadshare import AbsorbingRule, build_grid_graph, transition_matrix

    grid = cli._grid_values
    if kind == "irwin-hall":
        return [(t, float(th.irwin_hall_pdf(3, t))) for t in grid("0:3:0.1")]
    if kind == "mixing":
        mix = th.order_stat_mixing(3, 7)
        lo, hi = mix.support
        return [(t, float(mix.pdf(t))) for t in grid(f"{lo}:{hi}:{(hi - lo) / 50}")]
    if kind == "order-stat-joint":
        joint = th.OrderStatJointDensity(2, 4, 6)
        rows = []
        for xv in grid("0.2:1.0:0.2"):
            for dy in grid("0.2:1.0:0.2"):
                yv = xv + dy
                d, m = joint.direct(xv, yv), joint.mixture(xv, yv)
                rows.append((xv, yv, d, m, abs(d - m) / d if d else 0.0))
        return rows
    if kind == "tilted":
        tc = th.TiltedConditional(2, 4, 6, 0.5, 1.0)
        return [(t1, t2, tc.law1.pdf(t1) * tc.law2.pdf(t2), tc.law1.pdf(t1), tc.law2.pdf(t2))
                for t1 in grid("5:6:0.05") for t2 in grid("3:4:0.05")]
    rule = AbsorbingRule(transition_matrix(build_grid_graph(1, 3)))
    model = StrengthModel("weibull", 5.0, 2.0)
    pattern = parse_pattern("1(2) 3")
    inp = th.pattern_density_input(pattern, rule, 3, model)
    return [(*s, th.phase1_pattern_density(inp, s)) for s in ([0.3, 0.5], [0.2, 0.9])]


@pytest.mark.parametrize("kind, args, header", [
    ("irwin-hall", ["--m", "3"], ["t", "pdf"]),
    ("mixing", ["--k", "3", "--n", "7"], ["theta", "pdf"]),
    ("order-stat-joint", ["--k", "2", "--l", "4", "--n", "6"],
     ["x", "y", "direct", "mixture", "rel_err"]),
    ("tilted", ["--k", "2", "--l", "4", "--n", "6"],
     ["theta1", "theta2", "pdf", "factor1", "factor2"]),
    ("pattern", ["--pattern", "1(2) 3", "--rows", "1", "--cols", "3", "--rule", "absorbing",
                 "--s", "0.3,0.5", "--s", "0.2,0.9"], ["s1", "s2", "density"]),
])
def test_density_table_equals_pointwise_rows(tmp_path, kind, args, header):
    assert main(["density", "--kind", kind, *args, "--out", str(tmp_path / "d")]) == 0
    write_rows(tmp_path / "rows.csv", header, _density_rows(kind))
    assert (tmp_path / "d" / "density.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestWorkers:
    def test_negative_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", *_SMALL, "--replicas", "100", "--workers", "-3",
                     "--out", str(out)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_uses_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._workers({"workers": 0}) == 3

    def test_zero_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli._workers({"workers": 0}) == 5


_SCIPY_ON_DEMAND = """
import json, sys
import fiberbundle.cli as cli
loaded = sorted(k for k in sys.modules if k.startswith("scipy"))
out = sys.argv[1]
with open(out + "/obs.csv", "w") as fh:
    fh.write("value,censored\\n1.0,0\\n1.5,0\\n2.0,0\\n2.5,1\\n")
rc_gibbs = cli.main(["gibbs", "--rows", "1", "--cols", "2", "--rule", "equal",
                     "--structure", "parallel", "--replicas", "2000",
                     "--percentiles", "10,50", "--workers", "1", "--out", out + "/gb"])
after_gibbs = sorted(k for k in sys.modules if k.startswith("scipy"))
from fiberbundle import threshold
from fiberbundle.cascade import parse_pattern
from fiberbundle.distributions import unit_exponential
from fiberbundle.loadshare import EqualRule
prob = threshold.pattern_probability(parse_pattern("1 2"), EqualRule(2), 2, unit_exponential())
after_prob = sorted(k for k in sys.modules if k.startswith("scipy"))
rc_analyze = cli.main(["analyze", "--input", out + "/obs.csv", "--out", out + "/an"])
print(json.dumps({"loaded": loaded, "after_gibbs": after_gibbs, "after_prob": after_prob,
                  "analyze": rc_analyze, "gibbs": rc_gibbs, "prob": prob}))
"""


def _child_env():
    """This process's environment, with the package under test first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


_MODULES_LOADED = """
import json, sys
def loaded():
    return sorted(k for k in sys.modules if k.startswith(("fiberbundle.", "concurrent.futures",
                                                          "multiprocessing")))
import fiberbundle.cli as cli
on_import = loaded()
rc = cli.main(sys.argv[1:])
print(json.dumps({"on_import": on_import, "rc": rc, "after": loaded()}))
"""


def _modules_loaded(*argv):
    proc = subprocess.run([sys.executable, "-c", _MODULES_LOADED, *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    return result


def test_each_command_loads_only_its_modules(tmp_path):
    density = _modules_loaded("density", "--kind", "order-stat-joint", "--out", str(tmp_path / "d"))
    assert density["on_import"] == ["fiberbundle.cli", "fiberbundle.distributions"]
    assert density["after"] == ["fiberbundle.cli", "fiberbundle.csvtext",
                                "fiberbundle.distributions", "fiberbundle.threshold"]
    simulate = _modules_loaded("simulate", *_SMALL, "--replicas", "5000", "--tail-lo", "1e-3",
                               "--tail-hi", "1e-1", "--workers", "1", "--out", str(tmp_path / "s"))
    assert simulate["after"] == ["fiberbundle.cascade", "fiberbundle.cli", "fiberbundle.csvtext",
                                 "fiberbundle.distributions", "fiberbundle.loadshare",
                                 "fiberbundle.stats"]


def test_density_loads_no_numpy_polynomial(tmp_path):
    script = ("import sys\nimport fiberbundle.cli as cli\nrc = cli.main(sys.argv[1:])\n"
              "print(rc, sorted(k for k in sys.modules if k.startswith('numpy.polynomial')))")
    argv = ["density", "--kind", "order-stat-joint", "--k", "4", "--l", "9", "--n", "12",
            "--out", str(tmp_path / "d")]
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]


@pytest.mark.parametrize("argv", [
    ["gibbs", *_SMALL, "--replicas", "2000", "--percentiles", "10,50,90", "--workers", "1"],
    ["cycles", *_SMALL, "--replicas", "2000", "--workers", "1"],
], ids=["gibbs", "cycles"])
def test_percentiles_load_no_numpy_ma(tmp_path, argv):
    # np.quantile and np.median import numpy.ma; the commands select order statistics themselves
    script = ("import sys\nimport fiberbundle.cli as cli\nrc = cli.main(sys.argv[1:])\n"
              "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_python_dash_m_runs_the_cli(tmp_path):
    run = [sys.executable, "-m", "fiberbundle"]
    proc = subprocess.run([*run, "--help"], capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fiberbundle ")
    # the exit code is main's
    proc = subprocess.run([*run, "cycles", "--s-star", "nan", "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: --s-star: must be positive and finite, got nan\n"


def test_cli_import_loads_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_ON_DEMAND, str(tmp_path)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert result["after_gibbs"] == []
    assert result["after_prob"] == []
    assert result["analyze"] == 0 and result["gibbs"] == 0
    assert (tmp_path / "an" / "weibull_fit.json").exists()
    assert (tmp_path / "gb" / "lmf.json").exists()
    assert result["prob"] == pytest.approx(1 / 3, abs=1e-15)
