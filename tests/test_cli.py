import csv
import json
import math

import numpy as np
import pytest

from floquet_ising import cli, states
from floquet_ising.cli import main
from floquet_ising.config import ConfigError, RunConfig
from floquet_ising.dynamics import magnetization_series
from floquet_ising.metrology import qfi_series
from floquet_ising.model import ModelSpec
from floquet_ising.quasienergy import RESIDUAL_TOL, UNIT_MODULUS_TOL
from floquet_ising.spectral import subharmonic_weight
from floquet_ising.sweep import AnalysisSettings, GridSpec, SweepSettings, sweep_diagnostic


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.model.n_qubits == 3
        assert config.analysis.transient_discard == 50
        assert config.analysis.spectrum_samples == 512
        assert config.analysis.n_max == 200
        assert config.analysis.fit_window == 0.5
        assert config.analysis.pd_threshold == 0.8
        assert config.analysis.pair_tolerance == 0  # 0.05 pi/T

    def test_ini_roundtrip(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "# comment line\n"
            "[model]\n"
            "n_qubits = 4\n"
            "hx_t = pi  # inline comment\n"
            "boundary = chain\n"
            "[sweep]\n"
            "h_count = 5\n"
        )
        config = RunConfig.from_file(ini)
        assert config.model.n_qubits == 4
        assert config.model.hx_t == pytest.approx(math.pi)
        assert config.model.boundary == "chain"
        assert config.sweep.h_count == 5

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            RunConfig.from_file(ini)

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            RunConfig.from_file(ini)

    def test_bad_value_names_field(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nn_qubits = three\n")
        with pytest.raises(ConfigError, match=r"\[model\] n_qubits"):
            RunConfig.from_file(ini)

    def test_json_sidecar_accepted(self, tmp_path):
        config = RunConfig()
        config.model.hx_t = 1.234
        sidecar = tmp_path / "run.json"
        sidecar.write_text(json.dumps({"config": config.to_dict()}))
        loaded = RunConfig.from_file(sidecar)
        assert loaded.to_dict() == config.to_dict()


class TestCommands:
    def test_evolve_writes_series(self, tmp_path):
        out = tmp_path / "evolve"
        code = main([
            "evolve", "--hxt", "2.6", "--jt", "1.57", "--periods", "40",
            "-o", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "mz.csv")
        assert len(rows) == 41
        series = magnetization_series(
            ModelSpec.dimensionless(3, 2.6, 1.57), states.all_zero_state(3), 40
        )
        assert float(rows[7]["value"]) == series.values[7]
        assert (out / "czz.csv").exists()
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["command"] == "evolve"
        assert sidecar["config"]["model"]["hx_t"] == 2.6

    def test_spectrum_summary(self, tmp_path):
        out = tmp_path / "spectrum"
        code = main(["spectrum", "--hxt", "2.6", "--jt", "1.57", "-o", str(out)])
        assert code == 0
        sidecar = json.loads((out / "run.json").read_text())
        series = magnetization_series(
            ModelSpec.dimensionless(3, 2.6, 1.57), states.all_zero_state(3), 562
        )
        assert sidecar["summary"]["weight"] == pytest.approx(subharmonic_weight(series).weight)
        rows = read_csv(out / "spectrum.csv")
        assert len(rows) == 512
        assert [r["k"] for r in rows[:3]] == ["0", "1", "2"]

    def test_quasi_outputs(self, tmp_path):
        out = tmp_path / "quasi"
        code = main(["quasi", "--hxt", "2.6", "--jt", "1.57", "-o", str(out)])
        assert code == 0
        eps = read_csv(out / "quasienergies.csv")
        assert len(eps) == 8
        pairs = read_csv(out / "pairs.csv")
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["summary"]["n_pairs"] == len(pairs)
        summary = read_csv(out / "summary.csv")[0]
        assert float(summary["f_pi"]) == sidecar["summary"]["f_pi"]
        health = sidecar["summary"]["health"]
        assert 0.0 <= health["modulus_error"] <= UNIT_MODULUS_TOL
        assert 0.0 <= health["residual"] <= RESIDUAL_TOL

    def test_qfi_matches_library(self, tmp_path):
        out = tmp_path / "qfi"
        code = main(["qfi", "--theta", "hx", "--hxt", "2.6", "--jt", "0.1",
                     "--n-max", "60", "-o", str(out)])
        assert code == 0
        rows = read_csv(out / "qfi_hx.csv")
        series = qfi_series(
            ModelSpec.dimensionless(3, 2.6, 0.1), "hx", states.all_zero_state(3), 60
        )
        assert float(rows[60]["value"]) == series.values[60]
        fit = json.loads((out / "curvature.json").read_text())
        assert set(fit) == {"a", "b", "c", "kappa", "rms", "window"}

    def test_cfi_flags_column(self, tmp_path):
        out = tmp_path / "cfi"
        code = main(["cfi", "--theta", "j", "--observable", "czz",
                     "--hxt", "0.0", "--jt", "1.3", "--n-max", "30", "-o", str(out)])
        assert code == 0
        rows = read_csv(out / "cfi_j_czz.csv")
        assert all(r["flag"] == "undefined" for r in rows)

    def test_sweep_toy_grid_deterministic(self, tmp_path):
        args = ["sweep", "--diag", "weight", "--h-min", "0", "--h-max", "3.14159",
                "--h-count", "5", "--j-min", "0", "--j-max", "3.14159",
                "--j-count", "5", "--samples", "64", "--discard", "10"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["-o", str(out_a)]) == 0
        assert main(args + ["-o", str(out_b)]) == 0
        rows = read_csv(out_a / "sweep_weight.csv")
        assert len(rows) == 25
        assert set(rows[0]) == {"hxT", "JT", "value", "pd_flag"}
        assert (out_a / "sweep_weight.csv").read_bytes() == (out_b / "sweep_weight.csv").read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "json"
        code = main(["evolve", "--periods", "10", "--format", "json", "-o", str(out)])
        assert code == 0
        records = json.loads((out / "mz.json").read_text())
        assert len(records) == 11
        assert set(records[0]) == {"n", "value"}

    def test_json_format_is_strict_json(self, tmp_path):
        # the CFI at n = 0 from |000> is undefined (nan): null in JSON, nan in CSV
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        args = ["cfi", "--theta", "hx", "--observable", "czz", "-N", "3", "--n-max", "20"]
        assert main(args + ["--format", "json", "-o", str(tmp_path / "json")]) == 0
        records = json.loads((tmp_path / "json" / "cfi_hx_czz.json").read_text(), parse_constant=reject)
        assert records[0]["value"] is None and records[0]["flag"] == "undefined"
        for name in ("run.json", "curvature.json"):
            json.loads((tmp_path / "json" / name).read_text(), parse_constant=reject)
        assert main(args + ["-o", str(tmp_path / "csv")]) == 0
        assert read_csv(tmp_path / "csv" / "cfi_hx_czz.csv")[0]["value"] == "nan"

    @pytest.mark.parametrize("args", [
        ["evolve", "--periods", "20"],
        ["spectrum", "--samples", "16", "--discard", "4"],
        ["quasi"],
        ["qfi", "--theta", "hx", "--n-max", "30"],
        ["cfi", "--theta", "hx", "--observable", "czz", "--n-max", "20"],
        ["sweep", "--h-count", "3", "--j-count", "2", "--samples", "16", "--discard", "4"],
    ], ids=lambda args: args[0])
    def test_csv_and_json_tables_agree(self, tmp_path, args):
        # value for value, null for nan, and every CSV number in its .17g spelling
        assert main(args + ["-o", str(tmp_path / "csv")]) == 0
        assert main(args + ["--format", "json", "-o", str(tmp_path / "json")]) == 0
        json_only = {"run.json", "curvature.json"}
        tables = sorted(p.stem for p in (tmp_path / "csv").glob("*.csv"))
        assert tables == sorted(p.stem for p in (tmp_path / "json").glob("*.json") if p.name not in json_only)
        for stem in tables:
            rows = read_csv(tmp_path / "csv" / f"{stem}.csv")
            records = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
            assert len(rows) == len(records) > 0
            for row, record in zip(rows, records):
                assert list(row) == list(record)
                for token, value in zip(row.values(), record.values()):
                    try:
                        number = float(token)
                    except ValueError:
                        assert token == value
                        continue
                    assert token == format(number, ".17g")
                    assert not math.isfinite(number) if value is None else number == value
        for name in json_only & {p.name for p in (tmp_path / "csv").iterdir()}:
            csv_record, json_record = (json.loads((tmp_path / fmt / name).read_text()) for fmt in ("csv", "json"))
            if name == "run.json":
                csv_record, json_record = csv_record["summary"], json_record["summary"]
            assert csv_record == json_record

    def test_config_file_plus_flag_override(self, tmp_path):
        ini = tmp_path / "config.ini"
        ini.write_text("[model]\nhx_t = 1.0\nj_t = 0.5\n[analysis]\nn_max = 25\n")
        out = tmp_path / "out"
        code = main(["qfi", "--theta", "hx", "--config", str(ini),
                     "--hxt", "2.0", "-o", str(out)])
        assert code == 0
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["config"]["model"]["hx_t"] == 2.0  # flag wins
        assert sidecar["config"]["model"]["j_t"] == 0.5
        assert sidecar["config"]["analysis"]["n_max"] == 25

    def test_sidecar_roundtrip_reproduces_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        assert main(["spectrum", "--hxt", "2.3", "--jt", "0.9", "-o", str(out_a)]) == 0
        out_b = tmp_path / "b"
        assert main(["spectrum", "--config", str(out_a / "run.json"), "-o", str(out_b)]) == 0
        a = (out_a / "spectrum.csv").read_bytes()
        b = (out_b / "spectrum.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("args, workers", [
        (["evolve", "--periods", "20"], 1),
        (["sweep", "--diag", "fpi", "--h-count", "3", "--j-count", "2", "--workers", "2"], 2),
    ], ids=["evolve", "sweep"])
    def test_sidecar_records_environment_and_timings(self, tmp_path, args, workers):
        assert main(args + ["-o", str(tmp_path / "a")]) == 0
        sidecar = json.loads((tmp_path / "a" / "run.json").read_text())
        environment, timings = sidecar["environment"], sidecar["timings"]
        assert environment["numpy"] == np.__version__
        if "blas" in environment:  # numpy >= 1.26
            assert set(environment["blas"]) == {"name", "version"}
        for key in ("cpu_count", "usable_cpus", "workers"):
            assert type(environment[key]) is int and environment[key] >= 1
        assert environment["workers"] == workers
        keys = {"compute_s", "write_s"} | ({"cells_per_s"} if args[0] == "sweep" else set())
        assert set(timings) == keys
        assert all(type(value) is float and value > 0 for value in timings.values())
        # a replay reads neither block: nonsense there changes nothing
        sidecar["environment"] = {"workers": "many"}
        sidecar["timings"] = None
        (tmp_path / "a" / "run.json").write_text(json.dumps(sidecar))
        assert main([args[0], "--config", str(tmp_path / "a" / "run.json"), "-o", str(tmp_path / "b")]) == 0
        table = sidecar["outputs"][0]
        assert (tmp_path / "a" / table).read_bytes() == (tmp_path / "b" / table).read_bytes()
        replayed = json.loads((tmp_path / "b" / "run.json").read_text())
        del replayed["config"]["output"], sidecar["config"]["output"]  # -o differs
        assert (replayed["config"], replayed["arguments"]) == (sidecar["config"], sidecar["arguments"])
        assert replayed["environment"]["workers"] == workers

    @pytest.mark.parametrize("args, table", [
        (["evolve", "--periods", "40"], "mz.csv"),
        (["cfi", "--theta", "hx", "--observable", "czz", "--n-max", "30"], "cfi_hx_czz.csv"),
        (["sweep", "--diag", "kappa-j", "--h-count", "2", "--j-count", "3", "--n-max", "30"], "sweep_kappa_j.csv"),
    ], ids=["evolve-periods", "cfi-observable", "sweep-diag"])
    def test_sidecar_replays_subcommand_flags(self, tmp_path, args, table):
        assert main(args + ["-o", str(tmp_path / "a")]) == 0
        theta = args[1:3] if args[0] == "cfi" else []  # a required flag is given again
        assert main([args[0], *theta, "--config", str(tmp_path / "a" / "run.json"), "-o", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / table).read_bytes() == (tmp_path / "b" / table).read_bytes()
        recorded = json.loads((tmp_path / "b" / "run.json").read_text())["arguments"]
        assert recorded == json.loads((tmp_path / "a" / "run.json").read_text())["arguments"]

    def test_flag_wins_over_sidecar_arguments(self, tmp_path):
        assert main(["evolve", "--periods", "40", "-o", str(tmp_path / "a")]) == 0
        assert main(["evolve", "--periods", "7", "--config", str(tmp_path / "a" / "run.json"),
                     "-o", str(tmp_path / "b")]) == 0
        assert len(read_csv(tmp_path / "b" / "mz.csv")) == 8
        assert json.loads((tmp_path / "b" / "run.json").read_text())["arguments"] == {"periods": 7}

    def test_successive_calls_do_not_share_flags(self, tmp_path):
        # main parses with one parser per process; no flag of a call reaches the next
        assert main(["evolve", "--periods", "7", "--hxt", "0.5", "-o", str(tmp_path / "a")]) == 0
        assert main(["evolve", "-o", str(tmp_path / "b")]) == 0
        second = json.loads((tmp_path / "b" / "run.json").read_text())
        assert second["arguments"] == {"periods": None}
        assert second["config"]["model"]["hx_t"] == RunConfig().model.hx_t
        analysis = RunConfig().analysis
        assert len(read_csv(tmp_path / "b" / "mz.csv")) == analysis.transient_discard + analysis.spectrum_samples + 1
        assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()

    def test_bad_sidecar_argument_is_usage_error(self, tmp_path, capsys):
        sidecar = tmp_path / "run.json"
        sidecar.write_text(json.dumps({"config": RunConfig().to_dict(), "arguments": {"diag": "bogus"}}))
        assert main(["sweep", "--config", str(sidecar), "-o", str(tmp_path / "out")]) == 2
        assert "arguments.diag" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nmystery = 3\n")
        code = main(["evolve", "--config", str(ini)])
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_negative_pair_tolerance_is_usage_error(self, tmp_path, capsys):
        code = main(["quasi", "--pair-tolerance", "-1", "-o", str(tmp_path / "quasi")])
        assert code == 2
        assert "pair_tolerance" in capsys.readouterr().err
        assert not (tmp_path / "quasi").exists()

    def test_workers_below_one_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--diag", "fpi", "--h-count", "2", "--j-count", "2",
                     "--workers", "-4", "-o", str(tmp_path / "sweep")])
        assert code == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("command", ["evolve", "quasi"])
    def test_non_finite_field_is_usage_error(self, tmp_path, capsys, command):
        code = main([command, "--hxt", "nan", "--periods" if command == "evolve" else "-N", "3",
                     "-o", str(tmp_path / command)])
        assert code == 2
        assert "hx_t must be finite" in capsys.readouterr().err
        assert not (tmp_path / command).exists()

    def test_non_finite_period_and_couplings_are_usage_errors(self, tmp_path, capsys):
        assert main(["qfi", "--theta", "hx", "--period", "inf", "-o", str(tmp_path / "a")]) == 2
        assert "period must be finite" in capsys.readouterr().err
        assert main(["quasi", "--couplings", "1.5,nan,1.7", "-o", str(tmp_path / "b")]) == 2
        assert "couplings must be finite" in capsys.readouterr().err

    def test_non_finite_grid_bound_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--h-max", "inf", "--h-count", "2", "--j-count", "2",
                     "-o", str(tmp_path / "sweep")])
        assert code == 2
        assert "h_max must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("args, code, message", [
        (["evolve", "--periods", "0"], 1, "n_max must be >= 1"),
        (["qfi", "--theta", "j", "--couplings", "1,2,3"], 1, "uniform"),
        (["quasi", "-N", "2", "--boundary", "ring"], 1, "ring"),
        (["sweep", "--couplings", "1,2"], 2, "couplings"),
    ], ids=["zero-periods", "qfi-per-bond", "quasi-ring-n2", "sweep-couplings"])
    def test_failed_command_writes_nothing(self, tmp_path, capsys, args, code, message):
        assert main(args + ["-o", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_periods_are_rejected_before_any_work(self, tmp_path, capsys):
        code = main(["evolve", "--periods", "-2", "-o", str(tmp_path / "evolve")])
        assert code == 1
        err = capsys.readouterr().err
        assert "n_max must be >= 1" in err
        assert "[builtins]" not in err
        assert not (tmp_path / "evolve").exists()

    @pytest.mark.parametrize("args, message", [
        (["sweep", "--h-count", "1"], "sweep.h_count must be at least 2"),
        (["spectrum", "--samples", "3"], "analysis.spectrum_samples must be even and >= 4"),
        (["spectrum", "--discard", "-1"], "analysis.transient_discard must be >= 0"),
        (["qfi", "--theta", "j", "--n-max", "0"], "analysis.n_max must be >= 1"),
        (["quasi", "-N", "13"], "model.n_qubits must lie in 1..12"),
        (["evolve", "--period", "0"], "model.period must be positive"),
        (["sweep", "--t1-fraction", "1.5"], "model.t1_fraction must lie in (0, 1)"),
        (["quasi", "--pair-tolerance", "1.6"], "analysis.pair_tolerance must be 0 (default) or in (0, pi/(2T))"),
        (["qfi", "--theta", "j", "--n-max", "5"], "need at least 8 defined points in the fit window, got 3"),
        (["cfi", "--theta", "j", "--fit-window", "0.01"], "analysis.fit_window 0.01 of n_max 200 periods"),
        (["sweep", "--diag", "kappa-j", "--fit-window", "0.01"], "analysis.fit_window 0.01 of n_max 200 periods"),
    ], ids=["h-count", "samples", "discard", "n-max", "n-qubits", "period", "t1-fraction", "pair-tolerance",
            "qfi-fit-points", "cfi-fit-points", "sweep-fit-points"])
    def test_out_of_range_inputs_are_usage_errors(self, tmp_path, capsys, args, message):
        code = main(args + ["-o", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fit_window_out_of_range_is_usage_error(self, tmp_path, capsys):
        for command, window in (("cfi", "0"), ("qfi", "1.5")):
            code = main([command, "--theta", "hx", "--fit-window", window, "-o", str(tmp_path / command)])
            assert code == 2
            assert "fit_window must lie in (0, 1]" in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    def test_pd_threshold_out_of_range_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--pd-threshold", "1.5", "--h-count", "2", "--j-count", "2",
                     "-o", str(tmp_path / "sweep")])
        assert code == 2
        assert "pd_threshold must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_couplings_on_sweep_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", "--couplings", "1,2,3", "--h-count", "2", "--j-count", "2",
                     "-o", str(tmp_path / "sweep")])
        assert code == 2
        assert "couplings" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_pair_tolerance_reaches_pooled_workers(self, tmp_path):
        args = ["sweep", "--diag", "overlap", "-N", "4", "--h-count", "6", "--j-count", "3", "--workers", "2"]
        runs = {"tol": ["--pair-tolerance", "0.3"], "zero": ["--pair-tolerance", "0"], "flagless": []}
        for name, extra in runs.items():
            assert main(args + extra + ["-o", str(tmp_path / name)]) == 0
        grid = GridSpec(h_range=(0.0, np.pi, 6), j_range=(0.0, np.pi, 3), n_qubits=4)
        expected = sweep_diagnostic(grid, "overlap", SweepSettings(AnalysisSettings(pair_tolerance=0.3))).values
        values = [float(row["value"]) for row in read_csv(tmp_path / "tol" / "sweep_overlap.csv")]
        assert np.array_equal(values, expected.ravel(), equal_nan=True)
        flagless = (tmp_path / "flagless" / "sweep_overlap.csv").read_bytes()
        assert (tmp_path / "zero" / "sweep_overlap.csv").read_bytes() == flagless
        assert (tmp_path / "tol" / "sweep_overlap.csv").read_bytes() != flagless

    @pytest.mark.parametrize("command", ["evolve", "spectrum", "quasi", "qfi", "cfi", "sweep"])
    def test_help_shows_analysis_defaults(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps help lines
        defaults = AnalysisSettings()
        for default in (defaults.transient_discard, defaults.spectrum_samples, defaults.n_max):
            assert f"(default {default})" in text

    def test_invalid_model_is_reported(self, capsys):
        code = main(["quasi", "--n-qubits", "2", "--boundary", "ring"])
        assert code == 1
        err = capsys.readouterr().err
        assert "ring" in err

    def test_per_bond_couplings(self, tmp_path, capsys):
        out = tmp_path / "bonds"
        code = main(["quasi", "--hxt", "2.6", "--couplings", "1.5,1.6,1.7", "-o", str(out)])
        assert code == 0
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["config"]["model"]["couplings"] == "1.5,1.6,1.7"
        # the J-derivative needs a single uniform coupling
        code = main(["qfi", "--theta", "j", "--couplings", "1.5,1.6,1.7", "-o", str(out)])
        assert code == 1
        assert "uniform" in capsys.readouterr().err
