from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthseries
from synthseries.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from synthseries.ensemble import Ensemble
from synthseries.series import HourlySeries, write_csv

from .conftest import DATA_DIR, shorten_member

SOLAR = str(DATA_DIR / "synthetic_solar.csv")
WIND = str(DATA_DIR / "synthetic_wind.csv")
NUCLEAR = str(DATA_DIR / "synthetic_nuclear.csv")
LOAD = str(DATA_DIR / "synthetic_load.csv")


def write_config(tmp_path: Path, cfg: dict) -> str:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def dir_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def assert_nothing_written(out: Path) -> None:
    assert not out.exists() or not any(out.iterdir())


def empty_series_files(ensemble_dir: Path) -> None:
    """Leave a saved ensemble's manifest listing no members at all."""
    path = ensemble_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**manifest, "series_files": [], "series_checksums": []}), encoding="utf-8")


class TestGenerate:
    def test_deterministic_reruns(self, tmp_path):
        out = tmp_path / "ens"
        cfg = write_config(tmp_path, {
            "input": SOLAR, "method": "sbb",
            "params": {"sash": 2, "p": 4}, "B": 3, "seed": 21,
            "output_dir": str(out),
        })
        assert main(["generate", cfg]) == EXIT_OK
        first = dir_bytes(out)
        assert main(["generate", cfg]) == EXIT_OK
        assert dir_bytes(out) == first

    def test_thread_counts_byte_identical(self, tmp_path):
        outputs = []
        for t in (1, 2, 8):
            out = tmp_path / f"ens_t{t}"
            cfg = write_config(tmp_path, {
                "input": WIND, "method": "nnlb",
                "params": {"lag": 3, "k": 5}, "B": 4, "seed": 8,
                "output_dir": str(out),
            })
            assert main(["--threads", str(t), "generate", cfg]) == EXIT_OK
            outputs.append(dir_bytes(out))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_manifest_records_config(self, tmp_path):
        out = tmp_path / "ens"
        cfg = write_config(tmp_path, {
            "input": SOLAR, "method": "sbb",
            "params": {"sash": 2, "p": 20}, "B": 2, "seed": 1,
            "output_dir": str(out),
        })
        assert main(["generate", cfg]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sash"] == 2 and manifest["config"]["p"] == 20

    def test_invalid_k_names_parameter(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "input": SOLAR, "method": "nnlb",
            "params": {"lag": 3, "k": 10_000_000}, "B": 1, "seed": 1,
            "output_dir": str(tmp_path / "x"),
        })
        assert main(["generate", cfg]) == EXIT_CONFIG
        assert "k=" in capsys.readouterr().err

    def test_missing_seed(self, tmp_path):
        cfg = write_config(tmp_path, {
            "input": SOLAR, "method": "sbb",
            "params": {"sash": 2, "p": 4}, "B": 1,
            "output_dir": str(tmp_path / "x"),
        })
        assert main(["generate", cfg]) == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path):
        cfg = write_config(tmp_path, {
            "input": str(tmp_path / "nope.csv"), "method": "sbb",
            "params": {"sash": 2, "p": 4}, "B": 1, "seed": 1,
            "output_dir": str(tmp_path / "x"),
        })
        assert main(["generate", cfg]) == EXIT_IO

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "ens"
        cfg = write_config(tmp_path, {
            "input": SOLAR, "method": "sbb",
            "params": {"sash": 2, "p": 4}, "B": 5, "seed": 1,
            "output_dir": str(tmp_path / "ignored"),
        })
        assert main(["generate", cfg, "--B", "2", "--output-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["series_files"]) == 2


class TestPerturb:
    def test_incremental(self, tmp_path):
        out = tmp_path / "alt"
        cfg = write_config(tmp_path, {
            "input": WIND, "method": "incremental",
            "distribution": {"kind": "exponential", "mean": 10},
            "clamp": {"alpha_max": 1.0, "alpha_min": 0.0},
            "seed": 3, "output_dir": str(out),
        })
        assert main(["perturb", cfg]) == EXIT_OK
        assert (out / "altered.csv").exists()
        audit = json.loads((out / "audit.json").read_text())
        assert "days_below" in audit and "stats" in audit

    def test_altered_difference_audit(self, tmp_path):
        out = tmp_path / "alt"
        cfg = write_config(tmp_path, {
            "method": "altered_difference",
            "high": WIND, "low": SOLAR, "alpha": 0.5,
            "output_dir": str(out),
        })
        assert main(["perturb", cfg]) == EXIT_OK
        audit = json.loads((out / "audit.json").read_text())
        assert audit["method"] == "altered_difference"

    def test_missing_second_input(self, tmp_path):
        cfg = write_config(tmp_path, {
            "method": "altered_difference",
            "high": WIND, "low": str(tmp_path / "gone.csv"), "alpha": 0.5,
            "output_dir": str(tmp_path / "x"),
        })
        assert main(["perturb", cfg]) == EXIT_IO

    @pytest.mark.parametrize("below", [5e-324, 1e-315])
    def test_subnormal_below_probability(self, tmp_path, below):
        # the quantile's refinement step overflows at such p, so it must be skipped, not raised
        out = tmp_path / "alt"
        cfg = write_config(tmp_path, {
            "input": WIND, "method": "incremental", "seed": 3,
            "distribution": {"kind": "normal", "mean": 25, "std": 25, "below_probability": below},
            "output_dir": str(out),
        })
        assert main(["perturb", cfg]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["params"]["below_probability"] == below

    def test_seed_override(self, tmp_path):
        cfg = {"input": WIND, "method": "incremental", "distribution": {"kind": "normal", "std": 25}}
        seeded = write_config(tmp_path, {**cfg, "seed": 4, "output_dir": str(tmp_path / "a")})
        assert main(["perturb", seeded]) == EXIT_OK
        overridden = write_config(tmp_path, {**cfg, "seed": 3, "output_dir": str(tmp_path / "unused")})
        assert main(["perturb", overridden, "--seed", "4", "--output-dir", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "altered.csv").read_bytes() == (tmp_path / "b" / "altered.csv").read_bytes()


class TestAnalyze:
    def test_identity_ensemble_zero_exceedance(self, tmp_path):
        ens_out = tmp_path / "ens"
        gen_cfg = write_config(tmp_path, {
            "input": SOLAR, "method": "sbb",
            "params": {"sash": 2, "p": 1}, "B": 1, "seed": 1,
            "output_dir": str(ens_out),
        })
        assert main(["generate", gen_cfg]) == EXIT_OK
        out = tmp_path / "analysis"
        cfg = write_config(tmp_path, {
            "ensemble_dir": str(ens_out), "original": SOLAR,
            "statistic": "underage_count",
            "threshold": {"kind": "proportional", "alpha": 0.05},
            "output_dir": str(out),
        })
        assert main(["analyze", cfg]) == EXIT_OK
        report = json.loads((out / "exceedance.json").read_text())
        assert report["values"] == [0.0]

    def test_summary_table_rows(self, tmp_path):
        ens_out = tmp_path / "ens"
        gen_cfg = write_config(tmp_path, {
            "input": SOLAR, "method": "sbb",
            "params": {"sash": 2, "p": 4}, "B": 3, "seed": 1,
            "output_dir": str(ens_out),
        })
        assert main(["generate", gen_cfg]) == EXIT_OK
        out = tmp_path / "analysis"
        cfg = write_config(tmp_path, {
            "ensemble_dir": str(ens_out), "original": SOLAR,
            "chunk_hours": 48,
            "output_dir": str(out),
        })
        assert main(["analyze", cfg]) == EXIT_OK
        lines = (out / "summary_table.csv").read_text().splitlines()
        assert len(lines) == 10  # header + nine statistic rows
        assert lines[1].startswith("Min,")
        assert lines[-1].startswith("Autocorr. Lag: 24")


class TestVre:
    def test_fixed_weights_and_sweep(self, tmp_path):
        out = tmp_path / "vre"
        cfg = write_config(tmp_path, {
            "solar": SOLAR, "wind": WIND, "nuclear": NUCLEAR, "load": LOAD,
            "weights": {"solar": 3, "wind": 2},
            "sweep": {"curtailment_cap": 0.5, "solar_weights": [0, 3], "wind_weights": [0, 2]},
            "output_dir": str(out),
        })
        assert main(["vre", cfg]) == EXIT_OK
        adequacy = json.loads((out / "adequacy.json").read_text())
        assert 0 <= adequacy["percent_supplied"] <= 1
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "w_s,w_w,percent_supplied,percent_curtailed,shortfall_days"

    def test_ensemble_pairing(self, tmp_path):
        for name, path in [("solar", SOLAR), ("wind", WIND)]:
            cfg = write_config(tmp_path, {
                "input": path, "method": "sbb",
                "params": {"sash": 2, "p": 3}, "B": 3, "seed": 1,
                "output_dir": str(tmp_path / f"ens_{name}"),
            })
            assert main(["generate", cfg]) == EXIT_OK
        out = tmp_path / "vre"
        cfg = write_config(tmp_path, {
            "solar": SOLAR, "wind": WIND, "nuclear": NUCLEAR, "load": LOAD,
            "weights": {"solar": 3, "wind": 2},
            "ensembles": {
                "solar_dir": str(tmp_path / "ens_solar"),
                "wind_dir": str(tmp_path / "ens_wind"),
                "pairing_seed": 7, "pairs": 5,
            },
            "output_dir": str(out),
        })
        assert main(["vre", cfg]) == EXIT_OK
        report = json.loads((out / "ensemble_adequacy.json").read_text())
        assert len(report["supplied"]) == 5
        assert (out / "shortfall_histogram.csv").exists()

    def _vre_with_ensembles(self, tmp_path, solar_dir, wind_dir):
        out = tmp_path / "vre"
        cfg = write_config(tmp_path, {
            "solar": SOLAR, "wind": WIND, "nuclear": NUCLEAR, "load": LOAD,
            "weights": {"solar": 3, "wind": 2},
            "sweep": {"curtailment_cap": 0.5, "solar_weights": [0, 3], "wind_weights": [0, 2]},
            "ensembles": {"solar_dir": str(solar_dir), "wind_dir": str(wind_dir), "pairing_seed": 7},
            "output_dir": str(out),
        })
        return main(["vre", cfg]), out

    def _ensembles(self, tmp_path):
        for name, path in [("solar", SOLAR), ("wind", WIND)]:
            cfg = write_config(tmp_path, {
                "input": path, "method": "sbb", "params": {"sash": 2, "p": 3}, "B": 2, "seed": 1,
                "output_dir": str(tmp_path / f"ens_{name}"),
            })
            assert main(["generate", cfg]) == EXIT_OK
        return tmp_path / "ens_solar", tmp_path / "ens_wind"

    def test_histogram_days_in_numeric_order(self, tmp_path):
        # load 1 and no nuclear: a solar member that is 0 for its first d days
        # and 2 after them falls short on exactly d days
        days = 20
        shortfall = (2, 9, 10, 11)
        solar = np.array([np.repeat(np.arange(days) >= d, 24) * 2.0 for d in shortfall])
        for name, values in [("solar", solar), ("wind", np.zeros((1, 24 * days)))]:
            Ensemble(values, "sbb", {}, 1, "").save(tmp_path / f"ens_{name}")
        for name, value in [("flat", 1.0), ("zero", 0.0)]:
            write_csv(HourlySeries(np.full(24 * days, value)), tmp_path / f"{name}.csv")
        flat, zero = str(tmp_path / "flat.csv"), str(tmp_path / "zero.csv")
        out = tmp_path / "vre"
        cfg = write_config(tmp_path, {
            "solar": flat, "wind": flat, "nuclear": zero, "load": flat,
            "weights": {"wind": 1, "solar": 1},
            "ensembles": {
                "solar_dir": str(tmp_path / "ens_solar"), "wind_dir": str(tmp_path / "ens_wind"),
                "pairing_seed": 7, "pairs": 40,
            },
            "output_dir": str(out),
        })
        assert main(["vre", cfg]) == EXIT_OK
        report = json.loads((out / "ensemble_adequacy.json").read_text())
        assert list(report["shortfall_histogram"]) == [str(d) for d in shortfall]
        assert sum(report["shortfall_histogram"].values()) == 40
        assert list(report) == sorted(report)
        assert list(report["weights"]) == ["solar", "wind"]
        rows = (out / "shortfall_histogram.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(d) for d in shortfall]

    def test_missing_ensemble_leaves_no_outputs(self, tmp_path):
        _, wind_dir = self._ensembles(tmp_path)
        code, out = self._vre_with_ensembles(tmp_path, tmp_path / "absent", wind_dir)
        assert code == EXIT_IO
        assert_nothing_written(out)

    def test_ensemble_failing_its_checksum_leaves_no_outputs(self, tmp_path):
        solar_dir, wind_dir = self._ensembles(tmp_path)
        member = wind_dir / "series_0001.csv"
        lines = member.read_text().splitlines()
        lines[5] = repr(float(lines[5]) + 1.0)
        member.write_text("\n".join(lines) + "\n")
        code, out = self._vre_with_ensembles(tmp_path, solar_dir, wind_dir)
        assert code == EXIT_VALIDATION
        assert_nothing_written(out)

    def test_ensemble_with_a_short_member_leaves_no_outputs(self, tmp_path, capsys):
        solar_dir, wind_dir = self._ensembles(tmp_path)
        shorten_member(wind_dir, 1, 72)
        code, out = self._vre_with_ensembles(tmp_path, solar_dir, wind_dir)
        assert code == EXIT_VALIDATION
        assert "series_0001.csv" in capsys.readouterr().err
        assert_nothing_written(out)

    def test_ensemble_without_members_is_io_error_with_no_outputs(self, tmp_path, capsys):
        solar_dir, wind_dir = self._ensembles(tmp_path)
        empty_series_files(wind_dir)
        code, out = self._vre_with_ensembles(tmp_path, solar_dir, wind_dir)
        assert code == EXIT_IO
        assert "series_files is empty" in capsys.readouterr().err
        assert_nothing_written(out)

    @pytest.mark.parametrize("setting, message", [
        ({"shortfall_fraction": float("nan")}, "'shortfall_fraction' must be a finite number"),
        ({"weights": {"solar": float("nan"), "wind": 2}}, "'solar' must be a finite number"),
        ({"sweep": {"curtailment_cap": 0.5, "solar_weights": [0, float("inf")], "wind_weights": [0, 2]}},
         "'solar_weights' must be a list of finite numbers"),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, setting, message):
        # every comparison with NaN is false, so a NaN shortfall_fraction would
        # report no shortfall days; a NaN weight would fail later, unnamed
        out = tmp_path / "vre"
        cfg = write_config(tmp_path, {
            "solar": SOLAR, "wind": WIND, "nuclear": NUCLEAR, "load": LOAD,
            "weights": {"solar": 3, "wind": 2}, **setting, "output_dir": str(out),
        })
        assert main(["vre", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert_nothing_written(out)

    def test_requires_some_action(self, tmp_path):
        cfg = write_config(tmp_path, {
            "solar": SOLAR, "wind": WIND, "nuclear": NUCLEAR, "load": LOAD,
            "output_dir": str(tmp_path / "x"),
        })
        assert main(["vre", cfg]) == EXIT_CONFIG


def test_bad_json_config(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["generate", str(p)]) == EXIT_CONFIG


def test_missing_config_file(tmp_path):
    assert main(["generate", str(tmp_path / "absent.json")]) == EXIT_IO


def test_cli_import_does_not_load_scipy(tmp_path):
    """No command needs scipy: importing the CLI loads none of it, and generate,
    the one command that searches, runs with scipy blocked and writes the same
    members as an in-process run."""
    src = str(Path(synthseries.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, synthseries.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

    cfg = write_config(tmp_path, {"input": WIND, "method": "sbb", "params": {"sash": 4, "p": 10}, "B": 3, "seed": 5,
                                  "output_dir": str(tmp_path / "in_process")})
    assert main(["generate", cfg]) == EXIT_OK
    blocked = "import sys; sys.modules['scipy'] = None; from synthseries.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", blocked, "generate", cfg, "--output-dir", str(tmp_path / "blocked")],
                   env=env, capture_output=True, text=True, check=True)
    assert dir_bytes(tmp_path / "blocked") == dir_bytes(tmp_path / "in_process")


class TestExitCodes:
    """Every bad input ends in exit code 2, 3 or 4 with a message, never a traceback."""

    def _generate(self, tmp_path, source=SOLAR, **overrides):
        cfg = {"input": source, "method": "sbb", "params": {"sash": 2, "p": 4}, "B": 2, "seed": 1,
               "output_dir": str(tmp_path / "ens")}
        cfg.update(overrides)
        assert main(["generate", write_config(tmp_path, cfg)]) == EXIT_OK
        return tmp_path / "ens"

    def _analyze(self, tmp_path, ens, original=SOLAR):
        cfg = write_config(tmp_path, {"ensemble_dir": str(ens), "original": original,
                                      "output_dir": str(tmp_path / "analysis")})
        return main(["analyze", cfg])

    @pytest.mark.parametrize("params, message", [
        ({"sash": "two", "p": 4}, "'sash' must be an integer"),
        ({"sash": 2, "p": [4]}, "'p' must be an integer"),
        ({"sash": 2, "p": None}, "'p' must be an integer"),
        ({"sash": 2, "p": 4, "include_self": "false"}, "'include_self' must be true or false"),
    ])
    def test_uncoercible_param_is_config_error(self, tmp_path, capsys, params, message):
        cfg = write_config(tmp_path, {"input": SOLAR, "method": "sbb", "params": params, "B": 1, "seed": 1,
                                      "output_dir": str(tmp_path / "x")})
        assert main(["generate", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("vre", "--seed"), ("vre", "--B"), ("analyze", "--seed"), ("analyze", "--B"), ("perturb", "--B"),
    ])
    def test_override_of_a_key_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, small_ensembles,
                                                                         command, flag):
        # a flag for a key the command never reads would be ignored silently
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self._config(command, small_ensembles[0], out))
        with pytest.raises(SystemExit) as exit_:
            main([command, cfg, flag, "3"])
        assert exit_.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert_nothing_written(out)

    @pytest.mark.parametrize("command", ["analyze", "vre"])
    def test_output_dir_override(self, tmp_path, small_ensembles, command):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self._config(command, small_ensembles[0], tmp_path / "unused"))
        assert main([command, cfg, "--output-dir", str(out)]) == EXIT_OK
        assert any(out.iterdir()) and not (tmp_path / "unused").exists()

    def test_negative_seed_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"input": SOLAR, "method": "sbb", "params": {"sash": 2, "p": 4}, "B": 1,
                                      "seed": -1, "output_dir": str(tmp_path / "x")})
        assert main(["generate", cfg]) == EXIT_CONFIG

    @staticmethod
    def _config(command: str, ensemble_dir: Path, out: Path) -> dict:
        """A config each command runs with exit 0, writing into ``out``."""
        return {
            "generate": {"input": SOLAR, "method": "sbb", "params": {"sash": 2, "p": 4}, "B": 2, "seed": 1},
            "perturb": {"method": "incremental", **PERTURB_CONFIGS["incremental"], "chunk_hours": 24},
            "analyze": {"ensemble_dir": str(ensemble_dir), "original": SOLAR, "chunk_hours": 24,
                        "threshold": {"kind": "absolute", "e": 10.0}},
            "vre": {"solar": SOLAR, "wind": WIND, "nuclear": NUCLEAR, "load": LOAD,
                    "weights": {"solar": 3, "wind": 2}, "shortfall_fraction": 0.9},
        }[command] | {"output_dir": str(out)}

    @pytest.mark.parametrize("command, key, value", [
        ("generate", "B", True),
        ("generate", "B", 2.9),
        ("generate", "seed", 1.5),
        ("generate", "seed", False),
        ("generate", "params.p", 5.5),
        ("perturb", "chunk_hours", 24.5),
        ("perturb", "distribution.std", True),
        ("analyze", "chunk_hours", 24.5),
        ("analyze", "threshold.e", True),
        ("vre", "shortfall_fraction", True),
        ("vre", "weights.solar", False),
    ])
    def test_bool_or_fractional_number_is_config_error(self, tmp_path, capsys, small_ensembles, command, key,
                                                        value):
        # int() and float() would take these: "B": true wrote 1 series and "B": 2.9 wrote 2
        out = tmp_path / "out"
        cfg = with_settings(self._config(command, small_ensembles[0], out), {key: value})
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"{key.split('.')[-1]!r} must be" in capsys.readouterr().err
        assert_nothing_written(out)

    @pytest.mark.parametrize("command, key, value", [
        ("generate", "B", "3"),
        ("generate", "seed", "1"),
        ("generate", "params.sash", "2"),
        ("generate", "params.p", " 4 "),
        ("perturb", "chunk_hours", "24"),
        ("perturb", "seed", "3"),
        ("perturb", "distribution.mean", "25"),
        ("perturb", "clamp.alpha_max", "1.0"),
        ("analyze", "chunk_hours", "24"),
        ("analyze", "threshold.e", "10.0"),
        ("vre", "shortfall_fraction", "0.9"),
        ("vre", "weights.solar", "3"),
        ("vre", "ensembles.pairs", "5"),
        ("vre", "ensembles.pairing_seed", "7"),
    ])
    def test_numeric_string_is_config_error(self, tmp_path, capsys, small_ensembles, command, key, value):
        # int() and float() would take these: "B": "3" wrote 3 series
        out = tmp_path / "out"
        cfg = self._config(command, small_ensembles[0], out)
        if command == "vre":
            cfg["ensembles"] = {"solar_dir": str(small_ensembles[0]), "wind_dir": str(small_ensembles[1]),
                                "pairing_seed": 7, "pairs": 2}
        # the same config with the number written as a number runs
        assert main([command, write_config(tmp_path, cfg | {"output_dir": str(tmp_path / "ok")})]) == EXIT_OK
        cfg = with_settings(cfg, {key: value})
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert f"{key.split('.')[-1]!r} must be" in capsys.readouterr().err
        assert_nothing_written(out)

    @pytest.mark.parametrize("key, value", [("B", 2.0), ("seed", 1.0), ("params.p", 4.0)])
    def test_integral_float_is_an_integer(self, tmp_path, key, value):
        cfg = with_settings(self._config("generate", Path(), tmp_path / "ens"), {key: value})
        assert main(["generate", write_config(tmp_path, cfg)]) == EXIT_OK
        assert len(Ensemble.load(tmp_path / "ens")) == 2

    @pytest.mark.parametrize("command", ["generate", "perturb", "analyze", "vre"])
    @pytest.mark.parametrize("value", [5, None, ["value"]])
    def test_value_column_that_is_not_a_string_is_config_error(self, tmp_path, capsys, small_ensembles, command,
                                                               value):
        out = tmp_path / "out"
        cfg = self._config(command, small_ensembles[0], out) | {"value_column": value}
        assert main([command, write_config(tmp_path, cfg)]) == EXIT_CONFIG
        assert "'value_column' must be a column name string" in capsys.readouterr().err
        assert_nothing_written(out)

    def test_manifest_without_series_files_is_io_error(self, tmp_path, capsys):
        ens = self._generate(tmp_path)
        manifest = json.loads((ens / "manifest.json").read_text())
        del manifest["series_files"]
        (ens / "manifest.json").write_text(json.dumps(manifest))
        assert self._analyze(tmp_path, ens) == EXIT_IO
        assert "series_files" in capsys.readouterr().err

    def test_manifest_without_members_is_io_error_with_no_outputs(self, tmp_path, capsys):
        ens = self._generate(tmp_path)
        empty_series_files(ens)
        assert self._analyze(tmp_path, ens) == EXIT_IO
        assert "series_files is empty" in capsys.readouterr().err
        assert_nothing_written(tmp_path / "analysis")

    def test_edited_member_is_validation_error(self, tmp_path, capsys):
        ens = self._generate(tmp_path)
        member = ens / "series_0001.csv"
        lines = member.read_text().splitlines()
        lines[13] = repr(float(lines[13]) + 0.5)
        member.write_text("\n".join(lines) + "\n")
        assert self._analyze(tmp_path, ens) == EXIT_VALIDATION
        assert "series_0001.csv" in capsys.readouterr().err

    def test_member_of_another_length_is_validation_error(self, tmp_path, capsys):
        ens = self._generate(tmp_path)
        shorten_member(ens, 1, 72)
        assert self._analyze(tmp_path, ens) == EXIT_VALIDATION
        assert "series_0001.csv" in capsys.readouterr().err
        assert_nothing_written(tmp_path / "analysis")

    def test_ensemble_analysed_against_another_source_is_validation_error(self, tmp_path, capsys):
        ens = self._generate(tmp_path)
        assert self._analyze(tmp_path, ens, original=WIND) == EXIT_VALIDATION
        assert "generated from" in capsys.readouterr().err


odd_values = st.one_of(
    st.integers(min_value=-2, max_value=6),
    st.floats(min_value=-3, max_value=6),
    st.sampled_from([float("nan"), float("inf"), None, True, "two", "", [], [3], {}]),
)


DOCUMENTED_EXITS = (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION)


@given(method=st.sampled_from(["sbb", "nnlb"]), B=odd_values, seed=odd_values, a=odd_values, b=odd_values)
@settings(max_examples=40, deadline=None)
def test_fuzzed_generate_config_exits_with_a_documented_code(tmp_path_factory, method, B, seed, a, b):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    names = ("sash", "p") if method == "sbb" else ("lag", "k")
    cfg = write_config(tmp_path, {"input": SOLAR, "method": method, "params": dict(zip(names, (a, b))),
                                  "B": B, "seed": seed, "output_dir": str(tmp_path / "ens")})
    assert main(["generate", cfg]) in DOCUMENTED_EXITS


def test_analyze_config_error_leaves_no_outputs(tmp_path, small_ensembles):
    out = tmp_path / "analysis"
    cfg = write_config(tmp_path, {"ensemble_dir": str(small_ensembles[0]), "original": SOLAR, "chunk_hours": "x",
                                  "output_dir": str(out)})
    assert main(["analyze", cfg]) == EXIT_CONFIG
    assert_nothing_written(out)


def test_perturb_config_error_leaves_no_outputs(tmp_path):
    out = tmp_path / "alt"
    cfg = write_config(tmp_path, {"input": WIND, "method": "incremental",
                                  "distribution": {"kind": "exponential", "mean": 10}, "seed": 3,
                                  "chunk_hours": "x", "output_dir": str(out)})
    assert main(["perturb", cfg]) == EXIT_CONFIG
    assert_nothing_written(out)


def test_input_that_is_not_utf8_is_io_error(tmp_path, capsys):
    source = tmp_path / "latin.csv"
    source.write_bytes(b"value\n1.0\n\xff\n2.0\n")
    cfg = write_config(tmp_path, {"input": str(source), "method": "sbb", "params": {"sash": 1, "p": 1}, "B": 1,
                                  "seed": 1, "output_dir": str(tmp_path / "ens")})
    assert main(["generate", cfg]) == EXIT_IO
    assert "latin.csv" in capsys.readouterr().err


def odd_settings(keys: list[str]):
    """Up to two of ``keys`` (``"section.key"`` inside a section) mapped to odd values."""
    return st.dictionaries(st.sampled_from(keys), odd_values, max_size=2)


def with_settings(cfg: dict, odd: dict) -> dict:
    cfg = json.loads(json.dumps(cfg))
    for key, value in odd.items():
        *sections, name = key.split(".")
        target = cfg
        for section in sections:
            target = target.get(section) if isinstance(target, dict) else None
        if isinstance(target, dict):  # a section replaced by an odd value has no keys to set
            target[name] = json.loads(json.dumps(value))  # odd values are shared objects
    return cfg


@pytest.fixture(scope="module")
def small_ensembles(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ensembles")
    for name, path in [("solar", SOLAR), ("wind", WIND)]:
        cfg = write_config(tmp_path, {"input": path, "method": "sbb", "params": {"sash": 2, "p": 3}, "B": 2,
                                      "seed": 1, "output_dir": str(tmp_path / name)})
        assert main(["generate", cfg]) == EXIT_OK
    return tmp_path / "solar", tmp_path / "wind"


PERTURB_CONFIGS = {
    "incremental": {
        "input": WIND, "seed": 3, "distribution": {"kind": "normal", "mean": 25, "std": 25, "below_probability": 0.3},
        "clamp": {"alpha_max": 1.0, "alpha_min": -1.0},
    },
    "altered_difference": {
        "high": WIND, "low": SOLAR, "alpha": 0.5, "delta_nonneg": True, "result_nonneg": True, "audit_against": "low",
    },
}


@given(method=st.sampled_from(sorted(PERTURB_CONFIGS)), odd=odd_settings([
    "method", "input", "high", "seed", "distribution", "distribution.kind", "distribution.mean", "distribution.std",
    "distribution.below_probability", "clamp.alpha_max", "clamp.alpha_min", "alpha", "delta_nonneg",
    "result_nonneg", "audit_against", "chunk_hours", "threshold_fraction",
]))
@example(method="incremental", odd={"distribution.below_probability": 5e-324})
@example(method="incremental", odd={"distribution.below_probability": 1e-315})
@settings(max_examples=60, deadline=None)
def test_fuzzed_perturb_config_exits_with_a_documented_code(tmp_path_factory, method, odd):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    out = tmp_path / "alt"
    cfg = {"method": method, **PERTURB_CONFIGS[method], "chunk_hours": 24, "threshold_fraction": 0.05,
           "output_dir": str(out)}
    code = main(["perturb", write_config(tmp_path, with_settings(cfg, odd))])
    assert code in DOCUMENTED_EXITS
    if code != EXIT_OK:
        assert_nothing_written(out)


@given(statistic=st.sampled_from(["underage", "overage", "underage_count", "overage_count"]), odd=odd_settings([
    "original", "statistic", "threshold", "threshold.kind", "threshold.e", "threshold.alpha", "chunk_hours",
    "autocorr_lag",
]))
@settings(max_examples=60, deadline=None)
def test_fuzzed_analyze_config_exits_with_a_documented_code(tmp_path_factory, small_ensembles, statistic, odd):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    out = tmp_path / "analysis"
    cfg = {"ensemble_dir": str(small_ensembles[0]), "original": SOLAR, "statistic": statistic,
           "threshold": {"kind": "absolute", "e": 10.0, "alpha": 0.05}, "chunk_hours": 24, "autocorr_lag": 24,
           "output_dir": str(out)}
    code = main(["analyze", write_config(tmp_path, with_settings(cfg, odd))])
    assert code in DOCUMENTED_EXITS
    if code != EXIT_OK:
        assert_nothing_written(out)


@given(actions=st.sets(st.sampled_from(["weights", "sweep", "ensembles"]), min_size=1), odd=odd_settings([
    "nuclear", "shortfall_fraction", "weights", "weights.solar", "weights.wind", "sweep", "sweep.curtailment_cap",
    "sweep.solar_weights", "sweep.wind_weights", "ensembles", "ensembles.solar_dir", "ensembles.pairing_seed",
    "ensembles.pairs",
]))
@settings(max_examples=60, deadline=None)
def test_fuzzed_vre_config_exits_with_a_documented_code(tmp_path_factory, small_ensembles, actions, odd):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    out = tmp_path / "vre"
    sections = {
        "weights": {"solar": 3, "wind": 2},
        "sweep": {"curtailment_cap": 0.5, "solar_weights": [0, 3], "wind_weights": [0, 2]},
        "ensembles": {"solar_dir": str(small_ensembles[0]), "wind_dir": str(small_ensembles[1]),
                      "pairing_seed": 7, "pairs": 3},
    }
    cfg = {"solar": SOLAR, "wind": WIND, "nuclear": NUCLEAR, "load": LOAD, "shortfall_fraction": 0.9,
           **{key: sections[key] for key in actions}, "output_dir": str(out)}
    code = main(["vre", write_config(tmp_path, with_settings(cfg, odd))])
    assert code in DOCUMENTED_EXITS
    if code != EXIT_OK:
        assert_nothing_written(out)
