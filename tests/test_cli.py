import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triphoton
from triphoton.cli import _resolved, load_config, main, run
from triphoton.errors import ConfigError
from triphoton.source import SourceParams


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_module(*args):
    """``python -m`` in a child that imports the same triphoton package as the tests."""
    src = str(Path(triphoton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    return header, np.array(rows)


IDEAL_TRIAD = {
    "mode": "ideal-scan",
    "preparation": {"recipe": "dynamic", "sigma": 1.0},
    "grid": {"kind": "triad", "start": 0.0, "stop": 2 * math.pi, "points": 9},
    "output": "demo",
}


class TestConfigValidation:
    def test_unknown_key_rejected_with_location(self, tmp_path):
        cfg = dict(IDEAL_TRIAD)
        cfg["sourc"] = {}
        path = write_config(tmp_path / "bad.json", cfg)
        with pytest.raises(ConfigError, match="sourc"):
            load_config(path)

    def test_nested_unknown_key(self, tmp_path):
        cfg = {"mode": "experiment", "source": {"lamda": 0.16}}
        path = write_config(tmp_path / "bad.json", cfg)
        with pytest.raises(ConfigError, match="lamda"):
            load_config(path)

    def test_bad_mode_exit_code(self, tmp_path):
        path = write_config(tmp_path / "bad.json", {"mode": "frobnicate"})
        assert run(path, out_dir=str(tmp_path)) == 2

    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "nope.json"), out_dir=str(tmp_path)) == 2

    def test_nan_grid_value_exit_code(self, tmp_path, capsys):
        cfg = {"mode": "experiment", "grid": {"kind": "triad", "values": [0.5, float("nan")]}}
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert "NaN" in capsys.readouterr().err

    def test_infinite_sigma_exit_code(self, tmp_path, capsys):
        cfg = dict(IDEAL_TRIAD, preparation={"recipe": "dynamic", "sigma": float("inf")})
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert "Infinity" in capsys.readouterr().err
        assert not (tmp_path / "demo_series.csv").exists()

    def test_custom_recipe_rejected(self, tmp_path, capsys):
        cfg = dict(IDEAL_TRIAD, preparation={"recipe": "custom"})
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert "$.preparation.recipe" in capsys.readouterr().err
        assert not (tmp_path / "demo_series.csv").exists()

    def test_top_level_seed_rejected(self, tmp_path, capsys):
        cfg = dict(IDEAL_TRIAD, seed=0)
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert "$: Additional properties are not allowed ('seed'" in capsys.readouterr().err
        assert not (tmp_path / "demo_series.csv").exists()

    def test_negative_validation_seed_rejected(self, tmp_path, capsys):
        cfg = {"mode": "validate", "validation": {"instances": 1, "seed": -1}, "output": "val"}
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert "$.validation.seed" in capsys.readouterr().err
        assert not (tmp_path / "val_metadata.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("theta", 3.0),
            ("delays", [9, 9, 9]),
            ("polarizations", [[1, 0, 0, 0]] * 3),
            ("central_frequency", 2.1),
        ],
    )
    def test_unread_preparation_key_rejected(self, tmp_path, capsys, key, value):
        cfg = dict(IDEAL_TRIAD, preparation={"recipe": "dynamic", key: value})
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert "$.preparation" in capsys.readouterr().err
        assert not (tmp_path / "demo_series.csv").exists()

    def test_source_defaults_from_source_params(self):
        source = _resolved({"mode": "experiment"})["source"]
        assert source == {**dataclasses.asdict(SourceParams()), "purity_model": "trace"}


class TestIdealScanRun:
    def test_csv_columns_and_values(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", IDEAL_TRIAD)
        assert run(path, out_dir=str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "demo_series.csv")
        assert header == [
            "phi", "P111", "P011", "P101", "P110", "P300", "P030", "P003",
            "P210", "P201", "P120", "P021", "P102", "P012",
        ]
        phis = rows[:, 0]
        p111 = rows[:, header.index("P111")]
        i_pi = int(np.argmin(np.abs(phis - math.pi)))
        assert p111[i_pi] == pytest.approx(1 / 12, abs=1e-10)
        assert p111[0] == pytest.approx(7 / 36, abs=1e-10)

    def test_triad_x_column_is_configured_grid(self, tmp_path):
        cfg = {"mode": "ideal-scan", "preparation": {"recipe": "dynamic"}, "output": "demo"}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "demo_series.csv")
        assert rows[:, 0].tolist() == np.linspace(0.0, 2 * math.pi, 33).tolist()

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", IDEAL_TRIAD)
        run(path, out_dir=str(tmp_path / "a"))
        run(path, out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a/demo_series.csv").read_bytes() == (
            tmp_path / "b/demo_series.csv"
        ).read_bytes()

    def test_metadata_round_trip(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", IDEAL_TRIAD)
        run(path, out_dir=str(tmp_path / "a"))
        meta = tmp_path / "a/demo_metadata.json"
        assert run(str(meta), out_dir=str(tmp_path / "b")) == 0
        assert (tmp_path / "a/demo_series.csv").read_bytes() == (
            tmp_path / "b/demo_series.csv"
        ).read_bytes()

    def test_json_format(self, tmp_path):
        cfg = dict(IDEAL_TRIAD)
        cfg["format"] = "json"
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "demo_series.json").read_text())
        assert payload["x"]["name"] == "phi"
        assert payload["series"]["P111"][0] == pytest.approx(7 / 36, abs=1e-10)

    def test_delay_scan_defaults(self, tmp_path):
        cfg = {
            "mode": "ideal-scan",
            "preparation": {"recipe": "all_H", "sigma": 1.0},
            "grid": {"kind": "delay", "start": -6.0, "stop": 6.0, "points": 7},
            "output": "dly",
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "dly_series.csv")
        assert header[0] == "tau"
        mid = len(rows) // 2
        assert rows[mid, header.index("P111")] == pytest.approx(1 / 3, abs=1e-10)


class TestExperimentRun:
    def test_small_experiment(self, tmp_path):
        cfg = {
            "mode": "experiment",
            "preparation": {"recipe": "all_H", "sigma": 1.0},
            "grid": {"kind": "delay", "values": [0.0, 20.0]},
            "cascade": {
                "splitters": ["beamsplitter_2way", "none", "beamsplitter_2way"],
                "detector_efficiency": 0.5,
            },
            "output": "exp",
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "exp_series.csv")
        assert header[0] == "tau"
        assert "N210" in header
        n210 = rows[:, header.index("N210")]
        assert n210[1] > n210[0] > 0  # suppression at zero delay
        meta = json.loads((tmp_path / "exp_metadata.json").read_text())
        assert meta["provenance"]["truncation_deficit"] < 1e-3


class TestOtherModes:
    def test_validate_mode(self, tmp_path):
        cfg = {"mode": "validate", "validation": {"instances": 5, "seed": 1}, "output": "val"}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 0

    def test_qubit_analysis(self, tmp_path):
        cfg = {
            "mode": "qubit-analysis",
            "qubit": {"r12": 0.5, "r23": 0.5, "r31": 0.5, "measured_phi": math.pi},
            "output": "q",
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "q_qubit.json").read_text())
        assert report["feasible"] is True
        assert report["qubit_phases"] == [pytest.approx(math.pi)]
        assert report["compatible_with_qubit"] is True

    def test_qubit_infeasible(self, tmp_path):
        cfg = {
            "mode": "qubit-analysis",
            "qubit": {"r12": 0.9, "r23": 0.05, "r31": 0.9},
            "output": "q",
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "q_qubit.json").read_text())
        assert report["feasible"] is False


class TestMainEntry:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        from triphoton import __version__

        assert capsys.readouterr().out.strip() == __version__

    def test_validate_command(self, capsys):
        assert main(["validate", "--instances", "3", "--seed", "2"]) == 0
        assert "max deviation" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["-3", "0"])
    def test_validate_rejects_instances_below_one(self, capsys, instances):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--instances", instances])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err
        assert "validated" not in captured.out

    def test_validate_rejects_negative_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--instances", "1", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "must be at least 0" in captured.err
        assert "validated" not in captured.out

    def test_python_m_package(self):
        out = run_module("triphoton", "validate", "--instances", "3")
        assert out.returncode == 0, out.stderr
        assert "max deviation" in out.stdout

    def test_console_script(self):
        out = run_module("triphoton.cli", "version")
        assert out.returncode == 0
