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
from triphoton import experiment
from triphoton.cli import CONFIG_SCHEMA, MODE_BLOCKS, _resolved, load_config, main, run
from triphoton.errors import ConfigError
from triphoton.experiment import DetectionCascade
from triphoton.interference import DEFAULT_MAX_PHOTONS, balanced_tritter
from triphoton.source import SourceParams, heralded_ensemble


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


# Stands for an absolute prefix under the test's own tmp_path.
ABSOLUTE_OUTPUT = "<absolute>"

# A valid instance of every block.
VALID_BLOCKS = {
    "preparation": {"recipe": "dynamic"},
    "grid": {"kind": "triad", "values": [0.5]},
    "source": {"purity": 0.8},
    "cascade": {"detector_efficiency": 0.9},
    "tritter": {"h": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]},
    "validation": {"instances": 1},
    "qubit": {"r12": 0.5, "r23": 0.5, "r31": 0.5},
}

NON_UNITARY = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [2, 0]]]
# The balanced tritter off unitarity by 4.8e-11: its click patterns would
# miss 1 by about 1.2e-10, beyond the run's 1e-12 check.
NEAR_UNITARY = [
    [[z.real, z.imag] for z in row] for row in balanced_tritter().matrix * (1 + 2.4e-11)
]


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

    def test_points_above_cap_rejected(self, tmp_path, capsys):
        cfg = dict(IDEAL_TRIAD, grid={"kind": "triad", "start": 0.0, "stop": 1.0, "points": 10001})
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert "$.grid.points" in capsys.readouterr().err
        assert not (tmp_path / "demo_series.csv").exists()

    def test_values_above_cap_rejected(self, tmp_path, capsys):
        # Explicit values take the cap of a range's points.
        values = np.linspace(0.0, 1.0, 10001).tolist()
        cfg = dict(IDEAL_TRIAD, grid={"kind": "triad", "values": values})
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path / "bad")) == 2
        # The 50 KB value is cut in the middle: its path and rule stay.
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        assert "$.grid.values: [0.0, 0.0001, " in err
        assert err.endswith(" 0.9999, 1.0] is too long\n")
        assert not (tmp_path / "bad").exists()
        cfg["grid"]["values"] = values[:10000]
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path / "out")) == 0
        series = (tmp_path / "out" / "demo_series.csv").read_text().splitlines()
        assert len(series) == 1 + 10000

    @pytest.mark.parametrize(
        "mode, block",
        [(m, b) for m in MODE_BLOCKS for b in VALID_BLOCKS if b not in MODE_BLOCKS[m]],
    )
    def test_block_the_mode_does_not_read_rejected(self, tmp_path, capsys, mode, block):
        cfg = {"mode": mode, "output": "demo", block: VALID_BLOCKS[block]}
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert f"$.{block}: {mode} mode does not read this block" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.json"]

    @pytest.mark.parametrize("mode", MODE_BLOCKS)
    def test_resolved_echoes_only_read_blocks(self, mode):
        config = {"mode": mode}
        if mode == "qubit-analysis":
            config["qubit"] = VALID_BLOCKS["qubit"]
        expected = {"mode", "output", *MODE_BLOCKS[mode]} - {"tritter"}
        assert set(_resolved(config)) == expected

    def test_source_defaults_from_source_params(self):
        source = _resolved({"mode": "experiment"})["source"]
        assert source == dataclasses.asdict(SourceParams())

    def test_tolerance_resolved_only_with_measured_phi(self):
        qubit = VALID_BLOCKS["qubit"]
        assert _resolved({"mode": "qubit-analysis", "qubit": qubit})["qubit"] == qubit
        measured = dict(qubit, measured_phi=1.0)
        resolved = _resolved({"mode": "qubit-analysis", "qubit": measured})["qubit"]
        assert resolved == dict(measured, tolerance=0.05)

    @pytest.mark.parametrize(
        "cfg, location",
        [
            ({"mode": "experiment", "source": {"purity_model": "trace"}}, "'purity_model'"),
            ({"mode": "validate", "format": "csv"}, "$.format: validate mode"),
            (
                {"mode": "qubit-analysis", "format": "json", "qubit": VALID_BLOCKS["qubit"]},
                "$.format: qubit-analysis mode",
            ),
            (
                dict(IDEAL_TRIAD, grid={**IDEAL_TRIAD["grid"], "values": [0.0]}),
                "$.grid.start",
            ),
            (
                dict(IDEAL_TRIAD, grid={"kind": "triad", "start": 0.0, "points": 5}),
                "$.grid: 'stop'",
            ),
            (
                {"mode": "qubit-analysis", "qubit": dict(VALID_BLOCKS["qubit"], tolerance=0.1)},
                "$.qubit: 'measured_phi'",
            ),
            (
                {"mode": "experiment", "source": {"truncation_total_photons": 14}},
                "$.source.truncation_total_photons",
            ),
            (
                {"mode": "experiment", "source": {"truncation_total_photons": 10**9}},
                "$.source.truncation_total_photons",
            ),
            (
                {"mode": "qubit-analysis", "qubit": {**VALID_BLOCKS["qubit"], "r12": 2.0}},
                "$.qubit.r12",
            ),
            (
                {"mode": "qubit-analysis", "qubit": {**VALID_BLOCKS["qubit"], "r31": 0}},
                "$.qubit.r31",
            ),
            ({"mode": "experiment", "tritter": {"h": NON_UNITARY}}, "$.tritter.h"),
            ({"mode": "experiment", "tritter": {"v": NON_UNITARY}}, "$.tritter.v"),
            ({"mode": "experiment", "tritter": {"h": NEAR_UNITARY}}, "$.tritter.h"),
        ],
    )
    def test_ignored_or_unrunnable_input_rejected(self, tmp_path, capsys, cfg, location):
        path = write_config(tmp_path / "bad.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 2
        assert location in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.json"]

    @pytest.mark.parametrize(
        "cfg",
        [
            {"mode": "validate"},
            {"mode": "qubit-analysis", "qubit": VALID_BLOCKS["qubit"]},
            IDEAL_TRIAD,
        ],
    )
    def test_format_flag_rejected_without_series(self, tmp_path, capsys, cfg):
        # A config's format is the only format setting: no mode takes a flag.
        path = write_config(tmp_path / "bad.json", cfg)
        with pytest.raises(SystemExit) as exited:
            main(["run", path, "--format", "json", "--out-dir", str(tmp_path)])
        assert exited.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.json"]

    def test_photon_budget_cap_is_the_engine_cap(self):
        # The largest pair-idler count among heralded configurations grows by
        # one per two photons of budget; the cap is the last budget the engine
        # runs.
        source = CONFIG_SCHEMA["properties"]["source"]["properties"]
        cap = source["truncation_total_photons"]["maximum"]

        def most_pair_idlers(budget):
            source = SourceParams(truncation_total_photons=budget, truncation_noise_photons=0)
            return max(sum(pairs) for pairs in heralded_ensemble(source))

        assert most_pair_idlers(cap) == DEFAULT_MAX_PHOTONS
        assert most_pair_idlers(cap + 1) == DEFAULT_MAX_PHOTONS + 1

    @pytest.mark.parametrize(
        "cfg, code, location",
        [
            (dict(IDEAL_TRIAD, grid={"kind": "delay", "values": [0.0]}), 2, "$.grid.kind"),
            (
                {"mode": "experiment", "preparation": {"recipe": "all_H"}, "grid": {"kind": "triad"}},
                2,
                "$.grid.kind",
            ),
            ({"mode": "experiment", "source": {"purity": 0.3}}, 2, "$.source.purity"),
            ({"mode": "qubit-analysis"}, 2, "$: 'qubit' is a required property"),
            # A denormal width fails inside the run, not in the schema.
            ({"mode": "ideal-scan", "preparation": {"sigma": 1e-320}}, 3, "numerical"),
            # The output prefix names a file in the output directory, never a path.
            (dict(IDEAL_TRIAD, output=ABSOLUTE_OUTPUT), 2, "$.output"),
            (dict(IDEAL_TRIAD, output="missing/x"), 2, "$.output"),
            (dict(IDEAL_TRIAD, output="../x"), 2, "$.output"),
            # A delay and a width whose squares overflow: the exponent is inf/inf.
            (
                {
                    "mode": "ideal-scan",
                    "preparation": {"recipe": "all_H", "sigma": 1e200},
                    "grid": {"kind": "delay", "values": [1e200]},
                },
                3,
                "numerical",
            ),
            # Three heralds need three photons, pairs or signal noise photons:
            # the message names the parameters that rule them out.
            pytest.param(
                {"mode": "experiment", "source": {"truncation_total_photons": 2}},
                2,
                "squeezing=0.16, purity=0.9, p_noise_idler=0.035, p_noise_signal=0.009, "
                "truncation_total_photons=2, truncation_noise_photons=3",
                id="never-heralds",
            ),
        ],
    )
    def test_rejected_run_writes_nothing(self, tmp_path, capsys, cfg, code, location):
        if cfg.get("output") == ABSOLUTE_OUTPUT:
            cfg = dict(cfg, output=str(tmp_path / "x"))
        path = write_config(tmp_path / "bad.json", cfg)
        out_dir = tmp_path / "new" / "sub"
        assert run(path, out_dir=str(out_dir)) == code
        assert location in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.json"]


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

    def test_overflowing_delay_is_the_distinguishable_point(self, tmp_path):
        # (1e200)^2 overflows to inf, and exp(-inf) = 0 is the exact overlap:
        # the run goes on under the run's overflow check.
        cfg = {
            "mode": "ideal-scan",
            "preparation": {"recipe": "all_H", "sigma": 1.0},
            "grid": {"kind": "delay", "values": [1e200, 0.0]},
            "output": "demo",
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "demo_series.csv")
        assert rows[:, 0].tolist() == [1e200, 0.0]
        for name in ("P111", "P011", "P101", "P110"):
            assert rows[0, header.index(name)] == pytest.approx(2 / 9, abs=1e-15)
        assert rows[1, header.index("P111")] == pytest.approx(1 / 3, abs=1e-12)

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
        # A grid with no range echoes the one it ran: 61 delays over
        # [-12 sigma, 12 sigma] or 33 phases over [0, 2 pi].
        cases = [
            (IDEAL_TRIAD, IDEAL_TRIAD["grid"]),
            (
                {"mode": "ideal-scan", "preparation": {"recipe": "all_H", "sigma": 1.7}},
                {"kind": "delay", "start": -12 * 1.7, "stop": 12 * 1.7, "points": 61},
            ),
            (
                {"mode": "experiment", "preparation": {"recipe": "dynamic", "sigma": 0.3}},
                {"kind": "triad", "start": 0.0, "stop": 2 * math.pi, "points": 33},
            ),
        ]
        for i, (cfg, grid) in enumerate(cases):
            cfg = dict(cfg, output="demo")
            a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
            assert run(write_config(tmp_path / f"cfg{i}.json", cfg), out_dir=str(a)) == 0
            meta = json.loads((a / "demo_metadata.json").read_text())
            assert meta["grid"] == grid
            assert run(str(a / "demo_metadata.json"), out_dir=str(b)) == 0
            series = (a / "demo_series.csv").read_bytes()
            assert series == (b / "demo_series.csv").read_bytes()
            assert len(series.splitlines()) == 1 + grid["points"]

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
        patterns = DetectionCascade(tuple(cfg["cascade"]["splitters"])).patterns()
        assert header[1:] == ["N" + "".join(map(str, p)) for p in patterns]
        n210 = rows[:, header.index("N210")]
        assert n210[1] > n210[0] > 0  # suppression at zero delay
        meta = json.loads((tmp_path / "exp_metadata.json").read_text())
        assert meta["provenance"]["truncation_deficit"] < 1e-3
        assert 0.0 <= meta["provenance"]["click_sum_max_deviation"] <= 1e-12
        assert -1e-12 <= meta["provenance"]["click_most_negative"] <= 0.0

    @pytest.mark.parametrize("corruption", ["scale", "negative"])
    def test_out_of_band_click_map_exits_3(self, tmp_path, capsys, monkeypatch, corruption):
        # Maps off by 1e-9 break every point's normalisation (scale) or, with
        # their column sums kept, put the last pattern at -1e-9 (negative).
        build = experiment._click_maps

        def corrupted(*args):
            maps = build(*args)
            for pairs, m in maps.items():
                if corruption == "scale":
                    maps[pairs] = m * (1.0 + 1e-9)
                else:
                    shift = 1e-9 * m.sum(axis=0)
                    maps[pairs] = np.vstack([m[:1] + m[-1:] + shift, m[1:-1], -shift])
            return maps

        monkeypatch.setattr(experiment, "_click_maps", corrupted)
        cfg = {"mode": "experiment", "grid": {"kind": "delay", "values": [0.0]}, "output": "exp"}
        path = write_config(tmp_path / "cfg.json", cfg)
        out_dir = tmp_path / "out"
        assert run(path, out_dir=str(out_dir)) == 3
        err = capsys.readouterr().err
        assert ("off 1 by 1.0" if corruption == "scale" else "min -1.0") in err
        assert not out_dir.exists()


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
        assert run(path, out_dir=str(tmp_path / "out")) == 0
        # The one file is the metadata, and its provenance is the report.
        assert list((tmp_path / "out").iterdir()) == [tmp_path / "out" / "q_metadata.json"]
        report = json.loads((tmp_path / "out" / "q_metadata.json").read_text())["provenance"]
        assert report["feasible"] is True
        assert report["qubit_phases"] == [pytest.approx(math.pi)]
        assert report["distance"] == pytest.approx(0.0, abs=1e-12)
        assert report["compatible_with_qubit"] is True

    def test_qubit_infeasible(self, tmp_path):
        cfg = {
            "mode": "qubit-analysis",
            "qubit": {"r12": 0.9, "r23": 0.05, "r31": 0.9},
            "output": "q",
        }
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, out_dir=str(tmp_path / "out")) == 0
        assert list((tmp_path / "out").iterdir()) == [tmp_path / "out" / "q_metadata.json"]
        report = json.loads((tmp_path / "out" / "q_metadata.json").read_text())["provenance"]
        assert report["feasible"] is False
        assert report["qubit_phases"] == []
        assert "distance" not in report


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
        assert main(["validate", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert "$.validation.instances" in captured.err
        assert "minimum of 1" in captured.err
        assert "validated" not in captured.out

    def test_validate_rejects_instances_above_cap(self, capsys):
        assert main(["validate", "--instances", str(10**12), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert "$.validation.instances" in captured.err
        assert "maximum of 100000" in captured.err
        assert "validated" not in captured.out

    def test_validate_rejects_negative_seed(self, capsys):
        assert main(["validate", "--instances", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "$.validation.seed" in captured.err
        assert "minimum of 0" in captured.err
        assert "validated" not in captured.out

    @pytest.mark.parametrize(
        "flags, words",
        [
            # An integer with no finite float, as in a config's validation block.
            (["--instances", "1", "--seed", "1" * 401], "--seed: number 1111"),
            (["--instances", "1e400"], "--instances: number 1e400 has no finite float"),
            (["--instances", "three"], "--instances: 'three' is not a number"),
            (["--instances", "3.0"], "3.0 is not of type 'integer'"),
        ],
    )
    def test_validate_flags_follow_the_config_number_rule(self, capsys, flags, words):
        assert main(["validate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert words in captured.err
        assert "validated" not in captured.out

    def test_python_m_package(self):
        out = run_module("triphoton", "validate", "--instances", "3")
        assert out.returncode == 0, out.stderr
        assert "max deviation" in out.stdout

    def test_console_script(self):
        out = run_module("triphoton.cli", "version")
        assert out.returncode == 0
