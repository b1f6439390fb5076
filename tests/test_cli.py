import ast
import functools
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ionduo.cli
import ionduo.core
import ionduo.dynamics
import ionduo.experiments
import ionduo.ionmodel
import ionduo.selftest
from ionduo import ION_VS_REST, MeasureSeries, Sech, SimParams, __version__, run_series
from ionduo.cli import (
    ConfigError,
    _fmt,
    build_config,
    execute,
    figure_config,
    load_config,
    main,
    write_dataset,
)
from ionduo.selftest import THETA_LINEAR_PARAMS, run_selftest

PACKAGE = Path(ionduo.cli.__file__).parent

MINIMAL = """
[sweep]
theta = 0
gamma = 0
time = 0, 0.5, 1.0

[measure]
name = i_concurrence
cut = ion1 | ion2,field

[params]
nbar = 2
fock_cutoff = 10

[output]
prefix = {prefix}
"""

# A sidecar as written by ionduo 0.1.0, which also recorded nu, omega1, omega2
# and standard_matrix_element.
LEGACY_SIDECAR = {
    "version": "0.1.0",
    "preset": None,
    "config": {
        "params": {
            "lambda1": "(1+0j)",
            "lambda2": "(0.01+0j)",
            "eta": 0.202,
            "epsilon": 0.01,
            "nbar": 2.0,
            "phi": 0.0,
            "modulation": {"kind": "constant"},
            "fock_cutoff": 10,
            "standard_matrix_element": False,
            "nu": 0.0,
            "omega1": 0.0,
            "omega2": 0.0,
        },
        "sweep": {"theta": [0.0, 0.7], "gamma": [0.0], "time": [0.0, 0.5, 1.0]},
        "measure": {"name": "i_concurrence", "cut": "ion1 | ion2,field"},
        "output": {"prefix": "legacy", "deficit": 1e-10, "event_threshold": 0.001, "workers": 1},
    },
}


NUMBER_FIELDS = [f.name for f in fields(SimParams) if f.name != "modulation"]
NUMBER_VALUES = [
    3, 0, -1, 0.5, 3.0, math.nan, math.inf, 0.5 + 0.5j, 2j,
    True, np.float64(0.5), np.int64(3), Fraction(1, 2),
]


class AbcInt(int):
    pass


class AbcFloat(float):
    pass


class AbcComplex(complex):
    pass


# Not of the exact built-in type, so SimParams checks these on the
# numbers-ABC path its fast path skips for int, float and complex.
ABC_PATH = {int: AbcInt, float: AbcFloat, complex: AbcComplex}


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_minimal_roundtrip(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL.format(prefix="x")))
        assert config.theta_grid == (0.0,)
        assert config.time_grid == (0.0, 0.5, 1.0)
        assert config.params.fock_cutoff == 10
        assert config.measure == "i_concurrence"

    def test_linspace_and_pi_tokens(self, tmp_path):
        text = MINIMAL.format(prefix="x").replace("theta = 0", "theta = linspace:0:pi:5")
        config = load_config(write_config(tmp_path, text))
        assert len(config.theta_grid) == 5
        assert config.theta_grid[-1] == pytest.approx(math.pi)

    def test_unknown_key_rejected_with_location(self, tmp_path):
        text = MINIMAL.format(prefix="x").replace("gamma = 0", "gamma = 0\nfrobnicate = 1")
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(write_config(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = MINIMAL.format(prefix="x") + "\n[plotting]\ncolor = red\n"
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write_config(tmp_path, text))

    def test_theta_range_validated(self, tmp_path):
        text = MINIMAL.format(prefix="x").replace("theta = 0", "theta = 7.0")
        with pytest.raises(ConfigError, match="theta"):
            load_config(write_config(tmp_path, text))

    def test_time_grid_must_start_at_zero(self, tmp_path):
        text = MINIMAL.format(prefix="x").replace("time = 0, 0.5, 1.0", "time = 0.5, 1.0")
        with pytest.raises(ConfigError, match="time"):
            load_config(write_config(tmp_path, text))

    def test_sech_requires_tau(self):
        with pytest.raises(ConfigError, match="tau"):
            build_config(
                {
                    "sweep": {"theta": "0", "time": "0,1"},
                    "measure": {"name": "i_concurrence"},
                    "params": {"modulation": "sech", "fock_cutoff": 8},
                }
            )

    def test_auto_cutoff_resolves_from_nbar_and_deficit(self):
        config = build_config(
            {
                "sweep": {"theta": "0", "time": "0,1"},
                "measure": {"name": "i_concurrence"},
                "params": {"nbar": 5},
            }
        )
        assert config.params.fock_cutoff == 27  # Poisson tail 1e-10 plus headroom

    def test_defaults_come_from_simparams(self):
        config = build_config(
            {"sweep": {"theta": "0.3", "time": "0,1"}, "measure": {"name": "i_concurrence"}}
        )
        # 27 is the auto cutoff at the default nbar and deficit
        assert config.params == SimParams(fock_cutoff=27, theta=0.3, gamma=0.0)

    @pytest.mark.parametrize(
        "key, value", [("eta", "abc"), ("lambda1", "1+"), ("nbar", "-1")]
    )
    def test_params_error_names_its_key_and_line(self, tmp_path, key, value):
        # no fock_cutoff, so nbar = -1 meets the auto cutoff rule
        text = f"[params]\n{key} = {value}\n\n[sweep]\ntheta = 0\ntime = 0, 1\n"
        text += "\n[measure]\nname = i_concurrence\n"
        with pytest.raises(ConfigError) as caught:
            load_config(write_config(tmp_path, text))
        assert (caught.value.section, caught.value.key, caught.value.line) == ("params", key, 2)
        assert str(caught.value).count("[params]") == 1

    @pytest.mark.parametrize("name", NUMBER_FIELDS)
    @pytest.mark.parametrize("value", NUMBER_VALUES, ids=repr)
    def test_simparams_fast_path_agrees_with_the_abc_path(self, name, value):
        slow = ABC_PATH.get(type(value))

        def outcome(value):
            try:
                return SimParams(**{"fock_cutoff": 4, name: value})
            except ValueError as error:
                return str(error)

        fast = outcome(value)
        assert fast == outcome(value if slow is None else slow(value))
        if type(value) in ((bool,) if name.startswith("lambda") else (bool, complex)):
            assert fast.startswith(f"{name} must be ")  # refused for its type

    def test_mixed_case_key_keeps_its_line(self, tmp_path):
        text = "[params]\nETA = abc\n\n[sweep]\ntheta = 0\ntime = 0, 1\n"
        text += "\n[measure]\nname = i_concurrence\n"
        with pytest.raises(ConfigError) as caught:
            load_config(write_config(tmp_path, text))
        assert (caught.value.section, caught.value.key, caught.value.line) == ("params", "eta", 2)

    def test_bad_cut_rejected(self):
        with pytest.raises(ConfigError, match="cut"):
            build_config(
                {
                    "sweep": {"theta": "0", "time": "0,1"},
                    "measure": {"name": "i_concurrence", "cut": "ion1 | ion9"},
                    "params": {"fock_cutoff": 8},
                }
            )


class TestSimulateCommand:
    def test_minimal_run(self, tmp_path, capsys):
        prefix = tmp_path / "mini"
        path = write_config(tmp_path, MINIMAL.format(prefix=prefix))
        assert main(["simulate", "--config", str(path)]) == 0
        csv_text = (tmp_path / "mini.csv").read_text(encoding="utf-8")
        lines = csv_text.splitlines()
        assert lines[0] == "theta,gamma,nbar,scaled_time,measure,value"
        assert len(lines) == 1 + 3
        assert float(lines[1].split(",")[-1]) <= 1e-10  # t = 0 value
        assert "\r" not in csv_text  # LF endings only

    def test_values_carry_twelve_significant_digits(self, tmp_path):
        prefix = tmp_path / "digits"
        path = write_config(tmp_path, MINIMAL.format(prefix=prefix))
        main(["simulate", "--config", str(path)])
        for line in (tmp_path / "digits.csv").read_text().splitlines()[1:]:
            value = line.split(",")[-1]
            assert value == format(float(value), ".12g")

    def test_sidecar_roundtrips_to_identical_csv(self, tmp_path):
        prefix = tmp_path / "first"
        path = write_config(tmp_path, MINIMAL.format(prefix=prefix))
        assert main(["simulate", "--config", str(path)]) == 0
        sidecar = tmp_path / "first.json"
        assert main(["simulate", "--config", str(sidecar), "--out", str(tmp_path / "second")]) == 0
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "a"))
        main(["simulate", "--config", str(path)])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        text = MINIMAL.format(prefix=tmp_path / "w1").replace("theta = 0", "theta = 0, 0.5, 1.0")
        main(["simulate", "--config", str(write_config(tmp_path, text))])
        text = text.replace(str(tmp_path / "w1"), str(tmp_path / "w2")) + "workers = 2\n"
        main(["simulate", "--config", str(write_config(tmp_path, text, "w2.ini"))])
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    def test_sweep_starts_no_process(self, tmp_path, monkeypatch):
        text = MINIMAL.format(prefix=tmp_path / "serial").replace("theta = 0", "theta = 0, 0.5, 1.0")
        serial = load_config(write_config(tmp_path, text))
        recorded = replace(serial, workers=4, out_prefix=str(tmp_path / "recorded"))

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        csv_serial, _ = execute(serial)
        csv_recorded, json_recorded = execute(recorded)
        assert csv_recorded.read_bytes() == csv_serial.read_bytes()
        assert json.loads(json_recorded.read_text())["config"]["output"]["workers"] == 4

    def test_sliced_rows_match_per_row_rendering(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ionduo.cli, "_SLICE_ROWS", 3)  # each series spans three slices
        text = MINIMAL.format(prefix=tmp_path / "sliced").replace("theta = 0", "theta = 0, 0.7")
        text = text.replace("gamma = 0", "gamma = 0, 0.05").replace(
            "time = 0, 0.5, 1.0", "time = linspace:0:0.7:8"
        )
        config = load_config(write_config(tmp_path, text))
        awkward = [-0.0, 5e-324, 1e-300, 1e22, 0.1 + 0.2, 1 / 3, 2.5, 123456.789012345]
        series_list = [
            MeasureSeries(
                config.measure,
                config.cut,
                replace(config.params, theta=theta, gamma=gamma),
                config.time_grid,
                np.roll(awkward, shift),
            )
            for shift, (theta, gamma) in enumerate(
                itertools.product(config.theta_grid, config.gamma_grid)
            )
        ]
        csv_path, _ = write_dataset(config, series_list)
        expected = ["theta,gamma,nbar,scaled_time,measure,value\n"]
        for series in series_list:
            cell = ",".join(_fmt(getattr(series.params, k)) for k in ("theta", "gamma", "nbar"))
            expected += [
                f"{cell},{_fmt(t)},{series.measure},{_fmt(v)}\n"
                for t, v in zip(series.times, series.values)
            ]
        assert csv_path.read_text(encoding="utf-8") == "".join(expected)

    def test_time_template_renders_as_fmt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ionduo.cli, "_SLICE_ROWS", 1000)  # the grid spans five slices
        config = load_config(write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "times")))
        rng = np.random.default_rng(7)
        drawn = rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.uniform(-323, 307, 4000)
        awkward = [5e-324, 1e-300, 5e-6, 0.1 + 0.2, 1 / 3, 2.5, 123456.789012345, 999999999999.5]
        edges = [1e16, 1e22, sys.float_info.max]
        grid = tuple(np.unique(np.concatenate([[0.0], drawn, awkward, edges])).tolist())
        config = replace(config, time_grid=grid)
        series = MeasureSeries(config.measure, config.cut, config.params, grid, np.zeros(len(grid)))
        csv_path, _ = write_dataset(config, [series])
        rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == [_fmt(t) for t in grid]

    @pytest.mark.parametrize("count", [1, 601, 20001])
    def test_sidecar_is_the_indented_json_dump(self, tmp_path, count):
        config = load_config(write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "grid")))
        grid = tuple(np.linspace(0.0, 1000.0, count).tolist())
        config = replace(config, time_grid=grid)
        values = np.maximum(0.0, np.sin(np.asarray(grid) / 7.0))  # births and deaths
        series = MeasureSeries(config.measure, config.cut, config.params, grid, values)
        _, json_path = write_dataset(config, [series], preset="fig1")
        text = json_path.read_text(encoding="utf-8")
        sidecar = json.loads(text)
        assert text == json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
        assert bool(sidecar["events"][0]["births"]) == (count > 1)
        spec = [0.0] if count == 1 else f"linspace:0.0:1000.0:{count}"
        assert sidecar["config"]["sweep"]["time"] == spec

    def test_gamma_with_sech_exits_infeasible(self, tmp_path, capsys):
        text = MINIMAL.format(prefix=tmp_path / "x")
        text = text.replace("gamma = 0", "gamma = 0.05")
        text = text.replace("name = i_concurrence", "name = relative_entropy")
        text = text.replace("cut = ion1 | ion2,field", "cut = ion1 | ion2")
        text = text.replace("nbar = 2", "nbar = 2\nmodulation = sech\ntau = 5")
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 3
        assert "time-independent" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        text = MINIMAL.format(prefix=tmp_path / "x").replace("gamma = 0", "gamma = -1")
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["1", "-3"])
    def test_cutoff_without_headroom_is_config_error(self, tmp_path, capsys, cutoff):
        text = MINIMAL.format(prefix=tmp_path / "x").replace(
            "fock_cutoff = 10", f"fock_cutoff = {cutoff}"
        )
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 2
        assert "[params] fock_cutoff (line 13)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("standard", [False, True])
    def test_legacy_sidecar_reproduces_csv(self, tmp_path, standard):
        dropped = ("nu", "omega1", "omega2", "standard_matrix_element")
        old = json.loads(json.dumps(LEGACY_SIDECAR))
        old["config"]["params"]["standard_matrix_element"] = standard
        legacy = write_config(tmp_path, json.dumps(old), "legacy.json")
        current = json.loads(json.dumps(LEGACY_SIDECAR["config"]))
        for key in dropped:
            del current["params"][key]
        current = write_config(tmp_path, json.dumps(current), "current.json")
        assert main(["simulate", "--config", str(legacy), "--out", str(tmp_path / "old")]) == 0
        assert main(["simulate", "--config", str(current), "--out", str(tmp_path / "new")]) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()
        sidecar = json.loads((tmp_path / "old.json").read_text())
        assert not set(dropped) & set(sidecar["config"]["params"])

    def test_every_parsed_params_key_changes_the_values(self, tmp_path):
        # A parsed [params] key that nothing reads would leave the values as they are.
        pairs = {
            "lambda1": ("1", "0.5j"),
            "lambda2": ("0.01", "0.5"),
            "eta": ("0.202", "0.6"),
            "epsilon": ("0.01", "0.02"),
            "nbar": ("2", "3"),
            "phi": ("0", "pi/2"),
        }
        parsed = {key for key, (parse, _, _) in ionduo.cli._SCHEMA["params"].items() if parse}
        assert set(pairs) == parsed
        for key, values in pairs.items():
            runs = []
            for value in values:
                params = {"nbar": "2", "fock_cutoff": "10", key: value}
                text = (
                    "[sweep]\ntheta = pi/4\ntime = 0, 5, 10\n"
                    "[measure]\nname = i_concurrence\n[params]\n"
                    + "".join(f"{k} = {v}\n" for k, v in params.items())
                )
                prefix = tmp_path / f"{key}-{len(runs)}"
                path = write_config(tmp_path, text)
                assert main(["simulate", "--config", str(path), "--out", str(prefix)]) == 0
                rows = prefix.with_suffix(".csv").read_text().splitlines()[1:]
                runs.append([row.rsplit(",", 1)[1] for row in rows])
            assert runs[0] != runs[1], key

    @pytest.mark.parametrize(
        "section, key, value",
        [("params", "fock_cutoff", 10.7), ("output", "workers", 2.9), ("output", "workers", True)],
    )
    def test_non_integer_json_value_is_config_error(self, tmp_path, capsys, section, key, value):
        config = json.loads(json.dumps(LEGACY_SIDECAR["config"]))
        config[section][key] = value
        config["output"]["prefix"] = str(tmp_path / "x")
        path = write_config(tmp_path, json.dumps(config), "bad.json")
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"[{section}] {key}: " in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "edits, where",
        [
            (
                {"nbar = 2\nfock_cutoff = 10": "nbar = 5\nfock_cutoff = auto",
                 "[output]": "[output]\ndeficit = nan"},
                "[output] deficit (line 16)",
            ),
            ({"gamma = 0": "gamma = nan"}, "[sweep] gamma (line 4)"),
            ({"[output]": "[output]\nevent_threshold = nan"}, "[output] event_threshold (line 16)"),
            ({"nbar = 2": "nbar = 2\neta = nan"}, "[params] eta (line 13)"),
            ({"nbar = 2": "nbar = 2\nepsilon = inf"}, "[params] epsilon (line 13)"),
            ({"nbar = 2": "nbar = 2\nlambda1 = nan"}, "[params] lambda1 (line 13)"),
            ({"nbar = 2": "nbar = nan"}, "[params] nbar (line 12)"),
            ({"theta = 0": "theta = pi/0"}, "[sweep] theta (line 3)"),
            # np.linspace must not warn: pytest turns any warning into an error
            (
                {"theta = 0": "theta = linspace:-1e308:1e308:3"},
                "[sweep] theta (line 3): linspace from -1e+308 to 1e+308 overflows float64\n",
            ),
        ],
        ids=[
            "deficit", "gamma", "event_threshold", "eta", "epsilon", "lambda1", "nbar", "theta",
            "linspace_overflow",
        ],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, edits, where):
        text = MINIMAL.format(prefix=tmp_path / "x")
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 2
        assert where in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "params",
        ["eta = 1e10\nfock_cutoff = 40", "lambda1 = 1e300\nepsilon = 1e10\nfock_cutoff = 10"],
        ids=["eta", "lambda1_epsilon"],
    )
    def test_non_finite_block_frequencies_are_config_error(self, tmp_path, capsys, params):
        text = MINIMAL.format(prefix=tmp_path / "x").replace("fock_cutoff = 10", params)
        # pytest turns any warning into an error; the [params] section ends in a blank line
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: [params]: lambda1, lambda2, eta and epsilon give non-finite "
            "block frequencies\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_nbar_beyond_the_limit_is_config_error(self, tmp_path, capsys):
        text = MINIMAL.format(prefix=tmp_path / "x").replace("nbar = 2", "nbar = 1500")
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 2
        assert "[params] nbar (line 12): nbar must lie in [0, 1416.8]" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_large_nbar_run_finishes(self, tmp_path):
        # the field preparation once looped forever here, so bound the wait
        text = MINIMAL.format(prefix=tmp_path / "x")
        text = text.replace("nbar = 2\nfock_cutoff = 10", "nbar = 800")
        text = text.replace("time = 0, 0.5, 1.0", "time = 0, 0.5")
        config = write_config(tmp_path, text)
        proc = subprocess.run(
            [sys.executable, "-m", "ionduo.cli", "simulate", "--config", str(config)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        field = json.loads((tmp_path / "x.json").read_text())["field"]
        assert field["fock_cutoff"] == 988
        assert field["poisson_tail_deficit"] <= 1e-10

    def test_workers_is_a_checked_config_value_not_a_flag(self, tmp_path, capsys):
        config = write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "x") + "workers = 0\n")
        assert main(["simulate", "--config", str(config)]) == 2
        assert "[output] workers (line 17): workers must be >= 1" in capsys.readouterr().err
        for argv in (["simulate", "--config", str(config)], ["figure", "fig1"]):
            with pytest.raises(SystemExit) as refused:
                main(argv + ["--workers", "1"])
            assert refused.value.code == 2
        assert [path.name for path in tmp_path.iterdir()] == ["run.ini"]

    def test_empty_out_flag_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "x"))
        assert main(["simulate", "--config", str(path), "--out", ""]) == 2
        assert "config error: [output] prefix: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize("prefix", ["bad/", "bad/.", "bad/..", ".", ".."])
    @pytest.mark.parametrize("route", ["config", "out"])
    def test_prefix_naming_a_directory_is_config_error(
        self, tmp_path, capsys, monkeypatch, route, prefix
    ):
        monkeypatch.chdir(tmp_path)
        text = MINIMAL.format(prefix=prefix if route == "config" else "x")
        argv = ["simulate", "--config", str(write_config(tmp_path, text))]
        assert main(argv + (["--out", prefix] if route == "out" else [])) == 2
        where = " (line 16)" if route == "config" else ""
        message = f"{prefix!r} names a directory; end the prefix with a file name"
        assert capsys.readouterr().err == f"config error: [output] prefix{where}: {message}\n"
        assert [path.name for path in tmp_path.rglob("*")] == ["run.ini"]

    @pytest.mark.parametrize("out", [None, "good"], ids=["refused", "rescued"])
    def test_out_replaces_a_sidecar_prefix_naming_a_directory(
        self, tmp_path, capsys, monkeypatch, out
    ):
        # 0.6.0 and earlier wrote the refused prefix of `--out bad/` into the sidecar
        monkeypatch.chdir(tmp_path)
        first = write_config(tmp_path, MINIMAL.format(prefix="run"))
        assert main(["simulate", "--config", str(first)]) == 0
        sidecar = json.loads(Path("run.json").read_text(encoding="utf-8"))
        sidecar["version"], sidecar["config"]["output"]["prefix"] = "0.6.0", "bad/"
        write_config(tmp_path, json.dumps(sidecar), "old.json")
        argv = ["simulate", "--config", "old.json"] + ([] if out is None else ["--out", out])
        if out is None:
            assert main(argv) == 2
            message = "'bad/' names a directory; end the prefix with a file name"
            assert capsys.readouterr().err == f"config error: [output] prefix: {message}\n"
            assert not Path("bad").exists()
        else:
            assert main(argv) == 0
            assert Path("good.csv").read_bytes() == Path("run.csv").read_bytes()
            assert json.loads(Path("good.json").read_text())["config"]["output"]["prefix"] == "good"

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 2

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[1]", "JSON config must be an object"),
            ('{"sweep": 5}', "[sweep]: expected an object of keys, got 5"),
            ("1" * 5000, "invalid JSON"),
        ],
        ids=["top-level-list", "section-not-object", "integer-past-digit-limit"],
    )
    def test_malformed_json_structure_is_config_error(self, tmp_path, capsys, text, where):
        path = write_config(tmp_path, text, "bad.json")
        assert main(["simulate", "--config", str(path)]) == 2
        assert where in capsys.readouterr().err

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[params]\nnbar = \xff\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_cut_as_json_object_is_config_error(self, tmp_path, capsys):
        # Sidecars have always written the cut as text; the object form is refused.
        config = json.loads(json.dumps(LEGACY_SIDECAR["config"]))
        config["measure"]["cut"] = {"side_a": ["ion1"], "side_b": ["ion2", "field"]}
        path = write_config(tmp_path, json.dumps(config), "bad.json")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "[measure] cut: " in capsys.readouterr().err

    def test_numerical_failure_mid_run_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ionduo.dynamics, "NORM_TOL", -1.0)  # every norm check fails
        ionduo.experiments._exchange_coefficients.cache_clear()  # evolve, not reuse a passed run
        path = write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "x"))
        assert main(["simulate", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("run failed: state is not normalized") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_spectrum_off_its_closed_form_exits_4(self, tmp_path, capsys, monkeypatch):
        honest = ionduo.ionmodel.block_frequencies

        def shifted(params):
            return honest(params) * [1.001, 1.0]  # the Omega column

        monkeypatch.setattr(ionduo.ionmodel, "block_frequencies", shifted)
        ionduo.ionmodel.get_block_system.cache_clear()  # build the table, not reuse one
        ionduo.experiments._exchange_coefficients.cache_clear()
        try:
            path = write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "x"))
            assert main(["simulate", "--config", str(path)]) == 4
        finally:
            ionduo.ionmodel.get_block_system.cache_clear()
        err = capsys.readouterr().err
        assert err.startswith("run failed: block ") and "closed-form frequency" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize(
        "module, tolerance, value, measure, message",
        [
            ("dynamics", "NORM_TOL", -1.0, "negativity", "state is not normalized"),
            ("core", "EIG_FLOOR", 1.0, "relative_entropy", "below the clipping floor"),
        ],
        ids=["node-norm", "entropy-floor"],
    )
    def test_failed_chunk_check_exits_4(
        self, tmp_path, capsys, monkeypatch, module, tolerance, value, measure, message
    ):
        # The per-node norm check certifies every chunk; spectral_entropy
        # still refuses an eigenvalue below the floor.
        monkeypatch.setattr(getattr(ionduo, module), tolerance, value)  # every such check fails
        text = MINIMAL.format(prefix=tmp_path / "x").replace("gamma = 0", "gamma = 0, 0.05")
        text = text.replace("name = i_concurrence", f"name = {measure}")
        text = text.replace("cut = ion1 | ion2,field", "cut = ion1 | ion2")
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and message in err and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_uncertifiable_channel_exits_3_before_evolving(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ionduo.dynamics, "_evolved_rows", None)  # any evolution would fail
        text = MINIMAL.format(prefix=tmp_path / "x").replace("gamma = 0", "gamma = 1")
        text = text.replace("time = 0, 0.5, 1.0", "time = 0, 1e6")
        text = text.replace("fock_cutoff = 10", "fock_cutoff = 4\nepsilon = 1")
        text = text.replace("name = i_concurrence", "name = negativity")
        text = text.replace("cut = ion1 | ion2,field", "cut = ion1 | ion2")
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible run: no Gauss-Hermite rule")
        assert "gamma * t_max = 1e+06" in err and "w = " in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_row_order_and_count_for_grid(self, tmp_path):
        text = MINIMAL.format(prefix=tmp_path / "grid")
        text = text.replace("theta = 0", "theta = 0, 1.0")
        text = text.replace("gamma = 0", "gamma = 0, 0.05")
        text = text.replace("name = i_concurrence", "name = relative_entropy")
        text = text.replace("cut = ion1 | ion2,field", "cut = ion1 | ion2")
        main(["simulate", "--config", str(write_config(tmp_path, text))])
        rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2 * 3  # theta x gamma x time
        keys = [tuple(map(float, row.split(",")[:2])) + (float(row.split(",")[3]),) for row in rows]
        assert keys == sorted(keys)

    def test_short_time_grid_still_writes(self, tmp_path):
        # event detection needs three points; shorter grids skip it cleanly
        text = MINIMAL.format(prefix=tmp_path / "short").replace(
            "time = 0, 0.5, 1.0", "time = 0, 1.0"
        )
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 0
        sidecar = json.loads((tmp_path / "short.json").read_text())
        assert sidecar["events"][0] == {"theta": 0.0, "gamma": 0.0, "births": [], "deaths": []}

    def test_sidecar_contents(self, tmp_path):
        text = MINIMAL.format(prefix=tmp_path / "meta")
        main(["simulate", "--config", str(write_config(tmp_path, text))])
        sidecar = json.loads((tmp_path / "meta.json").read_text())
        assert sidecar["version"] == __version__
        assert sidecar["config"]["params"]["nbar"] == 2.0
        assert sidecar["field"]["fock_cutoff"] == 10
        assert sidecar["events"][0]["births"] == []
        # theta = 0 is a separable angle, so the zero-entanglement flag exists
        assert sidecar["separable_start_check"][0]["theta"] == 0.0
        assert sidecar["separable_start_check"][0]["value_at_t0"] <= 1e-10

    def test_separable_start_reads_zero_at_large_nbar(self, tmp_path):
        # The purity is taken over the squared trace of the marginal, so the
        # round-off in the norm of ~1,000 field amplitudes does not show.
        text = MINIMAL.format(prefix=tmp_path / "bright")
        text = text.replace("theta = 0", "theta = 0, pi/2")
        text = text.replace("time = 0, 0.5, 1.0", "time = 0, 0.5")
        text = text.replace("nbar = 2\nfock_cutoff = 10", "nbar = 800")
        assert main(["simulate", "--config", str(write_config(tmp_path, text))]) == 0
        checks = json.loads((tmp_path / "bright.json").read_text())["separable_start_check"]
        assert [check["theta"] for check in checks] == [0.0, math.pi / 2]
        assert all(check["value_at_t0"] <= 1e-12 for check in checks)

    def _outputs(self, tmp_path, name):
        return {p.name: p.read_bytes() for p in sorted(tmp_path.glob(f"*{name}*"))}

    def test_failed_sidecar_leaves_previous_pair(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "pair"))
        assert main(["simulate", "--config", str(path)]) == 0
        before = self._outputs(tmp_path, "pair")
        assert set(before) == {"pair.csv", "pair.json"}

        def broken_dumps(*args, **kwargs):
            raise RuntimeError("sidecar failed")

        monkeypatch.setattr(json, "dumps", broken_dumps)
        text = MINIMAL.format(prefix=tmp_path / "pair").replace("theta = 0", "theta = 0.4")
        with pytest.raises(RuntimeError, match="sidecar failed"):
            main(["simulate", "--config", str(write_config(tmp_path, text, "other.ini"))])
        assert self._outputs(tmp_path, "pair") == before

    def test_failed_second_file_removes_first_temporary(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, MINIMAL.format(prefix=tmp_path / "pair"))
        assert main(["simulate", "--config", str(path)]) == 0
        before = self._outputs(tmp_path, "pair")
        write_text = Path.write_text

        def failing_json_write(self, *args, **kwargs):
            if ".json." in self.name:
                raise OSError("disk full")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_json_write)
        text = MINIMAL.format(prefix=tmp_path / "pair").replace("theta = 0", "theta = 0.4")
        with pytest.raises(OSError, match="disk full"):
            main(["simulate", "--config", str(write_config(tmp_path, text, "other.ini"))])
        assert self._outputs(tmp_path, "pair") == before


class TestFigurePresets:
    def test_fig1_preset_shape(self):
        config = figure_config("fig1")
        assert config.params.nbar == 5.0
        assert len(config.theta_grid) == 121
        assert len(config.time_grid) == 601
        assert config.measure == "i_concurrence"
        assert config.gamma_grid == (0.0,)

    def test_fig2_differs_only_in_nbar(self):
        fig1, fig2 = figure_config("fig1"), figure_config("fig2")
        assert fig2.params.nbar == 15.0
        assert fig2.theta_grid == fig1.theta_grid
        assert fig2.time_grid == fig1.time_grid
        assert fig2.measure == fig1.measure

    def test_fig3_sweeps_gamma_at_fixed_theta(self):
        config = figure_config("fig3")
        assert config.theta_grid == (math.pi / 4,)
        assert config.gamma_grid == (0.0, 0.01, 0.05, 0.1)
        assert config.measure == "negativity"
        assert set(config.cut.labels) == {"ion1", "ion2"}

    def test_fig4_requires_tau(self):
        with pytest.raises(ConfigError, match="tau"):
            figure_config("fig4")

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_tau_for_a_constant_preset_is_refused(self, name, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"^\[figure\] tau: "):
            figure_config(name, tau=5.0)
        prefix = tmp_path / name
        assert main(["figure", name, "--tau", "5", "--out", str(prefix)]) == 2
        assert capsys.readouterr().err.startswith("config error: [figure] tau: ")
        assert list(tmp_path.iterdir()) == []

    def test_fig4_with_tau(self):
        config = figure_config("fig4", tau=5.0)
        assert config.params.modulation == Sech(5.0)

    def test_fig4_cli_exit_code_without_tau(self, capsys):
        assert main(["figure", "fig4"]) == 2
        assert "tau" in capsys.readouterr().err

    def test_sech_run_records_event_metadata(self, tmp_path):
        text = MINIMAL.format(prefix=tmp_path / "sech")
        text = text.replace("theta = 0", "theta = 0.0002")
        text = text.replace("time = 0, 0.5, 1.0", "time = linspace:0:10:101")
        text = text.replace("nbar = 2", "nbar = 2\nmodulation = sech\ntau = 5")
        main(["simulate", "--config", str(write_config(tmp_path, text))])
        sidecar = json.loads((tmp_path / "sech.json").read_text())
        assert sidecar["modulation_note"].startswith("runs start at t = 0")
        assert len(sidecar["events"][0]["births"]) >= 1  # near-separable start is born


class TestVersionAndSelftest:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_selftest_passes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ionduo.cli", "selftest", "--skip-claims"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS block-vs-dense" in proc.stdout
        assert "max deviation" in proc.stdout

    def test_selftest_negative_control(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ionduo.cli",
                "selftest",
                "--inject-fault",
                "mode_strength",
                "--skip-claims",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "FAIL mode-function-reference" in proc.stdout

    def test_injected_fault_does_not_outlive_its_run(self):
        out, honest = io.StringIO(), ionduo.ionmodel.mode_function
        assert run_selftest(inject_fault="mode_strength", include_claims=False, stream=out) == 1
        assert ionduo.ionmodel.mode_function is honest
        # The faulted run filled the caches with the theta-linear check's run.
        script = (
            "import json, numpy as np\n"
            "from ionduo import ION_VS_REST, run_series\n"
            "from ionduo.selftest import THETA_LINEAR_PARAMS as params\n"
            "times = np.linspace(0.0, 10.0, 41)\n"
            "series = run_series(params, 'i_concurrence', ION_VS_REST, times)\n"
            "print(json.dumps(series.values.tolist()))\n"
        )
        after = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert after.returncode == 0, after.stderr
        values = run_series(
            THETA_LINEAR_PARAMS, "i_concurrence", ION_VS_REST, np.linspace(0.0, 10.0, 41)
        ).values
        assert values.tolist() == json.loads(after.stdout)
        assert run_selftest(include_claims=False, stream=out) == 0

    def test_clearing_leaves_only_the_layout_cache(self):
        # Every functools cache on the loaded modules, module-level or on a
        # class, so that a new cache of mode-function data is seen here.
        caches = {}
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "ionduo":
                continue
            for value in vars(module).values():
                inner = list(vars(value).values()) if isinstance(value, type) else []
                for obj in [value, *(getattr(item, "__func__", item) for item in inner)]:
                    if isinstance(obj, functools._lru_cache_wrapper):
                        caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
        times = np.linspace(0.0, 1.0, 5)
        params = SimParams(fock_cutoff=6, nbar=1.0, theta=0.3)
        run_series(params, "i_concurrence", ION_VS_REST, times)
        run_series(replace(params, gamma=0.05), "negativity", ionduo.experiments.ION_VS_ION, times)
        filled = {name for name, cache in caches.items() if cache.cache_info().currsize}
        assert filled == set(caches), "extend the runs to fill every cache"
        ionduo.selftest._clear_caches()
        left = {name for name, cache in caches.items() if cache.cache_info().currsize}
        assert left == {"ionduo.core._split_plan"}

    def test_claim_lines_round_floats_to_twelve_digits(self):
        def line(average, birth):
            report = {"claim": "c", "holds": True, "averages": [average], "birth": birth, "n": 0}
            return ionduo.selftest._claim_line(report)

        # round-off in the 16th and 17th digits, as a rerun on another BLAS may give
        assert line(1.3530462430288364, 0.15) == line(1.3530462430288368, 0.15000000000000002)
        expected = "PASS claim: c  {'averages': [1.35304624303], 'birth': 0.15, 'n': 0}"
        assert line(1.3530462430288368, 0.15000000000000002) == expected

    def test_check_lines_print_the_decade_of_each_deviation(self, monkeypatch):
        def lines(*deviations):
            checks = [
                functools.partial(ionduo.selftest.CheckResult, "c", True, deviation, 1e-12)
                for deviation in deviations
            ]
            monkeypatch.setattr(ionduo.selftest, "_CHECKS", checks)
            out = io.StringIO()
            assert run_selftest(include_claims=False, stream=out) == 0
            return out.getvalue()

        # round-off in the 4th digit, as another summation order may give
        assert lines(3.998e-15, 1e-15, 0.0) == lines(3.991e-15, 1e-15, 0.0)
        bounds = ("<= 1e-14", "<= 1e-15", "0")
        expected = [f"PASS {'c':24s} max deviation {bound} (tol 1.0e-12)" for bound in bounds]
        assert lines(3.998e-15, 1e-15, 0.0).splitlines() == expected

    def test_the_kraus_deficit_prints_as_its_decade(self, monkeypatch):
        honest, details = ionduo.selftest.milburn_kraus, []

        def scaled(scale):
            def kraus(*args):
                rho, deficit = honest(*args)
                return rho, scale * deficit

            return kraus

        for scale in (1.0, 1.0003):  # a deficit moved in its 4th digit
            monkeypatch.setattr(ionduo.selftest, "milburn_kraus", scaled(scale))
            details.append(ionduo.selftest._check_channels_vs_closed().detail)
        assert details == ["Kraus deficit <= 1e-11"] * 2

    def test_no_production_module_imports_the_oracles(self):
        def imported(node):
            """Absolute names of the modules an import statement may bind."""
            if isinstance(node, ast.Import):
                return [alias.name for alias in node.names]
            base = "ionduo" + (f".{node.module}" if node.module else "") if node.level else node.module
            return [base] + [f"{base}.{alias.name}" for alias in node.names]

        offenders = []
        for path in sorted(PACKAGE.glob("*.py")):
            banned = {"argparse", "configparser"}  # main and INI files load these themselves
            if path.stem != "selftest":
                banned.add("ionduo.selftest")
            stack = list(ast.parse(path.read_text()).body)
            while stack:  # every statement that runs at import: all but function bodies
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    if banned & set(imported(node)):
                        offenders.append(f"{path.name}:{node.lineno}")
                stack.extend(ast.iter_child_nodes(node))
        assert offenders == []

    def test_the_package_exports_only_the_production_surface(self):
        assert [name for name in ionduo.__all__ if not hasattr(ionduo, name)] == []
        oracles = [
            "DensityMatrix",
            "Spectrum",
            "hermitian_spectrum",
            "evolve_pure",
            "i_concurrence_pure",
            "negativity",
            "relative_entropy_measure",
            "build_block",
            "build_full_hamiltonian",
        ]
        assert [name for name in oracles if hasattr(ionduo, name)] == []

    def test_import_loads_no_oracles(self):
        script = "import sys, ionduo, ionduo.cli\nprint('ionduo.selftest' in sys.modules)\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_process_pool(self):
        script = (
            "import sys, ionduo.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures', 'argparse', 'configparser',"
            " 'gettext'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
