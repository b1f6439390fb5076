import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from ionduo import Sech, SimParams, __version__
from ionduo.cli import ConfigError, build_config, figure_config, load_config, main
from ionduo.selftest import run_selftest

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

# A sidecar as written by ionduo 0.1.0, which also recorded nu, omega1 and omega2.
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
        text = MINIMAL.format(prefix=tmp_path / "w1").replace(
            "theta = 0", "theta = 0, 0.5, 1.0"
        )
        path = write_config(tmp_path, text)
        main(["simulate", "--config", str(path)])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "w2"), "--workers", "2"])
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

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

    def test_legacy_sidecar_reproduces_csv(self, tmp_path):
        legacy = write_config(tmp_path, json.dumps(LEGACY_SIDECAR), "legacy.json")
        current = json.loads(json.dumps(LEGACY_SIDECAR["config"]))
        for key in ("nu", "omega1", "omega2"):
            del current["params"][key]
        current = write_config(tmp_path, json.dumps(current), "current.json")
        assert main(["simulate", "--config", str(legacy), "--out", str(tmp_path / "old")]) == 0
        assert main(["simulate", "--config", str(current), "--out", str(tmp_path / "new")]) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()
        sidecar = json.loads((tmp_path / "old.json").read_text())
        assert not {"nu", "omega1", "omega2"} & set(sidecar["config"]["params"])

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

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 2

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
        out = io.StringIO()
        assert run_selftest(inject_fault="mode_strength", include_claims=False, stream=out) == 1
        assert run_selftest(include_claims=False, stream=out) == 0
