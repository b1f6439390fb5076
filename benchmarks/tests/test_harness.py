"""Tests of the benchmark's own code: inputs per seed, the output check and
the tracer.  Run with ``python -m pytest benchmarks/tests``."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ionduo.cli
import ionduo.experiments
import ionduo.ionmodel
import hostspeed
import reference
import run
import tracing
import workloads
from workloads import Grid, Workload

BENCH = Path(__file__).resolve().parents[1]


def tiny(measure="i_concurrence", cut="ion1 | ion2,field", gammas=(0.0,)):
    return Workload(
        name="tiny", why="test", preset=None, theta=Grid(0.3, 1.2, 3), gammas=gammas,
        time=Grid(0.0, 2.0, 21), nbar=2.0, measure=measure, cut=cut,
        oracle_cells=2, oracle_times=3,
    )


def write_dataset(workload, seed, tmp_path):
    inputs = workloads.draw_inputs(workload, seed)
    config = workloads.build_config(ionduo.cli, workload, inputs, str(tmp_path / "d"))
    csv_path, _ = ionduo.cli.execute(config)
    expected = reference.reference_values(
        ionduo.ionmodel.build_full_hamiltonian(config.params), workload, inputs
    )
    return Path(csv_path), expected


def edit_row(csv_path, row, value):
    lines = csv_path.read_text().split("\n")
    fields = lines[1 + row].split(",")
    fields[5] = value
    lines[1 + row] = ",".join(fields)
    csv_path.write_text("\n".join(lines))


@pytest.mark.parametrize(
    "workload",
    [tiny(), tiny("negativity", "ion1 | ion2", gammas=(0.0, 0.05))],
    ids=["pure-concurrence", "channel-negativity"],
)
def test_check_accepts_output_and_catches_a_perturbed_value(workload, tmp_path):
    csv_path, expected = write_dataset(workload, seed=4, tmp_path=tmp_path)
    assert reference.check_dataset(csv_path, workload, expected) == []

    (cell, step), _ = next(iter(expected.items()))
    row = cell * workload.time.count + step
    value = float(csv_path.read_text().split("\n")[1 + row].split(",")[5])
    edit_row(csv_path, row, format(value + 1e-6, ".12g"))
    problems = reference.check_dataset(csv_path, workload, expected)
    assert len(problems) == 1 and "dense reference" in problems[0]


def test_check_catches_non_finite_out_of_range_and_missing_output(tmp_path):
    workload = tiny()
    csv_path, expected = write_dataset(workload, seed=2, tmp_path=tmp_path)
    edit_row(csv_path, 5, "nan")
    edit_row(csv_path, 6, "1.2")  # above sqrt(4/3) ~ 1.1547
    problems = " | ".join(reference.check_dataset(csv_path, workload, expected))
    assert "1 non-finite" in problems and "1 values outside" in problems

    lines = csv_path.read_text().split("\n")
    csv_path.write_text("\n".join(lines[:-2]) + "\n")
    assert "rows, expected" in reference.check_dataset(csv_path, workload, expected)[0]

    csv_path.unlink()
    assert "cannot read" in reference.check_dataset(csv_path, workload, expected)[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_draws_inputs_but_never_work_size(name):
    workload = workloads.WORKLOADS[name]
    assert workloads.draw_inputs(workload, 7) == workloads.draw_inputs(workload, 7)
    preset, other = workloads.draw_inputs(workload, 0), workloads.draw_inputs(workload, 8)
    assert (preset.phi, preset.lambda2) == (0.0, 0.01)
    assert other.phi != 0.0 and other.lambda2 != preset.lambda2
    assert 0.0 <= other.phi <= math.pi and abs(abs(other.lambda2) - 0.01) < 1e-15
    assert len(other.checks) == workload.oracle_cells * workload.oracle_times

    configs = [workloads.build_config(ionduo.cli, workload, i, "d") for i in (preset, other)]
    sizes = {
        (len(c.theta_grid), len(c.gamma_grid), len(c.time_grid), c.params.nbar, c.params.fock_cutoff)
        for c in configs
    }
    assert sizes == {(workload.theta.count, len(workload.gammas), workload.time.count,
                      workload.nbar, configs[0].params.fock_cutoff)}
    for config in configs:
        assert config.theta_grid == pytest.approx(tuple(workload.theta.values()), rel=1e-15)
        assert config.gamma_grid == workload.gammas
        assert config.measure == workload.measure and config.workers == 1
    assert configs[1].params.phi == other.phi and configs[1].params.lambda2 == other.lambda2


def test_tracer_counts_layers_and_restores_originals(tmp_path):
    workload = tiny()
    config = workloads.build_config(
        ionduo.cli, workload, workloads.draw_inputs(workload, 1), str(tmp_path / "d")
    )
    original = ionduo.experiments.evolve_pure
    with tracing.Tracer() as tracer:
        assert ionduo.experiments.evolve_pure is not original
        ionduo.cli.execute(config)
    assert ionduo.experiments.evolve_pure is original
    assert tracer.absent == set()

    layers = tracing.layer_metrics(tracer.spans, tracer.absent, {"cache": (0, 3)})
    steps = workload.cells * workload.time.count
    assert layers["experiments.cells"] == layers["dynamics.evolve_calls"] == 3
    assert layers["dynamics.state_steps"] == layers["entanglement.measure_calls"] == steps
    assert layers["dynamics.state_bytes_computed"] == 16 * steps * 9 * (config.params.fock_cutoff + 1)
    assert layers["core.states_built"] == steps + 3  # one initial state per cell
    assert layers["ionmodel.cache_hit_ratio"] == 0.0 and layers["ionmodel.cache_calls"] == 3
    assert layers["experiments.channel_self_s"] == 0.0
    assert layers["ionmodel.dense_hamiltonian_calls"] == 0
    assert 0.0 < layers["cli.write_s"] and 0.0 < layers["experiments.sweep_self_s"]


def test_tracer_reports_a_vanished_entry_point_as_missing(tmp_path):
    workload = tiny()
    config = workloads.build_config(
        ionduo.cli, workload, workloads.draw_inputs(workload, 1), str(tmp_path / "d")
    )
    targets = [t for t in tracing.TARGETS if t[0] != "dynamics.evolve_pure"]
    targets.append(("dynamics.evolve_pure", "ionduo.dynamics", "evolve_pure_renamed", None))
    targets.append(("core.state", "ionduo.core", "GoneState.__post_init__", None))
    with tracing.Tracer(targets) as tracer:
        ionduo.cli.execute(config)
    layers = tracing.layer_metrics(tracer.spans, tracer.absent, {})
    assert tracer.absent == {"dynamics.evolve_pure", "core.state"}
    for name in ("dynamics.evolve_calls", "dynamics.evolve_s", "dynamics.state_steps",
                 "core.states_built", "core.validate_s", "ionmodel.cache_hit_ratio"):
        assert layers[name] is None, name
    assert layers["experiments.cells"] == 3 and layers["entanglement.measure_calls"] == 63


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["experiments.run_series", 0.0, 10.0, -1, 0.1],
        ["ionmodel.build_full_hamiltonian", 1.0, 2.0, 0, None],
        ["entanglement.measure", 3.0, 6.0, 0, None],
        ["core.state", 4.0, 5.0, 2, None],
        ["experiments.run_series", 10.0, 12.0, -1, 0.0],
    ]
    layers = tracing.layer_metrics(spans, set(), {})
    assert layers["experiments.channel_self_s"] == pytest.approx(6.0)
    assert layers["entanglement.measure_s"] == pytest.approx(3.0)
    assert layers["experiments.cell_ms_p50"] == pytest.approx(6000.0)


def test_host_probe_follows_the_sample_and_stops_with_it():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(1.0)"])
    start = time.perf_counter()
    probes = hostspeed.while_running(child, start + 60.0)
    assert child.returncode == 0 and time.perf_counter() - start < 5.0
    assert len(probes) >= 1 and all(p > 0.0 for p in probes)

    with subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"]) as stuck:
        start = time.perf_counter()
        probes = hostspeed.while_running(stuck, start + 0.5)
        assert stuck.poll() is None and time.perf_counter() - start < 5.0
        stuck.kill()


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "theta-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
