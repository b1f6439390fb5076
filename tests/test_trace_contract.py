"""The benchmark's per-layer tracer still finds every entry point it times.

``benchmarks/tracing.py`` wraps named ionduo functions from outside and
reports a metric as missing (None) once its entry point stops being called
the way it expects, for instance when a sweep no longer calls
``experiments.run_series`` once per cell.  These tests run the tracer on
tiny sweeps so that such a change fails here, not only in a benchmark run.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from ionduo import cli, experiments
from ionduo.ionmodel import get_block_system

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONCURRENCE = {"name": "i_concurrence", "cut": "ion1 | ion2,field"}


def traced_metrics(tracing, sweep, prefix, measure=CONCURRENCE):
    """Per-layer metrics of one traced ``cli.execute``, with the extras
    measured around it as the benchmark's child process measures them."""
    config = cli.build_config(
        {
            "params": {"nbar": 2, "fock_cutoff": 8},
            "sweep": sweep,
            "measure": measure,
            "output": {"prefix": str(prefix)},
        }
    )
    get_block_system.cache_clear()  # so the run builds its block table
    experiments._exchange_coefficients.cache_clear()  # and evolves its exchange pass
    before = get_block_system.cache_info()
    with tracing.Tracer() as tracer:
        csv_path, json_path = cli.execute(config)
    after = get_block_system.cache_info()
    extras = {
        "import_s": 0.0,
        "config_s": 0.0,
        "cache": (after.hits - before.hits, after.misses - before.misses),
        "rows": csv_path.read_bytes().count(b"\n") - 1,
        "bytes": csv_path.stat().st_size + json_path.stat().st_size,
    }
    return tracer.absent, tracing.layer_metrics(tracer.spans, tracer.absent, extras)


@pytest.mark.parametrize(
    "theta, cells", [("linspace:0:pi:3", 3), (str(math.pi / 4), 1)], ids=["theta-grid", "one-theta"]
)
def test_every_layer_metric_is_measured(tracing, tmp_path, theta, cells):
    sweep = {"theta": theta, "gamma": "0", "time": "linspace:0:2:5"}
    absent, metrics = traced_metrics(tracing, sweep, tmp_path / "traced")
    assert absent == set()
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["experiments.cells"] == cells
    assert metrics["cli.rows_written"] == cells * 5
    assert metrics["entanglement.measure_calls"] > 0 and metrics["core.eigh_calls"] > 0


@pytest.mark.parametrize("measure", ["negativity", "relative_entropy"])
def test_every_layer_metric_is_measured_on_a_mixed_gamma_sweep(tracing, tmp_path, measure):
    """The shape of fig3: one theta, gamma = 0 and gamma > 0, on ion1 | ion2."""
    sweep = {"theta": str(math.pi / 4), "gamma": "0, 0.05", "time": "linspace:0:2:5"}
    mixed = {"name": measure, "cut": "ion1 | ion2"}
    absent, metrics = traced_metrics(tracing, sweep, tmp_path / "traced", mixed)
    assert absent == set()
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["experiments.cells"] == 2
    assert metrics["cli.rows_written"] == 2 * 5
    assert metrics["entanglement.measure_calls"] > 0 and metrics["core.eigh_calls"] > 0
