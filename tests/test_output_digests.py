"""The preset outputs against the committed SHA-256 manifest of this version.

A change that moves any digest bumps ``__version__`` (and the
``pyproject.toml`` version), records the new digests under it and lists the
flipped rows in CHANGES.md.  Each preset is written with the relative
``--out`` of its own name, as the sidecar records the prefix; fig4 runs at
``--tau 5``.  fig3's CSV prints 12 digits, which hide the last bits of its
gamma > 0 cells, so the manifest also holds the digest of the float64 bytes
of its four ``run_sweep`` series, taken at one BLAS thread; full bits may
differ on a CPU whose vector paths round differently, so the manifest
records NumPy's SIMD dispatch targets enabled where that digest was taken.
The CSV and sidecar digests hinge on the same vector cos and sin, so every
digest failure names this CPU's targets when they differ from those.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ionduo.cli
from ionduo import __version__, experiments
from ionduo.cli import load_config, main

MANIFEST = Path(__file__).with_name("output_digests.json")
PRESETS = {"fig1": [], "fig2": [], "fig3": [], "fig4": ["--tau", "5"]}
SERIES = """
import hashlib
import numpy as np
from ionduo.cli import figure_config
from ionduo.experiments import run_sweep
c = figure_config("fig3")
swept = run_sweep(c.params, c.theta_grid, c.gamma_grid, c.measure, c.cut, np.asarray(c.time_grid))
print(hashlib.sha256(b"".join(series.values.tobytes() for series in swept)).hexdigest())
"""


def manifest():
    digests = json.loads(MANIFEST.read_text()).get(__version__)
    assert digests is not None, f"{MANIFEST.name} has no digests for version {__version__}"
    return digests


def expected(name):
    return {suffix: manifest()[f"{name}.{suffix}"] for suffix in ("csv", "json")}


def package_env(**variables):
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = str(Path(ionduo.cli.__file__).parent.parent)
    return env


def written(directory, name):
    return {
        suffix: hashlib.sha256((directory / f"{name}.{suffix}").read_bytes()).hexdigest()
        for suffix in ("csv", "json")
    }


def simd_targets():
    """NumPy's SIMD dispatch targets this CPU enables, which pick its vector
    cos and sin; OpenBLAS picks its kernels by the same features."""
    from numpy._core import _multiarray_umath as umath

    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def host_note():
    """Empty on the SIMD targets the manifest records for this version, else
    a note that names this CPU's targets, as its rounding may differ."""
    taken_on, here = manifest()["fig3.series_simd"], simd_targets()
    if here == taken_on:
        return ""
    return (
        f"; the digests were taken on SIMD targets {taken_on!r} and this CPU enables "
        f"{here!r}, so the host's rounding, not the code, may differ"
    )


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_bytes_match_the_manifest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    experiments._exchange_coefficients.cache_clear()  # evolve afresh, as a new process does
    assert main(["figure", name, "--out", name, *PRESETS[name]]) == 0
    assert written(tmp_path, name) == expected(name), f"{name} bytes moved" + host_note()


def test_0_3_0_sidecar_still_reproduces_its_csv(tmp_path, monkeypatch):
    """0.3.0 listed every time of a grid that 0.4.0 writes as its spec; the
    listed form still loads to the same grids and reproduces the CSV."""
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "fig3", "--out", "fig3"]) == 0
    sidecar = json.loads(Path("fig3.json").read_text(encoding="utf-8"))
    assert sidecar["config"]["sweep"]["time"] == "linspace:0.0:30.0:601"
    sidecar["version"] = "0.3.0"
    sidecar["config"]["sweep"]["time"] = [float(t) for t in np.linspace(0.0, 30.0, 601)]
    old = Path("old.json")
    old.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    digests = json.loads(MANIFEST.read_text())["0.3.0"]
    assert hashlib.sha256(old.read_bytes()).hexdigest() == digests["fig3.json"]
    assert load_config(old) == load_config("fig3.json")
    assert main(["simulate", "--config", str(old), "--out", "old"]) == 0
    assert Path("old.csv").read_bytes() == Path("fig3.csv").read_bytes()


def test_two_blas_threads_write_the_same_bytes(tmp_path):
    env = package_env(OPENBLAS_NUM_THREADS="2")
    command = [sys.executable, "-m", "ionduo.cli", "figure", "fig3", "--out", "fig3"]
    proc = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert written(tmp_path, "fig3") == expected("fig3"), "fig3 bytes moved" + host_note()


def test_fig3_series_bits_match_the_manifest():
    env = package_env(OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SERIES], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == manifest()["fig3.series"], "fig3 series bits moved" + host_note()
