"""The preset outputs against the committed SHA-256 manifest of this version.

A change that moves any digest bumps ``__version__`` (and the
``pyproject.toml`` version), records the new digests under it and lists the
flipped rows in CHANGES.md.  Each preset is written with the relative
``--out`` of its own name, as the sidecar records the prefix; fig4 runs at
``--tau 5``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ionduo.cli
from ionduo import __version__, experiments
from ionduo.cli import main

MANIFEST = Path(__file__).with_name("output_digests.json")
PRESETS = {"fig1": [], "fig2": [], "fig3": [], "fig4": ["--tau", "5"]}


def expected(name):
    digests = json.loads(MANIFEST.read_text()).get(__version__)
    assert digests is not None, f"{MANIFEST.name} has no digests for version {__version__}"
    return {suffix: digests[f"{name}.{suffix}"] for suffix in ("csv", "json")}


def written(directory, name):
    return {
        suffix: hashlib.sha256((directory / f"{name}.{suffix}").read_bytes()).hexdigest()
        for suffix in ("csv", "json")
    }


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_bytes_match_the_manifest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    experiments._exchange_coefficients.cache_clear()  # evolve afresh, as a new process does
    assert main(["figure", name, "--out", name, *PRESETS[name]]) == 0
    assert written(tmp_path, name) == expected(name)


def test_two_blas_threads_write_the_same_bytes(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = str(Path(ionduo.cli.__file__).parent.parent)
    command = [sys.executable, "-m", "ionduo.cli", "figure", "fig3", "--out", "fig3"]
    proc = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert written(tmp_path, "fig3") == expected("fig3")
