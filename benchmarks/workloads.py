"""Benchmark workloads and the inputs a seed draws for them.

A workload fixes the amount of work: grid counts, ``nbar`` and therefore
the Fock cutoff.  A seed draws only what does not change that work: the
initial-state phase ``phi`` in [0, pi], the phase of ``lambda2`` (its
magnitude stays 0.01) and which cells and time points the output check
compares against the dense reference.  Seed 0 is the exact preset
(``phi = 0``, ``lambda2 = 0.01``).

This module imports only the standard library at module level, because the
measured child process imports it before it starts the ``import ionduo``
clock.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

LAMBDA2_MAGNITUDE = 0.01


@dataclass(frozen=True)
class Grid:
    """``count`` evenly spaced values from ``start`` to ``stop`` inclusive."""

    start: float
    stop: float
    count: int

    def to_config(self) -> str:
        return f"linspace:{self.start!r}:{self.stop!r}:{self.count}"

    def values(self):
        import numpy as np

        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str | None  # ``ionduo figure`` preset the config starts from
    theta: Grid
    gammas: tuple[float, ...]
    time: Grid
    nbar: float
    measure: str
    cut: str
    oracle_cells: int  # cells the dense reference checks per run
    oracle_times: int  # time points per checked cell

    @property
    def cells(self) -> int:
        return self.theta.count * len(self.gammas)

    @property
    def points(self) -> int:
        return self.cells * self.time.count

    def sections(self, inputs: "Inputs", prefix: str) -> dict:
        """Config sections in the ``ionduo simulate`` grammar."""
        return {
            "params": {
                "nbar": self.nbar,
                "phi": inputs.phi,
                "lambda2": repr(inputs.lambda2),
            },
            "sweep": {
                "theta": self.theta.to_config(),
                "gamma": ", ".join(repr(g) for g in self.gammas),
                "time": self.time.to_config(),
            },
            "measure": {"name": self.measure, "cut": self.cut},
            "output": {"prefix": prefix},
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="theta-grid",
            why="fig1 preset: 121 theta cells share one Hamiltonian, so it exercises "
            "the spectrum cache, per-cell evolution, per-step state objects and measures "
            "and a 72k-row write",
            preset="fig1",
            theta=Grid(0.0, math.pi, 121),
            gammas=(0.0,),
            time=Grid(0.0, 30.0, 601),
            nbar=5.0,
            measure="i_concurrence",
            cut="ion1 | ion2,field",
            oracle_cells=3,
            oracle_times=4,
        ),
        Workload(
            name="gamma-channel",
            why="fig3 preset: nearly all time is the dense per-step decoherence "
            "transform of the three gamma > 0 cells; cache, pure evolution and write idle",
            preset="fig3",
            theta=Grid(math.pi / 4, math.pi / 4, 1),
            gammas=(0.0, 0.01, 0.05, 0.1),
            time=Grid(0.0, 30.0, 601),
            nbar=5.0,
            measure="negativity",
            cut="ion1 | ion2",
            oracle_cells=2,
            oracle_times=6,
        ),
        Workload(
            name="long-trace",
            why="one nbar 15 cell over 20,001 times: no work shared across cells and "
            "the (T, dim) state array sets memory, so cross-cell reuse shows its cost here",
            preset=None,
            theta=Grid(math.pi / 4, math.pi / 4, 1),
            gammas=(0.0,),
            time=Grid(0.0, 1000.0, 20001),
            nbar=15.0,
            measure="i_concurrence",
            cut="ion1 | ion2,field",
            oracle_cells=1,
            oracle_times=8,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything a seed decides for one workload."""

    workload: str
    seed: int
    phi: float
    lambda2: complex
    checks: tuple[tuple[int, int], ...]  # (cell index, time index) pairs, sorted


def draw_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(seed)
    phi = rng.uniform(0.0, math.pi)
    phase = rng.uniform(0.0, 2 * math.pi)
    if seed == 0:
        phi, phase = 0.0, 0.0
    cells = rng.sample(range(workload.cells), workload.oracle_cells)
    checks = sorted(
        (cell, step)
        for cell in cells
        for step in rng.sample(range(workload.time.count), workload.oracle_times)
    )
    lambda2 = LAMBDA2_MAGNITUDE * cmath.exp(1j * phase)
    return Inputs(workload.name, seed, phi, lambda2, tuple(checks))


def build_config(cli, workload: Workload, inputs: Inputs, prefix: str):
    """The run's ``RunConfig``, built through the public CLI entry points.

    Preset workloads start from ``cli.figure_config`` and feed its resolved
    sidecar form back through ``cli.build_config`` with the seed's ``phi``
    and ``lambda2``; every seed, seed 0 included, takes the same two steps so
    set-up work does not depend on the seed.
    """
    sections = workload.sections(inputs, prefix)
    if workload.preset is None:
        return cli.build_config(sections)
    resolved = cli.figure_config(workload.preset, out=prefix).to_json_dict()
    resolved["params"].update(sections["params"])
    return cli.build_config(resolved)
