"""Spans and counts around ionduo's layer entry points, recorded from outside.

Each target names a function or method in its home module.  Installing it
replaces that object under every name that a loaded ``ionduo`` module binds
it to, which is the name its caller looks up (``experiments.evolve_pure``,
``cli.run_sweep``, ...), and methods on their class.  A wrapper records a
span ``[name, start, end, parent index, tag]`` in memory; the parent is the
innermost open span.

A target whose module or attribute no longer exists is skipped, and every
metric that needs its span group reads ``None`` ("missing") instead of
crashing, so the traced run survives refactors that move or delete entry
points.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time


def _cell_gamma(args, result):
    return float(getattr(args[0], "gamma"))


def _steps_and_dim(args, result):
    states = getattr(result, "states", result)
    first = states[0]
    return len(states), int(getattr(first, "amplitudes", first).size)


# (span name, home module, attribute path, tag taken from (args, result))
TARGETS = (
    ("cli.run_sweep", "ionduo.experiments", "run_sweep", None),
    ("cli.write_dataset", "ionduo.cli", "write_dataset", None),
    ("experiments.run_series", "ionduo.experiments", "run_series", _cell_gamma),
    ("experiments.prepare", "ionduo.experiments", "prepare_initial", None),
    ("experiments.prepare", "ionduo.experiments", "truncated_coherent", None),
    ("dynamics.evolve_pure", "ionduo.dynamics", "evolve_pure", _steps_and_dim),
    ("ionmodel.build_block", "ionduo.ionmodel", "build_block", None),
    ("ionmodel.build_full_hamiltonian", "ionduo.ionmodel", "build_full_hamiltonian", None),
    ("core.hermitian_spectrum", "ionduo.core", "hermitian_spectrum", None),
    ("core.state", "ionduo.core", "PureState.__post_init__", None),
    ("core.state", "ionduo.core", "DensityMatrix.__post_init__", None),
    ("entanglement.measure", "ionduo.entanglement", "i_concurrence_pure", None),
    ("entanglement.measure", "ionduo.entanglement", "negativity", None),
    ("entanglement.measure", "ionduo.entanglement", "relative_entropy_measure", None),
)

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "cli.config_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.rows_written": ("count", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "experiments.cells": ("count", "lower"),
    "experiments.cell_ms_p50": ("ms", "lower"),
    "experiments.cell_ms_p90": ("ms", "lower"),
    "experiments.prepare_s": ("s", "lower"),
    "experiments.channel_self_s": ("s", "lower"),
    "experiments.sweep_self_s": ("s", "lower"),
    "ionmodel.cache_hit_ratio": ("ratio", "higher"),
    "ionmodel.cache_calls": ("count", "lower"),
    "ionmodel.blocks_built": ("count", "lower"),
    "ionmodel.blocks_s": ("s", "lower"),
    "ionmodel.dense_hamiltonian_calls": ("count", "lower"),
    "ionmodel.dense_hamiltonian_s": ("s", "lower"),
    "core.eigh_calls": ("count", "lower"),
    "core.eigh_s": ("s", "lower"),
    "core.eigh_max_ms": ("ms", "lower"),
    "core.states_built": ("count", "lower"),
    "core.validate_s": ("s", "lower"),
    "dynamics.evolve_calls": ("count", "lower"),
    "dynamics.evolve_s": ("s", "lower"),
    "dynamics.state_steps": ("count", "lower"),
    "dynamics.state_bytes_computed": ("B", "lower"),
    "entanglement.measure_calls": ("count", "lower"),
    "entanglement.measure_s": ("s", "lower"),
    "ionduo.import_s": ("s", "lower"),
    "tracing.overhead_s": ("s", "lower"),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a module function or a class method."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    original = vars(owner)[attr] if classes else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Installs span-recording wrappers; use as a context manager so the
    originals are restored on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self):
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ionduo"]
        for name, module_name, path, tag in self.targets:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, tag)
            owners = [owner] if "." in path else loaded
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, value))
                        setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    def _wrap(self, name, original, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if tag is not None:
                try:
                    record[4] = tag(args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass
            return result

        return wrapper

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "tag"])
            for index, (name, start, end, parent, tag) in enumerate(self.spans):
                out.writerow([index, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent, tag])


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def layer_metrics(spans, absent, extras: dict) -> dict:
    """Per-layer metrics from one traced execution.

    ``extras`` carries what the child measures around the run itself:
    ``import_s``, ``config_s``, ``cache`` (hit and miss deltas of the spectrum
    cache, or None), ``rows`` and ``bytes``.  A value of None means missing.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def nested_in_same(index):
        name, parent = spans[index][0], spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    groups: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        if not nested_in_same(index):
            groups.setdefault(span[0], []).append(index)

    def present(name):
        return name not in absent

    def indices(name):
        return groups.get(name, [])

    def count(name):
        return len(indices(name)) if present(name) else None

    def total(name, keep=lambda index: True):
        if not present(name):
            return None
        return sum((spans[i][2] - spans[i][1] for i in indices(name) if keep(i)), 0.0)

    def self_time(name, keep=lambda index: True):
        if not present(name):
            return None
        return sum((spans[i][2] - spans[i][1] - child_time[i] for i in indices(name) if keep(i)), 0.0)

    cell_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in indices("experiments.run_series")]
    cells_known = present("experiments.run_series") and cell_ms
    gammas = [spans[i][4] for i in indices("experiments.run_series")]
    evolve_tags = [spans[i][4] for i in indices("dynamics.evolve_pure")]
    evolve_known = present("dynamics.evolve_pure") and None not in evolve_tags
    eigh_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in indices("core.hermitian_spectrum")]
    cache = extras.get("cache")

    def not_under_write(index):
        parent = spans[index][3]
        return parent < 0 or spans[parent][0] != "cli.write_dataset"

    return {
        "cli.config_s": extras.get("config_s"),
        "cli.write_s": total("cli.write_dataset"),
        "cli.rows_written": extras.get("rows"),
        "cli.bytes_written": extras.get("bytes"),
        "experiments.cells": count("experiments.run_series"),
        "experiments.cell_ms_p50": _percentile(cell_ms, 0.5) if cells_known else None,
        "experiments.cell_ms_p90": _percentile(cell_ms, 0.9) if cells_known else None,
        "experiments.prepare_s": total("experiments.prepare", not_under_write),
        "experiments.channel_self_s": (
            self_time("experiments.run_series", lambda i: spans[i][4] > 0)
            if None not in gammas
            else None
        ),
        "experiments.sweep_self_s": self_time("cli.run_sweep"),
        "ionmodel.cache_hit_ratio": (
            (cache[0] / (cache[0] + cache[1]) if cache[0] + cache[1] else 0.0) if cache else None
        ),
        "ionmodel.cache_calls": cache[0] + cache[1] if cache else None,
        "ionmodel.blocks_built": count("ionmodel.build_block"),
        "ionmodel.blocks_s": total("ionmodel.build_block"),
        "ionmodel.dense_hamiltonian_calls": count("ionmodel.build_full_hamiltonian"),
        "ionmodel.dense_hamiltonian_s": total("ionmodel.build_full_hamiltonian"),
        "core.eigh_calls": count("core.hermitian_spectrum"),
        "core.eigh_s": total("core.hermitian_spectrum"),
        "core.eigh_max_ms": (max(eigh_ms, default=0.0) if present("core.hermitian_spectrum") else None),
        "core.states_built": count("core.state"),
        "core.validate_s": total("core.state"),
        "dynamics.evolve_calls": count("dynamics.evolve_pure"),
        "dynamics.evolve_s": total("dynamics.evolve_pure"),
        "dynamics.state_steps": sum(t[0] for t in evolve_tags) if evolve_known else None,
        "dynamics.state_bytes_computed": (
            sum(16 * t[0] * t[1] for t in evolve_tags) if evolve_known else None
        ),
        "entanglement.measure_calls": count("entanglement.measure"),
        "entanglement.measure_s": total("entanglement.measure"),
        "ionduo.import_s": extras.get("import_s"),
    }
