"""Host-speed probe: a fixed mix of interpreter and NumPy work, timed.

On a shared virtual machine the speed the host gives this process drifts
by tens of percent within seconds to minutes, and every timing of the
program follows it.  The probe does the same work on every call,
independent of ionduo: elementwise complex exponentials and a 252 x 252
matrix product (the decoherence channel's step), a Python loop of small
array operations (the per-step states and measures) and some MB of array
traffic (the state arrays).

``while_running`` repeats the probe in the benchmark's own process while a
sample runs in its child, busy for a ``DUTY`` share of the time, so the
probe sees the host as the sample sees it.  A sample's slowness is the
median probe time during it over ``REFERENCE_S``; ``run.py`` divides the
sample's timings by it.

Only NumPy and the standard library are used, never ionduo, so a change to
the program cannot change the probe's work.
"""

from __future__ import annotations

import subprocess
import time

import numpy as np

# Median probe time while a sample runs, on the baseline machine (see
# README.md): the corrected timings are in seconds at that host speed.
REFERENCE_S = 0.042
DUTY = 0.1


def _inputs():
    rng = np.random.default_rng(2024)
    square = rng.standard_normal((252, 252)) + 1j * rng.standard_normal((252, 252))
    rows = rng.standard_normal((150, 252)) + 1j * rng.standard_normal((150, 252))
    return square, rows


_SQUARE, _ROWS = _inputs()


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    total = 0.0
    start = time.perf_counter()
    for k in range(3):
        damped = np.exp(-1j * _SQUARE * (0.1 * k) - 0.005 * _SQUARE * _SQUARE) * _SQUARE
        total += float(np.abs(_SQUARE @ damped).max())
    for row in _ROWS:
        block = row.reshape(3, 84)
        reduced = block @ block.conj().T
        total += float(np.real(np.trace(reduced @ reduced)))
    total += float(np.abs(np.repeat(_ROWS, 10, axis=0) * (1 + 1j)).sum())
    elapsed = time.perf_counter() - start
    if not np.isfinite(total):
        raise RuntimeError("host probe produced a non-finite checksum")
    return elapsed


def while_running(process, deadline: float) -> list[float]:
    """Probe times taken until ``process`` exits or ``time.perf_counter()``
    passes ``deadline``; at least one."""
    times = []
    while True:
        times.append(probe())
        pause = times[-1] * (1.0 / DUTY - 1.0)
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return times
        try:
            process.wait(timeout=min(pause, remaining))
            return times
        except subprocess.TimeoutExpired:
            pass
