"""Initial-state preparation, parameter sweeps and sudden-event detection.

The initial state is a two-ion superposition
(cos(theta) |a1 b2> + sin(theta) e^{i phi} |b1 a2>) tensored with a coherent
vibrational field of mean phonon number nbar, truncated so that the dropped
Poisson tail is certifiable and the blue-sideband dynamics never reaches the
cutoff ceiling.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import DensityMatrix, HilbertLayout, PureState, reduced_density
from .dynamics import check_times, evolve_pure, milburn_reduced
from .entanglement import (
    Bipartition,
    i_concurrence_values,
    negativity,
    relative_entropy_measure,
)
from .ionmodel import full_index, full_layout
from .params import Constant, Sech, SimParams

MEASURES = ("i_concurrence", "negativity", "relative_entropy")

#: Default bipartition for pure-state sweeps: first ion against the rest.
ION_VS_REST = Bipartition(("ion1",), ("ion2", "field"))
#: Default bipartition for mixed-state sweeps on the two-ion reduced state.
ION_VS_ION = Bipartition(("ion1",), ("ion2",))


class IncompatibleMeasureError(ValueError):
    """The requested measure is undefined for the state the run produces."""


class UnsupportedRegimeError(ValueError):
    """Requested evolution is outside the regime where the method is exact."""


@dataclass(frozen=True)
class FieldPreparation:
    """Real coherent-state amplitudes q_n on a truncated Fock space.

    ``deficit`` is the Poisson tail mass dropped by the truncation, before
    the amplitudes are renormalized to unit norm.  The top ``cutoff`` slots
    beyond the occupied range stay empty as headroom for the phonon-raising
    transitions.
    """

    nbar: float
    cutoff: int
    amplitudes: np.ndarray
    deficit: float

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.float64, copy=True)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError(f"need {self.cutoff + 1} amplitudes, got {amps.shape}")
        norm_sq = float(np.dot(amps, amps))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"field amplitudes are not normalized: sum q^2 = {norm_sq}")


def _poisson_sqrt(nbar: float, top: int) -> tuple[np.ndarray, float]:
    """sqrt of the Poisson(nbar) weights for n = 0..top and the tail mass
    beyond top."""
    q = np.zeros(top + 1)
    q[0] = math.exp(-nbar / 2.0)
    for n in range(1, top + 1):
        q[n] = q[n - 1] * math.sqrt(nbar / n)
    tail = max(0.0, 1.0 - float(np.dot(q, q)))
    return q, tail


def coherent_amplitudes(nbar: float, target_deficit: float) -> FieldPreparation:
    """Coherent field truncated by a Poisson tail bound.

    The occupied range ends at the smallest N whose tail mass is at most
    ``target_deficit``; the cutoff adds two empty headroom slots so the
    phonon-raising dynamics stays clear of the truncation ceiling.
    """
    if target_deficit <= 0:
        raise ValueError(f"target_deficit must be > 0, got {target_deficit}")
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    mass = math.exp(-nbar)
    weight = mass
    top = 0
    while 1.0 - mass > target_deficit:
        top += 1
        weight *= nbar / top
        mass += weight
    return truncated_coherent(nbar, top + 2)


def truncated_coherent(nbar: float, fock_cutoff: int, headroom: int = 2) -> FieldPreparation:
    """Coherent field on a fixed cutoff, occupying n <= cutoff - headroom."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    top = fock_cutoff - headroom
    if top < 0:
        raise ValueError(f"fock_cutoff {fock_cutoff} leaves no room below headroom {headroom}")
    q, tail = _poisson_sqrt(nbar, top)
    amps = np.zeros(fock_cutoff + 1)
    amps[: top + 1] = q / math.sqrt(float(np.dot(q, q)))
    return FieldPreparation(nbar, fock_cutoff, amps, tail)


def prepare_initial(theta: float, phi: float, field: FieldPreparation) -> PureState:
    """Two-ion superposition state tensored with the prepared field."""
    cutoff = field.cutoff
    layout = full_layout(cutoff)
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    start_ab = full_index(0, "a", "b", cutoff)
    start_ba = full_index(0, "b", "a", cutoff)
    amps[start_ab : start_ab + cutoff + 1] = math.cos(theta) * field.amplitudes
    amps[start_ba : start_ba + cutoff + 1] = (
        math.sin(theta) * complex(math.cos(phi), math.sin(phi)) * field.amplitudes
    )
    return PureState(layout, amps)


@dataclass(frozen=True)
class MeasureSeries:
    """Values of one entanglement measure over a time grid, with the full
    parameter set for provenance."""

    measure: str
    cut: Bipartition
    params: SimParams
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64, copy=True)
        values = np.array(self.values, dtype=np.float64, copy=True)
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching lengths")
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains non-finite values")
        if values.size and float(values.min()) < -1e-9:
            raise ValueError(f"series contains negative values below tolerance: {values.min()}")


def _measure_mixed(rho: DensityMatrix, measure: str, cut: Bipartition) -> float:
    if measure == "negativity":
        return negativity(rho, cut)
    return relative_entropy_measure(rho, cut)


def _pure_values(
    states: np.ndarray, layout: HilbertLayout, measure: str, cut: Bipartition
) -> np.ndarray:
    if measure == "i_concurrence":
        return i_concurrence_values(states, layout, cut)
    return np.array(
        [_measure_mixed(reduced_density(amps, layout, cut.labels), measure, cut) for amps in states]
    )


def _milburn_values(
    psi0: PureState, params: SimParams, times: np.ndarray, measure: str, cut: Bipartition
) -> np.ndarray:
    """Closed-form intrinsic-decoherence series on the factors of the cut."""
    kept_layout = psi0.layout.keep(cut.labels)
    return np.array(
        [
            _measure_mixed(DensityMatrix(kept_layout, rho), measure, cut)
            for chunk in milburn_reduced(psi0, params, times, cut.labels)
            for rho in chunk
        ]
    )


def run_series(params: SimParams, measure: str, cut: Bipartition, times) -> MeasureSeries:
    """Entanglement series for one parameter point.

    With gamma = 0 the state is evolved exactly as a pure state; with
    gamma > 0 the closed-form intrinsic-decoherence channel is used, which
    requires constant modulation and a mixed-state measure.  A cut covering
    only some factors evaluates the measure on the correspondingly reduced
    state.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; choose from {MEASURES}")
    layout = full_layout(params.fock_cutoff)
    unknown = cut.labels - set(layout.labels)
    if unknown:
        raise ValueError(f"cut names unknown factors {sorted(unknown)}")
    times = check_times(times)
    field = truncated_coherent(params.nbar, params.fock_cutoff)
    psi0 = prepare_initial(params.theta, params.phi, field)

    if params.gamma > 0:
        if not isinstance(params.modulation, Constant):
            raise UnsupportedRegimeError(
                "intrinsic decoherence (gamma > 0) is solvable only for a "
                "time-independent coupling profile; rerun with constant modulation"
            )
        if measure == "i_concurrence":
            raise IncompatibleMeasureError(
                "i_concurrence is defined for pure states only; gamma > 0 produces "
                "mixed states, use negativity or relative_entropy"
            )
        values = _milburn_values(psi0, params, times, measure, cut)
    else:
        if measure == "i_concurrence" and cut.labels != set(layout.labels):
            raise IncompatibleMeasureError(
                "i_concurrence needs the global pure state; the cut must cover all factors"
            )
        values = _pure_values(evolve_pure(psi0, params, times), layout, measure, cut)
    return MeasureSeries(measure, cut, params, times, values)


def _run_series_cell(job) -> MeasureSeries:
    params, measure, cut, times = job
    return run_series(params, measure, cut, times)


def run_sweep(
    params: SimParams,
    theta_grid,
    gamma_grid,
    measure: str,
    cut: Bipartition,
    times,
    workers: int = 1,
) -> list[MeasureSeries]:
    """Cartesian sweep over (theta, gamma), emitted in deterministic
    (theta index, gamma index) order regardless of worker count.  At most
    one worker process per cell and per CPU is started."""
    theta_grid = [float(t) for t in np.atleast_1d(theta_grid)]
    gamma_grid = [float(g) for g in np.atleast_1d(gamma_grid)]
    if not theta_grid or not gamma_grid:
        raise ValueError("sweep grids must be nonempty")
    times = np.asarray(times, dtype=np.float64)
    jobs = [
        (replace(params, theta=theta, gamma=gamma), measure, cut, times)
        for theta in theta_grid
        for gamma in gamma_grid
    ]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_series_cell(job) for job in jobs]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(_run_series_cell, jobs))


@dataclass(frozen=True)
class SuddenEvents:
    """Alternating birth and death times of an entanglement series."""

    threshold: float
    births: tuple[float, ...]
    deaths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "births", tuple(float(t) for t in self.births))
        object.__setattr__(self, "deaths", tuple(float(t) for t in self.deaths))
        merged = sorted(
            [(t, "birth") for t in self.births] + [(t, "death") for t in self.deaths]
        )
        times = [t for t, _ in merged]
        if any(later <= earlier for earlier, later in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")
        kinds = [kind for _, kind in merged]
        if any(k1 == k2 for k1, k2 in zip(kinds, kinds[1:])):
            raise ValueError("births and deaths must alternate")


def detect_sudden_events(series: MeasureSeries, threshold: float = 1e-3) -> SuddenEvents:
    """Threshold crossings with two-point hysteresis.

    A birth is the first grid time where the value crosses from below to at
    least ``threshold`` after at least two consecutive below-threshold
    points; a death is the symmetric downward crossing.  Crossings that
    follow a run shorter than two points are treated as grazing and ignored,
    which keeps the recorded events alternating.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    if series.times.size < 3:
        raise ValueError("grid too coarse for event detection (need >= 3 points)")
    values = series.values
    times = series.times
    above = bool(values[0] >= threshold)
    expecting = "death" if above else "birth"
    run = 1
    births: list[float] = []
    deaths: list[float] = []
    for i in range(1, values.size):
        now_above = bool(values[i] >= threshold)
        if now_above == above:
            run += 1
            continue
        if run >= 2:
            if now_above and expecting == "birth":
                births.append(float(times[i]))
                expecting = "death"
            elif not now_above and expecting == "death":
                deaths.append(float(times[i]))
                expecting = "birth"
        above = now_above
        run = 1
    return SuddenEvents(threshold, tuple(births), tuple(deaths))


def _default_params(nbar: float, deficit: float = 1e-10, **overrides) -> SimParams:
    cutoff = coherent_amplitudes(nbar, deficit).cutoff
    return SimParams(fock_cutoff=cutoff, nbar=nbar, **overrides)


def report_gamma_monotonicity(
    gammas=(0.0, 0.01, 0.05, 0.1),
    nbar: float = 5.0,
    theta: float = math.pi / 4,
    t_max: float = 30.0,
    n_times: int = 201,
    slack: float = 1e-6,
) -> dict:
    """Check that the time-averaged relative entropy of the two-ion state is
    non-increasing in the intrinsic-decoherence rate."""
    params = _default_params(nbar, theta=theta)
    times = np.linspace(0.0, t_max, n_times)
    averages = []
    for gamma in gammas:
        series = run_series(replace(params, gamma=gamma), "relative_entropy", ION_VS_ION, times)
        averages.append(float(series.values.mean()))
    holds = all(later <= earlier + slack for earlier, later in zip(averages, averages[1:]))
    return {
        "claim": "time-averaged two-ion relative entropy is non-increasing in gamma",
        "holds": bool(holds),
        "gammas": [float(g) for g in gammas],
        "averages": averages,
    }


def report_sech_birth_delay(
    tau: float,
    theta: float = 2.5e-4,
    threshold: float = 1e-3,
    nbar: float = 5.0,
    t_max: float = 30.0,
    n_times: int = 601,
) -> dict:
    """Check that sech modulation delays the first entanglement birth of a
    near-separable start relative to constant coupling, within one grid
    step."""
    params = _default_params(nbar, theta=theta)
    times = np.linspace(0.0, t_max, n_times)
    step = float(times[1] - times[0])
    constant = run_series(params, "i_concurrence", ION_VS_REST, times)
    modulated = run_series(
        replace(params, modulation=Sech(tau)), "i_concurrence", ION_VS_REST, times
    )
    births_constant = detect_sudden_events(constant, threshold).births
    births_modulated = detect_sudden_events(modulated, threshold).births
    if not births_constant:
        holds = False  # nothing to compare against inside the window
    elif not births_modulated:
        holds = True  # delayed beyond the window entirely
    else:
        holds = births_modulated[0] >= births_constant[0] - step
    return {
        "claim": "sech modulation delays the first entanglement birth",
        "holds": bool(holds),
        "tau": float(tau),
        "theta": float(theta),
        "first_birth_constant": births_constant[0] if births_constant else None,
        "first_birth_sech": births_modulated[0] if births_modulated else None,
        "grid_step": step,
    }


def report_nbar_smoothing(
    nbar_small: float = 5.0,
    nbar_large: float = 15.0,
    threshold: float = 1e-3,
    theta: float = math.pi / 4,
    t_max: float = 30.0,
    n_times: int = 601,
) -> dict:
    """Check that a larger initial field intensity produces no more
    threshold crossings (smoother decay) than a smaller one."""
    times = np.linspace(0.0, t_max, n_times)
    counts = {}
    for nbar in (nbar_small, nbar_large):
        series = run_series(_default_params(nbar, theta=theta), "i_concurrence", ION_VS_REST, times)
        flags = series.values >= threshold
        counts[nbar] = int(np.sum(flags[1:] != flags[:-1]))
    holds = counts[nbar_large] <= counts[nbar_small]
    return {
        "claim": "larger nbar produces no more threshold crossings",
        "holds": bool(holds),
        "crossings_small": counts[nbar_small],
        "crossings_large": counts[nbar_large],
        "nbar_small": float(nbar_small),
        "nbar_large": float(nbar_large),
    }
