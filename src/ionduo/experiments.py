"""Initial-state preparation, parameter sweeps and sudden-event detection.

The initial state is a two-ion superposition
(cos(theta) |a1 b2> + sin(theta) e^{i phi} |b1 a2>) tensored with a coherent
vibrational field of mean phonon number nbar, truncated so that the dropped
Poisson tail is certifiable and the blue-sideband dynamics never reaches the
cutoff ceiling.  A sweep runs its cells one after another in this process,
one ``run_series`` each; the theta cells of an I-concurrence sweep share one
cached evolution, so more processes would only repeat it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .core import HilbertLayout, PureState, _as_readonly
from .dynamics import _BRIGHT_LEVELS, check_times, density_from_coordinates, milburn_quadrature
from .entanglement import Bipartition, i_concurrence_pure, negativity, relative_entropy_measure
from .ionmodel import FACTORS
from .params import SimParams

MEASURES = ("i_concurrence", "negativity", "relative_entropy")

#: Default bipartition for pure-state sweeps: first ion against the rest.
ION_VS_REST = Bipartition(("ion1",), ("ion2", "field"))
#: Default bipartition for mixed-state sweeps on the two-ion reduced state.
ION_VS_ION = Bipartition(("ion1",), ("ion2",))
EVENT_THRESHOLD = 1e-3  #: default threshold of sudden birth and death detection
POISSON_DEFICIT = 1e-10  #: default Poisson tail mass a field truncation may drop
# Empty Fock slots kept above the occupied field range, so the
# phonon-raising dynamics stays clear of the cutoff ceiling.
_HEADROOM = 2
#: Largest nbar whose vacuum amplitude exp(-nbar / 2) is a normal float,
#: which the Poisson amplitude recurrence starts from.
MAX_NBAR = -2.0 * math.log(sys.float_info.min)


class IncompatibleMeasureError(ValueError):
    """The requested measure is undefined for the state the run produces."""


def check_measure(measure: str) -> str:
    """The measure name, if it is one of MEASURES; ValueError otherwise."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; choose from {MEASURES}")
    return measure


def check_cut(cut: Bipartition) -> Bipartition:
    """The cut, if each of its labels names one of FACTORS; ValueError otherwise."""
    unknown = cut.labels - set(FACTORS)
    if unknown:
        raise ValueError(f"unknown factors {sorted(unknown)}; choose from {FACTORS}")
    return cut


@dataclass(frozen=True, eq=False)
class FieldPreparation:
    """Real coherent-state amplitudes q_n on a truncated Fock space.

    ``deficit`` is the Poisson tail mass dropped by the truncation, before
    the amplitudes are renormalized to unit norm.  The top _HEADROOM slots
    stay empty as headroom for the phonon-raising transitions.
    """

    nbar: float
    cutoff: int
    amplitudes: np.ndarray
    deficit: float

    def __post_init__(self):
        amps = _as_readonly(self.amplitudes, np.float64)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError(f"need {self.cutoff + 1} amplitudes, got {amps.shape}")
        norm_sq = float(np.dot(amps, amps))
        if not abs(norm_sq - 1.0) <= 1e-12:
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
    ``target_deficit``; the cutoff adds the empty headroom slots above it.
    The Poisson weights come from their logarithms, so none underflows into
    a stall; past the peak, a weight the sum no longer resolves ends it.
    """
    _check_nbar(nbar)
    if not target_deficit > 0:
        raise ValueError(f"target_deficit must be > 0, got {target_deficit}")
    mass = math.exp(-nbar)
    top = 0
    while 1.0 - mass > target_deficit:
        top += 1
        weight = math.exp(top * math.log(nbar) - nbar - math.lgamma(top + 1))
        if top > nbar and mass + weight == mass:
            break
        mass += weight
    return truncated_coherent(nbar, top + _HEADROOM)


def _check_nbar(nbar: float) -> None:
    if not 0 <= nbar <= MAX_NBAR:
        raise ValueError(f"nbar must lie in [0, {MAX_NBAR:.1f}], got {nbar}")


def truncated_coherent(nbar: float, fock_cutoff: int) -> FieldPreparation:
    """Coherent field on a fixed cutoff, occupying the Fock states below the
    headroom slots."""
    _check_nbar(nbar)
    top = fock_cutoff - _HEADROOM
    if top < 0:
        raise ValueError(f"fock_cutoff {fock_cutoff} leaves no room below headroom {_HEADROOM}")
    q, tail = _poisson_sqrt(nbar, top)
    amps = np.zeros(fock_cutoff + 1)
    amps[: top + 1] = q / math.sqrt(float(np.dot(q, q)))
    return FieldPreparation(nbar, fock_cutoff, amps, tail)


def _start(ions: np.ndarray, field: FieldPreparation) -> PureState:
    """The two-ion amplitude matrix ``ions``, ion 1's levels by ion 2's, ``a``
    first, tensored with ``field`` on the layout of the levels its shape names."""
    layout = HilbertLayout(tuple(zip(FACTORS, ions.shape + (field.cutoff + 1,))))
    return PureState(layout, np.multiply.outer(ions, field.amplitudes))


def prepare_initial(theta: float, phi: float, field: FieldPreparation) -> PureState:
    """Two-ion superposition state tensored with the prepared field."""
    ions = np.zeros((3, 3), dtype=np.complex128)
    ions[0, 1] = math.cos(theta)  # |a b>
    ions[1, 0] = math.sin(theta) * complex(math.cos(phi), math.sin(phi))  # |b a>
    return _start(ions, field)


@dataclass(frozen=True, eq=False)
class MeasureSeries:
    """Values of one entanglement measure over a time grid, with the full
    parameter set for provenance."""

    measure: str
    cut: Bipartition
    params: SimParams
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times, values = _as_readonly(self.times, np.float64), _as_readonly(self.values, np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching lengths")
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains non-finite values")
        if values.size and float(values.min()) < -1e-9:
            raise ValueError(f"series contains negative values below tolerance: {values.min()}")


# Partial traces onto the ions kept of the two-ion marginal G (T, i1, i2, j1,
# j2): of G, G SWAP and SWAP G SWAP, the c^2, c s and s^2 parts of the state.
_MARGINALS = {
    ("ion1",): ("tikjk->tij", "tikkj->tij", "tkikj->tij"),
    ("ion2",): ("tkikj->tij", "tkijk->tij", "tikjk->tij"),
    ("ion1", "ion2"): ("tijkl->tijkl", "tijlk->tijkl", "tjilk->tijkl"),
}
# Column k sums the entries (p, q) of a flattened 3 x 3 matrix with p + q = k.
_ANTIDIAGONALS = np.equal.outer(np.add.outer(range(3), range(3)).ravel(), range(5)) * 1.0


@lru_cache(maxsize=4)  # a sweep over theta and gamma needs one entry
def _exchange_coefficients(params: SimParams, keep: tuple[str, ...], times: bytes):
    """Theta-free trace and purity of the marginal on the ions ``keep`` of
    psi(theta, t) = cos(theta) psi(t) + sin(theta) e^{i phi} SWAP psi(t),
    with psi(t) the gamma = 0 run of ``params`` from |a b> x field,
    phi = ``params.phi`` and SWAP the ion exchange; theta is left out.

    The Hamiltonian commutes with SWAP, so psi(theta, t) is the evolution
    of psi(theta, 0) and one evolution serves every theta.  With
    c = cos(theta), s = sin(theta) and G the two-ion marginal of psi(t),
    the two-ion marginal of psi(theta, t) is c^2 G + c s X + s^2 SWAP G SWAP
    with X = e^{-i phi} G SWAP + h.c., and on ``keep`` each part is a partial
    trace of G (_MARGINALS).  Returns (T, 3) and (T, 5) arrays with tr rho =
    sum_j trace[:, j] c^(2-j) s^j and tr rho^2 = sum_k purity[:, k] c^(4-k) s^k.

    psi(t) runs in each ion's bright basis: level b holds the bright state
    B = (lambda1 b + lambda2 c) / Lambda, Lambda = hypot(|lambda1|,
    |lambda2|), and level c the dark state, which the laser never couples
    (Morris & Shore), so the run has lambda1 = Lambda, lambda2 = 0 and
    starts from |a> x (conj(lambda1) b - lambda2 c) / Lambda x field, which
    is |a b> x field; with no coupling b serves as B.  Its layout holds ion
    1's a and b only, so the channel evolves six template states.  The
    change of basis acts alike on both ions and commutes with SWAP, so it
    conjugates each part and leaves their traces and the traces of their
    products as they are.

    ``times`` is the float64 grid's ``tobytes()``: as the cache key, one
    bytes hash and one comparison find the entry of a sweep's grid.
    """
    times = np.frombuffer(times)
    bright = math.hypot(abs(params.lambda1), abs(params.lambda2))
    ions = np.zeros(_BRIGHT_LEVELS, dtype=np.complex128)
    ions[0] = [0, 1, 0]  # b, with no coupling
    if bright:
        ions[0] = [0, params.lambda1.conjugate() / bright, -params.lambda2 / bright]
    psi0 = _start(ions, truncated_coherent(params.nbar, params.fock_cutoff))
    run = replace(params, lambda1=bright, lambda2=0.0)
    chunks = milburn_quadrature(psi0, run, times, ("ion1", "ion2"))
    parts = _part_map(keep, params.phi)
    trace, purity = np.empty((len(times), 3)), np.empty((len(times), 5))
    start = 0
    for rows in map(partial(_chunk_coefficients, parts), chunks):  # map keeps no chunk
        trace[start : start + len(rows[0])], purity[start : start + len(rows[0])] = rows
        start += len(rows[0])
    trace.flags.writeable = False
    purity.flags.writeable = False
    return trace, purity


def _part_map(keep: tuple[str, ...], phi: float) -> np.ndarray:
    """The real (36, 3 d^2) matrix, d = 3^len(keep), taking the coordinates
    of a two-ion marginal G of the bright pass (``_exchange_coefficients``),
    on ion 1's levels a, b and ion 2's a, b, c, to those of its three parts
    on ``keep``: the partial traces of _MARGINALS of G with ion 1's c empty,
    the middle one made X by the phase e^{-i phi} and its Hermitian part.
    The coordinates of a Hermitian H are Re H + Im H, entry by entry
    (``density_from_coordinates``), in which tr(H K) is the dot product.
    The map is real linear in G, so row j is the image of the G whose
    coordinates are the j-th unit vector."""
    basis = np.zeros((36, 3, 3, 3, 3), dtype=np.complex128)
    corner = basis[(slice(None),) + tuple(map(slice, _BRIGHT_LEVELS)) * 2]  # a view
    corner[...] = density_from_coordinates(np.eye(36).reshape(36, 6, 6)).reshape(corner.shape)
    d = 3 ** len(keep)
    own, cross, other = (np.einsum(spec, basis).reshape(36, d, d) for spec in _MARGINALS[keep])
    cross = cross * np.exp(-1j * phi)
    cross += cross.conj().swapaxes(1, 2)
    images = np.stack([own, cross, other], axis=1)
    return (images.real + images.imag).reshape(36, -1)


def _chunk_coefficients(parts: np.ndarray, g: np.ndarray):
    """Trace and purity coefficients of one chunk of the (Tc, 6, 6)
    coordinates Re G + Im G of the bright pass's two-ion marginals G, as the
    channel yields them, from the ``_part_map`` ``parts`` of their ion side."""
    flat = (g.reshape(len(g), -1) @ parts).reshape(len(g), 3, -1)
    gram = flat @ flat.swapaxes(1, 2)  # tr(part_p part_q), the parts Hermitian
    d = math.isqrt(flat.shape[2])
    return flat[:, :, :: d + 1].sum(axis=2), gram.reshape(-1, 9) @ _ANTIDIAGONALS


def _i_concurrence(params: SimParams, cut: Bipartition, times: np.ndarray) -> np.ndarray:
    """I-concurrence series of a gamma = 0 run on a cut covering all
    factors, from the cached theta-free data of its ion side, with the
    purity taken over the squared trace of the marginal."""
    ions = cut.side_b if "field" in cut.side_a else cut.side_a
    trace, purity = _exchange_coefficients(
        replace(params, theta=0.0), tuple(sorted(ions)), times.tobytes()
    )
    c, s = math.cos(params.theta), math.sin(params.theta)
    norm = trace @ [c ** (2 - j) * s**j for j in range(3)]
    quartic = purity @ [c ** (4 - k) * s**k for k in range(5)]
    # The ion side has 3^len(ions) states, the other side the rest of them.
    d = min(3 ** len(ions), 3 ** (2 - len(ions)) * (params.fock_cutoff + 1))
    return i_concurrence_pure(quartic / norm**2, d)


def _cell_values(params: SimParams, measure: str, cut: Bipartition, times: np.ndarray):
    """The checks of one cell on its checked ``times``, then a function of
    no arguments that gives its values.  A mixed measure's channel pass is
    built up to evolution here, so its refusals are raised here; the
    I-concurrence's one pass is shared by every theta and cached."""
    check_measure(measure)
    check_cut(cut)
    if measure == "i_concurrence" and params.gamma > 0:
        raise IncompatibleMeasureError(
            "i_concurrence is defined for pure states only; gamma > 0 produces "
            "mixed states, use negativity or relative_entropy"
        )
    if measure == "i_concurrence" and cut.labels != set(FACTORS):
        raise IncompatibleMeasureError(
            "i_concurrence needs the global pure state; the cut must cover all factors"
        )
    if measure == "i_concurrence":
        return partial(_i_concurrence, params, cut, times)
    field = truncated_coherent(params.nbar, params.fock_cutoff)
    psi0 = prepare_initial(params.theta, params.phi, field)
    kept = psi0.layout.keep(cut.labels)
    evaluate = negativity if measure == "negativity" else relative_entropy_measure
    rho = map(density_from_coordinates, milburn_quadrature(psi0, params, times, cut.labels))
    return lambda: np.concatenate([evaluate(chunk, kept, cut) for chunk in rho])  # chunk by chunk


def run_series(params: SimParams, measure: str, cut: Bipartition, times) -> MeasureSeries:
    """Entanglement series for one parameter point.

    The I-concurrence (gamma = 0 only) comes from one cached pure evolution
    shared by every theta.  The mixed-state measures take the channel at every
    gamma, on the state reduced to the factors of the cut.
    """
    times = check_times(times)
    return MeasureSeries(measure, cut, params, times, _cell_values(params, measure, cut, times)())


def run_sweep(
    params: SimParams, theta_grid, gamma_grid, measure: str, cut: Bipartition, times
) -> list[MeasureSeries]:
    """Cartesian sweep over (theta, gamma), one run_series per cell in
    (theta index, gamma index) order.  Before the first cell, each distinct
    gamma's cell at the first theta is checked and its pass built up to
    evolution, so a refusal comes before any cell runs."""
    theta_grid = [float(t) for t in np.atleast_1d(theta_grid)]
    gamma_grid = [float(g) for g in np.atleast_1d(gamma_grid)]
    if not theta_grid or not gamma_grid:
        raise ValueError("sweep grids must be nonempty")
    times = check_times(times)
    for gamma in dict.fromkeys(gamma_grid):
        _cell_values(replace(params, theta=theta_grid[0], gamma=gamma), measure, cut, times)
    return [
        run_series(replace(params, theta=theta, gamma=gamma), measure, cut, times)
        for theta in theta_grid
        for gamma in gamma_grid
    ]


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


def detect_sudden_events(series: MeasureSeries, threshold: float = EVENT_THRESHOLD) -> SuddenEvents:
    """Threshold crossings with two-point hysteresis.

    A birth is the first grid time where the value crosses from below to at
    least ``threshold`` after at least two consecutive below-threshold
    points; a death is the symmetric downward crossing.  Crossings that
    follow a run shorter than two points are treated as grazing and ignored,
    which keeps the recorded events alternating; one or two points have none.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    above = series.values >= threshold
    changes = np.flatnonzero(above[1:] != above[:-1]) + 1
    if not changes.size:
        return SuddenEvents(threshold, (), ())
    runs = changes - np.concatenate(([0], changes))[:-1]  # the run before each change
    crossings = changes[runs >= 2]
    # Dropping grazing crossings can leave two of one direction in a row; only
    # the first counts, with the initial state standing before the first crossing.
    rising = above[crossings]
    kept = rising != np.concatenate(([above[0]], rising))[:-1]
    births, deaths = crossings[kept & rising], crossings[kept & ~rising]
    return SuddenEvents(threshold, series.times[births], series.times[deaths])
