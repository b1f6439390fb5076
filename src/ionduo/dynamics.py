"""Time evolution: exact pure-state propagation under the modulated
coupling, and the intrinsic-decoherence channel for constant coupling.

The modulation enters only through the accumulated profile
Theta(t) = int_0^t zeta, because the shared scalar zeta(t) multiplies the
whole generator (which therefore commutes with itself at all times).  Each
block has the closed-form spectrum {0 x3, +-Omega, +-omega x2}, so with
P_w its spectral projectors in the cached block table a pure state evolves as

    A(t) = sum_w exp(-i w Theta(t)) P_w A(0),

in real arithmetic: each frequency pairs with its negative into a cosine
and a sine, so one real table of (1, cos, cos, sin, sin) per block and time
meets the real and imaginary parts of the projected initial state, side by
side in one real array, in one matmul per time chunk.
One stacked kernel evaluates this for every evolvable block on the
nine-state template at once, from the initial state gathered onto it; the
gather leaves out exactly the blocks truncated by the cutoff ceiling, and
weight there is refused.  A one-node pass (``evolve_pure``, or the channel
at gamma = 0) decides once whether its whole profile lies on its mean step
dt (``_grid_step``), as an equal grid does at constant coupling.  If so,
each chunk takes the table by angle addition: each block's 5 x 5 turn by
w theta_0 is applied to those parts, which then meet a real step table of
w j dt made once per pass.  Every other pass (sech, unequal grids, one
value, every node at gamma > 0) refills that one table with np.cos and
np.sin on each chunk.
``evolve_pure``, which returns the whole (T, dim) evolution, is an oracle;
production reads the pure states through the channel below, in time chunks.
The start's layout names the levels a pass evolves: each ion holds a, b
and c, or only a and b, which is exact while lambda2 = 0 leaves c dark, as
H then moves no ion into or out of c.  The I-concurrence run, in the ions'
bright basis, starts on two levels of ion 1 and evolves six template states.

The intrinsic-decoherence master equation

    d rho / dt = -i [H, rho] - (gamma / 2) [H, [H, rho]]

is solved in closed form in the eigenbasis of H, where the coherence across
a gap dE = E_m - E_n picks up exp(-i dE t - gamma t dE^2 / 2) (Milburn, PRA
44, 5401, 1991).  That is E[exp(-i dE (t + xi))] with xi ~ N(0, gamma t), so
rho(t) is the Gaussian average of the pure state evolved to profile value
t + xi.  The production channel, ``milburn_quadrature``, takes it with one
K-node Gauss-Hermite rule per pass: K weighted pure evolutions reduced to
the kept factors, K the smallest whose error bound K! (sigma w)^(2K) / (2K)!
meets QUADRATURE_TARGET at sigma^2 = gamma t_max, w = 2 max Omega_n being
the spread of the energies of the occupied blocks; the bound grows with t,
so the rule certifies every time.  At gamma = 0 that is one node of weight
1 under either profile, the pure evolution reduced, which every measure
reads.  It yields the real coordinates C = Re rho + Im rho of the reduced
states, each node's term one real product on the float64 views of its kept
rows in place of the complex kept kept^dag, whose diagonal checks each
row's squared norm; ``density_from_coordinates`` gives rho back.  Its
oracles, dense propagation, the dense closed form and a truncated
Kraus-operator sum, are in ``ionduo.selftest``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .core import NORM_TOL, PureState
from .ionmodel import FACTORS, FLOOR_SKIP, BlockSystem, CutoffError, full_layout, get_block_system
from .params import Constant, Modulation, Sech, SimParams

HERMITE_MAX_NODES = 512
QUADRATURE_TARGET = 1e-14

# Complex entries (2 MB) per time chunk of every array _row_entries counts.
_CHUNK_ENTRIES = 2**17


class UnsupportedRegimeError(ValueError):
    """Requested evolution is outside the regime where the method is exact."""


def modulation_integral(modulation: Modulation, t):
    """Accumulated coupling profile Theta(t) = int_0^t zeta(s) ds.

    Constant gives t; Sech{tau} gives the closed-form antiderivative
    4 tau arctan(tanh(t / (4 tau))), which tends to pi tau as t -> inf.
    Accepts scalars or arrays, t >= 0.
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all(t >= 0):
        raise ValueError("modulation_integral requires t >= 0")
    if isinstance(modulation, Constant):
        out = t.copy()
    elif isinstance(modulation, Sech):
        out = 4.0 * modulation.tau * np.arctan(np.tanh(t / (4.0 * modulation.tau)))
    else:
        raise TypeError(f"unknown modulation {modulation!r}")
    return float(out) if out.ndim == 0 else out


def check_times(times) -> np.ndarray:
    """The time grid as a float array; it must be nonempty, 1-d, start at 0
    and increase strictly."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d grid")
    if times[0] != 0.0 or not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing and start at 0")
    return times


def _template_amplitudes(psi0: PureState, params: SimParams) -> tuple[np.ndarray, list[int]]:
    """The (F, 9) initial amplitudes of the F evolvable blocks on the
    template, block n in row n + 2, zero off the template states of the
    levels the layout of ``psi0`` holds, and those states in its order.  The
    layout is ion1 x ion2 x field (N_max + 1 states), each ion of a, b, c
    or, while lambda2 = 0 keeps c dark, of a, b: ValueError otherwise.
    CutoffError for weight above 1e-12 on the states the gather leaves out,
    grid[k, F - FLOOR_SKIP[k]:], those of the blocks n > N_max - 2
    truncated by the ceiling, which cannot be evolved faithfully."""
    layout = psi0.layout
    if layout.labels != FACTORS or layout.dims[2] != params.fock_cutoff + 1:
        raise ValueError("initial state layout does not match params.fock_cutoff")
    levels = layout.dims[:2]
    if not {2, 3} >= set(levels) or (2 in levels and params.lambda2 != 0):
        raise ValueError(f"ion levels {levels}: each ion needs a, b, c, or a, b while lambda2 = 0")
    states = [3 * upper + lower for upper in range(levels[0]) for lower in range(levels[1])]
    grid = psi0.amplitudes.reshape(len(states), -1)  # ion levels by Fock number
    blocks = grid.shape[1]
    a0 = np.zeros((blocks, 9), dtype=np.complex128)
    leak = 0.0
    for row, k in zip(grid, states):
        skip = FLOOR_SKIP[k]
        a0[skip:, k] = row[: blocks - skip]
        leak += np.vdot(row[blocks - skip :], row[blocks - skip :]).real
    if leak > 1e-12:
        raise CutoffError(
            f"initial state has weight {leak:.3e} on blocks truncated by the cutoff; "
            f"raise fock_cutoff"
        )
    return a0, states


def _projected(psi0: PureState, params: SimParams) -> tuple[BlockSystem, np.ndarray, tuple]:
    """The block system of ``params``, the (F, S, 5) parts U[i, s, j] =
    P_j a0 of the ``_template_amplitudes`` a0 of each of its F evolvable
    blocks on the S template states of the layout of ``psi0``, and their
    FLOOR_SKIPs."""
    a0, states = _template_amplitudes(psi0, params)
    system = get_block_system(params)
    parts = np.einsum("ijkl,il->ikj", system.projectors, a0)[:, states]
    return system, parts, tuple(FLOOR_SKIP[k] for k in states)


def _check_norms(norm_sq: np.ndarray) -> None:
    drift = float(np.abs(norm_sq - 1.0).max())
    if not drift <= NORM_TOL:
        raise ValueError(f"state is not normalized: |norm^2 - 1| = {drift:.3e}")


# A pass's profile is equal-step when each value lies within this many units
# of eps max|theta| of theta_0 + j dt; a chunk anchored at its first value
# theta_s then takes phases w theta_s + w j dt within twice that bound,
# 8 eps |w| max|theta|, of w theta, and a few units of their own rounding.
_STEP_ULPS = 4


def _grid_step(theta: np.ndarray) -> float | None:
    """The mean step dt of a pass's profile values ``theta`` if each is
    theta_0 + j dt to _STEP_ULPS units of eps max|theta|, else (and for one value) None."""
    dt = (theta[-1] - theta[0]) / max(theta.size - 1, 1)
    bound = _STEP_ULPS * np.finfo(np.float64).eps * np.abs(theta).max()
    fits = theta.size > 1 and np.abs(theta - (theta[0] + np.arange(theta.size) * dt)).max() <= bound
    return dt if fits else None


def _evolved_rows(
    frequencies: np.ndarray, parts: np.ndarray, skips: tuple[int, ...], size: int, dt: float | None
):
    """The function from up to ``size`` profile values theta to the unchecked
    (len(theta), S F) rows of the states sum_j exp(-i w_j theta) U_j, from
    the blocks' (Omega, omega) ``frequencies`` and the (F, S, 5)
    ``_projected`` parts U of the S template states it evolves, each with
    its FLOOR_SKIP in ``skips``, in a pass whose profile has the equal step
    ``dt`` (``_grid_step``) or, if not, None.  A row holds state s of block
    n at s (N_max + 1) + n + 2 - skips[s], as the full layout holds all nine.

    That sum is V_0 + cos(Omega theta) V_1 + cos(omega theta) V_2 +
    sin(Omega theta) V_3 + sin(omega theta) V_4 with V = (U_0, U_+ + U_-,
    -i (U_+ - U_-)), U_+ and U_- the parts at +-(Omega, omega), held as one
    real (F, 5, 2 S) array whose column 2 s + c is the real (c = 0) or
    imaginary (c = 1) part of state s.  One batched matmul of each
    block's (len(theta), 5) phases by V gives a call's states, as float64.

    One real phase table holds (1, cos, cos, sin, sin) as (F, 5, size) rows,
    which the matmul reads transposed.  Given dt, it is filled here once
    with the cos and sin of w j dt, and each call takes its phases by angle
    addition: each block's 5 x 5 turn by its angles w theta_0, applied to V,
    meets the table's first len(theta) columns (one value reads column 0,
    (1, 1, 1, 0, 0)); the turn and its buffer exist only then.  Without dt,
    each call refills the table with np.cos and np.sin of w theta.  Each
    call overwrites the rows the call before returned.  Also returns the
    complex buffer of size x S F entries that holds the blocks' states in a
    call, free between calls.
    """
    turning, back = parts[:, :, 1:3], parts[:, :, 3:]
    v = np.concatenate([parts[:, :, :1], turning + back, -1j * (turning - back)], axis=2)
    v = np.ascontiguousarray(v.swapaxes(1, 2)).view(np.float64)
    blocks = len(frequencies)
    table = np.ones((blocks, 5, size))  # row 0 stays 1
    if dt is not None:
        np.multiply(frequencies[:, :, None], np.arange(size) * dt, out=table[:, 3:])
        np.cos(table[:, 3:], out=table[:, 1:3])
        np.sin(table[:, 3:], out=table[:, 3:])
        turn, turned = np.tile(np.eye(5), (blocks, 1, 1)), np.empty_like(v)  # row 0 keeps V_0
    states = np.empty((blocks, size, len(skips)), dtype=np.complex128)
    out = np.zeros((size, len(skips) * blocks), dtype=np.complex128)  # floor blocks' gaps stay 0

    def evolved(theta: np.ndarray) -> np.ndarray:
        block_states, phases = states[:, : theta.size], table[:, :, : theta.size]
        if dt is None:
            cos, sin = phases[:, 1:3], phases[:, 3:]
            np.multiply(frequencies[:, :, None], theta, out=sin)
            np.cos(sin, out=cos)
            np.sin(sin, out=sin)
            vectors = v
        else:
            angle = frequencies * theta[0]
            cos, sin = np.cos(angle), np.sin(angle)
            entries = np.concatenate([cos, cos, sin, -sin], axis=1)
            turn.reshape(-1, 25)[:, [6, 12, 18, 24, 8, 14, 16, 22]] = entries
            vectors = np.matmul(turn, v, out=turned)
        np.matmul(phases.swapaxes(1, 2), vectors, out=block_states.view(np.float64))
        rows = out[: theta.size]
        grid = rows.reshape(theta.size, len(skips), blocks)
        for k, skip in enumerate(skips):
            grid[:, k, : blocks - skip] = block_states[skip:, :, k].T
        return rows

    return evolved, states


def evolve_pure(psi0: PureState, params: SimParams, times) -> np.ndarray:
    """Exact pure-state evolution on the blocks' two closed-form
    frequencies and spectral projectors.

    Returns a read-only (T, dim) complex array on the layout of ``psi0``
    whose row i is the state at ``times[i]``; a row whose squared norm
    drifts from 1 by more than NORM_TOL raises ValueError.  ``psi0`` must be
    on a layout ``_template_amplitudes`` accepts and must not populate the
    blocks truncated by the cutoff ceiling, which cannot be evolved faithfully.
    """
    times = check_times(times)
    theta = modulation_integral(params.modulation, times)
    system, parts, skips = _projected(psi0, params)
    evolved, _ = _evolved_rows(system.frequencies, parts, skips, theta.size, _grid_step(theta))
    states = evolved(theta)
    rows = states.view(np.float64)  # each row's squared norm, with no temporary
    _check_norms(np.einsum("ij,ij->i", rows, rows))
    states.flags.writeable = False
    return states


def _row_entries(dim: int, dim_keep: int) -> int:
    """Complex entries counted per time row of a kernel chunk whose evolved
    rows have ``dim`` entries, ``dim_keep`` being the start's full kept size,
    the states of its kept factors at three levels an ion: three rows (the
    kernel's, the copy a split into the kept factors may make and a third),
    three real kept states at that size (the chunk's, a node's product and
    the yield before, which its reader may still hold) and one and a half
    entries per evolved entry: the kernel's block states, one each, which
    hold the matmul's result in a call and the turned copy (1 - i) between
    calls, and its one real phase table, 5 floats per block, at most half
    an entry per evolved entry for a block of five or more template states.
    So the count bounds every pass of five or more template states; a
    four-state pass (both ions on a, b) holds one float per block per row
    over it.  A one-node rule makes no product, and its third row, with the
    split's copy where the split makes none, holds more chunks' kept states
    in one yield, counted at 3 d^2 a row."""
    return 3 * dim + 3 * dim_keep * dim_keep + 3 * dim // 2


def quadrature_bound(terms: int, spread: float) -> float:
    """Bound K! x^(2K) / (2K)! = prod_j x^2 / (4 j - 2) on the error of the
    K-node Gauss-Hermite rule for E[exp(-i x X)], X ~ N(0, 1), in its real
    and imaginary part each; x = sigma w is a gap w at the spread sigma."""
    square = float(spread) * float(spread)  # a Python float overflows to inf silently
    return math.prod(square / (4 * j - 2) for j in range(1, terms + 1))


def quadrature_terms(spread: float) -> int | None:
    """Smallest K <= HERMITE_MAX_NODES whose quadrature_bound at ``spread`` is
    at most QUADRATURE_TARGET, or None if there is none."""
    terms = range(1, HERMITE_MAX_NODES + 1)
    return next((k for k in terms if quadrature_bound(k, spread) <= QUADRATURE_TARGET), None)


def _hermite_rule(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights of the Gauss-Hermite rule for N(0, 1)
    from the eigenvectors of its Jacobi matrix (Golub & Welsch, Math. Comp.
    23, 221, 1969), which stay finite at hundreds of nodes."""
    off = np.sqrt(np.arange(1.0, terms))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, vectors[0] ** 2


def _coordinates(kept: np.ndarray, turned: np.ndarray, out=None) -> np.ndarray:
    """The real coordinates C = Re G + Im G of the Grams G = kept kept^dag of
    a (Tc, d, n) stack of kept rows, by one real product on float64 views:
    Re((1 - i) G) = Re G + Im G and Re(X Y^dag) = view(X) view(Y)^T, so
    C = view((1 - i) kept) view(kept)^T.  ``turned`` is a C-contiguous
    complex buffer of at least Tc rows for (1 - i) kept; a ``kept`` that is
    not contiguous is copied once for its view."""
    turned = np.multiply(kept, 1 - 1j, out=turned[: len(kept)])
    rows = np.ascontiguousarray(kept).view(np.float64)
    return np.matmul(turned.view(np.float64), rows.swapaxes(1, 2), out=out)


def density_from_coordinates(coordinates: np.ndarray) -> np.ndarray:
    """The Hermitian matrices rho, of real part (C + C^T) / 2 and imaginary
    part (C - C^T) / 2, whose coordinates Re rho + Im rho are the real
    (..., d, d) ``coordinates`` C: Hermitian bit for bit, with an imaginary
    diagonal of exact zeros, as a sum and a difference do not depend on the
    order of their terms."""
    transposed = coordinates.swapaxes(-1, -2)
    rho = np.empty(coordinates.shape, dtype=np.complex128)
    np.add(coordinates, transposed, out=rho.real)
    np.subtract(coordinates, transposed, out=rho.imag)
    rho *= 0.5
    return rho


def milburn_quadrature(psi0: PureState, params: SimParams, times, keep) -> Iterator[np.ndarray]:
    """Intrinsic-decoherence evolution of a pure initial state, reduced to the
    factors in ``keep`` (all of them gives the full state).

    Yields real (Tc, d, d) chunks of consecutive ``times``, sized by
    _CHUNK_ENTRIES (``_row_entries``): the coordinates C = Re rho + Im rho of
    the average rho = sum_k w_k kept_k kept_k^dag, w_k >= 0, of the pure
    evolutions to t + sqrt(gamma t) x_k under the pass's one rule, built
    before the first chunk as the one that certifies t_max, each node's term
    one real product (``_coordinates``).  ``density_from_coordinates`` gives
    rho back; it is Hermitian by construction, and positive as a sum of
    Grams with nonnegative weights to round-off.  Each node's trace, the
    diagonal of C, is checked to NORM_TOL, so no reader checks a chunk
    again.  At gamma = 0 it is the one node x = 0 under either profile; then
    a yield may hold several kernel chunks, whose traces are checked at
    once, and an equal-step profile takes the step table (``_evolved_rows``).
    Only the template states of the levels the layout of ``psi0`` holds are
    evolved (``_template_amplitudes``), and each yield is on its kept factors.
    Before anything is evolved, raises UnsupportedRegimeError for gamma > 0
    under sech, or if no K <= HERMITE_MAX_NODES certifies t_max.
    """
    times = check_times(times)
    if params.gamma > 0 and not isinstance(params.modulation, Constant):
        raise UnsupportedRegimeError(
            "intrinsic decoherence (gamma > 0) is solvable only for a "
            "time-independent coupling profile; rerun with constant modulation"
        )
    system, parts, skips = _projected(psi0, params)
    width = 2.0 * float(system.frequencies[np.any(parts, axis=(1, 2)), 0].max())
    spread = np.sqrt(params.gamma * times)
    most = quadrature_terms(spread[-1] * width)
    if most is None:
        raise UnsupportedRegimeError(
            f"no Gauss-Hermite rule of at most {HERMITE_MAX_NODES} nodes certifies the channel "
            f"to {QUADRATURE_TARGET:.0e} at gamma * t_max = {params.gamma * times[-1]:.6g} "
            f"with occupied energy spread w = {width:.6g}; shorten the time grid or lower gamma"
        )
    nodes, weights = _hermite_rule(most)
    theta = modulation_integral(params.modulation, times)
    layout = psi0.layout
    kept, full = layout.keep(keep), full_layout(params.fock_cutoff).keep(keep)
    dim, dim_keep = layout.total_dim, kept.total_dim
    step = max(1, _CHUNK_ENTRIES // _row_entries(dim, full.total_dim))
    size = min(step, times.size)
    dt = _grid_step(theta) if most == 1 else None  # every node at gamma > 0 takes np.cos
    evolved, states = _evolved_rows(system.frequencies, parts, skips, size, dt)
    turned = states.reshape(size, dim_keep, -1)  # the turned copy is made once states are rows
    leading = layout.labels[: len(kept.factors)] == kept.labels  # the split makes no copy
    group = step  # the rows of a yield
    if most == 1:
        group *= 1 + (1 + leading) * dim // (3 * full.total_dim**2)  # see _row_entries
    products = np.empty((size, dim_keep, dim_keep)) if most > 1 else None  # nodes after the first
    for first in range(0, times.size, group):
        summed = np.empty((min(group, times.size - first), dim_keep, dim_keep))
        for start in range(first, first + len(summed), step):
            chunk, into = slice(start, start + step), summed[start - first : start - first + step]
            for k, (node, weight) in enumerate(zip(nodes, weights)):
                split = layout.split(evolved(theta[chunk] + node * spread[chunk]), keep)
                product = _coordinates(split, turned, products[: len(into)] if k else into)
                if most > 1:  # each node's rows' squared norms; the one node's weight is 1.0
                    _check_norms(np.einsum("tii->t", product))
                    product *= weight
                if k:
                    into += product
        if most == 1:  # those of every chunk of the yield at once
            _check_norms(np.einsum("tii->t", summed))
        yield summed
