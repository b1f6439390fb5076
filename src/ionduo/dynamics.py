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
each chunk of more than one value takes the table by angle addition: each
block's 5 x 5 turn by w theta_0 is applied to those parts, which then meet
a real step table of w j dt made once per pass.  Every other chunk (sech,
unequal grids, one value, every node at gamma > 0) takes np.cos and np.sin.
``evolve_pure``, which returns the whole (T, dim) evolution, is an oracle;
production reads the pure states through the channel below, in time chunks.

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
from .ionmodel import FLOOR_SKIP, BlockSystem, CutoffError, full_layout, get_block_system
from .params import Constant, Modulation, Sech, SimParams

KRAUS_MAX_TERMS = 512
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


def _template_amplitudes(psi0: PureState, params: SimParams) -> np.ndarray:
    """The (F, 9) initial amplitudes of the F evolvable blocks on the
    template, block n in row n + 2.  ValueError off the full layout of the
    cutoff; CutoffError for weight above 1e-12 on the states the gather
    leaves out, grid[k, F - FLOOR_SKIP[k]:], which are those of the blocks
    n > N_max - 2 truncated by the ceiling and cannot be evolved faithfully."""
    if psi0.layout != full_layout(params.fock_cutoff):
        raise ValueError("initial state layout does not match params.fock_cutoff")
    grid = psi0.amplitudes.reshape(9, -1)  # ion levels by Fock number
    blocks = grid.shape[1]
    a0 = np.zeros((blocks, 9), dtype=np.complex128)
    leak = 0.0
    for k, skip in enumerate(FLOOR_SKIP):
        a0[skip:, k] = grid[k, : blocks - skip]
        leak += np.vdot(grid[k, blocks - skip :], grid[k, blocks - skip :]).real
    if leak > 1e-12:
        raise CutoffError(
            f"initial state has weight {leak:.3e} on blocks truncated by the cutoff; "
            f"raise fock_cutoff"
        )
    return a0


def _projected(psi0: PureState, params: SimParams) -> tuple[BlockSystem, np.ndarray]:
    """The block system of ``params`` and the (F, 9, 5) parts U[i, :, j] =
    P_j a0 of the ``_template_amplitudes`` a0 of each of its F evolvable
    blocks."""
    a0 = _template_amplitudes(psi0, params)
    system = get_block_system(params)
    return system, np.einsum("ijkl,il->ikj", system.projectors, a0)


def _check_norms(norm_sq: np.ndarray) -> None:
    drift = float(np.abs(norm_sq - 1.0).max())
    if not drift <= NORM_TOL:
        raise ValueError(f"state is not normalized: |norm^2 - 1| = {drift:.3e}")


def _checked_states(states: np.ndarray) -> np.ndarray:
    """Contiguous complex rows ``states``, made read-only once each row's squared
    norm, read through their float64 view with no temporary, is checked."""
    rows = states.view(np.float64)
    _check_norms(np.einsum("ij,ij->i", rows, rows))
    states.flags.writeable = False
    return states


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


def _evolved_rows(frequencies: np.ndarray, parts: np.ndarray, size: int, dt: float | None):
    """The function from up to ``size`` profile values theta to the unchecked
    (len(theta), 9 F) rows of the states sum_j exp(-i w_j theta) U_j, from
    the blocks' (Omega, omega) ``frequencies`` and their ``_projected`` parts
    U, in a pass whose profile has the equal step ``dt`` (``_grid_step``)
    or, if not, None.

    That sum is V_0 + cos(Omega theta) V_1 + cos(omega theta) V_2 +
    sin(Omega theta) V_3 + sin(omega theta) V_4 with V = (U_0, U_+ + U_-,
    -i (U_+ - U_-)), U_+ and U_- the parts at +-(Omega, omega), held as one
    real (F, 5, 18) array whose column 2 k + c is the real (c = 0) or
    imaginary (c = 1) part of template state k.  One batched matmul of each
    block's (len(theta), 5) phases by V gives a call's states, as float64.

    Given dt, a real step table of the cos and sin of w j dt is made here
    once, and a call of more than one value takes its cosines and sines by
    angle addition: each block's 5 x 5 turn by its angles w theta_0, applied
    to V, meets the step table.  Any other call takes np.cos and np.sin of
    w theta.  Both tables hold (1, cos, cos, sin, sin) as (F, 5, size) rows,
    which the matmul reads transposed.  Each call overwrites the rows the
    call before returned.  Also returns the complex buffer of size x 9 F
    entries that holds the blocks' states in a call, free between calls.
    """
    turning, back = parts[:, :, 1:3], parts[:, :, 3:]
    v = np.concatenate([parts[:, :, :1], turning + back, -1j * (turning - back)], axis=2)
    v = np.ascontiguousarray(v.swapaxes(1, 2)).view(np.float64)
    blocks = len(frequencies)
    table, steps = np.ones((2, blocks, 5, size))  # row 0 stays 1
    turn, turned = np.tile(np.eye(5), (blocks, 1, 1)), np.empty_like(v)  # row 0 keeps V_0
    if dt is not None:
        np.multiply(frequencies[:, :, None], np.arange(size) * dt, out=steps[:, 3:])
        np.cos(steps[:, 3:], out=steps[:, 1:3])
        np.sin(steps[:, 3:], out=steps[:, 3:])
    states = np.empty((blocks, size, 9), dtype=np.complex128)
    out = np.zeros((size, 9 * blocks), dtype=np.complex128)  # entries floor blocks lack stay 0

    def evolved(theta: np.ndarray) -> np.ndarray:
        block_states = states[:, : theta.size]
        if dt is not None and theta.size > 1:
            angle = frequencies * theta[0]
            cos, sin = np.cos(angle), np.sin(angle)
            entries = np.concatenate([cos, cos, sin, -sin], axis=1)
            turn.reshape(-1, 25)[:, [6, 12, 18, 24, 8, 14, 16, 22]] = entries
            phases, vectors = steps[:, :, : theta.size], np.matmul(turn, v, out=turned)
        else:
            phases, vectors = table[:, :, : theta.size], v
            cos, sin = phases[:, 1:3], phases[:, 3:]
            np.multiply(frequencies[:, :, None], theta, out=sin)
            np.cos(sin, out=cos)
            np.sin(sin, out=sin)
        np.matmul(phases.swapaxes(1, 2), vectors, out=block_states.view(np.float64))
        rows = out[: theta.size]
        grid = rows.reshape(theta.size, 9, blocks)
        for k, skip in enumerate(FLOOR_SKIP):
            grid[:, k, : blocks - skip] = block_states[skip:, :, k].T
        return rows

    return evolved, states


def evolve_pure(psi0: PureState, params: SimParams, times) -> np.ndarray:
    """Exact pure-state evolution on the blocks' two closed-form
    frequencies and spectral projectors.

    Returns a read-only (T, dim) complex array on the layout of ``psi0``
    whose row i is the state at ``times[i]``; a row whose squared norm
    drifts from 1 by more than NORM_TOL raises ValueError.  ``psi0`` must be
    on the full layout of ``params.fock_cutoff`` and must not populate the
    blocks truncated by the cutoff ceiling, which cannot be evolved faithfully.
    """
    times = check_times(times)
    theta = modulation_integral(params.modulation, times)
    system, parts = _projected(psi0, params)
    evolved, _ = _evolved_rows(system.frequencies, parts, theta.size, _grid_step(theta))
    return _checked_states(evolved(theta))


def _row_entries(dim: int, dim_keep: int) -> int:
    """Complex entries counted per time row of a kernel chunk: three states
    (the kernel's rows, the copy a split into the kept factors may make and
    a third), three real reduced states (the chunk's, a node's product and
    the yield before, which its reader may still hold) and per block the
    kernel's 9 template states, which hold its matmul's result in a call and
    the turned copy (1 - i) kept between calls, and, at half an entry each,
    its 10 real phases but the step table's row of ones.  A one-node rule
    makes no product, and its third state, with the split's copy where the
    split makes none, holds more chunks' reduced states in one yield, counted
    at 3 d^2 a row.  The count stays, so no gamma = 0 chunk edge moves."""
    return 3 * dim + 3 * dim_keep * dim_keep + 27 * (dim // 9) // 2


def quadrature_bound(terms: int, spread: float) -> float:
    """Bound K! x^(2K) / (2K)! = prod_j x^2 / (4 j - 2) on the error of the
    K-node Gauss-Hermite rule for E[exp(-i x X)], X ~ N(0, 1), in its real
    and imaginary part each; x = sigma w is a gap w at the spread sigma."""
    square = float(spread) * float(spread)  # a Python float overflows to inf silently
    return math.prod(square / (4 * j - 2) for j in range(1, terms + 1))


def quadrature_terms(spread: float) -> int | None:
    """Smallest K <= KRAUS_MAX_TERMS whose quadrature_bound at ``spread`` is
    at most QUADRATURE_TARGET, or None if there is none."""
    terms = range(1, KRAUS_MAX_TERMS + 1)
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
    Before anything is evolved, raises UnsupportedRegimeError for gamma > 0
    under sech, or if no K <= KRAUS_MAX_TERMS certifies t_max.
    """
    times = check_times(times)
    if params.gamma > 0 and not isinstance(params.modulation, Constant):
        raise UnsupportedRegimeError(
            "intrinsic decoherence (gamma > 0) is solvable only for a "
            "time-independent coupling profile; rerun with constant modulation"
        )
    system, parts = _projected(psi0, params)
    width = 2.0 * float(system.frequencies[np.any(parts, axis=(1, 2)), 0].max())
    spread = np.sqrt(params.gamma * times)
    most = quadrature_terms(spread[-1] * width)
    if most is None:
        raise UnsupportedRegimeError(
            f"no Gauss-Hermite rule of at most {KRAUS_MAX_TERMS} nodes certifies the channel "
            f"to {QUADRATURE_TARGET:.0e} at gamma * t_max = {params.gamma * times[-1]:.6g} "
            f"with occupied energy spread w = {width:.6g}; shorten the time grid or lower gamma"
        )
    nodes, weights = _hermite_rule(most)
    theta = modulation_integral(params.modulation, times)
    dim, kept = psi0.layout.total_dim, psi0.layout.keep(keep)
    dim_keep = kept.total_dim
    step = max(1, _CHUNK_ENTRIES // _row_entries(dim, dim_keep))
    size = min(step, times.size)
    dt = _grid_step(theta) if most == 1 else None  # every node at gamma > 0 takes np.cos
    evolved, states = _evolved_rows(system.frequencies, parts, size, dt)
    turned = states.reshape(size, dim_keep, -1)  # the turned copy is made once states are rows
    leading = psi0.layout.labels[: len(kept.factors)] == kept.labels  # the split makes no copy
    group = step  # the rows of a yield
    if most == 1:
        group *= 1 + (1 + leading) * dim // (3 * dim_keep * dim_keep)  # see _row_entries
    products = np.empty((size, dim_keep, dim_keep)) if most > 1 else None  # nodes after the first
    for first in range(0, times.size, group):
        summed = np.empty((min(group, times.size - first), dim_keep, dim_keep))
        for start in range(first, first + len(summed), step):
            chunk, into = slice(start, start + step), summed[start - first : start - first + step]
            for k, (node, weight) in enumerate(zip(nodes, weights)):
                split = psi0.layout.split(evolved(theta[chunk] + node * spread[chunk]), keep)
                product = _coordinates(split, turned, products[: len(into)] if k else into)
                if most > 1:  # each node's rows' squared norms; the one node's weight is 1.0
                    _check_norms(np.einsum("tii->t", product))
                    product *= weight
                if k:
                    into += product
        if most == 1:  # those of every chunk of the yield at once
            _check_norms(np.einsum("tii->t", summed))
        yield summed
