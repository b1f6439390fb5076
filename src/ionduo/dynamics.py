"""Time evolution: exact pure-state propagation under the modulated
coupling, and the intrinsic-decoherence channel for constant coupling.

The modulation enters only through the accumulated profile
Theta(t) = int_0^t zeta, because the shared scalar zeta(t) multiplies the
whole generator (which therefore commutes with itself at all times).  Pure
states evolve block by block as

    A(t) = V exp(-i Z Theta(t)) V^dag A(0)

with (Z, V) the cached spectrum of each block coupling matrix; an
evolution over a time grid is returned as one read-only (T, dim) array whose
row i is the state at times[i].

The intrinsic-decoherence master equation

    d rho / dt = -i [H, rho] - (gamma / 2) [H, [H, rho]]

is solved in closed form in the eigenbasis of H, where every off-diagonal
element picks up the phase exp(-i (E_m - E_n) t) and the Gaussian decay
exp(-gamma t (E_m - E_n)^2 / 2).  The production channel,
``milburn_reduced``, does so block pair by block pair, batched over time and
contracted straight onto the kept factors.  The dense closed form and a
truncated Kraus-operator sum are its oracles.  All of them are defined for
time-independent coupling only.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .core import NORM_TOL, DensityMatrix, PureState, hermitian_spectrum
from .ionmodel import (
    LEVEL_INDEX,
    CutoffError,
    build_full_hamiltonian,
    full_layout,
    get_block_system,
)
from .params import Constant, Modulation, Sech, SimParams

KRAUS_DEFICIT_TARGET = 1e-10
KRAUS_MAX_TERMS = 512

# Complex entries (2 MB) per chunk of milburn_reduced, whatever the kept dimension.
_CHUNK_ENTRIES = 2**17


def modulation_integral(modulation: Modulation, t):
    """Accumulated coupling profile Theta(t) = int_0^t zeta(s) ds.

    Constant gives t; Sech{tau} gives the closed-form antiderivative
    4 tau arctan(tanh(t / (4 tau))), which tends to pi tau as t -> inf.
    Accepts scalars or arrays, t >= 0.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
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
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing and start at 0")
    return times


def _check_block_support(psi0: PureState, params: SimParams) -> None:
    """Reject states with weight on the blocks truncated by the cutoff
    ceiling; those cannot be evolved faithfully under hard truncation."""
    if psi0.layout != full_layout(params.fock_cutoff):
        raise ValueError("initial state layout does not match params.fock_cutoff")
    ion1, ion2, fock = np.indices((3, 3, params.fock_cutoff + 1))
    block = fock - (ion1 != LEVEL_INDEX["a"]) - (ion2 != LEVEL_INDEX["a"])
    leak = float(np.sum(np.abs(psi0.amplitudes[block.ravel() >= params.fock_cutoff - 1]) ** 2))
    if leak > 1e-12:
        raise CutoffError(
            f"initial state has weight {leak:.3e} on blocks truncated by the cutoff; "
            f"raise fock_cutoff"
        )


def _occupied_blocks(psi0: PureState, params: SimParams) -> Iterator[tuple]:
    """Yield (full indices, energies, eigenvectors, V^dag a0) of each
    evolvable block that ``psi0`` occupies, after the ceiling-block check."""
    _check_block_support(psi0, params)
    system = get_block_system(params)
    for n in system.evolvable_indices:
        idx = system.full_indices(n)
        a0 = psi0.amplitudes[idx]
        if np.any(a0):
            spectrum = system.block(n).spectrum
            v = spectrum.eigenvectors
            yield idx, spectrum.eigenvalues, v, v.conj().T @ a0


def _row_norm_sq(states: np.ndarray) -> np.ndarray:
    """Squared norm of each row, read through real and imaginary views so
    that no temporary of the array's size is made."""
    return np.einsum("ij,ij->i", states.real, states.real) + np.einsum(
        "ij,ij->i", states.imag, states.imag
    )


def _checked_states(states: np.ndarray, norm_sq: np.ndarray) -> np.ndarray:
    drift = float(np.abs(norm_sq - 1.0).max())
    if drift > NORM_TOL:
        raise ValueError(f"state is not normalized: |norm^2 - 1| = {drift:.3e}")
    states.flags.writeable = False
    return states


def evolve_pure(psi0: PureState, params: SimParams, times) -> np.ndarray:
    """Exact pure-state evolution via per-block eigendecomposition.

    Returns a read-only (T, dim) complex array on the layout of ``psi0``
    whose row i is the state at ``times[i]``; a row whose squared norm
    drifts from 1 by more than NORM_TOL raises ValueError.  The initial
    state must be expressed on the full layout of ``params.fock_cutoff``
    and must not populate the blocks truncated by the cutoff ceiling (those
    cannot be evolved faithfully).
    """
    times = check_times(times)
    theta = modulation_integral(params.modulation, times)
    out = np.zeros((times.size, psi0.layout.total_dim), dtype=np.complex128)
    norm_sq = np.zeros(times.size)
    for idx, z, v, coeffs in _occupied_blocks(psi0, params):
        phases = np.exp(-1j * np.outer(theta, z))
        block_states = (phases * coeffs) @ v.T
        out[:, idx] = block_states
        norm_sq += _row_norm_sq(block_states)
    return _checked_states(out, norm_sq)


def evolve_pure_dense(psi0: PureState, params: SimParams, times) -> np.ndarray:
    """Independent dense oracle: exp(-i H Theta(t)) on the full space via a
    single eigendecomposition of the assembled Hamiltonian.  Same contract
    as evolve_pure."""
    times = check_times(times)
    _check_block_support(psi0, params)
    spectrum = hermitian_spectrum(build_full_hamiltonian(params))
    theta = modulation_integral(params.modulation, times)
    coeffs = spectrum.eigenvectors.conj().T @ psi0.amplitudes
    phases = np.exp(-1j * np.outer(theta, spectrum.eigenvalues))
    out = (phases * coeffs) @ spectrum.eigenvectors.T
    return _checked_states(out, _row_norm_sq(out))


def coherence_damping(gaps: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """Factor exp(-i dE t - gamma t dE^2 / 2) by which the intrinsic-decoherence
    channel multiplies an energy-eigenbasis coherence with gap dE at time t."""
    return np.exp(-1j * gaps * t - 0.5 * gamma * t * gaps**2)


def milburn_reduced(psi0: PureState, params: SimParams, times, keep) -> Iterator[np.ndarray]:
    """Intrinsic-decoherence evolution of a pure initial state under the
    constant coupling (``params.modulation`` is not read), reduced to the
    factors in ``keep`` (all of them gives the full state).

    Yields Hermitian (Tc, d, d) chunks of consecutive ``times``, at most
    _CHUNK_ENTRIES entries each.  The pair of blocks (n, m) contributes
    W_n D_nm(t) W_m^dag, with W_n = V_n diag(V_n^dag a0[n]) and D_nm the
    damped gaps E_n[k] - E_m[l], on the rows and columns that agree on the
    traced factors; pairs n > m are the conjugate transpose of n < m.
    """
    times = check_times(times)
    # Entry (k, d) of the table is the full index with kept part k and dropped part d.
    table = psi0.layout.split(np.arange(psi0.layout.total_dim), keep)
    dim_keep, dim_traced = table.shape
    kept, dropped = np.empty((2, table.size), dtype=np.intp)
    kept[table], dropped[table] = np.indices(table.shape)
    blocks = [  # (energies, W, kept index, dropped index) of each occupied block
        (z, v * coeffs, kept[idx], dropped[idx])
        for idx, z, v, coeffs in _occupied_blocks(psi0, params)
    ]

    pairs = []  # (W_n, gaps, W_m^dag, [(rows, cols, kept rows, kept cols) per shared trace])
    for i, (energies_n, w_n, keep_n, drop_n) in enumerate(blocks):
        for energies_m, w_m, keep_m, drop_m in blocks[i:]:
            shared = []
            for traced in np.intersect1d(drop_n, drop_m):
                rows = np.flatnonzero(drop_n == traced)[:, None]
                cols = np.flatnonzero(drop_m == traced)[None, :]
                shared.append((rows, cols, keep_n[rows], keep_m[cols]))
            if shared:
                weight = 0.5 if w_m is w_n else 1.0  # the completion counts n = m twice
                gaps = energies_n[:, None] - energies_m[None, :]
                pairs.append((weight * w_n, gaps, w_m.conj().T, shared))

    step = max(1, _CHUNK_ENTRIES // (dim_keep * dim_keep))
    for start in range(0, times.size, step):
        t = times[start : start + step, None, None]
        half = np.zeros((t.shape[0], dim_keep, dim_keep), dtype=np.complex128)
        for w_n, gaps, w_m_dag, shared in pairs:
            product = w_n @ coherence_damping(gaps, params.gamma, t) @ w_m_dag
            for rows, cols, kept_rows, kept_cols in shared:
                if dim_traced > 1:
                    half[:, kept_rows, kept_cols] += product[:, rows, cols]
                else:  # nothing traced: the pair owns its block of the state
                    half[:, kept_rows, kept_cols] = product
        half += half.conj().swapaxes(1, 2)
        yield half


def milburn_closed_form(
    rho0: DensityMatrix, hamiltonian: np.ndarray, gamma: float, t: float
) -> DensityMatrix:
    """Closed-form solution of the intrinsic-decoherence master equation
    for a time-independent Hamiltonian."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    spectrum = hermitian_spectrum(np.asarray(hamiltonian))
    v = spectrum.eigenvectors
    gaps = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    rho_eig = (v.conj().T @ rho0.matrix @ v) * coherence_damping(gaps, gamma, t)
    out = v @ rho_eig @ v.conj().T
    return DensityMatrix(rho0.layout, 0.5 * (out + out.conj().T))


def _kraus_diagonal(eigenvalues: np.ndarray, gamma: float, t: float, k: int) -> np.ndarray:
    """Eigenbasis diagonal of the k-th Kraus operator
    (gamma t)^(k/2) / sqrt(k!) * E^k * exp(-i E t) * exp(-gamma t E^2 / 2)."""
    survival = np.exp(-1j * eigenvalues * t - 0.5 * gamma * t * eigenvalues**2)
    if k == 0:
        return survival
    x = gamma * t * eigenvalues**2
    with np.errstate(divide="ignore"):
        magnitude = np.exp(0.5 * (k * np.log(x) - math.lgamma(k + 1)))
    sign = np.where(eigenvalues < 0, (-1.0) ** k, 1.0)
    return sign * magnitude * survival


def _adaptive_kraus_terms(eigenvalues: np.ndarray, gamma: float, t: float) -> int:
    """Smallest K (capped) whose Poisson-weighted tail leaves a completeness
    deficit at most KRAUS_DEFICIT_TARGET."""
    rates = gamma * t * eigenvalues**2
    term = np.exp(-rates)
    covered = term.copy()
    for k in range(1, KRAUS_MAX_TERMS):
        if 1.0 - covered.min() <= KRAUS_DEFICIT_TARGET:
            return k
        term = term * rates / k
        covered += term
    return KRAUS_MAX_TERMS


def milburn_kraus(
    rho0: DensityMatrix,
    hamiltonian: np.ndarray,
    gamma: float,
    t: float,
    terms: int | None = None,
) -> tuple[DensityMatrix, float]:
    """Truncated Kraus-operator sum for the intrinsic-decoherence channel.

    Builds each dense Kraus operator and accumulates sum_k M_k rho M_k^dag
    literally, as an independent cross-check of the closed form.  Returns
    the evolved state together with the completeness deficit
    delta(K) = max |sum_k M_k M_k^dag - I|, so callers can certify the
    truncation.  With ``terms=None`` the count is chosen adaptively so that
    delta <= 1e-10, capped at 512.
    """
    if terms is not None and terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    spectrum = hermitian_spectrum(np.asarray(hamiltonian))
    if terms is None:
        terms = _adaptive_kraus_terms(spectrum.eigenvalues, gamma, t)
    v = spectrum.eigenvectors
    evolved = np.zeros_like(rho0.matrix)
    completeness = np.zeros_like(rho0.matrix)
    for k in range(terms):
        m_k = (v * _kraus_diagonal(spectrum.eigenvalues, gamma, t, k)) @ v.conj().T
        evolved = evolved + m_k @ rho0.matrix @ m_k.conj().T
        completeness = completeness + m_k @ m_k.conj().T
    deficit = float(np.abs(completeness - np.eye(completeness.shape[0])).max())
    return DensityMatrix(rho0.layout, 0.5 * (evolved + evolved.conj().T)), deficit
