"""Lamb-Dicke interaction Hamiltonian of two three-level ions and its
excitation-conserving block decomposition.

Each ion has a lower level ``a`` and two upper levels ``b`` and ``c``.  The
laser drives blue-sideband transitions: it raises an ion (``a -> b`` with
strength lambda1, ``a -> c`` with lambda2) while creating one phonon of the
shared center-of-mass mode, with the phonon-number-dependent strength given
by the vibrational mode function E(m) = -(epsilon / 2) L_m(eta^2)
exp(-eta^2 / 2) of the phonon number m after the step.  The quantity

    block index n = (Fock number) - (number of ions not in ``a``)

is conserved, so the Hamiltonian decomposes into independent blocks of at
most nine states, laid on one nine-state template as one stacked table that
a single batched eigendecomposition diagonalizes exactly, its eigenvalues
checked against every block's closed-form frequencies.  The selftest's fault
rebinds ``mode_function``, which every caller here looks up at each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import HilbertLayout, Spectrum, hermitian_spectrum
from .params import Constant, SimParams

LEVEL_INDEX = {"a": 0, "b": 1, "c": 2}
#: Labels of the factors of the full space, in layout order, at every cutoff.
FACTORS = ("ion1", "ion2", "field")


class CutoffError(ValueError):
    """A requested construction or state does not fit under the Fock cutoff."""


def full_layout(fock_cutoff: int) -> HilbertLayout:
    """Layout of the full space: ion1 (3) x ion2 (3) x field (N_max + 1)."""
    return HilbertLayout(tuple(zip(FACTORS, (3, 3, fock_cutoff + 1))))


def evolvable_blocks(fock_cutoff: int) -> range:
    """Blocks n with n + 2 <= N_max, which keep all their states under the
    cutoff.  The blocks above are truncated by the cutoff ceiling and cannot
    be evolved faithfully."""
    return range(-2, fock_cutoff - 1)


def mode_function(params: SimParams) -> np.ndarray:
    """The vibrational mode function E(m) = -(epsilon / 2) L_m(eta^2)
    exp(-eta^2 / 2) at phonon numbers m = 0..N_max, the Laguerre
    polynomials L_m from one pass of their three-term recurrence."""
    x = params.eta * params.eta
    laguerre = [1.0, 1.0 - x]
    for m in range(2, params.fock_cutoff + 1):
        laguerre.append(((2 * m - x - 1) * laguerre[-1] - (m - 1) * laguerre[-2]) / m)
    return -0.5 * params.epsilon * (np.array(laguerre) * math.exp(-x / 2))


# The template of every block n: state k holds ion1 in level k // 3 and ion2
# in level k % 3 (a, b, c = 0, 1, 2) at Fock number n + _OFFSET[k], which is
# layout order; a floor block lacks the states where that is < 0.  A raising
# pair (_DST, _SRC) lifts one ion from a to level _UPPER adding one phonon.
_ION1, _ION2 = np.divmod(np.arange(9), 3)
_OFFSET = np.sign(_ION1) + np.sign(_ION2)
_DST, _SRC = np.nonzero(
    (_OFFSET[:, None] == _OFFSET + 1) & ((_ION1[:, None] == _ION1) | (_ION2[:, None] == _ION2))
)
_UPPER = (_ION1 + _ION2)[_DST] - (_ION1 + _ION2)[_SRC]
# The first FLOOR_SKIP[k] evolvable blocks lack template state k; in the
# blocks after them it sits at Fock numbers 0, 1, ... of its ion levels.
FLOOR_SKIP = tuple(int(skip) for skip in 2 - _OFFSET)


def mode_couplings(params: SimParams) -> np.ndarray:
    """g(m) = sqrt(m) E(m) for m = 0..N_max: the strength of the raising
    step that ends at phonon number m, <m| E(n_hat) a_dag |m-1>."""
    return np.sqrt(np.arange(params.fock_cutoff + 1)) * mode_function(params)


def block_couplings(params: SimParams) -> np.ndarray:
    """(F, 9, 9) Hermitian coupling matrices of the F = N_max + 1 evolvable
    blocks on the template, block n at index n + 2: each raising pair
    carries lambda g(Fock number after raising), the Hermitian conjugate the
    lowering half.  A pair through a state a floor block lacks ends at
    m <= 0, where g(m) = 0, so that state's row and column are zero."""
    blocks = np.array(evolvable_blocks(params.fock_cutoff))[:, None]
    lam = np.array([0.0, params.lambda1, params.lambda2])  # coupling into level a, b, c
    g = mode_couplings(params)[np.maximum(blocks + _OFFSET[_DST], 0)]
    raising = np.zeros((blocks.size, 9, 9), dtype=np.complex128)
    raising[:, _DST, _SRC] = lam[_UPPER] * g
    return raising + raising.conj().swapaxes(1, 2)


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """One block: its read-only Hermitian coupling matrix and its spectrum."""

    coupling: np.ndarray
    spectrum: Spectrum


def build_block(n: int, params: SimParams) -> BlockMatrix:
    """Block n, which must be one of the evolvable blocks of the cutoff, on
    its own states: the rows and columns of its ``block_couplings`` matrix
    whose template state has Fock number >= 0, and their spectrum."""
    evolvable = evolvable_blocks(params.fock_cutoff)
    if n not in evolvable:
        raise CutoffError(
            f"block {n} is outside the evolvable blocks {evolvable} of cutoff {params.fock_cutoff}"
        )
    present = n + _OFFSET >= 0
    coupling = block_couplings(params)[evolvable.index(n)][present][:, present]
    coupling.flags.writeable = False
    return BlockMatrix(coupling, hermitian_spectrum(coupling))


def block_frequencies(params: SimParams) -> np.ndarray:
    """(F, 2) table of the two nonnegative frequencies (Omega_n, omega_n) of
    the F = N_max + 1 evolvable blocks, block n in row n + 2.  Each ion's
    bright state couples to |a> with Lambda g(m), Lambda^2 = |lambda1|^2 +
    |lambda2|^2, and its dark state not at all (Morris & Shore), leaving the
    two-atom Tavis-Cummings spectrum {0 x3, +-Omega_n, +-omega_n x2} with
    Omega_n = Lambda sqrt(2) hypot(g(n+1), g(n+2)) and omega_n = Lambda
    |g(n+2)|, g(n+1) being g shifted by one place, g(-1) = 0 (math.hypot
    rounds correctly; np.hypot can be off by one unit in the last place).
    The largest omega_n, Lambda max |g|, is the scale of every spectrum."""
    g = mode_couplings(params)  # g(n + 2) of block n
    below = np.concatenate([[0.0], g[:-1]])  # g(n + 1)
    bright = np.fromiter(map(math.hypot, below, g), float, g.size)
    big = math.hypot(abs(params.lambda1), abs(params.lambda2))
    return np.stack([big * math.sqrt(2) * bright, big * np.abs(g)], axis=1)


# Each of a block's nine eigenvalues as the index of its frequency in
# (0, +Omega, +omega, -Omega, -omega); a state a floor block lacks is a zero.
_LABELS = np.repeat(np.arange(5), (3, 1, 2, 1, 2))


def closed_form_spectrum(frequencies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nine ascending eigenvalues of each block whose (Omega, omega) is a
    row of the (..., 2) array ``frequencies``, and the label of each."""
    zero = np.zeros_like(frequencies[..., :1])
    values = np.concatenate([zero, frequencies, -frequencies], axis=-1)[..., _LABELS]
    order = np.argsort(values, axis=-1, kind="stable")
    return np.take_along_axis(values, order, axis=-1), _LABELS[order]


class BlockSystem:
    """The F evolvable blocks of one parameter set as one table, built when
    the system is created.  Block n = i - 2 evolves on the nine-state
    template as sum_j exp(-i w_j Theta) P_j, with w = (0, +Omega_n, +omega_n,
    -Omega_n, -omega_n): ``frequencies[i]`` is (Omega_n, omega_n) and
    ``projectors[i, j]`` is P_j, zero on the states a floor block lacks.

    One stacked ``hermitian_spectrum`` of ``block_couplings`` gives the
    projectors: each eigenvector joins the closed-form frequency its
    eigenvalue is paired with in ascending order.  ValueError if an
    eigenvalue lies more than 1e-12 of the spectral scale, the largest
    omega_n, from it (the smallest normal float is added to the scale, since
    subnormal couplings carry no relative precision)."""

    def __init__(self, params: SimParams):
        self.frequencies = block_frequencies(params)
        closed, labels = closed_form_spectrum(self.frequencies)
        spectrum = hermitian_spectrum(block_couplings(params))
        deviation = np.abs(spectrum.eigenvalues - closed).max(axis=1)
        worst = int(np.argmax(deviation))  # the first NaN, if there is one
        scale = self.frequencies[:, 1].max()
        if not deviation[worst] <= 1e-12 * (scale + np.finfo(float).tiny):
            raise ValueError(
                f"block {worst - 2} has an eigenvalue {deviation[worst]:.3e} from its "
                f"closed-form frequency, beyond 1e-12 x spectral scale {scale:.3e}"
            )
        vectors = spectrum.eigenvectors.copy()
        vectors[np.arange(len(vectors))[:, None] < FLOOR_SKIP] = 0.0  # states a floor block lacks
        members = labels[:, None, None, :] == np.arange(5)[:, None, None]  # (F, 5, 1, 9)
        self.projectors = (vectors[:, None] * members) @ vectors[:, None].conj().swapaxes(2, 3)
        self.frequencies.flags.writeable = False
        self.projectors.flags.writeable = False


# Fields of SimParams that do not enter the blocks, pinned for the cache key.
_OUTSIDE_BLOCKS = dict(gamma=0.0, nbar=0.0, theta=0.0, phi=0.0, modulation=Constant())
_cached_block_system = lru_cache(maxsize=16)(BlockSystem)


def get_block_system(params: SimParams) -> BlockSystem:
    """Cached block family of the Hamiltonian of ``params``: runs that differ
    only in fields outside the blocks share one entry.  ``cache_info`` and
    ``cache_clear`` reach the cache."""
    return _cached_block_system(replace(params, **_OUTSIDE_BLOCKS))


get_block_system.cache_info = _cached_block_system.cache_info
get_block_system.cache_clear = _cached_block_system.cache_clear


def build_full_hamiltonian(params: SimParams) -> np.ndarray:
    """Dense zeta = 1 interaction Hamiltonian on the full layout.

    Assembled from tensor products of single-ion flip operators and the
    truncated phonon raising operator; couplings whose a_dag action would
    exceed N_max vanish because the truncated a_dag annihilates |N_max>.
    On each evolvable block it equals that block's coupling matrix under
    the block-to-full embedding.
    """
    n_fock = params.fock_cutoff + 1
    a_dag = np.diag(np.sqrt(np.arange(1, n_fock)), k=-1).astype(np.complex128)
    mode_diag = np.diag(mode_function(params)).astype(np.complex128)
    raise_op = mode_diag @ a_dag  # mode function applied after the raising

    eye3 = np.eye(3, dtype=np.complex128)
    h = np.zeros((9 * n_fock, 9 * n_fock), dtype=np.complex128)
    for upper, lam in (("b", params.lambda1), ("c", params.lambda2)):
        flip = np.outer(eye3[LEVEL_INDEX[upper]], eye3[LEVEL_INDEX["a"]])  # |upper><a|
        h += lam * np.kron(flip, np.kron(eye3, raise_op))
        h += lam * np.kron(eye3, np.kron(flip, raise_op))
    return h + h.conj().T
