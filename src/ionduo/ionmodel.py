"""Lamb-Dicke interaction Hamiltonian of two three-level ions and its
excitation-conserving block decomposition.

Each ion has a lower level ``a`` and two upper levels ``b`` and ``c``.  The
laser drives blue-sideband transitions: it raises an ion (``a -> b`` with
strength lambda1, ``a -> c`` with lambda2) while creating one phonon of the
shared center-of-mass mode, with the phonon-number-dependent strength given
by the vibrational mode function.  The quantity

    block index n = (Fock number) - (number of ions not in ``a``)

is conserved, so the Hamiltonian decomposes into independent blocks of at
most nine states, which is what makes exact per-block diagonalization
possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import HilbertLayout, Spectrum, hermitian_spectrum
from .params import SimParams

LEVELS = ("a", "b", "c")
LEVEL_INDEX = {"a": 0, "b": 1, "c": 2}

# Relative order of the nine block states: (Fock offset from n, ion1, ion2).
_BLOCK_TEMPLATE = (
    (0, "a", "a"),
    (1, "a", "b"),
    (1, "a", "c"),
    (1, "b", "a"),
    (2, "b", "b"),
    (2, "b", "c"),
    (1, "c", "a"),
    (2, "c", "b"),
    (2, "c", "c"),
)

# Test hook: selftest corrupts this for the duration of one run to prove the
# oracle checks can fail, then restores it.  Never set it anywhere else.
_FAULT_SCALE = 1.0


class CutoffError(ValueError):
    """A requested construction or state does not fit under the Fock cutoff."""


def full_layout(fock_cutoff: int) -> HilbertLayout:
    """Layout of the full space: ion1 (3) x ion2 (3) x field (N_max + 1)."""
    return HilbertLayout((("ion1", 3), ("ion2", 3), ("field", fock_cutoff + 1)))


def full_index(fock: int, ion1: str, ion2: str, fock_cutoff: int) -> int:
    """Flat index of |ion1, ion2; fock> in the full layout."""
    return (LEVEL_INDEX[ion1] * 3 + LEVEL_INDEX[ion2]) * (fock_cutoff + 1) + fock


def laguerre(n: int, k: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^k(x) via the stable three-term
    recurrence."""
    if n < 0 or k < 0:
        raise ValueError(f"laguerre requires n, k >= 0, got n={n}, k={k}")
    if n == 0:
        return 1.0
    if n == 1:
        return 1.0 + k - x
    prev, cur = 1.0, 1.0 + k - x
    for m in range(2, n + 1):
        prev, cur = cur, ((k + 2 * m - x - 1) * cur - (k + m - 1) * prev) / m
    return cur


def mode_strength(n: int, k: int, params: SimParams) -> float:
    """Diagonal element of the k-th sideband vibrational mode function at
    phonon number n.

    Default form:

        -(epsilon / 2) * (n! / (n+k)!) * L_n^k(eta^2) * exp(-eta^2 / 2)

    With ``params.standard_matrix_element`` the textbook sideband element is
    used instead, carrying sqrt(n! / (n+k)!) and an eta**k magnitude factor.
    The factorial ratio is computed multiplicatively, which is exact in
    floating point well past the cutoffs used here.
    """
    if n < 0 or k < 0:
        raise ValueError(f"mode_strength requires n, k >= 0, got n={n}, k={k}")
    if n + k > params.fock_cutoff:
        raise CutoffError(f"phonon number n + k = {n + k} exceeds cutoff {params.fock_cutoff}")
    ratio = 1.0
    for j in range(n + 1, n + k + 1):
        ratio /= j
    x = params.eta * params.eta
    if params.standard_matrix_element:
        raw = math.sqrt(ratio) * params.eta**k * laguerre(n, k, x) * math.exp(-x / 2)
    else:
        raw = ratio * laguerre(n, k, x) * math.exp(-x / 2)
    return -0.5 * params.epsilon * raw * _FAULT_SCALE


@dataclass(frozen=True)
class BlockBasis:
    """Ordered basis of one excitation-conserving block.

    ``states`` lists (fock, ion1 level, ion2 level) tuples.  Interior blocks
    (n >= 0 with n + 2 <= N_max) have all nine states; blocks at the Fock
    floor (n = -1, -2) or at the cutoff ceiling keep the subset whose Fock
    index lies in [0, N_max].
    """

    block_index: int
    states: tuple[tuple[int, str, str], ...]

    @property
    def dim(self) -> int:
        return len(self.states)


def block_basis(n: int, fock_cutoff: int) -> BlockBasis:
    """Basis of block n under the given cutoff."""
    states = tuple(
        (n + off, l1, l2) for off, l1, l2 in _BLOCK_TEMPLATE if 0 <= n + off <= fock_cutoff
    )
    if not states:
        raise ValueError(f"block {n} is empty under cutoff {fock_cutoff}")
    return BlockBasis(n, states)


def block_indices(fock_cutoff: int) -> range:
    """All block indices holding at least one state with Fock <= N_max."""
    return range(-2, fock_cutoff + 1)


@dataclass(frozen=True)
class BlockMatrix:
    """One block: its basis, Hermitian coupling matrix and cached spectrum."""

    basis: BlockBasis
    coupling: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        coupling = np.array(self.coupling, dtype=np.complex128, copy=True)
        coupling.flags.writeable = False
        object.__setattr__(self, "coupling", coupling)


def _assemble_coupling(basis: BlockBasis, params: SimParams) -> np.ndarray:
    """Matrix elements of the zeta = 1 interaction Hamiltonian on a block.

    Only the raising part is assembled (ion a -> b or a -> c while creating
    one phonon); the Hermitian conjugate fills the rest.  The mode function
    is evaluated at the post-raising phonon number:
    <m+1| E(n_hat) a_dag |m> = sqrt(m+1) * E(m+1).
    """
    index = {state: i for i, state in enumerate(basis.states)}
    raising = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for src, (fock, l1, l2) in enumerate(basis.states):
        if fock + 1 > params.fock_cutoff:
            continue
        element = math.sqrt(fock + 1) * mode_strength(fock + 1, 0, params)
        for upper, lam in (("b", params.lambda1), ("c", params.lambda2)):
            if l1 == "a":
                dst = index.get((fock + 1, upper, l2))
                if dst is not None:
                    raising[dst, src] += lam * element
            if l2 == "a":
                dst = index.get((fock + 1, l1, upper))
                if dst is not None:
                    raising[dst, src] += lam * element
    return raising + raising.conj().T


def build_block(n: int, params: SimParams) -> BlockMatrix:
    """Coupling matrix and cached spectrum of block n.

    Requires n + 2 <= N_max so the block carries its full complement of
    states; blocks truncated by the cutoff ceiling cannot be evolved
    faithfully and are refused.
    """
    if n < -2:
        raise ValueError(f"block index must be >= -2, got {n}")
    if n + 2 > params.fock_cutoff:
        raise CutoffError(
            f"block {n} needs Fock states up to {n + 2}, beyond cutoff {params.fock_cutoff}"
        )
    basis = block_basis(n, params.fock_cutoff)
    coupling = _assemble_coupling(basis, params)
    return BlockMatrix(basis, coupling, hermitian_spectrum(coupling))


class BlockSystem:
    """Family of blocks for one parameter set, with cached spectra and the
    index arrays embedding each block into the full layout."""

    def __init__(self, params: SimParams):
        self.params = params
        self.layout = full_layout(params.fock_cutoff)
        self._blocks: dict[int, BlockMatrix] = {}
        self._indices: dict[int, np.ndarray] = {}

    @property
    def evolvable_indices(self) -> range:
        """Blocks with their full complement of states under the cutoff."""
        return range(-2, self.params.fock_cutoff - 1)

    def block(self, n: int) -> BlockMatrix:
        if n not in self._blocks:
            self._blocks[n] = build_block(n, self.params)
        return self._blocks[n]

    def full_indices(self, n: int) -> np.ndarray:
        if n not in self._indices:
            basis = self.block(n).basis
            self._indices[n] = np.array(
                [full_index(f, l1, l2, self.params.fock_cutoff) for f, l1, l2 in basis.states],
                dtype=np.intp,
            )
        return self._indices[n]


@lru_cache(maxsize=16)
def get_block_system(params: SimParams) -> BlockSystem:
    return BlockSystem(params)


def build_full_hamiltonian(params: SimParams) -> np.ndarray:
    """Dense zeta = 1 interaction Hamiltonian on the full layout.

    Assembled from tensor products of single-ion flip operators and the
    truncated phonon raising operator; couplings whose a_dag action would
    exceed N_max vanish because the truncated a_dag annihilates |N_max>.
    The result equals the direct sum of all block coupling matrices under
    the block-to-full embedding.
    """
    n_fock = params.fock_cutoff + 1
    a_dag = np.zeros((n_fock, n_fock), dtype=np.complex128)
    for m in range(n_fock - 1):
        a_dag[m + 1, m] = math.sqrt(m + 1)
    mode_diag = np.diag([mode_strength(m, 0, params) for m in range(n_fock)]).astype(np.complex128)
    raise_op = mode_diag @ a_dag  # mode function applied after the raising

    eye3 = np.eye(3, dtype=np.complex128)
    flip = {}
    for upper in ("b", "c"):
        op = np.zeros((3, 3), dtype=np.complex128)
        op[LEVEL_INDEX[upper], LEVEL_INDEX["a"]] = 1.0
        flip[upper] = op

    h = np.zeros((9 * n_fock, 9 * n_fock), dtype=np.complex128)
    for upper, lam in (("b", params.lambda1), ("c", params.lambda2)):
        h += lam * np.kron(flip[upper], np.kron(eye3, raise_op))
        h += lam * np.kron(eye3, np.kron(flip[upper], raise_op))
    return h + h.conj().T
