"""Dimension-generic state containers, partial trace and spectral utilities.

All operations are pure functions over immutable containers; entropies use
natural logarithms (nats) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Tolerances shared across the package.
NORM_TOL = 1e-10          # |norm^2 - 1| accepted for pure states
HERMITICITY_TOL = 1e-12   # max |M - M^dag| accepted for density matrices
HERMITIAN_INPUT_TOL = 1e-10  # eigendecomposition input check
TRACE_TOL = 1e-10         # |tr(rho) - 1| accepted
EIG_FLOOR = -1e-9         # eigenvalues below this are an error
EIG_ZERO = 1e-14          # eigenvalues below this contribute 0 * log 0 := 0


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered tensor-product structure: a tuple of (label, dim) factors."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((str(l), int(d)) for l, d in self.factors))
        labels = [label for label, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"factor labels must be unique, got {labels}")
        if not self.factors or any(dim < 1 for _, dim in self.factors):
            raise ValueError(f"a layout needs factors of positive dimension, got {self.factors}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        """Position of a factor in the tensor-product order."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown factor label {label!r}; have {self.labels}") from None

    def keep(self, labels) -> "HilbertLayout":
        """Sub-layout of the given factors, in original order."""
        wanted = set(labels)
        unknown = wanted - set(self.labels)
        if unknown:
            raise KeyError(f"unknown factor labels {sorted(unknown)}; have {self.labels}")
        return HilbertLayout(tuple(f for f in self.factors if f[0] in wanted))

    def split(self, array: np.ndarray, labels) -> np.ndarray:
        """``array``, whose last axis is a vector index on this layout (any
        leading axes), as (..., kept, traced): the named factors, then the
        others, each group in layout order.  Reshapes and one transpose, so
        a view wherever NumPy can make one.  Unknown labels raise KeyError."""
        order, dim_kept = _split_plan(self, frozenset(labels))
        lead = array.shape[:-1]
        tensor = array.reshape(lead + self.dims)
        tensor = tensor.transpose(*range(len(lead)), *(len(lead) + i for i in order))
        return tensor.reshape(lead + (dim_kept, array.shape[-1] // dim_kept))


@lru_cache(maxsize=64)
def _split_plan(layout: HilbertLayout, labels: frozenset) -> tuple[tuple[int, ...], int]:
    """Axis order (kept factors first) and kept dimension of a split."""
    kept = layout.keep(labels).factors
    order = sorted(range(len(layout.factors)), key=lambda i: layout.factors[i] not in kept)
    return tuple(order), math.prod(dim for _, dim in kept)


def _as_readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=np.complex128, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a HilbertLayout."""

    layout: HilbertLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_readonly(np.asarray(self.amplitudes).ravel())
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.layout.total_dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, layout needs {self.layout.total_dim}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))

    def reduced(self, keep) -> "DensityMatrix":
        """Reduced density matrix of the given factors."""
        return reduced_density(self.amplitudes, self.layout, keep)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a layout."""

    layout: HilbertLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_readonly(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        dim = self.layout.total_dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, layout needs ({dim}, {dim})")
        herm_dev = float(np.abs(mat - mat.conj().T).max())
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {herm_dev:.3e}")
        trace_dev = abs(float(np.trace(mat).real) - 1.0)
        if trace_dev > TRACE_TOL:
            raise ValueError(f"matrix is not unit trace: |tr - 1| = {trace_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < EIG_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue = {min_eig:.3e}")


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix: ascending eigenvalues and
    a unitary matrix whose columns are the eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        eigs = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        eigs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "eigenvectors", _as_readonly(self.eigenvectors))


def reduced_density(amplitudes: np.ndarray, layout: HilbertLayout, keep) -> DensityMatrix:
    """Reduced density matrix of the given factors for the pure state with
    these amplitudes (partial trace of the projector, computed without
    forming the full outer product).  Keeping every factor gives the
    projector itself."""
    matrix = layout.split(amplitudes, keep)
    return DensityMatrix(layout.keep(keep), matrix @ matrix.conj().T)


def hermitian_spectrum(matrix: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    Raises ValueError if the input deviates from Hermiticity by more than
    HERMITIAN_INPUT_TOL in max norm.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dev = float(np.abs(matrix - matrix.conj().T).max())
    if dev > HERMITIAN_INPUT_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return Spectrum(eigenvalues, eigenvectors)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not named in ``keep``.

    The returned layout contains exactly the kept factors in their original
    order.  ``keep`` must be a nonempty proper subset of the layout labels.
    """
    keep, layout = set(keep), rho.layout
    if keep == set(layout.labels):
        raise ValueError("keep equals the full factor set; partial trace would be a no-op")
    rows = layout.split(rho.matrix.T, keep)  # (column, kept row, traced row)
    tensor = layout.split(rows.transpose(1, 2, 0), keep)  # rows, then columns
    return DensityMatrix(layout.keep(keep), np.einsum("ajbj->ab", tensor))


def clipped_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """Apply the round-off clipping rule for populations.

    Values in [EIG_FLOOR, 0) are clipped to 0; anything below EIG_FLOOR
    raises, since that indicates a genuinely non-positive matrix rather
    than accumulated round-off.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    low = float(eigenvalues.min()) if eigenvalues.size else 0.0
    if low < EIG_FLOOR:
        raise ValueError(f"eigenvalue {low:.3e} below the clipping floor {EIG_FLOOR:.0e}")
    return np.clip(eigenvalues, 0.0, None)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr(rho ln rho) in nats; eigenvalues below EIG_ZERO
    contribute zero (0 ln 0 := 0)."""
    populations = clipped_eigenvalues(np.linalg.eigvalsh(rho.matrix))
    populations = populations[populations > EIG_ZERO]
    return float(-np.sum(populations * np.log(populations)))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho.matrix, rho.matrix).real)
