"""Dimension-generic state containers and spectral utilities.

All operations are pure functions over immutable containers; entropies use
natural logarithms (nats) throughout.  Containers that hold arrays compare
and hash by identity (``eq=False``): a field-wise ``==`` of arrays has no
single truth value.
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


@dataclass(frozen=True, eq=False)
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
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a layout, checked here."""

    layout: HilbertLayout
    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_readonly(np.asarray(self.matrix))
        object.__setattr__(self, "matrix", mat)
        dim = self.layout.total_dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, layout needs ({dim}, {dim})")
        herm_dev = float(np.abs(mat - mat.conj().T).max())
        if not herm_dev <= HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {herm_dev:.3e}")
        trace_dev = abs(float(np.trace(mat).real) - 1.0)
        if not trace_dev <= TRACE_TOL:
            raise ValueError(f"matrix is not unit trace: |tr - 1| = {trace_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if not min_eig >= EIG_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue = {min_eig:.3e}")


@dataclass(frozen=True, eq=False)
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


def hermitian_spectrum(matrix: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    Raises ValueError if the input deviates from Hermiticity by more than
    HERMITIAN_INPUT_TOL in max norm.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dev = float(np.abs(matrix - matrix.conj().T).max())
    if not dev <= HERMITIAN_INPUT_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return Spectrum(eigenvalues, eigenvectors)


def spectral_entropy(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum p ln p in nats over the last axis of an array of eigenvalues p.
    Values in [EIG_FLOOR, 0) are round-off and clipped to 0, values at most
    EIG_ZERO contribute 0 (0 ln 0 := 0), and one below EIG_FLOOR raises."""
    low = float(eigenvalues.min())
    if not low >= EIG_FLOOR:
        raise ValueError(f"eigenvalue {low:.3e} below the clipping floor {EIG_FLOOR:.0e}")
    populations = np.clip(eigenvalues, 0.0, None)
    logs = np.log(np.where(populations > EIG_ZERO, populations, 1.0))  # ln 1 = 0 for the rest
    return -np.sum(populations * logs, axis=-1)
