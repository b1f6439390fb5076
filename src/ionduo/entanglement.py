"""Entanglement and correlation quantifiers.

For a pure state split across a bipartition the I-concurrence is

    C = sqrt(2 (1 - tr rho_A^2)),

bounded by sqrt(2 (d - 1) / d) with d the smaller side dimension.  It is
undefined for mixed states, so mixed evolutions are quantified instead by
the negativity (a one-directional separability witness) and by the
relative-entropy distance to the product of the marginals,

    I(rho) = tr rho (ln rho - ln(rho_A x rho_B)) = S_A + S_B - S_AB,

computed here via the trace formula; the entropy identity serves as an
independent cross-check in the test suite.  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EIG_ZERO,
    DensityMatrix,
    HilbertLayout,
    PureState,
    clipped_eigenvalues,
    partial_trace,
)

# States per batched contraction in i_concurrence_values; bounds the
# conjugate copy the contraction makes to a few megabytes.
_ROWS_PER_BATCH = 1024

# Probability mass tolerated on the null space of the marginal product
# before the relative-entropy measure is reported as +inf.
SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint sets of factor labels covering a layout."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "side_a", tuple(self.side_a))
        object.__setattr__(self, "side_b", tuple(self.side_b))
        if not self.side_a or not self.side_b:
            raise ValueError("both sides of a bipartition must be nonempty")
        if set(self.side_a) & set(self.side_b):
            raise ValueError(f"bipartition sides overlap: {self.side_a} vs {self.side_b}")

    @property
    def labels(self) -> set[str]:
        return set(self.side_a) | set(self.side_b)


def _check_cut(layout: HilbertLayout, cut: Bipartition) -> None:
    """Raise if the cut does not cover the layout exactly."""
    if cut.labels != set(layout.labels):
        raise ValueError(
            f"bipartition {sorted(cut.labels)} does not cover layout factors {sorted(layout.labels)}"
        )


def i_concurrence_pure(psi: PureState, cut: Bipartition) -> float:
    """I-concurrence of a pure state across a bipartition."""
    return float(i_concurrence_values(psi.amplitudes[None, :], psi.layout, cut)[0])


def i_concurrence_values(states: np.ndarray, layout: HilbertLayout, cut: Bipartition) -> np.ndarray:
    """I-concurrence of each row of a (T, dim) array of normalized states on
    ``layout``.

    Raises ValueError if a value exceeds the dimension ceiling, which only
    an unnormalized input can reach.
    """
    _check_cut(layout, cut)
    dim_a = layout.keep(cut.side_a).total_dim
    dim_b = layout.total_dim // dim_a
    d = min(dim_a, dim_b)
    values = np.empty(len(states))
    for start in range(0, len(states), _ROWS_PER_BATCH):
        rows = states[start : start + _ROWS_PER_BATCH]
        tensor = layout.split(rows, cut.side_a)
        if dim_a > dim_b:
            tensor = tensor.swapaxes(1, 2)  # both marginals have the same purity
        marginal = (tensor @ tensor.conj().swapaxes(1, 2)).reshape(len(rows), 1, d * d)
        marginal_purity = (marginal.conj() @ marginal.swapaxes(1, 2)).real.ravel()
        values[start : start + len(rows)] = np.sqrt(np.maximum(0.0, 2.0 * (1.0 - marginal_purity)))
    ceiling = math.sqrt(2.0 * (d - 1) / d)
    worst = float(values.max())
    if worst > ceiling + 1e-10:
        raise ValueError(f"concurrence {worst} exceeds the dimension ceiling {ceiling}")
    return values


def _permute_to_cut(rho: DensityMatrix, cut: Bipartition) -> np.ndarray:
    """Density matrix as a (side_a, side_b, side_a, side_b) tensor, each
    side's factors in layout order."""
    _check_cut(rho.layout, cut)
    rows = rho.layout.split(rho.matrix.T, cut.side_a)  # (column, row a, row b)
    return rho.layout.split(rows.transpose(1, 2, 0), cut.side_a)


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over side_b.

    Zero for every separable state (the converse does not hold), which makes
    this a one-directional entanglement witness valid for mixed states.
    """
    dim = rho.layout.total_dim
    transposed = _permute_to_cut(rho, cut).transpose(0, 3, 2, 1).reshape(dim, dim)
    eigenvalues = np.linalg.eigvalsh(transposed)
    return float(-eigenvalues[eigenvalues < 0].sum())


def relative_entropy_measure(rho: DensityMatrix, cut: Bipartition) -> float:
    """Relative-entropy distance from rho to the product of its marginals,
    tr rho (ln rho - ln(rho_A x rho_B)), in nats.

    Populations below the round-off floor contribute via 0 ln 0 := 0.  If
    rho carries more than SUPPORT_TOL probability outside the support of the
    marginal product (only possible through round-off pathologies), the
    measure is +inf by convention.
    """
    rho_a = partial_trace(rho, cut.side_a)
    rho_b = partial_trace(rho, cut.side_b)

    populations = clipped_eigenvalues(np.linalg.eigvalsh(rho.matrix))
    populations = populations[populations > EIG_ZERO]
    rho_log_rho = float(np.sum(populations * np.log(populations)))

    eig_a, basis_a = np.linalg.eigh(rho_a.matrix)
    eig_b, basis_b = np.linalg.eigh(rho_b.matrix)
    eig_a = clipped_eigenvalues(eig_a)
    eig_b = clipped_eigenvalues(eig_b)

    half = np.einsum("ai,abcd,ci->ibd", basis_a.conj(), _permute_to_cut(rho, cut), basis_a)
    occupation = np.einsum("bj,ibd,dj->ij", basis_b.conj(), half, basis_b).real

    null = (eig_a[:, None] <= EIG_ZERO) | (eig_b[None, :] <= EIG_ZERO)
    if float(occupation[null].sum()) > SUPPORT_TOL:
        return math.inf
    with np.errstate(divide="ignore"):
        log_product = np.log(eig_a)[:, None] + np.log(eig_b)[None, :]
    rho_log_product = float(np.sum(occupation[~null] * log_product[~null]))
    return rho_log_rho - rho_log_product
