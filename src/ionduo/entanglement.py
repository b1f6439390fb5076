"""Entanglement and correlation quantifiers.

For a pure state split across a bipartition the I-concurrence is

    C = sqrt(2 (1 - tr rho_A^2)),

bounded by sqrt(2 (d - 1) / d) with d the smaller side dimension.  It is
undefined for mixed states, so mixed evolutions are quantified instead by
the negativity (a one-directional separability witness) and by the
relative-entropy distance to the product of the marginals,

    I(rho) = tr rho (ln rho - ln(rho_A x rho_B)) = S_A + S_B - S_AB,

computed here from the three entropies; the trace formula serves as an
independent cross-check in the test suite.  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, HilbertLayout, PureState, spectral_entropy


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

    Raises ValueError as concurrence_from_purity does.
    """
    _check_cut(layout, cut)
    dim_a = layout.keep(cut.side_a).total_dim
    dim_b = layout.total_dim // dim_a
    d = min(dim_a, dim_b)
    tensor = layout.split(states, cut.side_a)
    if dim_a > dim_b:
        tensor = tensor.swapaxes(1, 2)  # both marginals have the same purity
    marginal = (tensor @ tensor.conj().swapaxes(1, 2)).reshape(len(states), 1, d * d)
    purity = (marginal.conj() @ marginal.swapaxes(1, 2)).real.ravel()
    return concurrence_from_purity(purity, d)


def concurrence_from_purity(purity: np.ndarray, d: int) -> np.ndarray:
    """I-concurrence sqrt(2 (1 - P)) of marginal purities P, the smaller side
    of the cut having dimension ``d``.

    Raises ValueError if a value exceeds the dimension ceiling, which only
    an unnormalized state can reach.
    """
    values = np.sqrt(np.maximum(0.0, 2.0 * (1.0 - purity)))
    ceiling = math.sqrt(2.0 * (d - 1) / d)
    worst = float(values.max())
    if worst > ceiling + 1e-10:
        raise ValueError(f"concurrence {worst} exceeds the dimension ceiling {ceiling}")
    return values


def _cut_tensor(matrices: np.ndarray, layout: HilbertLayout, cut: Bipartition) -> np.ndarray:
    """(T, d, d) matrices on ``layout`` as (T, side_a, side_b, side_a, side_b)."""
    _check_cut(layout, cut)
    rows = layout.split(matrices.swapaxes(1, 2), cut.side_a)  # (t, column, row a, row b)
    return layout.split(rows.transpose(0, 2, 3, 1), cut.side_a)


def negativity_values(matrices: np.ndarray, layout: HilbertLayout, cut: Bipartition) -> np.ndarray:
    """Negativity, the sum of |negative eigenvalues| of the partial transpose
    over side_b, of each density matrix of a (T, d, d) stack on ``layout``,
    unchecked: milburn_quadrature certifies its chunks, which
    density_from_coordinates turns into rho, and DensityMatrix the rest."""
    dim = layout.total_dim
    transposed = _cut_tensor(matrices, layout, cut).transpose(0, 1, 4, 3, 2)
    eigenvalues = np.linalg.eigvalsh(transposed.reshape(-1, dim, dim))
    return -np.minimum(eigenvalues, 0.0).sum(axis=1)


def negativity(rho: DensityMatrix, cut: Bipartition) -> float:
    """Negativity of one density matrix: negativity_values of one row."""
    return float(negativity_values(rho.matrix[None], rho.layout, cut)[0])


def relative_entropy_values(
    matrices: np.ndarray, layout: HilbertLayout, cut: Bipartition
) -> np.ndarray:
    """S_A + S_B - S_AB of each density matrix of a (T, d, d) stack on
    ``layout``, unchecked but for spectral_entropy's EIG_FLOOR: in the product
    of the marginal eigenbases the diagonal of rho sums to each marginal's spectrum."""
    tensor = _cut_tensor(matrices, layout, cut)
    return (
        spectral_entropy(np.linalg.eigvalsh(np.einsum("tajbj->tab", tensor)))  # side_a marginal
        + spectral_entropy(np.linalg.eigvalsh(np.einsum("tiaib->tab", tensor)))  # side_b marginal
        - spectral_entropy(np.linalg.eigvalsh(matrices))
    )


def relative_entropy_measure(rho: DensityMatrix, cut: Bipartition) -> float:
    """Relative entropy of one density matrix: relative_entropy_values of one row."""
    return float(relative_entropy_values(rho.matrix[None], rho.layout, cut)[0])
