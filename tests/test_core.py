import itertools
import math

import numpy as np
import pytest

from ionduo import (
    DensityMatrix,
    HilbertLayout,
    PureState,
    hermitian_spectrum,
    partial_trace,
    purity,
    von_neumann_entropy,
)
from ionduo.core import reduced_density

LAYOUT_334 = HilbertLayout((("A", 3), ("B", 3), ("C", 4)))
LAYOUT_25 = HilbertLayout((("P", 2), ("Q", 5)))


def subsets(layout, proper=False):
    sizes = range(1, len(layout.labels) + (0 if proper else 1))
    return [set(c) for r in sizes for c in itertools.combinations(layout.labels, r)]


def layout_cases(proper=False):
    return [
        pytest.param(layout, labels, id=",".join(sorted(labels)))
        for layout in (LAYOUT_334, LAYOUT_25)
        for labels in subsets(layout, proper)
    ]


def kept_and_traced(layout, labels):
    """Brute force: the (kept, traced) index pair of every flat index."""
    dims = np.array(layout.dims)
    kept = np.array([label in labels for label in layout.labels])
    pairs = []
    for flat in range(layout.total_dim):
        digits = np.array(np.unravel_index(flat, layout.dims))
        k = np.ravel_multi_index(tuple(digits[kept]), tuple(dims[kept]))
        t = np.ravel_multi_index(tuple(digits[~kept]), tuple(dims[~kept]))
        pairs.append((int(k), int(t)))
    return pairs


def random_pure(rng, layout):
    vec = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    return PureState(layout, vec / np.linalg.norm(vec))


def random_density(rng, layout):
    dim = layout.total_dim
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix(layout, mat / np.trace(mat).real)


def random_unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


class TestHilbertLayout:
    def test_total_dim_is_product(self):
        assert LAYOUT_334.total_dim == 36
        assert LAYOUT_334.dims == (3, 3, 4)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            HilbertLayout((("A", 2), ("A", 3)))

    def test_keep_preserves_order(self):
        assert LAYOUT_334.keep({"C", "A"}).labels == ("A", "C")


class TestSplit:
    @pytest.mark.parametrize("layout, labels", layout_cases())
    def test_matches_unravel_table(self, layout, labels):
        pairs = kept_and_traced(layout, labels)
        table = np.zeros((max(k for k, _ in pairs) + 1, max(t for _, t in pairs) + 1), dtype=int)
        for flat, (k, t) in enumerate(pairs):
            table[k, t] = flat
        np.testing.assert_array_equal(layout.split(np.arange(layout.total_dim), labels), table)
        rows = np.arange(3 * layout.total_dim).reshape(3, 1, layout.total_dim)
        expected = table + layout.total_dim * np.arange(3)[:, None, None, None]
        np.testing.assert_array_equal(layout.split(rows, labels), expected)

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            LAYOUT_334.split(np.arange(36), {"A", "Z"})


class TestPartialTrace:
    @pytest.mark.parametrize("layout, labels", layout_cases(proper=True))
    def test_mixed_state_matches_index_sum(self, rng, layout, labels):
        rho = random_density(rng, layout)
        pairs = kept_and_traced(layout, labels)
        dim_keep = layout.keep(labels).total_dim
        oracle = np.zeros((dim_keep, dim_keep), dtype=complex)
        for i, (ki, ti) in enumerate(pairs):
            for j, (kj, tj) in enumerate(pairs):
                if ti == tj:
                    oracle[ki, kj] += rho.matrix[i, j]
        reduced = partial_trace(rho, labels)
        assert reduced.layout == layout.keep(labels)
        assert np.abs(reduced.matrix - oracle).max() <= 1e-12

    @pytest.mark.parametrize("layout, labels", layout_cases(proper=True))
    def test_reduced_density_equals_partial_trace_of_projector(self, rng, layout, labels):
        psi = random_pure(rng, layout)
        direct = reduced_density(psi.amplitudes, layout, labels)
        assert np.abs(direct.matrix - partial_trace(psi.to_density(), labels).matrix).max() <= 1e-12

    def test_product_state_recovers_factor(self):
        rho_a = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        rho_b = np.diag([0.5, 0.25, 0.25]).astype(complex)
        layout = HilbertLayout((("A", 2), ("B", 3)))
        rho = DensityMatrix(layout, np.kron(rho_a, rho_b))
        reduced = partial_trace(rho, {"A"})
        np.testing.assert_allclose(reduced.matrix, rho_a, atol=1e-15)

    def test_bell_projector_keeps_maximally_mixed(self):
        layout = HilbertLayout((("A", 2), ("B", 2)))
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        reduced = partial_trace(PureState(layout, bell).to_density(), {"A"})
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)

    def test_matches_index_summation_oracle(self, rng):
        # oracle: rho_AB[jk, j'k'] = sum_m <j k m|psi><psi|j' k' m>
        psi = random_pure(rng, LAYOUT_334)
        tensor = psi.amplitudes.reshape(3, 3, 4)
        oracle = np.zeros((9, 9), dtype=complex)
        for j in range(3):
            for k in range(3):
                for jp in range(3):
                    for kp in range(3):
                        oracle[j * 3 + k, jp * 3 + kp] = sum(
                            tensor[j, k, m] * np.conj(tensor[jp, kp, m]) for m in range(4)
                        )
        reduced = partial_trace(psi.to_density(), {"A", "B"})
        assert np.abs(reduced.matrix - oracle).max() <= 1e-12

    def test_discard_order_commutes(self, rng):
        rho = random_density(rng, LAYOUT_334)
        sequential = partial_trace(partial_trace(rho, {"A", "B"}), {"A"})
        at_once = partial_trace(rho, {"A"})
        assert np.abs(sequential.matrix - at_once.matrix).max() <= 1e-12

    def test_every_single_factor_reduction_is_valid(self, rng):
        psi = random_pure(rng, LAYOUT_334)
        for label in LAYOUT_334.labels:
            reduced = psi.reduced({label})
            assert isinstance(reduced, DensityMatrix)  # invariants checked on construction
            assert reduced.layout.labels == (label,)

    def test_unknown_label_rejected(self, rng):
        with pytest.raises(KeyError):
            partial_trace(random_density(rng, LAYOUT_334), {"Z"})

    def test_keeping_everything_rejected(self, rng):
        with pytest.raises(ValueError, match="no-op"):
            partial_trace(random_density(rng, LAYOUT_334), {"A", "B", "C"})


class TestHermitianSpectrum:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_spectrum(np.eye(3)).eigenvalues, [1, 1, 1])

    def test_diagonal_is_sorted(self):
        spectrum = hermitian_spectrum(np.diag([2.0, -1.0, 0.0]))
        np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 0.0, 2.0])

    def test_exchange_coupling(self):
        spectrum = hermitian_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 1.0])

    def test_eigenvalue_sum_equals_trace(self, rng):
        raw = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        matrix = raw + raw.conj().T
        spectrum = hermitian_spectrum(matrix)
        assert abs(spectrum.eigenvalues.sum() - np.trace(matrix).real) <= 1e-10

    def test_reconstruction_and_unitarity(self, rng):
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        matrix = raw + raw.conj().T
        spectrum = hermitian_spectrum(matrix)
        rebuilt = (spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.conj().T
        rel = np.linalg.norm(rebuilt - matrix) / np.linalg.norm(matrix)
        assert rel <= 1e-10
        gram = spectrum.eigenvectors.conj().T @ spectrum.eigenvectors
        assert np.abs(gram - np.eye(6)).max() <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEntropy:
    def test_pure_projector_is_zero(self):
        layout = HilbertLayout((("A", 3),))
        psi = PureState(layout, np.array([1.0, 0.0, 0.0], dtype=complex))
        assert abs(von_neumann_entropy(psi.to_density())) <= 1e-12

    def test_maximally_mixed_qubit(self):
        layout = HilbertLayout((("A", 2),))
        rho = DensityMatrix(layout, np.eye(2) / 2)
        assert abs(von_neumann_entropy(rho) - math.log(2)) <= 1e-12

    def test_binary_distribution(self):
        # -0.9 ln 0.9 - 0.1 ln 0.1, evaluated directly
        layout = HilbertLayout((("A", 2),))
        rho = DensityMatrix(layout, np.diag([0.9, 0.1]).astype(complex))
        assert abs(von_neumann_entropy(rho) - 0.3250829733914482) <= 1e-12

    def test_invariant_under_unitary_conjugation(self, rng):
        layout = HilbertLayout((("A", 5),))
        rho = random_density(rng, layout)
        u = random_unitary(rng, 5)
        rotated = DensityMatrix(layout, u @ rho.matrix @ u.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-9


class TestPurity:
    def test_pure_projector(self, rng):
        psi = random_pure(rng, HilbertLayout((("A", 4),)))
        assert abs(purity(psi.to_density()) - 1.0) <= 1e-12

    def test_maximally_mixed(self):
        rho = DensityMatrix(HilbertLayout((("A", 3),)), np.eye(3) / 3)
        assert abs(purity(rho) - 1 / 3) <= 1e-12

    def test_diagonal_case(self):
        rho = DensityMatrix(HilbertLayout((("A", 3),)), np.diag([0.5, 0.25, 0.25]).astype(complex))
        assert abs(purity(rho) - 0.375) <= 1e-12

    def test_bounds(self, rng):
        layout = HilbertLayout((("A", 6),))
        value = purity(random_density(rng, layout))
        assert 1 / 6 - 1e-10 <= value <= 1 + 1e-10


class TestStateInvariants:
    def test_unnormalized_pure_state_rejected(self):
        layout = HilbertLayout((("A", 2),))
        with pytest.raises(ValueError, match="normalized"):
            PureState(layout, np.array([1.0, 1.0], dtype=complex))

    def test_non_hermitian_density_rejected(self):
        layout = HilbertLayout((("A", 2),))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(layout, np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_wrong_trace_rejected(self):
        layout = HilbertLayout((("A", 2),))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(layout, np.eye(2, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        layout = HilbertLayout((("A", 2),))
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(layout, np.diag([1.5, -0.5]).astype(complex))

    def test_states_are_immutable(self, rng):
        psi = random_pure(rng, LAYOUT_334)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0
