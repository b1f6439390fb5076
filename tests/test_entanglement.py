import math

import numpy as np
import pytest

from ionduo import (
    Bipartition,
    DensityMatrix,
    HilbertLayout,
    ION_VS_REST,
    PureState,
    i_concurrence_pure,
    negativity,
    partial_trace,
    prepare_initial,
    purity,
    relative_entropy_measure,
    truncated_coherent,
    von_neumann_entropy,
)
from ionduo.entanglement import i_concurrence_values

QUBIT_PAIR = HilbertLayout((("A", 2), ("B", 2)))
QUTRIT_PAIR = HilbertLayout((("A", 3), ("B", 3)))
CUT_AB = Bipartition(("A",), ("B",))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def bell_pair(layout=QUBIT_PAIR):
    dim_b = layout.dims[1]
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[0] = amps[dim_b + 1] = 1 / math.sqrt(2)
    return PureState(layout, amps)


def random_product_state(rng, dims):
    parts = []
    for dim in dims:
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        parts.append(vec / np.linalg.norm(vec))
    out = parts[0]
    for part in parts[1:]:
        out = np.kron(out, part)
    return out


def random_unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, layout):
    dim = layout.total_dim
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix(layout, mat / np.trace(mat).real)


class TestBipartition:
    def test_sides_must_not_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            Bipartition(("A",), ("A", "B"))

    def test_sides_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            Bipartition((), ("B",))

    def test_cut_must_cover_layout(self, rng):
        psi = PureState(QUTRIT_PAIR, random_product_state(rng, (3, 3)))
        with pytest.raises(ValueError, match="cover"):
            i_concurrence_pure(psi, Bipartition(("A",), ("C",)))


class TestIConcurrence:
    def test_product_state_has_none(self, rng):
        # sqrt(2 (1 - purity)) amplifies the machine-epsilon purity error to
        # the 1e-8 scale for generic product states
        psi = PureState(QUTRIT_PAIR, random_product_state(rng, (3, 3)))
        assert i_concurrence_pure(psi, CUT_AB) <= 1e-7

    def test_bell_state_has_unit(self):
        assert i_concurrence_pure(bell_pair(), CUT_AB) == pytest.approx(1.0, abs=1e-12)

    def test_initial_two_ion_state_closed_form(self):
        # tr rho_1^2 = cos^4 + sin^4, so the concurrence is |sin 2 theta|
        field = truncated_coherent(1.5, 8)
        for theta in np.linspace(0.0, 2 * math.pi, 17):
            for phi in (0.0, 1.1):
                psi = prepare_initial(theta, phi, field)
                expected = abs(math.sin(2 * theta))
                assert i_concurrence_pure(psi, ION_VS_REST) == pytest.approx(expected, abs=1e-10)

    def test_pi_over_six(self):
        field = truncated_coherent(1.5, 8)
        psi = prepare_initial(math.pi / 6, 0.0, field)
        assert i_concurrence_pure(psi, ION_VS_REST) == pytest.approx(
            math.sqrt(3) / 2, abs=1e-12
        )

    def test_invariant_under_local_unitaries(self, rng):
        layout = HilbertLayout((("A", 2), ("B", 3)))
        vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi = PureState(layout, vec / np.linalg.norm(vec))
        reference = i_concurrence_pure(psi, CUT_AB)
        for _ in range(5):
            local = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
            rotated = PureState(layout, local @ psi.amplitudes)
            assert abs(i_concurrence_pure(rotated, CUT_AB) - reference) <= 1e-10

    def test_symmetric_in_the_cut(self, rng):
        layout = HilbertLayout((("A", 2), ("B", 4)))
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(layout, vec / np.linalg.norm(vec))
        forward = i_concurrence_pure(psi, Bipartition(("A",), ("B",)))
        backward = i_concurrence_pure(psi, Bipartition(("B",), ("A",)))
        assert abs(forward - backward) <= 1e-12

    def test_stays_below_dimension_ceiling(self, rng):
        for _ in range(10):
            vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            psi = PureState(QUTRIT_PAIR, vec / np.linalg.norm(vec))
            assert i_concurrence_pure(psi, CUT_AB) <= math.sqrt(4 / 3) + 1e-10

    def test_ceiling_breach_raises_value_error(self):
        # only an unnormalized input can exceed the ceiling; half a Bell pair
        # has marginal purity 1/32 and concurrence sqrt(31) / 4 > sqrt(1 / 2)
        halved = 0.5 * bell_pair().amplitudes
        with pytest.raises(ValueError, match="ceiling"):
            i_concurrence_values(np.stack([bell_pair().amplitudes, halved]), QUBIT_PAIR, CUT_AB)

    def test_rows_match_reduced_state_purity(self, rng):
        # each row against sqrt(2 (1 - tr rho_A^2)) from its own reduced state,
        # on cuts whose factors are out of layout order and on either side
        layout = HilbertLayout((("A", 2), ("B", 3), ("C", 2)))
        rows = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        for cut in (Bipartition(("B",), ("A", "C")), Bipartition(("A", "C"), ("B",))):
            expected = [
                math.sqrt(2.0 * (1.0 - purity(PureState(layout, row).reduced(cut.side_a))))
                for row in rows
            ]
            assert np.abs(i_concurrence_values(rows, layout, cut) - expected).max() <= 1e-12


class TestNegativity:
    def test_product_state_is_ppt(self, rng):
        rho_a = random_density(rng, HilbertLayout((("A", 3),))).matrix
        rho_b = random_density(rng, HilbertLayout((("B", 3),))).matrix
        rho = DensityMatrix(QUTRIT_PAIR, np.kron(rho_a, rho_b))
        assert negativity(rho, CUT_AB) <= 1e-12

    def test_bell_projector_in_qutrits(self):
        # partial-transpose eigenvalues +-1/2 from the 2x2 coherence block
        rho = bell_pair(QUTRIT_PAIR).to_density()
        assert negativity(rho, CUT_AB) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_entangled_qutrits(self):
        amps = np.zeros(9, dtype=complex)
        amps[[0, 4, 8]] = 1 / math.sqrt(3)
        rho = PureState(QUTRIT_PAIR, amps).to_density()
        assert negativity(rho, CUT_AB) == pytest.approx(1.0, abs=1e-12)

    def test_zero_on_separable_mixtures(self, rng):
        dim = 9
        mixture = np.zeros((dim, dim), dtype=complex)
        weights = rng.dirichlet(np.ones(6))
        for w in weights:
            vec = random_product_state(rng, (3, 3))
            mixture += w * np.outer(vec, vec.conj())
        rho = DensityMatrix(QUTRIT_PAIR, mixture)
        assert negativity(rho, CUT_AB) <= 1e-10


class TestRelativeEntropyMeasure:
    def test_product_state_has_zero_distance(self, rng):
        rho_a = random_density(rng, HilbertLayout((("A", 2),))).matrix
        rho_b = random_density(rng, HilbertLayout((("B", 3),))).matrix
        layout = HilbertLayout((("A", 2), ("B", 3)))
        rho = DensityMatrix(layout, np.kron(rho_a, rho_b))
        assert abs(relative_entropy_measure(rho, CUT_AB)) <= 1e-12

    def test_pure_state_gives_twice_marginal_entropy(self, rng):
        layout = HilbertLayout((("A", 3), ("B", 4)))
        vec = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi = PureState(layout, vec / np.linalg.norm(vec))
        rho = psi.to_density()
        expected = 2.0 * von_neumann_entropy(partial_trace(rho, {"B"}))
        assert relative_entropy_measure(rho, CUT_AB) == pytest.approx(expected, abs=1e-9)

    def test_bell_projector(self):
        rho = bell_pair().to_density()
        assert relative_entropy_measure(rho, CUT_AB) == pytest.approx(
            2 * math.log(2), abs=1e-12
        )

    def test_matches_entropy_identity_on_mixed_states(self, rng):
        layout = HilbertLayout((("A", 2), ("B", 3)))
        for _ in range(5):
            rho = random_density(rng, layout)
            identity = (
                von_neumann_entropy(partial_trace(rho, {"A"}))
                + von_neumann_entropy(partial_trace(rho, {"B"}))
                - von_neumann_entropy(rho)
            )
            assert relative_entropy_measure(rho, CUT_AB) == pytest.approx(identity, abs=1e-9)

    def test_initial_state_matches_schmidt_entropy(self):
        # pure state: distance = 2 * binary entropy of (cos^2, sin^2)
        field = truncated_coherent(1.0, 8)
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 7):
            psi = prepare_initial(theta, 0.0, field)
            rho = psi.to_density()
            p = math.cos(theta) ** 2
            expected = -2.0 * (p * math.log(p) + (1 - p) * math.log(1 - p))
            measured = relative_entropy_measure(
                rho, Bipartition(("ion1",), ("ion2", "field"))
            )
            assert measured == pytest.approx(expected, abs=1e-9)

    def test_nonnegative(self, rng):
        layout = HilbertLayout((("A", 2), ("B", 2)))
        for _ in range(5):
            assert relative_entropy_measure(random_density(rng, layout), CUT_AB) >= -1e-9
