import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import logm

from ionduo import (
    Bipartition,
    HilbertLayout,
    ION_VS_REST,
    PureState,
    prepare_initial,
    truncated_coherent,
)
from ionduo import SimParams
from ionduo.core import DensityMatrix, spectral_entropy
from ionduo.dynamics import UnsupportedRegimeError, density_from_coordinates, milburn_quadrature
from ionduo.entanglement import i_concurrence_pure, negativity, relative_entropy_measure
from ionduo.selftest import i_concurrence_values, partial_trace, pure_density

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
            i_concurrence_values(psi.amplitudes[None], psi.layout, Bipartition(("A",), ("C",)))[0]


class TestIConcurrence:
    def test_product_state_has_none(self, rng):
        # sqrt(2 (1 - purity)) amplifies the machine-epsilon purity error to
        # the 1e-8 scale for generic product states
        psi = PureState(QUTRIT_PAIR, random_product_state(rng, (3, 3)))
        assert i_concurrence_values(psi.amplitudes[None], psi.layout, CUT_AB)[0] <= 1e-7

    def test_bell_state_has_unit(self):
        rows = bell_pair().amplitudes[None]
        assert i_concurrence_values(rows, QUBIT_PAIR, CUT_AB)[0] == pytest.approx(1.0, abs=1e-12)

    def test_initial_two_ion_state_closed_form(self):
        # tr rho_1^2 = cos^4 + sin^4, so the concurrence is |sin 2 theta|
        field = truncated_coherent(1.5, 8)
        for theta in np.linspace(0.0, 2 * math.pi, 17):
            for phi in (0.0, 1.1):
                psi = prepare_initial(theta, phi, field)
                expected = abs(math.sin(2 * theta))
                value = i_concurrence_values(psi.amplitudes[None], psi.layout, ION_VS_REST)[0]
                assert value == pytest.approx(expected, abs=1e-10)

    def test_pi_over_six(self):
        field = truncated_coherent(1.5, 8)
        psi = prepare_initial(math.pi / 6, 0.0, field)
        value = i_concurrence_values(psi.amplitudes[None], psi.layout, ION_VS_REST)[0]
        assert value == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_invariant_under_local_unitaries(self, rng):
        layout = HilbertLayout((("A", 2), ("B", 3)))
        vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi = PureState(layout, vec / np.linalg.norm(vec))
        reference = i_concurrence_values(psi.amplitudes[None], psi.layout, CUT_AB)[0]
        for _ in range(5):
            local = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
            rotated = PureState(layout, local @ psi.amplitudes)
            value = i_concurrence_values(rotated.amplitudes[None], layout, CUT_AB)[0]
            assert abs(value - reference) <= 1e-10

    def test_symmetric_in_the_cut(self, rng):
        layout = HilbertLayout((("A", 2), ("B", 4)))
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(layout, vec / np.linalg.norm(vec))
        rows = psi.amplitudes[None]
        forward = i_concurrence_values(rows, layout, Bipartition(("A",), ("B",)))[0]
        backward = i_concurrence_values(rows, layout, Bipartition(("B",), ("A",)))[0]
        assert abs(forward - backward) <= 1e-12

    def test_stays_below_dimension_ceiling(self, rng):
        for _ in range(10):
            vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            psi = PureState(QUTRIT_PAIR, vec / np.linalg.norm(vec))
            value = i_concurrence_values(psi.amplitudes[None], psi.layout, CUT_AB)[0]
            assert value <= math.sqrt(4 / 3) + 1e-10

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
            marginals = [
                partial_trace(pure_density(PureState(layout, row)), cut.side_a).matrix
                for row in rows
            ]
            expected = [math.sqrt(2.0 * (1.0 - np.vdot(m, m).real)) for m in marginals]
            assert np.abs(i_concurrence_values(rows, layout, cut) - expected).max() <= 1e-12


class TestConcurrenceFromPurity:
    def test_pure_marginal_has_none(self):
        assert i_concurrence_pure(np.array([1.0]), 3)[0] == 0.0

    def test_round_off_above_one_gives_zero(self):
        values = i_concurrence_pure(np.array([1.0 + 1e-15]), 2)
        assert values[0] == 0.0

    def test_diagonal_marginal(self):
        # diag(1/2, 1/4, 1/4) has purity 3/8, so the concurrence is sqrt(5 / 4)
        assert abs(i_concurrence_pure(np.array([0.375]), 3)[0] - math.sqrt(1.25)) <= 1e-15

    def test_maximally_mixed_marginal_reaches_the_ceiling(self):
        values = i_concurrence_pure(np.array([1 / 3, 1 / 2]), 3)
        assert abs(values[0] - math.sqrt(4 / 3)) <= 1e-15
        assert abs(values[1] - 1.0) <= 1e-15

    def test_purity_below_one_over_d_raises(self):
        with pytest.raises(ValueError, match="ceiling"):
            i_concurrence_pure(np.array([0.9, 0.2]), 3)


class TestNegativity:
    def test_product_state_is_ppt(self, rng):
        rho_a = random_density(rng, HilbertLayout((("A", 3),))).matrix
        rho_b = random_density(rng, HilbertLayout((("B", 3),))).matrix
        rho = DensityMatrix(QUTRIT_PAIR, np.kron(rho_a, rho_b))
        assert negativity(rho.matrix[None], rho.layout, CUT_AB)[0] <= 1e-12

    def test_bell_projector_in_qutrits(self):
        # partial-transpose eigenvalues +-1/2 from the 2x2 coherence block
        rho = pure_density(bell_pair(QUTRIT_PAIR))
        assert negativity(rho.matrix[None], rho.layout, CUT_AB)[0] == pytest.approx(0.5, abs=1e-12)

    def test_maximally_entangled_qutrits(self):
        amps = np.zeros(9, dtype=complex)
        amps[[0, 4, 8]] = 1 / math.sqrt(3)
        rho = pure_density(PureState(QUTRIT_PAIR, amps))
        assert negativity(rho.matrix[None], rho.layout, CUT_AB)[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_on_separable_mixtures(self, rng):
        dim = 9
        mixture = np.zeros((dim, dim), dtype=complex)
        weights = rng.dirichlet(np.ones(6))
        for w in weights:
            vec = random_product_state(rng, (3, 3))
            mixture += w * np.outer(vec, vec.conj())
        rho = DensityMatrix(QUTRIT_PAIR, mixture)
        assert negativity(rho.matrix[None], rho.layout, CUT_AB)[0] <= 1e-10


def product_of_marginals(rho, cut):
    """rho_A x rho_B as a matrix on rho's layout, its factors back in layout
    order."""
    layout = rho.layout
    order = [label for label in layout.labels if label in cut.side_a] + [
        label for label in layout.labels if label in cut.side_b
    ]
    product = np.kron(partial_trace(rho, cut.side_a).matrix, partial_trace(rho, cut.side_b).matrix)
    dims = [dict(layout.factors)[label] for label in order]
    back = [order.index(label) for label in layout.labels]
    tensor = product.reshape(dims + dims).transpose(back + [len(dims) + i for i in back])
    return tensor.reshape(layout.total_dim, layout.total_dim)


def relative_entropy_by_definition(rho, cut):
    """tr rho (ln rho - ln(rho_A x rho_B)) with matrix logarithms."""
    difference = logm(rho.matrix) - logm(product_of_marginals(rho, cut))
    return float(np.trace(rho.matrix @ difference).real)


LAYOUT_23 = HilbertLayout((("A", 2), ("B", 3)))
LAYOUT_223 = HilbertLayout((("A", 2), ("B", 2), ("C", 3)))
LAYOUT_322 = HilbertLayout((("A", 3), ("B", 2), ("C", 2)))
ORACLE_CASES = [
    pytest.param(
        layout,
        Bipartition(side_a, side_b),
        id="x".join(map(str, layout.dims)) + f"-{''.join(side_a)}|{''.join(side_b)}",
    )
    for layout, cuts in (
        (LAYOUT_23, [(("A",), ("B",)), (("B",), ("A",))]),
        (QUTRIT_PAIR, [(("A",), ("B",))]),
        (LAYOUT_223, [(("A",), ("B", "C")), (("B",), ("A", "C")), (("C",), ("A", "B"))]),
        (LAYOUT_322, [(("A", "C"), ("B",)), (("C",), ("B", "A")), (("A", "B"), ("C",))]),
    )
    for side_a, side_b in cuts
]


class TestRelativeEntropyMeasure:
    @pytest.mark.parametrize("layout, cut", ORACLE_CASES)
    def test_matches_matrix_logarithm_definition(self, rng, layout, cut):
        for _ in range(3):
            rho = random_density(rng, layout)  # full rank, so both logarithms exist
            expected = relative_entropy_by_definition(rho, cut)
            measured = relative_entropy_measure(rho.matrix[None], layout, cut)[0]
            assert abs(measured - expected) <= 1e-10

    def test_product_state_has_zero_distance(self, rng):
        rho_a = random_density(rng, HilbertLayout((("A", 2),))).matrix
        rho_b = random_density(rng, HilbertLayout((("B", 3),))).matrix
        layout = HilbertLayout((("A", 2), ("B", 3)))
        rho = DensityMatrix(layout, np.kron(rho_a, rho_b))
        assert abs(relative_entropy_measure(rho.matrix[None], rho.layout, CUT_AB)[0]) <= 1e-12

    def test_pure_state_gives_twice_marginal_entropy(self, rng):
        layout = HilbertLayout((("A", 3), ("B", 4)))
        vec = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi = PureState(layout, vec / np.linalg.norm(vec))
        rho = pure_density(psi)
        expected = 2.0 * spectral_entropy(np.linalg.eigvalsh(partial_trace(rho, {"B"}).matrix))
        measured = relative_entropy_measure(rho.matrix[None], layout, CUT_AB)[0]
        assert measured == pytest.approx(expected, abs=1e-9)

    def test_bell_projector(self):
        rho = pure_density(bell_pair())
        assert relative_entropy_measure(rho.matrix[None], rho.layout, CUT_AB)[0] == pytest.approx(
            2 * math.log(2), abs=1e-12
        )

    def test_matches_entropy_identity_on_mixed_states(self, rng):
        layout = HilbertLayout((("A", 2), ("B", 3)))
        for _ in range(5):
            rho = random_density(rng, layout)
            marginals = [partial_trace(rho, {label}).matrix for label in ("A", "B")]
            s_a, s_b, s_ab = (
                spectral_entropy(np.linalg.eigvalsh(m)) for m in (*marginals, rho.matrix)
            )
            identity = s_a + s_b - s_ab
            measured = relative_entropy_measure(rho.matrix[None], layout, CUT_AB)[0]
            assert measured == pytest.approx(identity, abs=1e-9)

    def test_initial_state_matches_schmidt_entropy(self):
        # pure state: distance = 2 * binary entropy of (cos^2, sin^2)
        field = truncated_coherent(1.0, 8)
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 7):
            psi = prepare_initial(theta, 0.0, field)
            rho = pure_density(psi)
            p = math.cos(theta) ** 2
            expected = -2.0 * (p * math.log(p) + (1 - p) * math.log(1 - p))
            measured = relative_entropy_measure(
                rho.matrix[None], rho.layout, Bipartition(("ion1",), ("ion2", "field"))
            )[0]
            assert measured == pytest.approx(expected, abs=1e-9)

    def test_nonnegative(self, rng):
        layout = HilbertLayout((("A", 2), ("B", 2)))
        for _ in range(5):
            rho = random_density(rng, layout)
            assert relative_entropy_measure(rho.matrix[None], layout, CUT_AB)[0] >= -1e-9


# Every shape of kept factors a bipartition can name, the full cut included.
CUT_SHAPES = (
    Bipartition(("ion1",), ("ion2",)),
    Bipartition(("ion1",), ("field",)),
    Bipartition(("field",), ("ion2",)),
    Bipartition(("ion1",), ("ion2", "field")),
    Bipartition(("ion2", "field"), ("ion1",)),
)
couplings = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
BATCHED = [
    pytest.param(negativity, negativity, id="negativity"),
    pytest.param(relative_entropy_measure, relative_entropy_measure, id="relative_entropy"),
]


class TestBatchedMeasures:
    @pytest.mark.parametrize("batched, per_row", BATCHED)
    @pytest.mark.parametrize("cut", CUT_SHAPES)
    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_chunk_matches_the_per_row_density_matrix_route(self, batched, per_row, cut, gamma):
        params = SimParams(fock_cutoff=4, nbar=1.0, gamma=gamma, epsilon=0.8, theta=0.6, phi=0.4)
        psi0 = prepare_initial(params.theta, params.phi, truncated_coherent(1.0, 4))
        layout = psi0.layout.keep(cut.labels)
        (coordinates,) = milburn_quadrature(psi0, params, np.linspace(0.0, 20.0, 9), cut.labels)
        chunk = density_from_coordinates(coordinates)
        rows = [DensityMatrix(layout, rho).matrix[None] for rho in chunk]
        expected = [per_row(row, layout, cut)[0] for row in rows]
        assert np.abs(batched(chunk, layout, cut) - expected).max() <= 1e-12

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda m: m + np.triu(np.full(m.shape, 1e-9), 1), "matrix is not Hermitian"),
            (lambda m: m * (1 + 1e-8), "matrix is not unit trace"),
            (lambda m: m + 1e-6 * np.diag([8.0] + [-1.0] * 8), "matrix is not positive"),
        ],
        ids=["hermiticity", "trace", "floor"],
    )
    def test_spoiled_matrix_handed_in_is_refused(self, spoil, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(QUTRIT_PAIR, spoil(np.diag([1.0] + [0.0] * 8)))

    def test_one_row_below_the_floor_fails_the_relative_entropy_chunk(self, rng):
        chunk = np.stack([random_density(rng, QUTRIT_PAIR).matrix for _ in range(3)])
        chunk[1] = np.diag([1.0 + 8e-6] + [-1e-6] * 8)  # the floor spoil of a product state
        with pytest.raises(ValueError, match="below the clipping floor"):
            relative_entropy_measure(chunk, QUTRIT_PAIR, CUT_AB)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        cut=st.sampled_from(CUT_SHAPES),
        fock_cutoff=st.integers(3, 8),
        nbar=st.floats(0.0, 2.0),
        gamma=st.floats(0.0, 1.0),
        lambda1=couplings,
        lambda2=couplings,
        eta=st.floats(0.0, 1.0),
        epsilon=st.floats(0.01, 1.0),
        theta=st.floats(0.0, 2 * math.pi),
        phi=st.floats(0.0, math.pi),
        later=st.lists(st.floats(0.01, 30.0), min_size=1, max_size=4, unique=True),
    )
    def test_every_channel_chunk_passes_the_density_checks(
        self, cut, fock_cutoff, nbar, gamma, lambda1, lambda2, eta, epsilon, theta, phi, later
    ):
        # The certificate the measures rely on instead of checking their input:
        # each row of each chunk passes DensityMatrix at the package tolerances.
        params = SimParams(
            fock_cutoff=fock_cutoff,
            nbar=nbar,
            gamma=gamma,
            lambda1=lambda1,
            lambda2=lambda2,
            eta=eta,
            epsilon=epsilon,
            theta=theta,
            phi=phi,
        )
        psi0 = prepare_initial(theta, phi, truncated_coherent(nbar, fock_cutoff))
        layout = psi0.layout.keep(cut.labels)
        times = [0.0] + sorted(later)
        try:
            chunks = list(milburn_quadrature(psi0, params, times, cut.labels))
        except UnsupportedRegimeError:  # no certified rule: refused, not approximated
            reject()
        assert sum(len(chunk) for chunk in chunks) == len(times)
        for rho in density_from_coordinates(np.concatenate(chunks)):
            DensityMatrix(layout, rho)
