import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from ionduo import Sech, SimParams, get_block_system, mode_function
from ionduo import ionmodel
from ionduo.ionmodel import (
    LEVEL_INDEX,
    BlockSystem,
    CutoffError,
    block_couplings,
    block_frequencies,
    build_block,
    build_full_hamiltonian,
    closed_form_spectrum,
    evolvable_blocks,
    mode_couplings,
)
from ionduo.selftest import block_index, full_index

CANONICAL_NINE = (
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


def block_positions(n, fock_cutoff):
    """Full-layout indices of the states of block n, in layout order."""
    return np.flatnonzero(block_index(fock_cutoff) == n)


def assemble_from_blocks(params):
    """Direct sum of the evolvable blocks' coupling matrices under the
    block-to-full embedding, and the full indices of their states."""
    dim = 9 * (params.fock_cutoff + 1)
    h = np.zeros((dim, dim), dtype=np.complex128)
    kept = []
    for n in evolvable_blocks(params.fock_cutoff):
        positions = block_positions(n, params.fock_cutoff)
        h[np.ix_(positions, positions)] = build_block(n, params).coupling
        kept.append(positions)
    return h, np.concatenate(kept)


def block_states(n, params):
    """(fock, ion1 level, ion2 level) of each state of block n, in order,
    read off the block's positions in the full layout."""
    positions = block_positions(n, params.fock_cutoff)
    ion1, ion2, fock = np.unravel_index(positions, (3, 3, params.fock_cutoff + 1))
    states = [(int(f), "abc"[i], "abc"[j]) for f, i, j in zip(fock, ion1, ion2)]
    assert [full_index(*state, params.fock_cutoff) for state in states] == positions.tolist()
    return states


def fig_params(fock_cutoff=12, **overrides):
    return SimParams(fock_cutoff=fock_cutoff, **overrides)


def closed_form_mode(m, params):
    """E(m) = -(epsilon / 2) L_m(eta^2) exp(-eta^2 / 2) from scipy's Laguerre
    polynomials."""
    x = params.eta**2
    return -0.5 * params.epsilon * eval_laguerre(m, x) * math.exp(-x / 2)


def scalar_frequencies(n, params):
    """(Omega_n, omega_n) of block n from its scalar closed form, with
    g(m) = sqrt(m) E(m) and g(m <= 0) = 0."""
    mode = mode_function(params)

    def g(m):
        return math.sqrt(m) * mode[m] if m > 0 else 0.0

    big = math.hypot(abs(params.lambda1), abs(params.lambda2))
    return big * math.sqrt(2) * math.hypot(g(n + 1), g(n + 2)), big * abs(g(n + 2))


class TestModeFunction:
    def test_unit_limit(self):
        # eta = 0, epsilon = 1: every factor is unity
        params = fig_params(eta=0.0, epsilon=1.0)
        assert mode_function(params)[0] == pytest.approx(-0.5, abs=1e-15)

    def test_first_excited_value(self):
        # -(1/2) (1 - eta^2) exp(-eta^2/2)
        params = fig_params(eta=0.202, epsilon=1.0)
        assert mode_function(params)[1] == pytest.approx(-0.46991238056863593, abs=1e-14)

    @pytest.mark.parametrize("cutoff", [1, 2, 7, 30, 200])
    def test_against_scipy(self, cutoff):
        # 1 and sqrt(2 - sqrt 2) are roots of L_1 and L_2
        for eta in [*np.linspace(0.0, 3.0, 13), 1.0, math.sqrt(2 - math.sqrt(2))]:
            for epsilon in (0.7, -0.01):
                params = fig_params(fock_cutoff=cutoff, eta=eta, epsilon=epsilon)
                expected = [closed_form_mode(m, params) for m in range(cutoff + 1)]
                tolerance = dict(rel=1e-10, abs=1e-10 * abs(epsilon))
                assert mode_function(params) == pytest.approx(expected, **tolerance)


def oracle_matrix_element(bra, ket, params):
    """<bra|H|ket> computed by applying the coupling terms to |ket> state
    by state: each ion in level a is raised (a->b with lambda1, a->c with
    lambda2) while the phonon number climbs by one, plus the conjugate
    lowering terms."""
    fock, l1, l2 = ket
    amplitudes = {}

    def add(state, amp):
        amplitudes[state] = amplitudes.get(state, 0.0 + 0.0j) + amp

    if fock + 1 <= params.fock_cutoff:
        up = math.sqrt(fock + 1) * closed_form_mode(fock + 1, params)
        if l1 == "a":
            add((fock + 1, "b", l2), params.lambda1 * up)
            add((fock + 1, "c", l2), params.lambda2 * up)
        if l2 == "a":
            add((fock + 1, l1, "b"), params.lambda1 * up)
            add((fock + 1, l1, "c"), params.lambda2 * up)
    if fock >= 1:
        down = math.sqrt(fock) * closed_form_mode(fock, params)
        if l1 in ("b", "c"):
            lam = params.lambda1 if l1 == "b" else params.lambda2
            add((fock - 1, "a", l2), np.conj(lam) * down)
        if l2 in ("b", "c"):
            lam = params.lambda1 if l2 == "b" else params.lambda2
            add((fock - 1, l1, "a"), np.conj(lam) * down)
    return amplitudes.get(bra, 0.0 + 0.0j)


class TestBlockPositions:
    def test_interior_block_has_canonical_order(self):
        for n in (0, 3):
            assert block_states(n, fig_params()) == [
                (n + off, l1, l2) for off, l1, l2 in CANONICAL_NINE
            ]

    def test_floor_blocks_drop_negative_fock(self):
        assert block_states(-1, fig_params()) == [
            (off - 1, l1, l2) for off, l1, l2 in CANONICAL_NINE[1:]
        ]
        assert block_states(-2, fig_params()) == [
            (0, "b", "b"),
            (0, "b", "c"),
            (0, "c", "b"),
            (0, "c", "c"),
        ]
        for n, size in ((-1, 8), (-2, 4)):
            assert block_positions(n, 12).size == size
            assert build_block(n, fig_params()).coupling.shape == (size, size)

    def test_all_fock_indices_within_cutoff(self):
        params = fig_params(fock_cutoff=6)
        for n in evolvable_blocks(6):
            for fock, l1, l2 in block_states(n, params):
                assert 0 <= fock <= 6
                assert fock - (l1 != "a") - (l2 != "a") == n

    def test_partition_covers_full_space_exactly_once(self):
        cutoff = 9
        seen = np.concatenate([block_positions(n, cutoff) for n in evolvable_blocks(cutoff)])
        ceiling = np.flatnonzero(block_index(cutoff) > evolvable_blocks(cutoff)[-1])
        everything = np.concatenate([seen, ceiling])
        assert np.array_equal(np.sort(everything), np.arange(9 * (cutoff + 1)))


class TestBuildBlock:
    def test_vacuum_floor_block_is_static(self):
        block = build_block(-2, fig_params())
        assert block.coupling.shape == (4, 4)
        assert np.abs(block.coupling).max() == 0.0

    def test_lambda2_zero_decouples_c_states(self):
        params = fig_params(lambda2=0.0)
        block = build_block(0, params)
        states = block_states(0, params)
        has_c = [i for i, (_, l1, l2) in enumerate(states) if "c" in (l1, l2)]
        no_c = [i for i in range(len(states)) if i not in has_c]
        assert np.abs(block.coupling[np.ix_(has_c, no_c)]).max() == 0.0

    def test_against_dense_operator_oracle(self):
        params = fig_params(lambda1=1.0, lambda2=0.01, eta=0.202, epsilon=0.01)
        block = build_block(0, params)
        states = block_states(0, params)
        worst = 0.0
        for j, bra in enumerate(states):
            for k, ket in enumerate(states):
                expected = oracle_matrix_element(bra, ket, params)
                worst = max(worst, abs(block.coupling[j, k] - expected))
        assert worst <= 1e-12

    def test_oracle_on_floor_block_and_complex_couplings(self):
        params = fig_params(lambda1=np.exp(0.3j), lambda2=0.01j, eta=0.25, epsilon=0.4)
        block = build_block(-1, params)
        states = block_states(-1, params)
        for j, bra in enumerate(states):
            for k, ket in enumerate(states):
                assert block.coupling[j, k] == pytest.approx(
                    oracle_matrix_element(bra, ket, params), abs=1e-12
                )

    def test_hermiticity(self):
        block = build_block(2, fig_params(lambda1=np.exp(1.1j), lambda2=0.3 + 0.2j))
        assert np.abs(block.coupling - block.coupling.conj().T).max() <= 1e-12

    def test_cutoff_violation_rejected(self):
        with pytest.raises(CutoffError):
            build_block(11, fig_params(fock_cutoff=12))

    def test_spectrum_symmetric_about_zero_for_real_couplings(self):
        params = fig_params(lambda1=1.0, lambda2=0.3)
        for n in range(0, 9):
            eigs = build_block(n, params).spectrum.eigenvalues
            assert np.abs(eigs + eigs[::-1]).max() <= 1e-10


STRENGTH = st.one_of(st.just(0.0), st.floats(0.01, 2.0))


class TestClosedFormSpectrum:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        cutoff=st.integers(1, 30),
        magnitudes=st.tuples(STRENGTH, STRENGTH),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        eta=st.floats(0.0, 1.5),
        epsilon=st.one_of(st.just(0.0), st.floats(0.001, 1.0), st.floats(-1.0, -0.001)),
    )
    def test_block_spectra_match_bright_dark_closed_form(
        self, cutoff, magnitudes, phases, eta, epsilon
    ):
        lambda1, lambda2 = (cmath.rect(r, a) for r, a in zip(magnitudes, phases))
        params = SimParams(
            fock_cutoff=cutoff,
            lambda1=lambda1,
            lambda2=lambda2,
            eta=eta,
            epsilon=epsilon,
        )
        scale = math.hypot(*magnitudes) * float(np.abs(mode_couplings(params)).max())
        table = np.linalg.eigvalsh(block_couplings(params))
        closed_table, _ = closed_form_spectrum(block_frequencies(params))
        assert closed_table.shape == (cutoff + 1, 9)
        for i, n in enumerate(evolvable_blocks(cutoff)):
            closed = closed_table[i]
            assert np.abs(table[i] - closed).max() <= 1e-12 * scale
            # a state the block lacks adds one zero to the closed form
            eigenvalues = build_block(n, params).spectrum.eigenvalues
            padded = np.sort(np.concatenate([eigenvalues, np.zeros(9 - eigenvalues.size)]))
            assert np.abs(padded - closed).max() <= 1e-12 * scale

    def test_interior_spectrum_by_hand(self):
        # lambda2 = 0 leaves one bright level; n = 0 couples with g(1), g(2)
        params = fig_params(lambda1=1.0, lambda2=0.0, eta=0.0, epsilon=-2.0)
        omega = math.sqrt(2 * (1.0 + 2.0))  # g(m) = sqrt(m) at eta = 0, epsilon = -2
        side = math.sqrt(2.0)
        expected = sorted([0.0, 0.0, 0.0, omega, -omega, side, -side, side, -side])
        closed, _ = closed_form_spectrum(block_frequencies(params)[2])  # block 0 in row 2
        assert np.allclose(closed, expected, rtol=0, atol=1e-15)
        eigenvalues = build_block(0, params).spectrum.eigenvalues
        assert np.allclose(eigenvalues, expected, rtol=0, atol=1e-14)


class TestSpectralTable:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        cutoff=st.integers(1, 8),
        magnitudes=st.tuples(STRENGTH, STRENGTH),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        # 1 and sqrt(2 - sqrt 2) are roots of L_1 and L_2: g(1) or g(2) vanishes
        eta=st.one_of(st.sampled_from([1.0, math.sqrt(2 - math.sqrt(2))]), st.floats(0.0, 1.5)),
        epsilon=st.one_of(st.floats(0.001, 1.0), st.floats(-1.0, -0.001)),
    )
    def test_projectors_resolve_each_block(
        self, cutoff, magnitudes, phases, eta, epsilon
    ):
        lambda1, lambda2 = (cmath.rect(r, a) for r, a in zip(magnitudes, phases))
        params = SimParams(
            fock_cutoff=cutoff,
            lambda1=lambda1,
            lambda2=lambda2,
            eta=eta,
            epsilon=epsilon,
        )
        system = BlockSystem(params)
        scale = math.hypot(*magnitudes) * float(np.abs(mode_couplings(params)).max())
        offsets = np.array([off for off, _, _ in CANONICAL_NINE])
        for i, n in enumerate(evolvable_blocks(cutoff)):
            present = n + offsets >= 0
            big, small = system.frequencies[i]
            projectors = system.projectors[i]
            assert np.abs(projectors.sum(axis=0) - np.diag(present * 1.0)).max() <= 1e-14
            generator = np.tensordot([0.0, big, small, -big, -small], projectors, axes=1)
            coupling = build_block(n, params).coupling
            assert np.abs(generator[np.ix_(present, present)] - coupling).max() <= 1e-12 * scale
            assert np.abs(projectors[:, ~present]).max(initial=0.0) == 0.0
            assert np.abs(projectors[:, :, ~present]).max(initial=0.0) == 0.0

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        cutoff=st.integers(1, 30),
        magnitudes=st.tuples(STRENGTH, STRENGTH),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        eta=st.floats(0.0, 1.5),
        epsilon=st.one_of(st.floats(0.001, 1.0), st.floats(-1.0, -0.001)),
    )
    # a coupling vector on which glibc's hypot is one unit in the last place off
    @example(
        cutoff=4, magnitudes=(1.0, 0.01), phases=(0.0, 0.0), eta=0.1, epsilon=0.7
    )
    def test_frequencies_are_the_closed_form(
        self, cutoff, magnitudes, phases, eta, epsilon
    ):
        lambda1, lambda2 = (cmath.rect(r, a) for r, a in zip(magnitudes, phases))
        params = SimParams(
            fock_cutoff=cutoff,
            lambda1=lambda1,
            lambda2=lambda2,
            eta=eta,
            epsilon=epsilon,
        )
        table = block_frequencies(params)
        assert np.array_equal(BlockSystem(params).frequencies, table)
        for i, n in enumerate(evolvable_blocks(cutoff)):
            assert tuple(table[i]) == scalar_frequencies(n, params)
            assert min(table[i]) >= 0.0

    def test_eigenvalue_off_its_closed_form_frequency_is_refused(self, monkeypatch):
        honest = ionmodel.block_frequencies

        def shifted(params):
            return honest(params) * [1 + 1e-9, 1.0]  # the Omega column

        monkeypatch.setattr(ionmodel, "block_frequencies", shifted)
        params = fig_params()
        big = math.hypot(abs(params.lambda1), abs(params.lambda2))
        scale = big * float(np.abs(mode_couplings(params)).max())  # the largest omega_n
        get_block_system.cache_clear()
        try:
            with pytest.raises(ValueError, match=f"closed-form frequency.*scale {scale:.3e}$"):
                get_block_system(params)
        finally:
            get_block_system.cache_clear()


class TestFullHamiltonian:
    def test_zero_couplings_give_zero_matrix(self):
        h = build_full_hamiltonian(fig_params(lambda1=0.0, lambda2=0.0))
        assert np.abs(h).max() == 0.0

    def test_hermiticity(self):
        h = build_full_hamiltonian(fig_params(lambda1=np.exp(0.7j), lambda2=0.1j))
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_block_embedding_equivalence(self):
        # the ceiling blocks are never built, so compare on the evolvable states
        params = fig_params(fock_cutoff=12)
        blocks, kept = assemble_from_blocks(params)
        dense = build_full_hamiltonian(params)
        dev = np.abs(dense[np.ix_(kept, kept)] - blocks[np.ix_(kept, kept)]).max()
        assert dev <= 1e-12
        assert np.abs(dense[kept][:, np.setdiff1d(np.arange(dense.shape[0]), kept)]).max() == 0.0

    def test_excitation_conservation_across_blocks(self):
        params = fig_params(fock_cutoff=8)
        h = build_full_hamiltonian(params)
        cutoff = params.fock_cutoff
        block_of = {}
        for levels1 in "abc":
            for levels2 in "abc":
                excited = (levels1 != "a") + (levels2 != "a")
                for m in range(cutoff + 1):
                    block_of[full_index(m, levels1, levels2, cutoff)] = m - excited
        dim = 9 * (cutoff + 1)
        for i in range(dim):
            for j in range(dim):
                if block_of[i] != block_of[j]:
                    assert abs(h[i, j]) <= 1e-14

    def test_levels_map_matches_layout_order(self):
        assert LEVEL_INDEX == {"a": 0, "b": 1, "c": 2}


class TestBlockSystemCache:
    @pytest.mark.parametrize(
        "change",
        [
            {"theta": 0.3},
            {"gamma": 0.1},
            {"nbar": 2.0},
            {"phi": 1.0},
            {"modulation": Sech(2.0)},
        ],
    )
    def test_fields_outside_the_hamiltonian_hit(self, change):
        get_block_system.cache_clear()
        first = get_block_system(fig_params(fock_cutoff=8))
        assert get_block_system(fig_params(fock_cutoff=8, **change)) is first
        info = get_block_system.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("change", [{"eta": 0.3}, {"lambda2": 0.5}])
    def test_hamiltonian_fields_miss(self, change):
        get_block_system.cache_clear()
        first = get_block_system(fig_params(fock_cutoff=8))
        other = get_block_system(fig_params(fock_cutoff=8, **change))
        assert other is not first
        info = get_block_system.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        expected = BlockSystem(fig_params(fock_cutoff=8, **change))
        assert np.array_equal(other.frequencies, expected.frequencies)
        assert np.array_equal(other.projectors, expected.projectors)
