import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from ionduo import SimParams, build_block, build_full_hamiltonian, laguerre, mode_strength
from ionduo.ionmodel import (
    LEVEL_INDEX,
    CutoffError,
    _assemble_coupling,
    block_basis,
    block_indices,
    full_index,
)

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


def assemble_from_blocks(params):
    """Full Hamiltonian as the direct sum of every block coupling matrix
    (including the cutoff-truncated ceiling blocks) under the
    block-to-full embedding."""
    dim = 9 * (params.fock_cutoff + 1)
    h = np.zeros((dim, dim), dtype=np.complex128)
    for n in block_indices(params.fock_cutoff):
        basis = block_basis(n, params.fock_cutoff)
        idx = np.array(
            [full_index(f, l1, l2, params.fock_cutoff) for f, l1, l2 in basis.states],
            dtype=np.intp,
        )
        h[np.ix_(idx, idx)] = _assemble_coupling(basis, params)
    return h


def fig_params(fock_cutoff=12, **overrides):
    return SimParams(fock_cutoff=fock_cutoff, **overrides)


class TestLaguerre:
    def test_order_zero_is_one(self):
        for k in (0, 1, 5):
            for x in (0.0, 0.3, 2.0):
                assert laguerre(0, k, x) == 1.0

    def test_order_one(self):
        # L_1^k(x) = 1 + k - x
        assert laguerre(1, 2, 0.5) == pytest.approx(2.5, abs=1e-14)

    def test_order_two(self):
        # 1 - 2x + x^2/2 at x = 1
        assert laguerre(2, 0, 1.0) == pytest.approx(-0.5, abs=1e-14)

    def test_against_scipy(self):
        for n in range(0, 25, 3):
            for k in range(0, 5):
                for x in (0.0408, 0.5, 1.7, 4.0):
                    expected = eval_genlaguerre(n, k, x)
                    assert laguerre(n, k, x) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 0.5)


class TestModeStrength:
    def test_unit_limit(self):
        # eta = 0, epsilon = 1: every factor is unity
        params = fig_params(eta=0.0, epsilon=1.0)
        assert mode_strength(0, 0, params) == pytest.approx(-0.5, abs=1e-15)

    def test_first_sideband_value(self):
        # direct evaluation of -(eps/2) (n!/(n+k)!) L_n^k(eta^2) exp(-eta^2/2)
        params = fig_params(eta=0.202, epsilon=0.01)
        assert mode_strength(0, 1, params) == pytest.approx(-0.004899023563157436, abs=1e-15)

    def test_first_excited_value(self):
        # -(1/2) (1 - eta^2) exp(-eta^2/2)
        params = fig_params(eta=0.202, epsilon=1.0)
        assert mode_strength(1, 0, params) == pytest.approx(-0.46991238056863593, abs=1e-14)

    def test_standard_element_matches_default_at_k0(self):
        default = fig_params(eta=0.3, epsilon=0.7)
        standard = fig_params(eta=0.3, epsilon=0.7, standard_matrix_element=True)
        for n in range(6):
            assert mode_strength(n, 0, standard) == pytest.approx(
                mode_strength(n, 0, default), abs=1e-15
            )

    def test_standard_element_ratio(self):
        # textbook form carries sqrt(n!/(n+k)!) eta^k instead of n!/(n+k)!
        eta, n, k = 0.3, 3, 2
        default = fig_params(eta=eta, epsilon=1.0)
        standard = fig_params(eta=eta, epsilon=1.0, standard_matrix_element=True)
        ratio = mode_strength(n, k, standard) / mode_strength(n, k, default)
        factorial_ratio = math.factorial(n) / math.factorial(n + k)
        assert ratio == pytest.approx(eta**k / math.sqrt(factorial_ratio), rel=1e-12)

    def test_factorial_ratio_stays_finite_at_large_n(self):
        params = fig_params(fock_cutoff=200, eta=0.202, epsilon=1.0)
        value = mode_strength(150, 4, params)
        assert math.isfinite(value)
        # multiplicative ratio matches log-space evaluation
        expected = (
            -0.5
            * math.exp(math.lgamma(151) - math.lgamma(155))
            * laguerre(150, 4, 0.202**2)
            * math.exp(-(0.202**2) / 2)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_cutoff_guard(self):
        with pytest.raises(CutoffError):
            mode_strength(10, 3, fig_params(fock_cutoff=12))


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
        up = math.sqrt(fock + 1) * mode_strength(fock + 1, 0, params)
        if l1 == "a":
            add((fock + 1, "b", l2), params.lambda1 * up)
            add((fock + 1, "c", l2), params.lambda2 * up)
        if l2 == "a":
            add((fock + 1, l1, "b"), params.lambda1 * up)
            add((fock + 1, l1, "c"), params.lambda2 * up)
    if fock >= 1:
        down = math.sqrt(fock) * mode_strength(fock, 0, params)
        if l1 in ("b", "c"):
            lam = params.lambda1 if l1 == "b" else params.lambda2
            add((fock - 1, "a", l2), np.conj(lam) * down)
        if l2 in ("b", "c"):
            lam = params.lambda1 if l2 == "b" else params.lambda2
            add((fock - 1, l1, "a"), np.conj(lam) * down)
    return amplitudes.get(bra, 0.0 + 0.0j)


class TestBlockBasis:
    def test_interior_block_has_canonical_order(self):
        for n in (0, 3):
            basis = block_basis(n, 12)
            assert basis.states == tuple((n + off, l1, l2) for off, l1, l2 in CANONICAL_NINE)

    def test_floor_blocks_drop_negative_fock(self):
        assert block_basis(-1, 12).dim == 8
        assert block_basis(-1, 12).states[0] == (0, "a", "b")
        assert block_basis(-2, 12).states == (
            (0, "b", "b"),
            (0, "b", "c"),
            (0, "c", "b"),
            (0, "c", "c"),
        )

    def test_all_fock_indices_within_cutoff(self):
        for n in block_indices(6):
            for fock, _, _ in block_basis(n, 6).states:
                assert 0 <= fock <= 6

    def test_partition_covers_full_space_exactly_once(self):
        cutoff = 9
        seen = []
        for n in block_indices(cutoff):
            seen.extend(block_basis(n, cutoff).states)
        assert len(seen) == len(set(seen)) == 9 * (cutoff + 1)


class TestBuildBlock:
    def test_vacuum_floor_block_is_static(self):
        block = build_block(-2, fig_params())
        assert block.basis.dim == 4
        assert np.abs(block.coupling).max() == 0.0

    def test_lambda2_zero_decouples_c_states(self):
        block = build_block(0, fig_params(lambda2=0.0))
        has_c = [i for i, (_, l1, l2) in enumerate(block.basis.states) if "c" in (l1, l2)]
        no_c = [i for i in range(block.basis.dim) if i not in has_c]
        assert np.abs(block.coupling[np.ix_(has_c, no_c)]).max() == 0.0

    def test_against_dense_operator_oracle(self):
        params = fig_params(lambda1=1.0, lambda2=0.01, eta=0.202, epsilon=0.01)
        block = build_block(0, params)
        worst = 0.0
        for j, bra in enumerate(block.basis.states):
            for k, ket in enumerate(block.basis.states):
                expected = oracle_matrix_element(bra, ket, params)
                worst = max(worst, abs(block.coupling[j, k] - expected))
        assert worst <= 1e-12

    def test_oracle_on_floor_block_and_complex_couplings(self):
        params = fig_params(lambda1=np.exp(0.3j), lambda2=0.01j, eta=0.25, epsilon=0.4)
        block = build_block(-1, params)
        for j, bra in enumerate(block.basis.states):
            for k, ket in enumerate(block.basis.states):
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


class TestFullHamiltonian:
    def test_zero_couplings_give_zero_matrix(self):
        h = build_full_hamiltonian(fig_params(lambda1=0.0, lambda2=0.0))
        assert np.abs(h).max() == 0.0

    def test_hermiticity(self):
        h = build_full_hamiltonian(fig_params(lambda1=np.exp(0.7j), lambda2=0.1j))
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_block_embedding_equivalence(self):
        params = fig_params(fock_cutoff=12)
        dev = np.abs(build_full_hamiltonian(params) - assemble_from_blocks(params)).max()
        assert dev <= 1e-12

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
