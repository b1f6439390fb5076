import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from ionduo import (
    ION_VS_ION,
    Bipartition,
    Constant,
    HilbertLayout,
    PureState,
    Sech,
    SimParams,
    coherent_amplitudes,
    modulation_integral,
    prepare_initial,
    run_series,
    run_sweep,
    truncated_coherent,
)
from ionduo import dynamics, experiments, ionmodel
from ionduo.core import DensityMatrix, hermitian_spectrum
from ionduo.dynamics import (
    UnsupportedRegimeError,
    density_from_coordinates,
    evolve_pure,
    milburn_quadrature,
    quadrature_terms,
)
from ionduo.entanglement import concurrence_from_purity, i_concurrence_values
from ionduo.ionmodel import (
    CutoffError,
    build_full_hamiltonian,
    evolvable_blocks,
    full_index,
    full_layout,
)
from ionduo.selftest import (
    block_index,
    evolve_pure_dense,
    milburn_closed_form,
    milburn_kraus,
    partial_trace,
    pure_density,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def ion_state(fock_cutoff=10, nbar=2.0, theta=math.pi / 4, phi=0.0):
    field = truncated_coherent(nbar, fock_cutoff)
    return prepare_initial(theta, phi, field)


def random_density(rng, dim, label="sys"):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix(HilbertLayout(((label, dim),)), mat / np.trace(mat).real)


def spread_hamiltonian(rng, eigenvalues):
    """Hermitian matrix with prescribed spectrum in a random basis."""
    dim = len(eigenvalues)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(raw)
    return q @ np.diag(eigenvalues).astype(complex) @ q.conj().T


class TestModulationIntegral:
    def test_constant_is_identity(self):
        assert modulation_integral(Constant(), 7.3) == 7.3

    def test_sech_at_zero(self):
        assert modulation_integral(Sech(1.0), 0.0) == 0.0

    def test_sech_saturates_at_pi_tau(self):
        for tau in (0.5, 1.0, 5.0):
            assert modulation_integral(Sech(tau), 100.0 * tau) == pytest.approx(
                math.pi * tau, abs=1e-10
            )

    def test_sech_matches_adaptive_quadrature(self):
        tau = 2.0
        worst = 0.0
        for t in np.linspace(0.0, 50.0, 11)[1:]:
            numeric, _ = quad(lambda s: 1.0 / math.cosh(s / (2 * tau)), 0.0, t, limit=200)
            worst = max(worst, abs(modulation_integral(Sech(tau), t) - numeric))
        assert worst <= 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            modulation_integral(Constant(), -1.0)


class TestEvolvePure:
    def test_zero_generator_freezes_state(self):
        params = SimParams(fock_cutoff=10, nbar=2.0, lambda1=0.0, lambda2=0.0)
        psi0 = ion_state()
        states = evolve_pure(psi0, params, np.linspace(0.0, 5.0, 6))
        assert np.abs(states - psi0.amplitudes).max() <= 1e-14

    def test_restart_matches_direct_constant(self):
        params = SimParams(fock_cutoff=10, nbar=2.0)
        psi0 = ion_state()
        direct = evolve_pure(psi0, params, [0.0, 1.3, 2.2])
        restart = evolve_pure(PureState(psi0.layout, direct[1]), params, [0.0, 0.9])
        assert np.abs(restart[1] - direct[2]).max() <= 1e-12

    def test_sech_equals_constant_at_accumulated_phase(self):
        # the shared scalar profile only enters through its integral
        tau = 1.5
        params_sech = SimParams(fock_cutoff=10, nbar=2.0, modulation=Sech(tau))
        params_const = SimParams(fock_cutoff=10, nbar=2.0)
        psi0 = ion_state()
        t = 3.0
        theta = modulation_integral(Sech(tau), t)
        via_sech = evolve_pure(psi0, params_sech, [0.0, t])[1]
        via_const = evolve_pure(psi0, params_const, [0.0, theta])[1]
        assert np.abs(via_sech - via_const).max() <= 1e-12

    def test_norm_conserved_on_grid(self):
        params = SimParams(fock_cutoff=12, nbar=3.0)
        states = evolve_pure(ion_state(12, 3.0), params, np.linspace(0.0, 20.0, 41))
        for state in states:
            assert abs(np.vdot(state, state).real - 1.0) <= 1e-10

    def test_support_on_ceiling_blocks_rejected(self):
        params = SimParams(fock_cutoff=6, nbar=0.0)
        layout = full_layout(6)
        amps = np.zeros(layout.total_dim, dtype=complex)
        amps[full_index(5, "a", "a", 6)] = 1.0  # lives in block 5 = N_max - 1
        with pytest.raises(CutoffError, match="cutoff"):
            evolve_pure(PureState(layout, amps), params, [0.0, 1.0])

    @pytest.mark.parametrize("evolve", [evolve_pure, evolve_pure_dense])
    def test_norm_drift_rejected(self, evolve, monkeypatch):
        honest = np.linalg.eigh

        def stretched(matrix):  # the block table's eigh and the dense spectrum's
            eigenvalues, eigenvectors = honest(matrix)
            return eigenvalues, 1.001 * eigenvectors

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        ionmodel.get_block_system.cache_clear()
        try:
            with pytest.raises(ValueError, match="not normalized"):
                evolve(ion_state(), SimParams(fock_cutoff=10, nbar=2.0), [0.0, 1.0])
        finally:
            ionmodel.get_block_system.cache_clear()

    def test_times_must_start_at_zero(self):
        params = SimParams(fock_cutoff=10, nbar=2.0)
        with pytest.raises(ValueError, match="start at 0"):
            evolve_pure(ion_state(), params, [1.0, 2.0])

    def test_returns_read_only_time_by_dim_array(self):
        params = SimParams(fock_cutoff=10, nbar=2.0)
        states = evolve_pure(ion_state(), params, [0.0, 1.0, 2.0])
        assert states.shape == (3, full_layout(10).total_dim)
        assert states.dtype == np.complex128
        with pytest.raises(ValueError):
            states[0, 0] = 0.0


class TestEvolvePureDense:
    def test_identity_at_time_zero(self):
        params = SimParams(fock_cutoff=10, nbar=2.0)
        psi0 = ion_state()
        states = evolve_pure_dense(psi0, params, [0.0, 1.0])
        assert np.abs(states[0] - psi0.amplitudes).max() <= 1e-12

    def test_unitarity(self):
        params = SimParams(fock_cutoff=10, nbar=2.0)
        states = evolve_pure_dense(ion_state(), params, np.linspace(0.0, 10.0, 11))
        for state in states:
            assert abs(abs(np.vdot(state, state)) - 1.0) <= 1e-12

    def test_agrees_with_block_evolution(self):
        params = SimParams(fock_cutoff=12, nbar=2.0, theta=math.pi / 4)
        psi0 = ion_state(12, 2.0)
        times = np.linspace(0.0, 5.0, 21)
        block = evolve_pure(psi0, params, times)
        dense = evolve_pure_dense(psi0, params, times)
        assert np.abs(block - dense).max() <= 1e-8

    def test_sech_evolution_matches_direct_integration(self):
        # time-ordered ODE oracle: the shared scalar profile means the
        # generator commutes with itself, so the phase-accumulation shortcut
        # must agree with brute-force integration
        tau = 1.5
        params = SimParams(fock_cutoff=8, nbar=1.0, modulation=Sech(tau))
        psi0 = ion_state(8, 1.0)
        hamiltonian = build_full_hamiltonian(params)

        def rhs(t, y):
            return (-1j / math.cosh(t / (2 * tau))) * (hamiltonian @ y)

        solution = solve_ivp(
            rhs,
            (0.0, 4.0),
            psi0.amplitudes,
            t_eval=[4.0],
            rtol=1e-11,
            atol=1e-13,
        )
        shortcut = evolve_pure(psi0, params, [0.0, 4.0])[1]
        assert np.abs(solution.y[:, -1] - shortcut).max() <= 1e-7


class TestMilburnClosedForm:
    def test_gamma_zero_is_unitary_conjugation(self, rng):
        h = spread_hamiltonian(rng, [0.0, 0.7, 1.9, 2.4])
        rho0 = random_density(rng, 4)
        t = 2.3
        spectrum = hermitian_spectrum(h)
        u = (spectrum.eigenvectors * np.exp(-1j * spectrum.eigenvalues * t)) @ spectrum.eigenvectors.conj().T
        expected = u @ rho0.matrix @ u.conj().T
        out = milburn_closed_form(rho0, h, 0.0, t)
        assert np.abs(out.matrix - expected).max() <= 1e-12

    def test_eigenprojector_is_stationary(self, rng):
        h = spread_hamiltonian(rng, [0.2, 1.1, 3.0])
        spectrum = hermitian_spectrum(h)
        vec = spectrum.eigenvectors[:, 1]
        rho0 = DensityMatrix(HilbertLayout((("sys", 3),)), np.outer(vec, vec.conj()))
        for gamma, t in ((0.0, 1.0), (0.5, 3.0), (2.0, 10.0)):
            out = milburn_closed_form(rho0, h, gamma, t)
            assert np.abs(out.matrix - rho0.matrix).max() <= 1e-12

    def test_large_gamma_t_suppresses_coherences(self, rng):
        # gamma t = 10: every eigenbasis off-diagonal with |gap| >= 1 shrinks
        # at least by exp(-gamma t gap^2 / 2) <= exp(-5)
        h = spread_hamiltonian(rng, [0.0, 1.5, 3.1, 5.0])
        rho0 = random_density(rng, 4)
        spectrum = hermitian_spectrum(h)
        out = milburn_closed_form(rho0, h, 2.5, 4.0)
        before = spectrum.eigenvectors.conj().T @ rho0.matrix @ spectrum.eigenvectors
        after = spectrum.eigenvectors.conj().T @ out.matrix @ spectrum.eigenvectors
        gaps = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
        mask = np.abs(gaps) >= 1.0
        assert np.all(np.abs(after[mask]) <= math.exp(-5) * np.abs(before[mask]) + 1e-12)

    def test_composition_in_time(self, rng):
        h = spread_hamiltonian(rng, [0.0, 0.9, 1.7, 2.8, 4.1])
        rho0 = random_density(rng, 5)
        gamma = 0.3
        two_steps = milburn_closed_form(milburn_closed_form(rho0, h, gamma, 1.1), h, gamma, 2.4)
        one_step = milburn_closed_form(rho0, h, gamma, 3.5)
        assert np.abs(two_steps.matrix - one_step.matrix).max() <= 1e-10

    def test_eigenbasis_diagonal_is_conserved(self, rng):
        h = spread_hamiltonian(rng, [0.0, 1.0, 2.2, 3.9])
        rho0 = random_density(rng, 4)
        spectrum = hermitian_spectrum(h)
        out = milburn_closed_form(rho0, h, 0.7, 5.0)
        before = np.diag(spectrum.eigenvectors.conj().T @ rho0.matrix @ spectrum.eigenvectors)
        after = np.diag(spectrum.eigenvectors.conj().T @ out.matrix @ spectrum.eigenvectors)
        assert np.abs(after - before).max() <= 1e-12

    def test_satisfies_master_equation_pointwise(self, rng):
        # finite-difference oracle for d rho / dt = -i [H, rho]
        # - (gamma / 2) [H, [H, rho]]
        h = spread_hamiltonian(rng, [0.0, 0.8, 1.7, 2.9])
        rho0 = random_density(rng, 4)
        gamma, t, eps = 0.4, 1.3, 1e-5
        rho_at = lambda s: milburn_closed_form(rho0, h, gamma, s).matrix
        derivative = (rho_at(t + eps) - rho_at(t - eps)) / (2 * eps)
        rho_t = rho_at(t)
        commutator = h @ rho_t - rho_t @ h
        double = h @ commutator - commutator @ h
        residual = derivative - (-1j * commutator - 0.5 * gamma * double)
        assert np.abs(residual).max() <= 1e-6

    def test_negative_gamma_rejected(self, rng):
        with pytest.raises(ValueError, match="gamma"):
            milburn_closed_form(random_density(rng, 3), np.eye(3), -0.1, 1.0)


class TestMilburnKraus:
    def test_single_term_at_gamma_zero_is_unitary(self, rng):
        h = spread_hamiltonian(rng, [0.3, 1.4, 2.2])
        rho0 = random_density(rng, 3)
        out, deficit = milburn_kraus(rho0, h, 0.0, 1.7, terms=1)
        expected = milburn_closed_form(rho0, h, 0.0, 1.7)
        assert deficit <= 1e-14
        assert np.abs(out.matrix - expected.matrix).max() <= 1e-12

    def test_agrees_with_closed_form(self, rng):
        # gamma t (max |E|)^2 <= 1 so 64 terms dominate the Poisson weights
        h = spread_hamiltonian(rng, [-1.0, -0.3, 0.4, 1.0])
        rho0 = random_density(rng, 4)
        gamma, t = 0.5, 2.0
        out, deficit = milburn_kraus(rho0, h, gamma, t, terms=64)
        expected = milburn_closed_form(rho0, h, gamma, t)
        assert np.abs(out.matrix - expected.matrix).max() <= 1e-10
        assert deficit <= 1e-12

    def test_deficit_non_increasing_in_terms(self, rng):
        # the deficit depends on the operators alone; the zero-energy
        # eigenprojector is left intact by every truncation, so each
        # truncated sum still returns a valid state
        h = spread_hamiltonian(rng, [0.0, 0.8, 1.9, 3.4])
        ground = hermitian_spectrum(h).eigenvectors[:, 0]
        rho0 = DensityMatrix(HilbertLayout((("sys", 4),)), np.outer(ground, ground.conj()))
        deficits = [milburn_kraus(rho0, h, 0.6, 2.0, terms=k)[1] for k in (1, 2, 4, 8, 16, 32)]
        for earlier, later in zip(deficits, deficits[1:]):
            assert later <= earlier + 1e-15

    def test_adaptive_terms_meet_target(self, rng):
        h = spread_hamiltonian(rng, [0.0, 1.2, 2.6])
        rho0 = random_density(rng, 3)
        _, deficit = milburn_kraus(rho0, h, 1.0, 3.0)
        assert deficit <= 1e-10

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        dim=st.integers(2, 6),
        gamma=st.floats(0.0, 2.0),
        t=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adaptive_terms_match_closed_form_on_random_input(self, dim, gamma, t, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = raw + raw.conj().T
        h = h / np.abs(np.linalg.eigvalsh(h)).max()  # spectrum within [-1, 1]
        rho0 = random_density(rng, dim)
        out, deficit = milburn_kraus(rho0, h, gamma, t)
        deviation = float(np.abs(out.matrix - milburn_closed_form(rho0, h, gamma, t).matrix).max())
        assert deviation <= 1e-10
        assert deficit <= 1e-10


class TestEvolveMilburn:
    def test_kraus_grid_matches_closed_grid(self):
        params = SimParams(fock_cutoff=8, nbar=1.0, gamma=0.3)
        rho0 = pure_density(ion_state(8, 1.0))
        hamiltonian = build_full_hamiltonian(params)
        worst = 0.0
        for t in (0.0, 1.0, 3.0):
            closed = milburn_closed_form(rho0, hamiltonian, params.gamma, t)
            kraus, _ = milburn_kraus(rho0, hamiltonian, params.gamma, t)
            worst = max(worst, np.abs(closed.matrix - kraus.matrix).max())
        assert worst <= 1e-10

    def test_gamma_zero_limit_matches_pure_projector(self):
        params = SimParams(fock_cutoff=8, nbar=1.0, gamma=0.0)
        psi0 = ion_state(8, 1.0)
        times = [0.0, 1.5, 4.0]
        hamiltonian = build_full_hamiltonian(params)
        for t, psi in zip(times, evolve_pure(psi0, params, times)):
            rho = milburn_closed_form(pure_density(psi0), hamiltonian, 0.0, t)
            projector = np.outer(psi, psi.conj())
            assert np.abs(rho.matrix - projector).max() <= 1e-10


# Every shape of kept factors a bipartition can name, the full cut included.
CUT_SHAPES = (
    Bipartition(("ion1",), ("ion2",)),
    Bipartition(("ion1",), ("field",)),
    Bipartition(("field",), ("ion2",)),
    Bipartition(("ion1",), ("ion2", "field")),
)

couplings = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
modulations = st.one_of(st.just(Constant()), st.builds(Sech, st.floats(0.2, 5.0)))


# The slow property tests skip hypothesis's shrink phase: a failure is
# reported at once with the falsifying example it found, instead of after
# minutes of shrinking.
FAIL_FAST = dict(derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate))


class TestBlockAgainstDense:
    @settings(max_examples=60, **FAIL_FAST)
    @given(
        fock_cutoff=st.integers(1, 8),
        lambda1=couplings,
        lambda2=couplings,
        # eta = 1 zeroes g(1), so block -1 is all zero; eta^2 = 2 - sqrt 2 is a root of L_2
        eta=st.one_of(st.sampled_from([1.0, math.sqrt(2 - math.sqrt(2))]), st.floats(0.0, 1.0)),
        epsilon=st.floats(-2.0, 2.0),
        modulation=modulations,
        later=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evolve_pure_matches_dense_on_random_states(
        self, fock_cutoff, lambda1, lambda2, eta, epsilon, modulation, later, seed
    ):
        params = SimParams(
            fock_cutoff=fock_cutoff,
            lambda1=lambda1,
            lambda2=lambda2,
            eta=eta,
            epsilon=epsilon,
            modulation=modulation,
        )
        layout = full_layout(fock_cutoff)
        # every state of every evolvable block, the floor blocks n = -1, -2 included
        support = np.flatnonzero(np.isin(block_index(fock_cutoff), evolvable_blocks(fock_cutoff)))
        rng = np.random.default_rng(seed)
        amps = np.zeros(layout.total_dim, dtype=complex)
        amps[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
        psi0 = PureState(layout, amps / np.linalg.norm(amps))
        times = [0.0] + sorted(later)
        block = evolve_pure(psi0, params, times)
        deviation = float(np.abs(block - evolve_pure_dense(psi0, params, times)).max())
        assert deviation <= 1e-12


@st.composite
def ceiling_splits(draw):
    """A cutoff in 1..30 and a normalized state of its full layout: random
    amplitudes on the evolvable states of every template row, and a drawn
    share of the weight on the ceiling states, all of them or a drawn one."""
    cutoff = draw(st.integers(1, 30))
    near = st.sampled_from([0.5e-12, 0.99e-12, 1.01e-12, 2e-12])
    share = draw(st.one_of(st.just(0.0), near, st.floats(1e-16, 1e-12), st.floats(1e-12, 1.0)))
    ceiling = block_index(cutoff) > cutoff - 2
    target = ceiling.copy()
    if draw(st.booleans()):  # one ceiling state
        target[:] = False
        target[np.flatnonzero(ceiling)[draw(st.integers(0, ceiling.sum() - 1))]] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit_on(support):
        amps = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
        amps[~support] = 0.0
        return amps / np.linalg.norm(amps)

    return cutoff, math.sqrt(1.0 - share) * unit_on(~ceiling) + math.sqrt(share) * unit_on(target)


def quadrature_chunk(psi0, params, times):
    return next(milburn_quadrature(psi0, params, times, ("ion1", "ion2")))


class TestCeilingCheck:
    """The ceiling check read off the template gather, against
    ``block_index``, the reference statement of the block rule."""

    @pytest.mark.parametrize("evolve", [evolve_pure, evolve_pure_dense, quadrature_chunk])
    @settings(max_examples=60, **FAIL_FAST)
    @given(split=ceiling_splits())
    def test_refused_exactly_above_the_threshold(self, evolve, split):
        cutoff, amps = split
        leak = float(np.sum(np.abs(amps[block_index(cutoff) > cutoff - 2]) ** 2))
        assume(abs(leak - 1e-12) > 1e-15)
        psi0 = PureState(full_layout(cutoff), amps)
        if leak > 1e-12:
            with pytest.raises(CutoffError, match="cutoff"):
                evolve(psi0, SimParams(fock_cutoff=cutoff), [0.0, 1.0])
        else:
            evolve(psi0, SimParams(fock_cutoff=cutoff), [0.0, 1.0])

    @settings(max_examples=60, **FAIL_FAST)
    @given(split=ceiling_splits())
    def test_gather_reproduces_every_evolvable_amplitude(self, split):
        cutoff, amps = split
        blocks = block_index(cutoff).reshape(9, cutoff + 1)  # template row by Fock number
        leak = float(np.sum(np.abs(amps.reshape(9, -1)[blocks > cutoff - 2]) ** 2))
        assume(abs(leak - 1e-12) > 1e-15)
        psi0 = PureState(full_layout(cutoff), amps)
        if leak > 1e-12:
            with pytest.raises(CutoffError, match="cutoff"):
                dynamics._template_amplitudes(psi0, SimParams(fock_cutoff=cutoff))
            return
        gathered = dynamics._template_amplitudes(psi0, SimParams(fock_cutoff=cutoff))
        rows, focks = np.nonzero(blocks <= cutoff - 2)  # block n's state k sits in row n + 2
        evolvable = amps.reshape(9, -1)[rows, focks]
        assert np.array_equal(gathered[blocks[rows, focks] + 2, rows], evolvable)
        # every other template entry is a state its block lacks, left zero
        assert np.count_nonzero(gathered) == np.count_nonzero(evolvable)


def dense_reduced(psi0, params, t, keep):
    """Oracle: the dense closed form on the full space, then the partial trace."""
    rho = milburn_closed_form(pure_density(psi0), build_full_hamiltonian(params), params.gamma, t)
    return rho.matrix if set(keep) == set(rho.layout.labels) else partial_trace(rho, keep).matrix


def occupied_spread(psi0, params):
    """Spread max - min of the energies of the blocks psi0 occupies, from
    the eigendecomposition of each block, not its closed form."""
    table = block_index(params.fock_cutoff)
    energies = np.concatenate(
        [
            ionmodel.build_block(n, params).spectrum.eigenvalues
            for n in evolvable_blocks(params.fock_cutoff)
            if np.any(psi0.amplitudes[table == n])
        ]
    )
    return float(energies.max() - energies.min())


def complex_node_sum(psi0, params, times, keep):
    """Oracle for one channel chunk: sum_k w_k kept_k kept_k^dag in complex
    arithmetic, over the channel's own kernel rows and Gauss-Hermite rule."""
    system, parts = dynamics._projected(psi0, params)
    width = 2.0 * float(system.frequencies[np.any(parts, axis=(1, 2)), 0].max())
    spread = np.sqrt(params.gamma * times)
    nodes, weights = dynamics._hermite_rule(quadrature_terms(spread[-1] * width))
    theta = modulation_integral(params.modulation, times)
    dt = dynamics._grid_step(theta) if len(nodes) == 1 else None  # the channel's own table
    evolved, _ = dynamics._evolved_rows(system.frequencies, parts, times.size, dt)
    rho = 0.0
    for node, weight in zip(nodes, weights):
        kept = psi0.layout.split(evolved(theta + node * spread), keep)
        rho = rho + weight * (kept @ kept.conj().swapaxes(1, 2))
    return rho


def traced_peak(run):
    """What run() returns and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMilburnReduced:
    """The Gauss-Hermite channel, milburn_quadrature, reduced to the kept factors."""

    @settings(max_examples=30, **FAIL_FAST)
    @given(
        fock_cutoff=st.integers(3, 7),
        nbar=st.floats(0.0, 2.0),
        gamma=st.floats(0.0, 1.0),
        lambda1=couplings,
        lambda2=couplings,
        eta=st.floats(0.0, 1.0),
        epsilon=st.floats(0.05, 2.0),
        theta=st.floats(0.0, 2 * math.pi),
        phi=st.floats(0.0, math.pi),
        later=st.lists(st.floats(0.01, 3000.0), min_size=1, max_size=4, unique=True),
        cut=st.sampled_from(CUT_SHAPES),
    )
    def test_matches_dense_closed_form_and_partial_trace(
        self, fock_cutoff, nbar, gamma, lambda1, lambda2, eta, epsilon, theta, phi, later, cut
    ):
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
        psi0 = ion_state(fock_cutoff, nbar, theta, phi)
        times = [0.0] + sorted(later)
        spread = math.sqrt(gamma * times[-1]) * occupied_spread(psi0, params)
        if quadrature_terms(spread) is None:  # no certified rule: refused, not approximated
            with pytest.raises(UnsupportedRegimeError, match="gamma \\* t_max"):
                next(milburn_quadrature(psi0, params, times, cut.labels))
            return
        chunks = list(milburn_quadrature(psi0, params, times, cut.labels))
        reduced = density_from_coordinates(np.concatenate(chunks))
        assert reduced.shape[0] == len(times)
        worst = max(
            float(np.abs(rho - dense_reduced(psi0, params, t, cut.labels)).max())
            for t, rho in zip(times, reduced)
        )
        assert worst <= 1e-10

    @pytest.mark.parametrize("cut", CUT_SHAPES)
    def test_streamed_chunks_match_one_chunk(self, cut, monkeypatch):
        params = SimParams(fock_cutoff=8, nbar=1.5, gamma=0.1, epsilon=0.8, theta=0.5, phi=0.3)
        psi0 = ion_state(8, 1.5, 0.5, 0.3)
        times = np.linspace(0.0, 12.0, 7)
        whole = np.concatenate(list(milburn_quadrature(psi0, params, times, cut.labels)))
        dim = whole.shape[1]
        two_rows = 2 * dynamics._row_entries(psi0.layout.total_dim, dim)
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", two_rows)
        chunks = list(milburn_quadrature(psi0, params, times, cut.labels))
        assert [len(chunk) for chunk in chunks] == [2, 2, 2, 1]
        assert np.abs(np.concatenate(chunks) - whole).max() <= 1e-15

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("keep", [("ion1", "ion2"), ("ion1", "ion2", "field"), ("ion1", "field")])
    def test_chunks_stay_within_their_memory_budget(self, keep, gamma):
        params = SimParams(fock_cutoff=27, nbar=5.0, gamma=gamma, theta=0.6, phi=0.3)
        psi0 = ion_state(27, 5.0, 0.6, 0.3)
        dim, dim_keep = psi0.layout.total_dim, psi0.layout.keep(keep).total_dim
        step = max(1, dynamics._CHUNK_ENTRIES // dynamics._row_entries(dim, dim_keep))
        times = np.linspace(0.0, 30.0, 3 * step + 1)  # three full chunks and a one-row chunk
        list(milburn_quadrature(psi0, params, times[:1], keep))  # builds the cached block table
        chunks, peak = traced_peak(lambda: list(milburn_quadrature(psi0, params, times, keep)))
        # At gamma = 0 with both ions kept, one yield gathers the three full kernel chunks.
        grouped = gamma == 0 and keep == ("ion1", "ion2")
        assert [len(chunk) for chunk in chunks] == ([3 * step, 1] if grouped else [step] * 3 + [1])
        assert peak <= 16 * dynamics._CHUNK_ENTRIES + sum(chunk.nbytes for chunk in chunks)

    @pytest.mark.parametrize("nudged", [False, True], ids=["equal", "nudged"])
    @pytest.mark.parametrize("cut", CUT_SHAPES)
    def test_grouped_yields_are_the_kernel_chunks_bit_for_bit(self, cut, nudged, monkeypatch):
        params = SimParams(fock_cutoff=16, nbar=1.5, epsilon=0.8, theta=0.5, phi=0.3)
        psi0, keep = ion_state(16, 1.5, 0.5, 0.3), cut.labels
        dim, dim_keep = psi0.layout.total_dim, psi0.layout.keep(keep).total_dim
        times = np.linspace(0.0, 12.0, 22)
        times[9] += 1e-9 if nudged else 0.0  # a grid off its equal steps
        assert (dynamics._grid_step(times) is None) == nudged
        # kernel chunks of three times, and a one-time last one
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 3 * dynamics._row_entries(dim, dim_keep))
        chunks = list(milburn_quadrature(psi0, params, times, keep))
        # only the 9 x 9 two-ion state is small enough beside dim 153 to group
        lengths = [6, 6, 6, 4] if dim_keep == 9 else [3] * 7 + [1]
        assert [len(chunk) for chunk in chunks] == lengths
        # Oracle: one kernel chunk at a time, under the pass's one step decision.
        system, parts = dynamics._projected(psi0, params)
        dt = dynamics._grid_step(times)
        evolved, _ = dynamics._evolved_rows(system.frequencies, parts, 3, dt)
        alone = []
        for start in range(0, times.size, 3):
            kept = psi0.layout.split(evolved(times[start : start + 3]), keep)
            alone.append(dynamics._coordinates(kept, np.empty(kept.shape, complex)))
        assert np.array_equal(np.concatenate(chunks), np.concatenate(alone))

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_norm_drift_rejected(self, gamma, monkeypatch):
        # The channel checks each row on the trace of its node product, not
        # through evolve_pure: the same stretched eigenvectors must be caught there.
        honest = np.linalg.eigh

        def stretched(matrix):
            eigenvalues, eigenvectors = honest(matrix)
            return eigenvalues, 1.001 * eigenvectors

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        ionmodel.get_block_system.cache_clear()
        params = SimParams(fock_cutoff=10, nbar=2.0, gamma=gamma)
        try:
            with pytest.raises(ValueError, match="not normalized"):
                next(milburn_quadrature(ion_state(), params, [0.0, 1.0], ("ion1", "ion2")))
        finally:
            ionmodel.get_block_system.cache_clear()

    def test_support_on_ceiling_blocks_rejected(self):
        params = SimParams(fock_cutoff=6, nbar=0.0, gamma=0.05)
        layout = full_layout(6)
        amps = np.zeros(layout.total_dim, dtype=complex)
        amps[full_index(6, "a", "a", 6)] = 1.0  # lives in block 6 = N_max
        with pytest.raises(CutoffError, match="cutoff"):
            list(milburn_quadrature(PureState(layout, amps), params, [0.0, 1.0], ("ion1", "ion2")))

    @pytest.mark.parametrize("spread", [0.0, 1e-9, 0.07, 0.5, 3.0, 10.0, 26.0])
    def test_each_chunk_takes_the_fewest_certified_nodes(self, spread):
        terms = quadrature_terms(spread)
        assert dynamics.quadrature_bound(terms, spread) <= dynamics.QUADRATURE_TARGET
        if terms > 1:
            assert dynamics.quadrature_bound(terms - 1, spread) > dynamics.QUADRATURE_TARGET
        nodes, weights = dynamics._hermite_rule(terms)
        for gap in np.linspace(0.0, spread, 9):  # every gap up to the spread is certified
            error = abs(weights @ np.exp(-1j * gap * nodes) - math.exp(-0.5 * gap**2))
            assert error <= 2 * dynamics.QUADRATURE_TARGET

    def test_gamma_zero_is_the_reduced_pure_evolution(self):
        params = SimParams(fock_cutoff=8, nbar=1.5, theta=0.5, modulation=Sech(2.0))
        psi0 = ion_state(8, 1.5, 0.5)
        times = np.linspace(0.0, 6.0, 5)
        keep = ("ion1", "ion2")
        (reduced,) = milburn_quadrature(psi0, params, times, keep)
        kept = psi0.layout.split(evolve_pure(psi0, params, times), keep)
        assert np.array_equal(reduced, dynamics._coordinates(kept, np.empty(kept.shape, complex)))

    @pytest.mark.parametrize("cut", CUT_SHAPES)
    def test_gamma_zero_on_an_equal_grid_is_the_reduced_pure_evolution(self, cut):
        params = SimParams(fock_cutoff=8, nbar=1.5, theta=0.5)
        psi0 = ion_state(8, 1.5, 0.5)
        times = np.linspace(0.0, 6.0, 5)
        assert fits_its_mean_step(times)  # both take the angle-addition table
        (reduced,) = milburn_quadrature(psi0, params, times, cut.labels)
        kept = psi0.layout.split(evolve_pure(psi0, params, times), cut.labels)
        assert np.array_equal(reduced, dynamics._coordinates(kept, np.empty(kept.shape, complex)))

    @pytest.mark.parametrize("gamma_is_zero", [True, False], ids=["gamma0", "gamma"])
    @pytest.mark.parametrize("cut", CUT_SHAPES)
    @settings(max_examples=15, **FAIL_FAST)
    @given(
        fock_cutoff=st.integers(3, 8),
        nbar=st.floats(0.0, 2.0),
        gamma=st.floats(0.001, 0.5),
        lambda1=couplings,
        lambda2=couplings,
        theta=st.floats(0.0, 2 * math.pi),
        phi=st.floats(0.0, math.pi),
        later=st.lists(st.floats(0.01, 30.0), min_size=1, max_size=4, unique=True),
    )
    def test_coordinates_give_back_the_complex_node_sum(
        self, cut, gamma_is_zero, fock_cutoff, nbar, gamma, lambda1, lambda2, theta, phi, later
    ):
        params = SimParams(
            fock_cutoff=fock_cutoff,
            nbar=nbar,
            gamma=0.0 if gamma_is_zero else gamma,
            lambda1=lambda1,
            lambda2=lambda2,
            theta=theta,
            phi=phi,
        )
        psi0 = ion_state(fock_cutoff, nbar, theta, phi)
        times = np.array([0.0] + sorted(later))
        try:
            (chunk,) = milburn_quadrature(psi0, params, times, cut.labels)
        except UnsupportedRegimeError:  # no certified rule: refused, not approximated
            reject()
        assert chunk.dtype == np.float64
        rho = density_from_coordinates(chunk)
        assert np.array_equal(rho, rho.conj().swapaxes(1, 2))  # Hermitian bit for bit
        assert np.abs(rho - complex_node_sum(psi0, params, times, cut.labels)).max() <= 1e-14

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_each_pass_builds_one_rule(self, gamma, monkeypatch):
        params = SimParams(fock_cutoff=8, nbar=1.5, gamma=gamma, epsilon=0.8, theta=0.5)
        psi0 = ion_state(8, 1.5, 0.5)
        keep = ("ion1", "ion2")
        honest, built = dynamics._hermite_rule, []

        def counted(terms):
            built.append(terms)
            return honest(terms)

        monkeypatch.setattr(dynamics, "_hermite_rule", counted)
        one_row = dynamics._row_entries(psi0.layout.total_dim, 9)
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", one_row)
        chunks = list(milburn_quadrature(psi0, params, np.linspace(0.0, 12.0, 7), keep))
        assert len(chunks) == 7
        # one rule, built before the first chunk: the one that certifies t_max
        most = quadrature_terms(math.sqrt(gamma * 12.0) * occupied_spread(psi0, params))
        assert built == [most]
        assert most == 1 if gamma == 0 else most > 1


def fits_its_mean_step(theta):
    """Whether _grid_step fits the values ``theta`` to their own mean step."""
    return dynamics._grid_step(theta) is not None


def direct_table(run):
    """What run() returns with every phase table taken by np.cos and np.sin."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_grid_step", lambda theta: None)
        return run()


def channel_run(psi0, params, times, keep):
    return np.concatenate(list(milburn_quadrature(psi0, params, times, keep)))


def spy_on_the_step(monkeypatch):
    """Lists of the sizes of the profiles _grid_step decides and of the
    steps (or None) each kernel gets, filled as passes run."""
    grid_step, evolved_rows, decided, given = dynamics._grid_step, dynamics._evolved_rows, [], []

    def deciding(theta):
        decided.append(theta.size)
        return grid_step(theta)

    def taking(frequencies, parts, size, dt):
        given.append(dt)
        return evolved_rows(frequencies, parts, size, dt)

    monkeypatch.setattr(dynamics, "_grid_step", deciding)
    monkeypatch.setattr(dynamics, "_evolved_rows", taking)
    return decided, given


class TestEqualStepTable:
    """The kernel's phase table by angle addition on equal-step chunks, against
    the dense oracle and the direct np.cos / np.sin table, and the chunks that
    must keep the direct table."""

    @settings(max_examples=30, **FAIL_FAST)
    @given(
        fock_cutoff=st.integers(3, 8),
        nbar=st.floats(0.0, 2.0),
        lambda1=couplings,
        lambda2=couplings,
        theta=st.floats(0.0, 2 * math.pi),
        phi=st.floats(0.0, math.pi),
        span=st.floats(1.0, 3000.0),
        count=st.integers(2, 400),
        rows=st.integers(2, 40),
        cut=st.sampled_from(CUT_SHAPES),
    )
    def test_matches_dense_and_the_direct_table(
        self, fock_cutoff, nbar, lambda1, lambda2, theta, phi, span, count, rows, cut
    ):
        params = SimParams(
            fock_cutoff=fock_cutoff,
            nbar=nbar,
            lambda1=lambda1,
            lambda2=lambda2,
            theta=theta,
            phi=phi,
        )
        psi0 = ion_state(fock_cutoff, nbar, theta, phi)
        times = np.linspace(0.0, span, count)
        assert fits_its_mean_step(times)
        keep, dim = cut.labels, psi0.layout.total_dim
        with pytest.MonkeyPatch.context() as patch:  # chunks of `rows` times
            entries = rows * dynamics._row_entries(dim, psi0.layout.keep(keep).total_dim)
            patch.setattr(dynamics, "_CHUNK_ENTRIES", entries)
            channel = density_from_coordinates(channel_run(psi0, params, times, keep))
            direct = density_from_coordinates(
                direct_table(lambda: channel_run(psi0, params, times, keep))
            )
        pure = evolve_pure(psi0, params, times)
        dense = evolve_pure_dense(psi0, params, times)
        kept = psi0.layout.split(dense, keep)
        pairs = (
            (pure, dense),
            (pure, direct_table(lambda: evolve_pure(psi0, params, times))),
            (channel, kept @ kept.conj().swapaxes(1, 2)),
            (channel, direct),
        )
        for one, other in pairs:
            assert np.abs(one - other).max() <= 1e-12

    @staticmethod
    def assert_direct(psi0, params, times):
        keep = ("ion1", "ion2")
        channel = channel_run(psi0, params, times, keep)
        assert np.array_equal(channel, direct_table(lambda: channel_run(psi0, params, times, keep)))
        if params.gamma == 0:
            pure = evolve_pure(psi0, params, times)
            assert np.array_equal(pure, direct_table(lambda: evolve_pure(psi0, params, times)))

    def test_a_grid_off_its_equal_steps_keeps_the_direct_table(self, monkeypatch):
        times = np.linspace(0.0, 30.0, 61)
        unit = np.finfo(np.float64).eps * times[-1]
        times[17] += 2 * unit  # within the bound of 4 units
        assert fits_its_mean_step(times)
        times[17] += 4 * unit
        assert not fits_its_mean_step(times)
        # chunks of ten times: the chunks on equal steps keep the direct table too
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 10 * dynamics._row_entries(81, 9))
        self.assert_direct(ion_state(8, 1.5, 0.5), SimParams(fock_cutoff=8, nbar=1.5), times)

    def test_a_sech_run_keeps_the_direct_table(self):
        params = SimParams(fock_cutoff=8, nbar=1.5, modulation=Sech(2.0))
        self.assert_direct(ion_state(8, 1.5, 0.5), params, np.linspace(0.0, 30.0, 61))

    @pytest.mark.parametrize("terms", [4, 3], ids=["even", "odd"])
    def test_a_gamma_run_keeps_the_direct_table(self, terms, monkeypatch):
        psi0, params = ion_state(8, 1.5, 0.5), SimParams(fock_cutoff=8, nbar=1.5, gamma=0.05)
        decided, given = spy_on_the_step(monkeypatch)
        # chunks of ten times, so that chunks start at theta_0 > 0
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 10 * dynamics._row_entries(81, 9))
        # no node takes the step table, not even an odd rule's centre node
        monkeypatch.setattr(dynamics, "quadrature_terms", lambda spread: terms)
        channel_run(psi0, params, np.linspace(0.0, 30.0, 61), ("ion1", "ion2"))
        assert decided == [] and given == [None]

    def test_the_direct_table_reaches_every_chunk(self, monkeypatch):
        psi0, params = ion_state(8, 1.5, 0.5), SimParams(fock_cutoff=8, nbar=1.5)
        times, keep = np.linspace(0.0, 30.0, 61), ("ion1", "ion2")
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 10 * dynamics._row_entries(81, 9))
        channel = channel_run(psi0, params, times, keep)
        direct = direct_table(lambda: channel_run(psi0, params, times, keep))
        # each chunk from theta_0 > 0 with more than one time turns its step table
        gaps = np.abs(channel - direct)
        differs = [gaps[start : start + 10].max() for start in range(10, 60, 10)]
        assert 0 < min(differs) and max(differs) <= 1e-12

    def test_one_step_decision_per_pass(self, monkeypatch):
        decided, given = spy_on_the_step(monkeypatch)
        psi0, params = ion_state(8, 1.5, 0.5), SimParams(fock_cutoff=8, nbar=1.5)
        keep = ("ion1", "ion2")
        # kernel chunks of three times and a one-time last one, decided once on the whole profile
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 3 * dynamics._row_entries(81, 9))
        times = np.linspace(0.0, 12.0, 22)
        channel_run(psi0, params, times, keep)
        evolve_pure(psi0, params, times)
        assert decided == [22, 22] and given == [(times[-1] - times[0]) / 21] * 2
        decided.clear()
        given.clear()
        times[9] += 1e-9
        channel_run(psi0, params, times, keep)
        assert decided == [22] and given == [None]

    def test_one_time_keeps_the_direct_table(self, monkeypatch):
        assert dynamics._grid_step(np.array([17.3])) is None
        psi0, params = ion_state(8, 1.5, 0.5), SimParams(fock_cutoff=8, nbar=1.5)
        self.assert_direct(psi0, params, [0.0])
        # the one-time last chunk of an equal grid cut into chunks of two times
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 2 * dynamics._row_entries(81, 9))
        times, keep = np.linspace(0.0, 17.3, 5), ("ion1", "ion2")
        direct = direct_table(lambda: channel_run(psi0, params, times, keep))
        assert np.array_equal(channel_run(psi0, params, times, keep)[-1], direct[-1])


@pytest.mark.parametrize("measure", ["negativity", "relative_entropy"])
def test_gamma_series_do_not_depend_on_the_chunk_budget(measure, monkeypatch):
    # fig3's cell at gamma 0.01, under an even rule (K = 4), and at 0.05, under an odd one (K = 5)
    params = SimParams(fock_cutoff=coherent_amplitudes(5.0, 1e-10).cutoff, theta=math.pi / 4)
    times = np.linspace(0.0, 30.0, 601)
    honest, built = dynamics._hermite_rule, []
    monkeypatch.setattr(dynamics, "_hermite_rule", lambda k: built.append(k) or honest(k))
    runs = []
    for entries in (2**15, 2**16, 2**17, 2**18, 2**19):
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", entries)
        swept = run_sweep(params, [params.theta], [0.01, 0.05], measure, ION_VS_ION, times)
        runs.append(np.stack([series.values for series in swept]))
    for run in runs[1:]:
        assert np.array_equal(run, runs[0])  # bit identical
    assert built == [4, 5] * 5


# Every bipartition covering ion1, ion2 and field, each in both orders.
FULL_CUTS = (
    Bipartition(("ion1",), ("ion2", "field")),
    Bipartition(("ion2", "field"), ("ion1",)),
    Bipartition(("ion2",), ("ion1", "field")),
    Bipartition(("ion1", "field"), ("ion2",)),
    Bipartition(("field",), ("ion1", "ion2")),
    Bipartition(("ion1", "ion2"), ("field",)),
)


def per_cell_concurrence(params, cut, times):
    """Oracle: evolve this theta's own initial state, then its I-concurrence."""
    psi0 = ion_state(params.fock_cutoff, params.nbar, params.theta, params.phi)
    states = evolve_pure(psi0, params, times)
    return i_concurrence_values(states, full_layout(params.fock_cutoff), cut)


def einsum_parts(keep, phi, g):
    """Oracle for the parts of experiments._part_map: the (Tc, 3, d^2) ion
    marginal parts of each (9, 9) G in ``g``, each by its own einsum partial
    trace, the cross part phased and made Hermitian in complex arithmetic."""
    g = g.reshape(-1, 3, 3, 3, 3)
    parts = [np.einsum(spec, g).reshape(len(g), -1) for spec in experiments._MARGINALS[keep]]
    flat = np.stack(parts, 1)
    d = 3 ** len(keep)
    cross = flat[:, 1].reshape(-1, d, d)
    cross *= np.exp(-1j * phi)
    cross += cross.conj().swapaxes(1, 2)
    return flat


def einsum_chunk_coefficients(keep, phi, g):
    """Oracle for experiments._chunk_coefficients: the traces and the Gram of
    the complex einsum_parts."""
    flat = einsum_parts(keep, phi, g)
    d = 3 ** len(keep)
    gram = (flat @ flat.conj().swapaxes(1, 2)).real  # tr(part_p part_q), parts Hermitian
    return flat[:, :, :: d + 1].sum(axis=2).real, gram.reshape(-1, 9) @ experiments._ANTIDIAGONALS


class TestExchangeSymmetry:
    @settings(max_examples=40, **FAIL_FAST)
    @given(
        fock_cutoff=st.integers(1, 8),
        lambda1=couplings,
        lambda2=couplings,
        eta=st.floats(0.0, 1.0),
        epsilon=st.floats(-2.0, 2.0),
    )
    def test_hamiltonian_commutes_with_the_ion_swap(
        self, fock_cutoff, lambda1, lambda2, eta, epsilon
    ):
        params = SimParams(
            fock_cutoff=fock_cutoff,
            lambda1=lambda1,
            lambda2=lambda2,
            eta=eta,
            epsilon=epsilon,
        )
        h = build_full_hamiltonian(params)
        n = fock_cutoff + 1
        swap = np.arange(h.shape[0]).reshape(3, 3, n).transpose(1, 0, 2).ravel()
        assert np.array_equal(h[np.ix_(swap, swap)], h)

    @settings(max_examples=40, **FAIL_FAST)
    @given(
        fock_cutoff=st.integers(3, 8),
        nbar=st.floats(0.0, 2.0),
        lambda1=couplings,
        lambda2=couplings,
        theta=st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(0.0, 2 * math.pi)),
        phi=st.floats(0.0, math.pi),
        modulation=modulations,
        later=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4, unique=True),
        cut=st.sampled_from(FULL_CUTS),
    )
    def test_shared_evolution_matches_per_cell(
        self, fock_cutoff, nbar, lambda1, lambda2, theta, phi, modulation, later, cut
    ):
        params = SimParams(
            fock_cutoff=fock_cutoff,
            nbar=nbar,
            lambda1=lambda1,
            lambda2=lambda2,
            theta=theta,
            phi=phi,
            modulation=modulation,
        )
        times = np.array([0.0] + sorted(later))
        shared = run_series(params, "i_concurrence", cut, times).values
        deviation = float(np.abs(shared**2 - per_cell_concurrence(params, cut, times) ** 2).max())
        assert deviation <= 1e-12

    @settings(max_examples=20, **FAIL_FAST)
    @given(
        fock_cutoff=st.integers(3, 8),
        nbar=st.floats(0.0, 2.0),
        lambda1=couplings,
        lambda2=couplings,
        phi=st.floats(0.0, math.pi),
        modulation=modulations,
        later=st.lists(st.floats(0.01, 3000.0), min_size=1, max_size=4, unique=True),
    )
    def test_coefficient_identities(self, fock_cutoff, nbar, lambda1, lambda2, phi, modulation, later):
        params = SimParams(
            fock_cutoff=fock_cutoff,
            nbar=nbar,
            lambda1=lambda1,
            lambda2=lambda2,
            phi=phi,
            modulation=modulation,
        )
        times = np.array([0.0] + sorted(later)).tobytes()  # the cache key
        coefficients = {
            keep: experiments._exchange_coefficients.__wrapped__(params, keep, times)
            for keep in experiments._MARGINALS
        }
        for trace, _ in coefficients.values():  # tr rho = c^2 + s^2: <ab|ba> = 0 is conserved
            assert np.abs(trace - [1.0, 0.0, 1.0]).max() <= 1e-14
        # ion2 sees ion1's state with c and s exchanged and phi negated; every
        # measure is even in phi, so its purity coefficients are ion1's reversed.
        ion1, ion2 = coefficients[("ion1",)][1], coefficients[("ion2",)][1]
        assert np.abs(ion2 - ion1[:, ::-1]).max() <= 1e-14

    @settings(max_examples=30, **FAIL_FAST)
    @given(
        fock_cutoff=st.integers(3, 8),
        nbar=st.floats(0.0, 2.0),
        lambda1=couplings,
        lambda2=couplings,
        phi=st.floats(0.0, math.pi),
        modulation=modulations,
        later=st.lists(st.floats(0.01, 3000.0), min_size=1, max_size=4, unique=True),
    )
    def test_part_map_matches_the_partial_traces(
        self, fock_cutoff, nbar, lambda1, lambda2, phi, modulation, later
    ):
        params = SimParams(
            fock_cutoff=fock_cutoff,
            nbar=nbar,
            lambda1=lambda1,
            lambda2=lambda2,
            phi=phi,
            modulation=modulation,
        )
        psi0 = prepare_initial(0.0, 0.0, truncated_coherent(nbar, fock_cutoff))
        times = [0.0] + sorted(later)
        (coordinates,) = milburn_quadrature(psi0, params, times, ("ion1", "ion2"))
        g = density_from_coordinates(coordinates)
        for keep in experiments._MARGINALS:
            parts = experiments._part_map(keep, phi)
            fast = experiments._chunk_coefficients(parts, coordinates)
            for one, other in zip(fast, einsum_chunk_coefficients(keep, phi, g)):
                assert np.abs(one - other).max() <= 1e-14
            # The coefficients are even in phi; the parts pin the phase's sign.
            mapped = coordinates.reshape(len(g), -1) @ parts  # coordinates Re + Im
            reference = einsum_parts(keep, phi, g).reshape(len(g), -1)
            assert np.abs(mapped - (reference.real + reference.imag)).max() <= 1e-14

    @pytest.mark.parametrize("keep", list(experiments._MARGINALS))
    def test_coefficients_stay_within_the_chunk_budget(self, keep):
        params = SimParams(fock_cutoff=27, nbar=5.0, phi=0.3)
        times = np.linspace(0.0, 30.0, 601)  # six chunks of the 9 x 9 marginal
        coefficients = experiments._exchange_coefficients.__wrapped__  # uncached
        coefficients(params, keep, times[:1].tobytes())  # builds the cached block table
        key = times.tobytes()
        (trace, purity), peak = traced_peak(lambda: coefficients(params, keep, key))
        assert peak <= 16 * dynamics._CHUNK_ENTRIES + trace.nbytes + purity.nbytes

    @pytest.mark.parametrize("fock_cutoff", [4, 8])  # at 4 the field side, N + 1 = 5, is smaller
    @pytest.mark.parametrize("cut", FULL_CUTS)
    def test_sweep_matches_fresh_cells_bitwise(self, cut, fock_cutoff, monkeypatch):
        params = SimParams(fock_cutoff=fock_cutoff, nbar=0.5, epsilon=0.8, phi=0.3)
        thetas = (0.0, math.pi / 2, math.pi, 2 * math.pi)
        times = np.linspace(0.0, 12.0, 9)
        dims = []

        def spy(purity, d):
            dims.append(d)
            return concurrence_from_purity(purity, d)

        monkeypatch.setattr(experiments, "concurrence_from_purity", spy)
        experiments._exchange_coefficients.cache_clear()
        swept = run_sweep(params, thetas, [0.0], "i_concurrence", cut, times)
        layout = full_layout(fock_cutoff)
        assert dims == [min(layout.keep(side).total_dim for side in (cut.side_a, cut.side_b))] * 4
        for series in swept:
            experiments._exchange_coefficients.cache_clear()  # a fresh evolution per cell
            fresh = run_series(series.params, "i_concurrence", cut, times)
            assert np.array_equal(series.values, fresh.values)  # bit identical

    @pytest.mark.parametrize("cut", FULL_CUTS)
    def test_chunk_seams_match_per_cell(self, cut, monkeypatch):
        params = SimParams(fock_cutoff=8, nbar=1.5, epsilon=0.8, theta=0.5, phi=0.3)
        times = np.linspace(0.0, 12.0, 7)
        dim = full_layout(8).total_dim
        ions = tuple(sorted(cut.side_b if "field" in cut.side_a else cut.side_a))
        coefficients = experiments._exchange_coefficients.__wrapped__  # uncached
        whole = coefficients(params, ions, times.tobytes())
        # two times per chunk of the 9 x 9 marginal
        monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 2 * dynamics._row_entries(dim, 9))
        experiments._exchange_coefficients.cache_clear()  # so run_series evolves in chunks
        chunked = coefficients(params, ions, times.tobytes())
        for one, other in zip(whole, chunked):
            assert np.abs(one - other).max() <= 1e-15
        shared = run_series(params, "i_concurrence", cut, times).values
        deviation = float(np.abs(shared**2 - per_cell_concurrence(params, cut, times) ** 2).max())
        assert deviation <= 1e-12

    def test_support_on_ceiling_blocks_rejected(self):
        params = SimParams(fock_cutoff=6, nbar=0.0)
        layout = full_layout(6)
        amps = np.zeros(layout.total_dim, dtype=complex)
        amps[full_index(6, "a", "b", 6)] = 1.0  # lives in block 5 = N_max - 1
        psi0 = PureState(layout, amps)
        with pytest.raises(CutoffError, match="cutoff"):
            next(milburn_quadrature(psi0, params, [0.0, 1.0], ("ion1", "ion2")))

    def test_norm_drift_rejected(self, monkeypatch):
        monkeypatch.setattr(dynamics, "NORM_TOL", -1.0)
        params = SimParams(fock_cutoff=10, nbar=2.0)
        with pytest.raises(ValueError, match="not normalized"):
            next(milburn_quadrature(ion_state(theta=0.0), params, [0.0], ("ion1", "ion2")))
