import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from ionduo import (
    Constant,
    DensityMatrix,
    HilbertLayout,
    PureState,
    Sech,
    SimParams,
    Spectrum,
    evolve_pure,
    evolve_pure_dense,
    hermitian_spectrum,
    milburn_closed_form,
    milburn_kraus,
    modulation_integral,
    prepare_initial,
    truncated_coherent,
)
from ionduo import dynamics, ionmodel
from ionduo.ionmodel import CutoffError, build_full_hamiltonian, full_index, full_layout


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
        restart = evolve_pure(PureState(psi0.layout, direct[1]), params, [0.0, 0.9], t_offset=1.3)
        assert np.abs(restart[1] - direct[2]).max() <= 1e-12

    def test_restart_matches_direct_sech(self):
        params = SimParams(fock_cutoff=10, nbar=2.0, modulation=Sech(2.0))
        psi0 = ion_state()
        direct = evolve_pure(psi0, params, [0.0, 1.0, 2.0])
        restart = evolve_pure(PureState(psi0.layout, direct[1]), params, [0.0, 1.0], t_offset=1.0)
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
        honest = hermitian_spectrum

        def stretched(matrix):
            spectrum = honest(matrix)
            return Spectrum(spectrum.eigenvalues, 1.001 * spectrum.eigenvectors)

        monkeypatch.setattr(ionmodel, "hermitian_spectrum", stretched)
        monkeypatch.setattr(dynamics, "hermitian_spectrum", stretched)
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


class TestEvolveMilburn:
    def test_kraus_grid_matches_closed_grid(self):
        params = SimParams(fock_cutoff=8, nbar=1.0, gamma=0.3)
        rho0 = ion_state(8, 1.0).to_density()
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
            rho = milburn_closed_form(psi0.to_density(), hamiltonian, 0.0, t)
            projector = np.outer(psi, psi.conj())
            assert np.abs(rho.matrix - projector).max() <= 1e-10
