import math

import numpy as np
import pytest

from ionduo import (
    ION_VS_ION,
    ION_VS_REST,
    IncompatibleMeasureError,
    MeasureSeries,
    Sech,
    SimParams,
    SuddenEvents,
    UnsupportedRegimeError,
    coherent_amplitudes,
    detect_sudden_events,
    get_block_system,
    i_concurrence_pure,
    prepare_initial,
    report_gamma_monotonicity,
    report_nbar_smoothing,
    report_sech_birth_delay,
    run_series,
    run_sweep,
    truncated_coherent,
)


def synthetic_series(values, step=0.1):
    values = np.asarray(values, dtype=float)
    times = np.arange(values.size) * step
    params = SimParams(fock_cutoff=4, nbar=0.0)
    return MeasureSeries("i_concurrence", ION_VS_REST, params, times, values)


class TestCoherentAmplitudes:
    def test_vacuum(self):
        field = coherent_amplitudes(0.0, 1e-10)
        assert field.amplitudes[0] == 1.0
        assert np.abs(field.amplitudes[1:]).max() == 0.0

    def test_nbar_five_deficit_and_mean(self):
        field = coherent_amplitudes(5.0, 1e-10)
        assert field.deficit <= 1e-10
        weights = field.amplitudes**2
        mean = float(np.arange(field.cutoff + 1) @ weights)
        assert 5.0 - 1e-6 <= mean <= 5.0

    def test_nbar_fifteen_cutoff_and_mean(self):
        field = coherent_amplitudes(15.0, 1e-10)
        assert field.cutoff >= 15
        weights = field.amplitudes**2
        mean = float(np.arange(field.cutoff + 1) @ weights)
        assert abs(mean - 15.0) <= 1e-6

    def test_headroom_slots_are_empty(self):
        field = coherent_amplitudes(3.0, 1e-8)
        assert field.amplitudes[-1] == 0.0
        assert field.amplitudes[-2] == 0.0

    def test_renormalized_exactly(self):
        field = coherent_amplitudes(7.0, 1e-6)
        assert abs(float(field.amplitudes @ field.amplitudes) - 1.0) <= 1e-12

    def test_invalid_deficit_rejected(self):
        with pytest.raises(ValueError):
            coherent_amplitudes(5.0, 0.0)


class TestPrepareInitial:
    def test_theta_zero_is_separable(self):
        field = truncated_coherent(2.0, 10)
        psi = prepare_initial(0.0, 0.0, field)
        assert i_concurrence_pure(psi, ION_VS_REST) == 0.0

    def test_theta_quarter_pi_is_maximally_entangled(self):
        field = truncated_coherent(2.0, 10)
        psi = prepare_initial(math.pi / 4, 0.0, field)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) <= 1e-12
        assert i_concurrence_pure(psi, ION_VS_REST) == pytest.approx(1.0, abs=1e-10)

    def test_block_scatter_reassembly_roundtrip(self):
        params = SimParams(fock_cutoff=10, nbar=2.0, theta=0.7, phi=0.4)
        field = truncated_coherent(params.nbar, params.fock_cutoff)
        psi = prepare_initial(params.theta, params.phi, field)
        system = get_block_system(params)
        rebuilt = np.zeros_like(psi.amplitudes)
        for n in system.evolvable_indices:
            idx = system.full_indices(n)
            rebuilt[idx] = psi.amplitudes[idx]
        assert np.abs(rebuilt - psi.amplitudes).max() <= 1e-14


class TestRunSeries:
    def test_separable_start_is_zero_at_t0(self):
        params = SimParams(fock_cutoff=10, nbar=2.0, theta=0.0)
        series = run_series(params, "i_concurrence", ION_VS_REST, np.linspace(0.0, 2.0, 5))
        assert series.values[0] <= 1e-10

    def test_gamma_continuity_between_paths(self):
        # pure path at gamma = 0 against the channel path at gamma -> 0
        times = np.linspace(0.0, 5.0, 11)
        pure = run_series(
            SimParams(fock_cutoff=8, nbar=1.0), "relative_entropy", ION_VS_ION, times
        )
        channel = run_series(
            SimParams(fock_cutoff=8, nbar=1.0, gamma=1e-12), "relative_entropy", ION_VS_ION, times
        )
        assert np.abs(pure.values - channel.values).max() <= 1e-6

    def test_fig1_style_series_qualitative(self):
        params = SimParams(fock_cutoff=27, nbar=5.0, theta=math.pi / 4, lambda2=0.01, phi=0.0)
        series = run_series(params, "i_concurrence", ION_VS_REST, np.linspace(0.0, 30.0, 61))
        assert series.values.max() > 0.5
        assert series.values.std() > 0.0  # non-constant

    def test_unknown_measure_rejected(self):
        params = SimParams(fock_cutoff=8, nbar=1.0)
        with pytest.raises(ValueError, match="measure"):
            run_series(params, "entropy_of_formation", ION_VS_REST, [0.0, 1.0])

    def test_concurrence_with_decoherence_rejected(self):
        params = SimParams(fock_cutoff=8, nbar=1.0, gamma=0.05)
        with pytest.raises(IncompatibleMeasureError):
            run_series(params, "i_concurrence", ION_VS_REST, [0.0, 1.0])

    def test_decoherence_with_sech_rejected(self):
        params = SimParams(fock_cutoff=8, nbar=1.0, gamma=0.05, modulation=Sech(2.0))
        with pytest.raises(UnsupportedRegimeError):
            run_series(params, "relative_entropy", ION_VS_ION, [0.0, 1.0])

    def test_concurrence_needs_full_cut(self):
        params = SimParams(fock_cutoff=8, nbar=1.0)
        with pytest.raises(IncompatibleMeasureError):
            run_series(params, "i_concurrence", ION_VS_ION, [0.0, 1.0])

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [1.0, 2.0], [0.0, -1.0]])
    def test_bad_time_grid_rejected_on_both_paths(self, gamma, times):
        params = SimParams(fock_cutoff=8, nbar=1.0, gamma=gamma)
        with pytest.raises(ValueError, match="strictly increasing and start at 0"):
            run_series(params, "negativity", ION_VS_ION, times)

    def test_negativity_series_on_reduced_state(self):
        params = SimParams(fock_cutoff=8, nbar=1.0, gamma=0.02)
        series = run_series(params, "negativity", ION_VS_ION, np.linspace(0.0, 3.0, 4))
        assert series.values[0] == pytest.approx(0.5, abs=1e-10)  # Bell pair witness
        assert np.all(series.values >= -1e-12)


class TestThetaSweep:
    def test_symmetry_about_half_pi_at_t0(self):
        params = SimParams(fock_cutoff=10, nbar=2.0)
        grid = np.linspace(0.0, math.pi, 21)
        sweep = run_sweep(
            params, grid, [0.0], "i_concurrence", ION_VS_REST, np.linspace(0.0, 1.0, 3)
        )
        t0 = np.array([series.values[0] for series in sweep])
        assert np.abs(t0 - t0[::-1]).max() <= 1e-12

    def test_t0_maxima_at_odd_quarter_pi(self):
        params = SimParams(fock_cutoff=10, nbar=2.0)
        grid = np.linspace(0.0, math.pi, 9)  # step pi/8, includes pi/4 and 3 pi/4
        sweep = run_sweep(params, grid, [0.0], "i_concurrence", ION_VS_REST, [0.0, 0.5])
        t0 = np.array([series.values[0] for series in sweep])
        best = np.flatnonzero(t0 >= t0.max() - 1e-12)
        assert set(best) == {2, 6}  # pi/4 and 3 pi/4

    def test_t0_zeros_at_separable_angles(self):
        params = SimParams(fock_cutoff=10, nbar=2.0)
        grid = [0.0, math.pi / 2, math.pi]
        sweep = run_sweep(params, grid, [0.0], "i_concurrence", ION_VS_REST, [0.0, 0.5])
        for series in sweep:
            assert series.values[0] <= 1e-12

    def test_empty_grid_rejected(self):
        params = SimParams(fock_cutoff=8, nbar=1.0)
        with pytest.raises(ValueError, match="nonempty"):
            run_sweep(params, [], [0.0], "i_concurrence", ION_VS_REST, [0.0, 1.0])

    def test_deterministic_across_worker_counts(self):
        params = SimParams(fock_cutoff=8, nbar=1.0)
        grid = [0.3, 0.7, 1.1]
        times = np.linspace(0.0, 2.0, 5)
        serial = run_sweep(params, grid, [0.0], "i_concurrence", ION_VS_REST, times, workers=1)
        parallel = run_sweep(params, grid, [0.0], "i_concurrence", ION_VS_REST, times, workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.values, b.values)  # bit identical


class TestSuddenEvents:
    def test_all_zero_series_has_no_events(self):
        events = detect_sudden_events(synthetic_series(np.zeros(30)))
        assert events.births == () and events.deaths == ()

    def test_step_gives_single_birth(self):
        values = np.where(np.arange(0.0, 4.0, 0.1) >= 2.0, 0.5, 0.0)
        events = detect_sudden_events(synthetic_series(values))
        assert len(events.births) == 1 and not events.deaths
        assert abs(events.births[0] - 2.0) <= 0.1

    def test_arch_with_dead_zone(self):
        times = np.arange(0.0, 3.05, 0.1)
        values = np.where(
            (times > 1.0) & (times <= 2.5),
            np.abs(np.sin(math.pi * (times - 1.0) / 1.5)),
            0.0,
        )
        events = detect_sudden_events(synthetic_series(values))
        assert len(events.births) == 1 and len(events.deaths) == 1
        assert 0.9 < events.births[0] <= 1.1
        assert abs(events.deaths[0] - 2.5) <= 0.1

    def test_grazing_blip_is_ignored(self):
        values = np.array([0.0, 0.0, 0.5, 0.0, 0.5, 0.5, 0.0, 0.0])
        events = detect_sudden_events(synthetic_series(values))
        # the one-point dip at index 3 does not count as a death
        assert len(events.births) == 1
        assert len(events.deaths) == 1
        assert events.deaths[0] == pytest.approx(0.6)

    def test_initially_entangled_series_dies_first(self):
        values = np.array([0.8, 0.7, 0.5, 0.0, 0.0, 0.0, 0.6, 0.6])
        events = detect_sudden_events(synthetic_series(values))
        assert len(events.deaths) == 1 and len(events.births) == 1
        assert events.deaths[0] < events.births[0]

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            detect_sudden_events(synthetic_series([0.0, 1.0]))

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            detect_sudden_events(synthetic_series(np.zeros(10)), threshold=0.0)

    def test_alternation_enforced_by_type(self):
        with pytest.raises(ValueError, match="alternate"):
            SuddenEvents(1e-3, births=(1.0, 2.0), deaths=())


class TestClaimReports:
    def test_gamma_monotonicity_report(self):
        report = report_gamma_monotonicity(gammas=(0.0, 0.05), nbar=1.0, n_times=21, t_max=5.0)
        assert isinstance(report["holds"], bool)
        assert len(report["averages"]) == 2

    def test_sech_birth_delay_report(self):
        report = report_sech_birth_delay(tau=2.0, nbar=1.0, n_times=201, t_max=10.0)
        assert isinstance(report["holds"], bool)
        assert report["grid_step"] == pytest.approx(0.05)

    def test_nbar_smoothing_report(self):
        report = report_nbar_smoothing(
            nbar_small=1.0, nbar_large=3.0, n_times=101, t_max=10.0
        )
        assert isinstance(report["holds"], bool)
        assert report["crossings_large"] >= 0
