import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    prepare_initial,
    run_series,
    run_sweep,
    truncated_coherent,
)
from ionduo import dynamics, experiments
from ionduo.core import DensityMatrix, HilbertLayout, PureState
from ionduo.dynamics import check_times, modulation_integral
from ionduo.experiments import FieldPreparation
from ionduo.ionmodel import FLOOR_SKIP, evolvable_blocks, full_layout
from ionduo.selftest import (
    block_index,
    full_index,
    i_concurrence_values,
    milburn_closed_form,
    report_gamma_monotonicity,
    report_nbar_smoothing,
    report_sech_birth_delay,
)


def synthetic_series(values, step=0.1):
    values = np.asarray(values, dtype=float)
    times = np.arange(values.size) * step
    params = SimParams(fock_cutoff=4, nbar=0.0)
    return MeasureSeries("i_concurrence", ION_VS_REST, params, times, values)


QUBIT = HilbertLayout((("q", 2),))


@pytest.mark.parametrize(
    "make",
    [
        lambda: SimParams(fock_cutoff=10, eta=math.inf),
        lambda: SimParams(fock_cutoff=10, eta=math.nan),
        lambda: SimParams(fock_cutoff=10, epsilon=math.nan),
        lambda: SimParams(fock_cutoff=10, epsilon=-math.inf),
        lambda: SimParams(fock_cutoff=10, lambda1=complex(1.0, math.nan)),
        lambda: SimParams(fock_cutoff=10, lambda2=math.inf),
        lambda: SimParams(fock_cutoff=10, gamma=math.nan),
        lambda: SimParams(fock_cutoff=10, nbar=math.inf),
        lambda: Sech(math.inf),
        lambda: Sech(math.nan),
        lambda: truncated_coherent(math.nan, 10),
        lambda: truncated_coherent(math.inf, 10),
        lambda: coherent_amplitudes(5.0, math.nan),
        lambda: coherent_amplitudes(math.nan, 1e-10),
        lambda: coherent_amplitudes(math.inf, 1e-10),
        lambda: FieldPreparation(0.0, 2, [math.nan, 0.0, 0.0], 0.0),
        lambda: detect_sudden_events(synthetic_series([0.0, 1.0, 1.0, 0.0]), math.nan),
        lambda: check_times([0.0, math.nan, 2.0]),
        lambda: modulation_integral(Sech(1.0), [0.0, math.nan]),
        lambda: PureState(QUBIT, [math.nan, 0.0]),
        lambda: DensityMatrix(QUBIT, np.full((2, 2), math.nan)),
        lambda: milburn_closed_form(DensityMatrix(QUBIT, np.eye(2) / 2), np.eye(2), math.nan, 1.0),
    ],
    ids=[
        "eta-inf", "eta-nan", "epsilon-nan", "epsilon-inf", "lambda1-nan", "lambda2-inf",
        "gamma-nan", "nbar-inf", "sech-inf", "sech-nan", "truncated-nbar-nan",
        "truncated-nbar-inf", "coherent-deficit-nan", "coherent-nbar-nan", "coherent-nbar-inf",
        "field-nan", "events-threshold-nan", "times-nan", "profile-time-nan", "pure-state-nan",
        "density-nan", "channel-gamma-nan",
    ],
)
def test_non_finite_input_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "field, value",
    [
        ("fock_cutoff", 0),
        ("fock_cutoff", 8.5),
        ("fock_cutoff", True),
        ("fock_cutoff", "8"),
        ("lambda1", "1"),
        ("lambda2", None),
        ("epsilon", 1j),
        ("epsilon", math.nan),
        ("eta", 1j),
        ("eta", math.inf),
        ("eta", -0.1),
        ("gamma", 1j),
        ("gamma", math.nan),
        ("nbar", "3"),
        ("nbar", math.inf),
        ("theta", 1j),
        ("phi", "0"),
    ],
)
def test_simparams_rejection_starts_with_the_field_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        SimParams(**{"fock_cutoff": 8, field: value})


@pytest.mark.parametrize("tau", [1j, "5", True, 0.0, -1.0])
def test_sech_rejection_starts_with_tau(tau):
    with pytest.raises(ValueError, match="^tau "):
        Sech(tau)


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

    @pytest.mark.parametrize("nbar", [700.0, 740.0, 800.0, 1000.0, 1400.0])
    def test_large_nbar_meets_the_tail_target(self, nbar):
        field = coherent_amplitudes(nbar, 1e-10)
        assert field.deficit <= 1e-10
        assert field.cutoff > nbar

    def test_presets_keep_their_cutoffs(self):
        assert [coherent_amplitudes(nbar, 1e-10).cutoff for nbar in (5.0, 15.0, 100.0)] == [
            27,
            48,
            172,
        ]

    def test_target_below_float_resolution_ends(self):
        for nbar in (5.0, 800.0):
            assert coherent_amplitudes(nbar, 1e-300).deficit <= np.finfo(float).eps

    @pytest.mark.parametrize(
        "make",
        [lambda: coherent_amplitudes(1500.0, 1e-10), lambda: truncated_coherent(1500.0, 1800)],
    )
    def test_nbar_beyond_the_limit_refused(self, make):
        with pytest.raises(ValueError, match=r"^nbar must lie in \[0, 1416\.8\]"):
            make()


def slice_start(theta, phi, field):
    """The 0.11.0 prepare_initial: the field written into the |a b> and
    |b a> slices of the full layout's amplitudes."""
    cutoff = field.cutoff
    amps = np.zeros(9 * (cutoff + 1), dtype=np.complex128)
    start_ab, start_ba = full_index(0, "a", "b", cutoff), full_index(0, "b", "a", cutoff)
    amps[start_ab : start_ab + cutoff + 1] = math.cos(theta) * field.amplitudes
    amps[start_ba : start_ba + cutoff + 1] = (
        math.sin(theta) * complex(math.cos(phi), math.sin(phi)) * field.amplitudes
    )
    return amps


def kron_bright_start(params):
    """The 0.11.0 start of the bright pass, |a> x (conj(lambda1) b -
    lambda2 c) / Lambda x field, or |a b> x field with no coupling, by two
    krons, as the complex amplitudes PureState made of it."""
    bright = math.hypot(abs(params.lambda1), abs(params.lambda2))
    ion2 = [0, 1, 0]
    if bright:
        ion2 = [0, params.lambda1.conjugate() / bright, -params.lambda2 / bright]
    field = truncated_coherent(params.nbar, params.fock_cutoff)
    return np.kron([1, 0], np.kron(ion2, field.amplitudes)).astype(np.complex128)


def bright_start(params):
    """The start the uncached experiments._exchange_coefficients hands the
    channel, which here evolves nothing."""
    seen = []

    def recorded(psi0, *_):
        seen.append(psi0)
        return iter(())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "milburn_quadrature", recorded)
        experiments._exchange_coefficients.__wrapped__(params, ("ion1",), np.zeros(1).tobytes())
    (psi0,) = seen
    return psi0


lambdas = st.one_of(
    st.just(0j), st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
)


class TestPrepareInitial:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        theta=st.floats(-7.0, 7.0),
        phi=st.floats(-7.0, 7.0),
        nbar=st.floats(0.0, 12.0),
        cutoff=st.integers(2, 40),
        lambda1=lambdas,
        lambda2=lambdas,
    )
    def test_one_builder_makes_the_slice_and_kron_starts(
        self, theta, phi, nbar, cutoff, lambda1, lambda2
    ):
        field = truncated_coherent(nbar, cutoff)
        psi = prepare_initial(theta, phi, field)
        assert psi.layout == full_layout(cutoff)
        assert psi.amplitudes.tobytes() == slice_start(theta, phi, field).tobytes()
        params = SimParams(fock_cutoff=cutoff, nbar=nbar, lambda1=lambda1, lambda2=lambda2)
        start = bright_start(params)
        assert start.layout.factors == (("ion1", 2), ("ion2", 3), ("field", cutoff + 1))
        # Equal bits but for the sign of a zero, which -0 == 0 leaves out: the
        # second kron multiplies every entry by 1 + 0j or 0 + 0j once more.
        assert np.array_equal(start.amplitudes, kron_bright_start(params))

    def test_theta_zero_is_separable(self):
        field = truncated_coherent(2.0, 10)
        psi = prepare_initial(0.0, 0.0, field)
        assert i_concurrence_values(psi.amplitudes[None], psi.layout, ION_VS_REST)[0] == 0.0

    def test_theta_quarter_pi_is_maximally_entangled(self):
        field = truncated_coherent(2.0, 10)
        psi = prepare_initial(math.pi / 4, 0.0, field)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) <= 1e-12
        value = i_concurrence_values(psi.amplitudes[None], psi.layout, ION_VS_REST)[0]
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_block_scatter_reassembly_roundtrip(self):
        params = SimParams(fock_cutoff=10, nbar=2.0, theta=0.7, phi=0.4)
        field = truncated_coherent(params.nbar, params.fock_cutoff)
        psi = prepare_initial(params.theta, params.phi, field)
        # the projected parts of each block sum back to its amplitudes
        _, parts, _ = dynamics._projected(psi, params)
        table = block_index(params.fock_cutoff)
        rebuilt = np.zeros_like(psi.amplitudes)
        for i, n in enumerate(evolvable_blocks(params.fock_cutoff)):
            rebuilt[table == n] = parts[i].sum(axis=1)[np.array(FLOOR_SKIP) <= i]
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

    def test_concurrence_with_decoherence_is_refused_before_any_cell(self, monkeypatch):
        params = SimParams(fock_cutoff=8, nbar=1.0)
        experiments._exchange_coefficients.cache_clear()  # no pass of an earlier test served
        passes, cells = [], []
        exchange, series = experiments._exchange_coefficients, experiments.run_series
        monkeypatch.setattr(
            experiments, "_exchange_coefficients", lambda *a: passes.append(a) or exchange(*a)
        )
        monkeypatch.setattr(experiments, "run_series", lambda *a: cells.append(a) or series(*a))
        with pytest.raises(IncompatibleMeasureError, match="pure states only"):
            run_sweep(params, [0.3, 0.6], [0.0, 0.05], "i_concurrence", ION_VS_REST, [0.0, 1.0])
        assert passes == [] and cells == []

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

    @pytest.mark.parametrize("measure, calls", [("negativity", 1), ("relative_entropy", 3)])
    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_one_chunk_takes_each_eigendecomposition_once(self, monkeypatch, measure, calls, gamma):
        # The channel certifies its chunks, so the measure's own spectra are
        # the only ones taken: the partial transpose's, or S_A, S_B and S_AB.
        honest, seen = np.linalg.eigvalsh, []

        def counted(matrices):
            seen.append(matrices.shape)
            return honest(matrices)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        params = SimParams(fock_cutoff=8, nbar=1.0, gamma=gamma)
        run_series(params, measure, ION_VS_ION, np.linspace(0.0, 3.0, 4))
        assert len(seen) == calls and all(shape[0] == 4 for shape in seen)

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

    def test_empty_gamma_grid_rejected(self):
        params = SimParams(fock_cutoff=8, nbar=1.0)
        with pytest.raises(ValueError, match="nonempty"):
            run_sweep(params, [0.3], [], "negativity", ION_VS_ION, [0.0, 1.0])

    @pytest.mark.parametrize(
        "thetas, gammas",
        [
            ([0.3, 0.7, 1.1], [0.0]),
            ([0.3], [0.0, 0.02, 0.05]),
            ([0.3, 0.7], [0.0, 0.02]),
            ([0.3], [0.0]),
            ([1.1, 0.3, 0.7], [0.05, 0.0]),
        ],
    )
    def test_one_run_series_per_cell_in_theta_gamma_order(self, monkeypatch, thetas, gammas):
        calls = []

        def spy(params, measure, cut, times):
            calls.append((params.theta, params.gamma))
            return run_series(params, measure, cut, times)

        monkeypatch.setattr(experiments, "run_series", spy)
        params = SimParams(fock_cutoff=6, nbar=1.0)
        times = np.linspace(0.0, 2.0, 5)
        swept = run_sweep(params, thetas, gammas, "negativity", ION_VS_ION, times)
        cells = [(theta, gamma) for theta in thetas for gamma in gammas]
        assert calls == cells
        assert [(s.params.theta, s.params.gamma) for s in swept] == cells
        for (theta, gamma), series in zip(cells, swept):
            cell = SimParams(fock_cutoff=6, nbar=1.0, theta=theta, gamma=gamma)
            alone = run_series(cell, "negativity", ION_VS_ION, times)
            assert np.array_equal(series.values, alone.values)  # bit identical

    def test_shared_evolution_is_bit_identical_to_a_fresh_one(self):
        params = SimParams(fock_cutoff=8, nbar=1.0)
        grid = [0.3, 0.7, 1.1]
        times = np.linspace(0.0, 2.0, 5)
        experiments._exchange_coefficients.cache_clear()
        first = run_sweep(params, grid, [0.0], "i_concurrence", ION_VS_REST, times)
        reused = run_sweep(params, grid, [0.0], "i_concurrence", ION_VS_REST, times)
        experiments._exchange_coefficients.cache_clear()
        fresh = [run_series(s.params, "i_concurrence", ION_VS_REST, times) for s in first]
        for a, b, c in zip(first, reused, fresh):
            assert np.array_equal(a.values, b.values)  # bit identical
            assert np.array_equal(a.values, c.values)

    def test_seven_thetas_evolve_once(self):
        params = SimParams(fock_cutoff=6, nbar=1.0)
        thetas = np.linspace(0.0, math.pi, 7)
        experiments._exchange_coefficients.cache_clear()
        run_sweep(params, thetas, [0.0], "i_concurrence", ION_VS_REST, np.linspace(0.0, 2.0, 5))
        info = experiments._exchange_coefficients.cache_info()
        assert (info.misses, info.hits) == (1, 6)


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

    @pytest.mark.parametrize(
        "values", [[0.0], [1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], ids=["0", "1", "01", "10", "11"]
    )
    def test_one_or_two_points_have_no_events(self, values):
        # a crossing counts only after two points on the other side
        assert detect_sudden_events(synthetic_series(values)) == SuddenEvents(1e-3, (), ())

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            detect_sudden_events(synthetic_series(np.zeros(10)), threshold=0.0)

    def test_alternation_enforced_by_type(self):
        with pytest.raises(ValueError, match="alternate"):
            SuddenEvents(1e-3, births=(1.0, 2.0), deaths=())


def loop_sudden_events(series, threshold=1e-3):
    """The per-point loop that detect_sudden_events replaced, kept as its oracle."""
    values, times = series.values, series.times
    above = bool(values[0] >= threshold)
    expecting = "death" if above else "birth"
    run = 1
    births, deaths = [], []
    for i in range(1, values.size):
        now_above = bool(values[i] >= threshold)
        if now_above == above:
            run += 1
            continue
        if run >= 2:
            if now_above and expecting == "birth":
                births.append(float(times[i]))
                expecting = "death"
            elif not now_above and expecting == "death":
                deaths.append(float(times[i]))
                expecting = "birth"
        above = now_above
        run = 1
    return SuddenEvents(threshold, tuple(births), tuple(deaths))


# Levels on either side of the 1e-3 threshold; the threshold itself counts as above.
BELOW_THRESHOLD = (0.0, 5e-4, float(np.nextafter(1e-3, 0.0)))
AT_OR_ABOVE_THRESHOLD = (1e-3, float(np.nextafter(1e-3, 1.0)), 0.5)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    start_above=st.booleans(),
    runs=st.lists(st.integers(1, 5), min_size=3, max_size=30),  # a run of 1 is a blip
    picks=st.lists(st.integers(0, 2), min_size=60, max_size=60),
)
def test_sudden_events_match_the_loop(start_above, runs, picks):
    above = np.repeat(np.arange(len(runs)) % 2 == int(not start_above), runs)[:60]
    picks = np.array(picks[: above.size])
    values = np.where(
        above, np.take(AT_OR_ABOVE_THRESHOLD, picks), np.take(BELOW_THRESHOLD, picks)
    )
    series = synthetic_series(values)
    assert detect_sudden_events(series) == loop_sudden_events(series)


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


def diff_sudden_events(series, threshold=1e-3):
    """The np.diff(prepend=) form of detect_sudden_events, which the shifted
    comparisons replaced, kept as their oracle."""
    above = series.values >= threshold
    changes = np.flatnonzero(above[1:] != above[:-1]) + 1
    crossings = changes[np.diff(changes, prepend=0) >= 2]
    rising = above[crossings]
    kept = np.diff(rising, prepend=above[0])
    births, deaths = crossings[kept & rising], crossings[kept & ~rising]
    return SuddenEvents(threshold, series.times[births], series.times[deaths])


def test_sudden_events_match_the_diff_form():
    rng = np.random.default_rng(28)
    for size in range(3, 41):
        alternating = np.arange(size) % 2 == 0
        shapes = [np.zeros(size, bool), np.ones(size, bool), alternating, ~alternating]
        shapes += [rng.random(size) < p for p in (0.1, 0.5, 0.9) for _ in range(4)]
        shapes += [  # runs of 1-5 points, a run of 1 a blip
            np.repeat(np.arange(size) % 2 == rng.integers(2), rng.integers(1, 6, size))[:size]
            for _ in range(8)
        ]
        for above in shapes:
            picks = rng.integers(0, 3, size)
            values = np.where(
                above, np.take(AT_OR_ABOVE_THRESHOLD, picks), np.take(BELOW_THRESHOLD, picks)
            )
            series = synthetic_series(values)
            assert detect_sudden_events(series) == diff_sudden_events(series)
