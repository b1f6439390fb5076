"""Fast built-in oracle suite behind the ``ionduo selftest`` command, and the
home of every independent route that no ``simulate`` or ``figure`` run
executes.  No production module imports it; the CLI loads it only for the
``selftest`` command.

It holds the oracles that the checks and the test suite compare production
against: the projector of a pure state, the partial trace of a dense density
matrix, the block index of every basis state, dense propagation by one
eigendecomposition of the full Hamiltonian, the closed-form solution of the
intrinsic-decoherence master equation and its truncated Kraus-operator sum.
All but the first three are defined for time-independent coupling only.

Hard checks compare independent computation routes (block against dense
propagation, block spectra against the closed-form bright/dark spectrum, the
Gauss-Hermite channel and the truncated Kraus sum against the dense
closed-form channel, the I-concurrence shared by every theta against per-cell
evolution, evolved t = 0 concurrence against its closed form, the modulation
antiderivative against quadrature) plus frozen reference values E(m)
of the vibrational mode function.  Qualitative claims about the dynamics are
reported as PASS/WARN and never fail the run, since they encode expected
physics rather than contracts; their floats print at 12 significant digits,
the CSV's precision, so that round-off does not change a claim line.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, entanglement, experiments, ionmodel
from .core import NORM_TOL, DensityMatrix, PureState, hermitian_spectrum
from .experiments import ION_VS_ION, ION_VS_REST, detect_sudden_events, run_series
from .params import Sech, SimParams

KRAUS_DEFICIT_TARGET = 1e-10
KRAUS_MAX_TERMS = 512


def pure_density(psi: PureState) -> DensityMatrix:
    """The projector |psi><psi| of a pure state, checked as a density matrix."""
    return DensityMatrix(psi.layout, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not named in ``keep``.

    The returned layout contains exactly the kept factors in their original
    order.  ``keep`` must be a nonempty proper subset of the layout labels.
    """
    keep, layout = set(keep), rho.layout
    if keep == set(layout.labels):
        raise ValueError("keep equals the full factor set; partial trace would be a no-op")
    rows = layout.split(rho.matrix.T, keep)  # (column, kept row, traced row)
    tensor = layout.split(rows.transpose(1, 2, 0), keep)  # rows, then columns
    return DensityMatrix(layout.keep(keep), np.einsum("ajbj->ab", tensor))


def block_index(fock_cutoff: int) -> np.ndarray:
    """Block index n = (Fock number) - (ions not in ``a``) of every basis
    state of the full layout, in layout order."""
    ion1, ion2, fock = np.indices((3, 3, fock_cutoff + 1))
    a = ionmodel.LEVEL_INDEX["a"]
    return (fock - (ion1 != a) - (ion2 != a)).ravel()


def evolve_pure_dense(psi0: PureState, params: SimParams, times) -> np.ndarray:
    """Independent dense oracle: exp(-i H Theta(t)) on the full space via a
    single eigendecomposition of the assembled Hamiltonian.  Same contract
    as ``dynamics.evolve_pure``, checked here on its own (a row off norm 1 by
    more than NORM_TOL raises ValueError, more than 1e-12 weight on the
    blocks above N_max - 2 of ``block_index`` raises CutoffError), but on
    the full layout only: a start on two levels of an ion raises ValueError."""
    times = dynamics.check_times(times)
    cutoff = params.fock_cutoff
    if psi0.layout != ionmodel.full_layout(cutoff):
        raise ValueError("the dense oracle evolves only the full layout of params.fock_cutoff")
    leak = float(np.sum(np.abs(psi0.amplitudes[block_index(cutoff) > cutoff - 2]) ** 2))
    if leak > 1e-12:
        raise ionmodel.CutoffError(
            f"initial state has weight {leak:.3e} on blocks truncated by the cutoff; "
            f"raise fock_cutoff"
        )
    spectrum = hermitian_spectrum(ionmodel.build_full_hamiltonian(params))
    theta = dynamics.modulation_integral(params.modulation, times)
    coeffs = spectrum.eigenvectors.conj().T @ psi0.amplitudes
    phases = np.exp(-1j * np.outer(theta, spectrum.eigenvalues))
    states = (phases * coeffs) @ spectrum.eigenvectors.T
    drift = float(np.abs(np.einsum("ij,ij->i", states.conj(), states).real - 1.0).max())
    if not drift <= NORM_TOL:
        raise ValueError(f"state is not normalized: |norm^2 - 1| = {drift:.3e}")
    states.flags.writeable = False
    return states


def milburn_closed_form(
    rho0: DensityMatrix, hamiltonian: np.ndarray, gamma: float, t: float
) -> DensityMatrix:
    """Closed-form solution of the intrinsic-decoherence master equation
    for a time-independent Hamiltonian: in its eigenbasis the coherence
    across a gap dE picks up exp(-i dE t - gamma t dE^2 / 2)."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    spectrum = hermitian_spectrum(np.asarray(hamiltonian))
    v = spectrum.eigenvectors
    gaps = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    damping = np.exp(-1j * gaps * t - 0.5 * gamma * t * gaps**2)
    rho_eig = (v.conj().T @ rho0.matrix @ v) * damping
    out = v @ rho_eig @ v.conj().T
    return DensityMatrix(rho0.layout, 0.5 * (out + out.conj().T))


def _kraus_diagonal(eigenvalues: np.ndarray, gamma: float, t: float, k: int) -> np.ndarray:
    """Eigenbasis diagonal of the k-th Kraus operator
    (gamma t)^(k/2) / sqrt(k!) * E^k * exp(-i E t) * exp(-gamma t E^2 / 2)."""
    survival = np.exp(-1j * eigenvalues * t - 0.5 * gamma * t * eigenvalues**2)
    if k == 0:
        return survival
    x = gamma * t * eigenvalues**2
    with np.errstate(divide="ignore"):
        magnitude = np.exp(0.5 * (k * np.log(x) - math.lgamma(k + 1)))
    sign = np.where(eigenvalues < 0, (-1.0) ** k, 1.0)
    return sign * magnitude * survival


def _adaptive_kraus_terms(eigenvalues: np.ndarray, gamma: float, t: float) -> int:
    """Smallest K (capped) whose Poisson-weighted tail leaves a completeness
    deficit at most KRAUS_DEFICIT_TARGET."""
    rates = gamma * t * eigenvalues**2
    term = np.exp(-rates)
    covered = term.copy()
    for k in range(1, KRAUS_MAX_TERMS):
        if 1.0 - covered.min() <= KRAUS_DEFICIT_TARGET:
            return k
        term = term * rates / k
        covered += term
    return KRAUS_MAX_TERMS


def milburn_kraus(
    rho0: DensityMatrix,
    hamiltonian: np.ndarray,
    gamma: float,
    t: float,
    terms: int | None = None,
) -> tuple[DensityMatrix, float]:
    """Truncated Kraus-operator sum for the intrinsic-decoherence channel.

    Builds each dense Kraus operator and accumulates sum_k M_k rho M_k^dag
    literally, as an independent cross-check of the closed form.  Returns
    the evolved state together with the completeness deficit
    delta(K) = max |sum_k M_k M_k^dag - I|, so callers can certify the
    truncation.  With ``terms=None`` the count is chosen adaptively so that
    delta <= KRAUS_DEFICIT_TARGET, capped at KRAUS_MAX_TERMS.
    """
    if terms is not None and terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    spectrum = hermitian_spectrum(np.asarray(hamiltonian))
    if terms is None:
        terms = _adaptive_kraus_terms(spectrum.eigenvalues, gamma, t)
    v = spectrum.eigenvectors
    evolved = np.zeros_like(rho0.matrix)
    completeness = np.zeros_like(rho0.matrix)
    for k in range(terms):
        m_k = (v * _kraus_diagonal(spectrum.eigenvalues, gamma, t, k)) @ v.conj().T
        evolved = evolved + m_k @ rho0.matrix @ m_k.conj().T
        completeness = completeness + m_k @ m_k.conj().T
    deficit = float(np.abs(completeness - np.eye(completeness.shape[0])).max())
    return DensityMatrix(rho0.layout, 0.5 * (evolved + evolved.conj().T)), deficit


def _default_params(nbar: float, **overrides) -> SimParams:
    cutoff = experiments.coherent_amplitudes(nbar, 1e-10).cutoff
    return SimParams(fock_cutoff=cutoff, nbar=nbar, **overrides)


def report_gamma_monotonicity(
    gammas=(0.0, 0.01, 0.05, 0.1),
    nbar: float = 5.0,
    theta: float = math.pi / 4,
    t_max: float = 30.0,
    n_times: int = 201,
    slack: float = 1e-6,
) -> dict:
    """Check that the time-averaged relative entropy of the two-ion state is
    non-increasing in the intrinsic-decoherence rate."""
    params = _default_params(nbar, theta=theta)
    times = np.linspace(0.0, t_max, n_times)
    averages = []
    for gamma in gammas:
        series = run_series(replace(params, gamma=gamma), "relative_entropy", ION_VS_ION, times)
        averages.append(float(series.values.mean()))
    holds = all(later <= earlier + slack for earlier, later in zip(averages, averages[1:]))
    return {
        "claim": "time-averaged two-ion relative entropy is non-increasing in gamma",
        "holds": bool(holds),
        "gammas": [float(g) for g in gammas],
        "averages": averages,
    }


def report_sech_birth_delay(
    tau: float,
    theta: float = 2.5e-4,
    threshold: float = 1e-3,
    nbar: float = 5.0,
    t_max: float = 30.0,
    n_times: int = 601,
) -> dict:
    """Check that sech modulation delays the first entanglement birth of a
    near-separable start relative to constant coupling, within one grid
    step."""
    params = _default_params(nbar, theta=theta)
    times = np.linspace(0.0, t_max, n_times)
    step = float(times[1] - times[0])
    constant = run_series(params, "i_concurrence", ION_VS_REST, times)
    modulated = run_series(
        replace(params, modulation=Sech(tau)), "i_concurrence", ION_VS_REST, times
    )
    births_constant = detect_sudden_events(constant, threshold).births
    births_modulated = detect_sudden_events(modulated, threshold).births
    if not births_constant:
        holds = False  # nothing to compare against inside the window
    elif not births_modulated:
        holds = True  # delayed beyond the window entirely
    else:
        holds = births_modulated[0] >= births_constant[0] - step
    return {
        "claim": "sech modulation delays the first entanglement birth",
        "holds": bool(holds),
        "tau": float(tau),
        "theta": float(theta),
        "first_birth_constant": births_constant[0] if births_constant else None,
        "first_birth_sech": births_modulated[0] if births_modulated else None,
        "grid_step": step,
    }


def report_nbar_smoothing(
    nbar_small: float = 5.0,
    nbar_large: float = 15.0,
    threshold: float = 1e-3,
    theta: float = math.pi / 4,
    t_max: float = 30.0,
    n_times: int = 601,
) -> dict:
    """Check that a larger initial field intensity produces no more
    threshold crossings (smoother decay) than a smaller one."""
    times = np.linspace(0.0, t_max, n_times)
    counts = {}
    for nbar in (nbar_small, nbar_large):
        series = run_series(_default_params(nbar, theta=theta), "i_concurrence", ION_VS_REST, times)
        flags = series.values >= threshold
        counts[nbar] = int(np.sum(flags[1:] != flags[:-1]))
    holds = counts[nbar_large] <= counts[nbar_small]
    return {
        "claim": "larger nbar produces no more threshold crossings",
        "holds": bool(holds),
        "crossings_small": counts[nbar_small],
        "crossings_large": counts[nbar_large],
        "nbar_small": float(nbar_small),
        "nbar_large": float(nbar_large),
    }


#: Frozen spot values E(m) of the mode function (direct evaluation of its
#: closed form); the first entry is the eta = 0 limit -epsilon/2.
_MODE_REFERENCE = (
    ((0, 0.0, 1.0), -0.5),
    ((1, 0.202, 1.0), -0.46991238056863593),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str = ""


def _check_mode_reference() -> CheckResult:
    worst = 0.0
    for (m, eta, epsilon), expected in _MODE_REFERENCE:
        params = SimParams(fock_cutoff=4, eta=eta, epsilon=epsilon)
        worst = max(worst, abs(ionmodel.mode_function(params)[m] - expected))
    return CheckResult("mode-function-reference", worst <= 1e-12, worst, 1e-12)


def _check_block_vs_dense() -> CheckResult:
    params = SimParams(fock_cutoff=12, nbar=2.0, theta=math.pi / 4)
    field = experiments.truncated_coherent(params.nbar, params.fock_cutoff)
    psi0 = experiments.prepare_initial(params.theta, params.phi, field)
    times = np.linspace(0.0, 5.0, 51)
    block = dynamics.evolve_pure(psi0, params, times)
    dense = evolve_pure_dense(psi0, params, times)
    worst = float(np.abs(block - dense).max())
    return CheckResult("block-vs-dense", worst <= 1e-8, worst, 1e-8)


def _check_channels_vs_closed() -> CheckResult:
    params = SimParams(fock_cutoff=8, nbar=2.0, theta=math.pi / 4)
    field = experiments.truncated_coherent(params.nbar, params.fock_cutoff)
    psi0 = experiments.prepare_initial(params.theta, params.phi, field)
    rho0 = pure_density(psi0)
    hamiltonian = ionmodel.build_full_hamiltonian(params)
    keep = experiments.ION_VS_ION.labels
    worst = 0.0
    worst_deficit = 0.0
    for gamma_t in (0.1, 1.0, 5.0):
        closed = milburn_closed_form(rho0, hamiltonian, gamma_t, 1.0)
        summed, deficit = milburn_kraus(rho0, hamiltonian, gamma_t, 1.0)
        chunks = dynamics.milburn_quadrature(psi0, replace(params, gamma=gamma_t), [0, 1], keep)
        rho = dynamics.density_from_coordinates(next(chunks))
        block = np.abs(partial_trace(closed, keep).matrix - rho[1]).max()
        worst = max(worst, float(np.abs(closed.matrix - summed.matrix).max()), float(block))
        worst_deficit = max(worst_deficit, deficit)
    passed = worst <= 1e-10 and worst_deficit <= 1e-10
    return CheckResult(
        "channels-vs-closed", passed, worst, 1e-10, detail=f"Kraus deficit {_decade(worst_deficit)}"
    )


def _check_spectrum_closed_form() -> CheckResult:
    params = SimParams(fock_cutoff=12, lambda1=0.7 + 0.3j, lambda2=0.4 - 0.2j, eta=0.3, epsilon=0.4)
    frequencies = ionmodel.block_frequencies(params)
    scale = float(frequencies[:, 1].max())
    eigenvalues = np.linalg.eigvalsh(ionmodel.block_couplings(params))
    closed, _ = ionmodel.closed_form_spectrum(frequencies)
    worst = float(np.abs(eigenvalues - closed).max())
    return CheckResult("spectrum-vs-closed-form", worst <= 1e-12 * scale, worst / scale, 1e-12)


#: Parameters of the theta-linear check; a cache outliving a faulted run
#: would serve this run's data to the next.
THETA_LINEAR_PARAMS = SimParams(fock_cutoff=10, nbar=1.5, phi=0.7, lambda2=0.3 + 0.2j)


def _check_theta_linear() -> CheckResult:
    """Production I-concurrence, one evolution shared by every theta,
    against per-cell evolution of each initial state, in C^2."""
    params = THETA_LINEAR_PARAMS
    field = experiments.truncated_coherent(params.nbar, params.fock_cutoff)
    times = np.linspace(0.0, 10.0, 41)
    layout = ionmodel.full_layout(params.fock_cutoff)
    cut = experiments.ION_VS_REST
    worst = 0.0
    for theta in (0.0, 0.4, math.pi / 2, 2.5):
        shared = experiments.run_series(replace(params, theta=theta), "i_concurrence", cut, times)
        psi0 = experiments.prepare_initial(theta, params.phi, field)
        states = dynamics.evolve_pure(psi0, params, times)
        per_cell = entanglement.i_concurrence_values(states, layout, cut)
        worst = max(worst, float(np.abs(shared.values**2 - per_cell**2).max()))
    return CheckResult("theta-linear-vs-per-cell", worst <= 1e-12, worst, 1e-12)


def _check_t0_concurrence() -> CheckResult:
    worst = 0.0
    for theta in np.linspace(0.0, 2 * math.pi, 13):
        params = SimParams(fock_cutoff=10, nbar=1.0, theta=float(theta))
        field = experiments.truncated_coherent(params.nbar, params.fock_cutoff)
        psi0 = experiments.prepare_initial(params.theta, params.phi, field)
        value = entanglement.i_concurrence_pure(psi0, experiments.ION_VS_REST)
        worst = max(worst, abs(value - abs(math.sin(2 * theta))))
    return CheckResult("t0-concurrence", worst <= 1e-10, worst, 1e-10)


def _gauss_legendre_theta(tau: float, t: float, panels: int = 64, order: int = 20) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, t, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        scaled = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(np.sum(weights / np.cosh(scaled / (2.0 * tau))))
    return total


def _check_modulation_integral() -> CheckResult:
    worst = 0.0
    for tau in (0.5, 5.0):
        limit = dynamics.modulation_integral(Sech(tau), 100.0 * tau)
        worst = max(worst, abs(limit - math.pi * tau))
        for t in (0.7, 3.0, 12.0):
            closed = dynamics.modulation_integral(Sech(tau), t)
            worst = max(worst, abs(closed - _gauss_legendre_theta(tau, t)))
    return CheckResult("modulation-integral", worst <= 1e-10, worst, 1e-10)


_CHECKS = (
    _check_mode_reference,
    _check_block_vs_dense,
    _check_spectrum_closed_form,
    _check_channels_vs_closed,
    _check_theta_linear,
    _check_t0_concurrence,
    _check_modulation_integral,
)


def _claim_reports() -> list[dict]:
    return [
        report_gamma_monotonicity(),
        report_sech_birth_delay(tau=5.0),
        report_nbar_smoothing(),
    ]


def _claim_line(report: dict) -> str:
    """The PASS/WARN line of one claim report, each float of its numbers at
    12 significant digits."""

    def short(value):
        if isinstance(value, list):
            return [short(item) for item in value]
        return float(format(value, ".12g")) if isinstance(value, float) else value

    status = "PASS" if report["holds"] else "WARN"
    numbers = {key: short(value) for key, value in report.items() if key not in ("claim", "holds")}
    return f"{status} claim: {report['claim']}  {numbers}"


def _decade(value: float) -> str:
    """``<= 1eN``, 1eN the least power of ten at or above a positive finite
    ``value`` (log10 may round across a power), else the value as it is."""
    if not 0 < value < math.inf:
        return f"{value:g}"
    exponent = math.floor(math.log10(value))
    return f"<= 1e{exponent + (float(f'1e{exponent}') < value)}"


def _clear_caches() -> None:
    """Empty every cache that holds data derived from the mode function."""
    ionmodel.get_block_system.cache_clear()
    experiments._exchange_coefficients.cache_clear()


def run_selftest(inject_fault: str | None = None, include_claims: bool = True, stream=None) -> int:
    """Run the oracle suite; returns 0 iff every hard check passes.

    ``inject_fault='mode_strength'`` binds ``ionmodel.mode_function`` to the
    honest function times 1.001 while the checks run, as a negative control
    proving they can fail; the honest function is bound again and the caches
    are clean when this returns.
    """
    stream = stream if stream is not None else sys.stdout
    if inject_fault not in (None, "mode_strength"):
        raise ValueError(f"unknown fault {inject_fault!r}")

    failures = 0
    honest = ionmodel.mode_function
    try:
        if inject_fault == "mode_strength":
            ionmodel.mode_function = lambda params: honest(params) * 1.001
            _clear_caches()
        for check in _CHECKS:
            result = check()
            status = "PASS" if result.passed else "FAIL"
            extra = f"  [{result.detail}]" if result.detail else ""
            print(
                f"{status} {result.name:24s} max deviation {_decade(result.deviation)} "
                f"(tol {result.tolerance:.1e}){extra}",
                file=stream,
            )
            if not result.passed:
                failures += 1
    finally:
        if inject_fault is not None:
            ionmodel.mode_function = honest
            _clear_caches()

    if include_claims and failures == 0:
        for report in _claim_reports():
            print(_claim_line(report), file=stream)

    return 0 if failures == 0 else 1
