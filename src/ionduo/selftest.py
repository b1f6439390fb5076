"""Fast built-in oracle suite behind the ``ionduo selftest`` command.

Hard checks compare independent computation routes (block against dense
propagation, block spectra against the closed-form bright/dark spectrum, the
Gauss-Hermite channel and the truncated Kraus sum against the dense
closed-form channel, the I-concurrence shared by every theta against per-cell
evolution, evolved t = 0 concurrence against its closed form, the modulation
antiderivative against quadrature) plus frozen reference values E(m)
of the vibrational mode function.  Qualitative claims about the dynamics are
reported as PASS/WARN and never fail the run, since they encode expected
physics rather than contracts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, entanglement, experiments, ionmodel
from .core import partial_trace
from .params import Sech, SimParams

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
    dense = dynamics.evolve_pure_dense(psi0, params, times)
    worst = float(np.abs(block - dense).max())
    return CheckResult("block-vs-dense", worst <= 1e-8, worst, 1e-8)


def _check_channels_vs_closed() -> CheckResult:
    params = SimParams(fock_cutoff=8, nbar=2.0, theta=math.pi / 4)
    field = experiments.truncated_coherent(params.nbar, params.fock_cutoff)
    psi0 = experiments.prepare_initial(params.theta, params.phi, field)
    rho0 = psi0.to_density()
    hamiltonian = ionmodel.build_full_hamiltonian(params)
    keep = experiments.ION_VS_ION.labels
    worst = 0.0
    worst_deficit = 0.0
    for gamma_t in (0.1, 1.0, 5.0):
        closed = dynamics.milburn_closed_form(rho0, hamiltonian, gamma_t, 1.0)
        summed, deficit = dynamics.milburn_kraus(rho0, hamiltonian, gamma_t, 1.0)
        rho = next(dynamics.milburn_quadrature(psi0, replace(params, gamma=gamma_t), [0, 1], keep))
        block = np.abs(partial_trace(closed, keep).matrix - rho[1]).max()
        worst = max(worst, float(np.abs(closed.matrix - summed.matrix).max()), float(block))
        worst_deficit = max(worst_deficit, deficit)
    passed = worst <= 1e-10 and worst_deficit <= 1e-10
    return CheckResult(
        "channels-vs-closed", passed, worst, 1e-10, detail=f"Kraus deficit {worst_deficit:.2e}"
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
        experiments.report_gamma_monotonicity(),
        experiments.report_sech_birth_delay(tau=5.0),
        experiments.report_nbar_smoothing(),
    ]


def _clear_caches() -> None:
    """Empty every cache that holds data derived from the mode function."""
    ionmodel.get_block_system.cache_clear()
    experiments._exchange_coefficients.cache_clear()


def run_selftest(inject_fault: str | None = None, include_claims: bool = True, stream=None) -> int:
    """Run the oracle suite; returns 0 iff every hard check passes.

    ``inject_fault='mode_strength'`` corrupts the mode function while the
    checks run, as a negative control proving they can fail; the mode
    function and the spectrum cache are clean again when this returns.
    """
    stream = stream if stream is not None else sys.stdout
    if inject_fault not in (None, "mode_strength"):
        raise ValueError(f"unknown fault {inject_fault!r}")

    failures = 0
    try:
        if inject_fault == "mode_strength":
            ionmodel._FAULT_SCALE = 1.001
            _clear_caches()
        for check in _CHECKS:
            result = check()
            status = "PASS" if result.passed else "FAIL"
            extra = f"  [{result.detail}]" if result.detail else ""
            print(
                f"{status} {result.name:24s} max deviation {result.deviation:.3e} "
                f"(tol {result.tolerance:.1e}){extra}",
                file=stream,
            )
            if not result.passed:
                failures += 1
    finally:
        if inject_fault is not None:
            ionmodel._FAULT_SCALE = 1.0
            _clear_caches()

    if include_claims and failures == 0:
        for report in _claim_reports():
            status = "PASS" if report["holds"] else "WARN"
            numbers = {
                key: value for key, value in report.items() if key not in ("claim", "holds")
            }
            print(f"{status} claim: {report['claim']}  {numbers}", file=stream)

    return 0 if failures == 0 else 1
