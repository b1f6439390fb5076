"""Fast built-in oracle suite behind the ``ionduo selftest`` command.

Hard checks compare independent computation routes (block against dense
propagation, truncated Kraus sum against the closed-form channel, evolved
t = 0 concurrence against its closed form, the modulation antiderivative
against quadrature) plus frozen reference values of the vibrational mode
function.  Qualitative claims about the dynamics are reported as PASS/WARN
and never fail the run, since they encode expected physics rather than
contracts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import dynamics, entanglement, experiments, ionmodel
from .params import Sech, SimParams

#: Frozen spot values of the mode function (direct evaluation of its
#: closed form); the first entry is the eta = 0 limit -epsilon/2.
_MODE_REFERENCE = (
    ((0, 0, 0.0, 1.0), -0.5),
    ((1, 0, 0.202, 1.0), -0.46991238056863593),
    ((0, 1, 0.202, 0.01), -0.004899023563157436),
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
    for (n, k, eta, epsilon), expected in _MODE_REFERENCE:
        params = SimParams(fock_cutoff=4, eta=eta, epsilon=epsilon)
        worst = max(worst, abs(ionmodel.mode_strength(n, k, params) - expected))
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


def _check_kraus_vs_closed() -> CheckResult:
    params = SimParams(fock_cutoff=8, nbar=2.0, theta=math.pi / 4)
    field = experiments.truncated_coherent(params.nbar, params.fock_cutoff)
    rho0 = experiments.prepare_initial(params.theta, params.phi, field).to_density()
    hamiltonian = ionmodel.build_full_hamiltonian(params)
    worst = 0.0
    worst_deficit = 0.0
    for gamma_t in (0.1, 1.0, 5.0):
        closed = dynamics.milburn_closed_form(rho0, hamiltonian, gamma_t, 1.0)
        summed, deficit = dynamics.milburn_kraus(rho0, hamiltonian, gamma_t, 1.0)
        worst = max(worst, float(np.abs(closed.matrix - summed.matrix).max()))
        worst_deficit = max(worst_deficit, deficit)
    passed = worst <= 1e-10 and worst_deficit <= 1e-10
    return CheckResult(
        "kraus-vs-closed", passed, worst, 1e-10, detail=f"completeness deficit {worst_deficit:.2e}"
    )


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
    _check_kraus_vs_closed,
    _check_t0_concurrence,
    _check_modulation_integral,
)


def _claim_reports() -> list[dict]:
    return [
        experiments.report_gamma_monotonicity(),
        experiments.report_sech_birth_delay(tau=5.0),
        experiments.report_nbar_smoothing(),
    ]


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
            ionmodel.get_block_system.cache_clear()
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
            ionmodel.get_block_system.cache_clear()

    if include_claims and failures == 0:
        for report in _claim_reports():
            status = "PASS" if report["holds"] else "WARN"
            numbers = {
                key: value for key, value in report.items() if key not in ("claim", "holds")
            }
            print(f"{status} claim: {report['claim']}  {numbers}", file=stream)

    return 0 if failures == 0 else 1
