"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them all)."""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import spearmanr

from ionduo import (
    ION_VS_REST,
    PureState,
    Sech,
    SimParams,
    evolve_pure,
    evolve_pure_dense,
    i_concurrence_pure,
    milburn_closed_form,
    milburn_kraus,
    modulation_integral,
    prepare_initial,
    relative_entropy_measure,
    report_gamma_monotonicity,
    report_nbar_smoothing,
    report_sech_birth_delay,
    run_series,
    truncated_coherent,
    von_neumann_entropy,
)
from ionduo.cli import execute, figure_config
from ionduo.core import hermitian_spectrum
from ionduo.ionmodel import build_full_hamiltonian


def report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, detail


def ion_initial(fock_cutoff, nbar, theta, phi=0.0):
    return prepare_initial(theta, phi, truncated_coherent(nbar, fock_cutoff))


def test_criterion_1_block_dense_oracle_equivalence():
    start = time.perf_counter()
    times = np.linspace(0.0, 5.0, 51)
    worst = 0.0
    for theta in (0.0, math.pi / 6, math.pi / 4):
        params = SimParams(fock_cutoff=12, nbar=2.0, theta=theta, lambda2=0.01)
        psi0 = ion_initial(12, 2.0, theta)
        block = evolve_pure(psi0, params, times)
        dense = evolve_pure_dense(psi0, params, times)
        worst = max(worst, float(np.abs(block - dense).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and elapsed < 60.0,
        f"block vs dense max amplitude deviation {worst:.3e} (tol 1e-8), "
        f"runtime {elapsed:.2f} s (limit 60 s)",
    )


def test_criterion_2_milburn_consistency():
    params = SimParams(fock_cutoff=8, nbar=2.0, theta=math.pi / 4)
    rho0 = ion_initial(8, 2.0, math.pi / 4).to_density()
    hamiltonian = build_full_hamiltonian(params)
    worst_dev = 0.0
    worst_deficit = 0.0
    for gamma_t in (0.1, 1.0, 5.0):
        closed = milburn_closed_form(rho0, hamiltonian, gamma_t, 1.0)
        summed, deficit = milburn_kraus(rho0, hamiltonian, gamma_t, 1.0)
        worst_dev = max(worst_dev, float(np.abs(closed.matrix - summed.matrix).max()))
        worst_deficit = max(worst_deficit, deficit)
    report(
        2,
        worst_dev <= 1e-10 and worst_deficit <= 1e-10,
        f"Kraus vs closed form max-norm deviation {worst_dev:.3e} (tol 1e-10), "
        f"completeness deficit {worst_deficit:.3e} (tol 1e-10)",
    )


def test_criterion_3_t0_concurrence_closed_form():
    thetas = np.linspace(0.0, 2 * math.pi, 25)
    values = []
    worst = 0.0
    for theta in thetas:
        psi0 = ion_initial(10, 2.0, float(theta))
        value = i_concurrence_pure(psi0, ION_VS_REST)
        values.append(value)
        worst = max(worst, abs(value - abs(math.sin(2 * theta))))
    values = np.array(values)
    zero_indices = [0, 6, 12, 18, 24]  # theta = n pi/2
    zeros_ok = max(values[i] for i in zero_indices) <= 1e-10
    maxima = set(np.flatnonzero(values >= values.max() - 1e-12))
    maxima_ok = maxima == {3, 9, 15, 21}  # odd multiples of pi/4
    report(
        3,
        worst <= 1e-10 and zeros_ok and maxima_ok,
        f"|sin 2 theta| max deviation {worst:.3e} (tol 1e-10), zeros at n pi/2 "
        f"{'ok' if zeros_ok else 'violated'}, grid argmax at odd n pi/4 "
        f"{'ok' if maxima_ok else sorted(maxima)}",
    )


def test_criterion_4_modulation_integral():
    tau = 2.0
    worst_quad = 0.0
    for t in np.linspace(0.0, 50.0, 26)[1:]:
        numeric, _ = quad(lambda s: 1.0 / math.cosh(s / (2 * tau)), 0.0, float(t), limit=200)
        worst_quad = max(worst_quad, abs(modulation_integral(Sech(tau), float(t)) - numeric))
    limit_dev = max(
        abs(modulation_integral(Sech(tau_i), 100.0 * tau_i) - math.pi * tau_i)
        for tau_i in (0.5, 2.0, 5.0)
    )
    report(
        4,
        worst_quad <= 1e-12 and limit_dev <= 1e-10,
        f"closed form vs adaptive quadrature {worst_quad:.3e} (tol 1e-12), "
        f"saturation deviation from pi tau {limit_dev:.3e} (tol 1e-10)",
    )


def test_criterion_5_channel_sanity():
    params = SimParams(fock_cutoff=8, nbar=2.0, theta=math.pi / 4)
    rho0 = ion_initial(8, 2.0, math.pi / 4).to_density()
    hamiltonian = build_full_hamiltonian(params)
    spectrum = hermitian_spectrum(hamiltonian)
    gaps = spectrum.eigenvalues[:, None] - spectrum.eigenvalues[None, :]
    before = spectrum.eigenvectors.conj().T @ rho0.matrix @ spectrum.eigenvectors
    gamma = 0.05
    worst_trace = 0.0
    worst_eig = 0.0
    worst_factor = 0.0
    for t in (1.0, 10.0, 40.0):
        evolved = milburn_closed_form(rho0, hamiltonian, gamma, t)
        worst_trace = max(worst_trace, abs(float(np.trace(evolved.matrix).real) - 1.0))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(evolved.matrix)[0]))
        after = spectrum.eigenvectors.conj().T @ evolved.matrix @ spectrum.eigenvectors
        expected = np.abs(before) * np.exp(-0.5 * gamma * t * gaps**2)
        worst_factor = max(worst_factor, float(np.abs(np.abs(after) - expected).max()))
    report(
        5,
        worst_trace <= 1e-10 and worst_eig >= -1e-9 and worst_factor <= 1e-10,
        f"trace deviation {worst_trace:.3e} (tol 1e-10), min eigenvalue {worst_eig:.3e} "
        f"(floor -1e-9), off-diagonal decay factor deviation {worst_factor:.3e} (tol 1e-10)",
    )


def test_criterion_6_pure_state_identity_and_measure_agreement():
    params = SimParams(fock_cutoff=27, nbar=5.0, theta=math.pi / 4, lambda2=0.01)
    psi0 = ion_initial(27, 5.0, math.pi / 4)
    times = np.linspace(0.0, 30.0, 10)
    worst = 0.0
    for amplitudes in evolve_pure(psi0, params, times):
        psi = PureState(psi0.layout, amplitudes)
        measured = relative_entropy_measure(psi.to_density(), ION_VS_REST)
        expected = 2.0 * von_neumann_entropy(psi.reduced({"ion2", "field"}))
        worst = max(worst, abs(measured - expected))

    grid = np.linspace(0.0, 30.0, 101)
    concurrence = run_series(params, "i_concurrence", ION_VS_REST, grid).values
    relative = run_series(params, "relative_entropy", ION_VS_REST, grid).values
    correlation = float(spearmanr(concurrence, relative).statistic)
    report(
        6,
        worst <= 1e-9 and correlation >= 0.9,
        f"relative entropy vs 2 S(rho_B) max deviation {worst:.3e} (tol 1e-9), "
        f"rank correlation between measures {correlation:.4f} (floor 0.9)",
    )


def test_criterion_7_qualitative_claim_reports():
    # Non-fatal by design: the source figures carry no numeric axes, so
    # violations are WARN lines with the numbers, not failures.
    reports = (
        report_gamma_monotonicity(),
        report_sech_birth_delay(tau=5.0),
        report_nbar_smoothing(),
    )
    for entry in reports:
        status = "PASS" if entry["holds"] else "WARN"
        numbers = {k: v for k, v in entry.items() if k not in ("claim", "holds")}
        print(f"{status} criterion 7: {entry['claim']}  {numbers}")
        assert isinstance(entry["holds"], bool)
    print("PASS criterion 7: all three claim reports produced recorded booleans")


def test_criterion_8_worker_determinism(tmp_path):
    import json

    serial = figure_config("fig1", out=str(tmp_path / "serial"), workers=1)
    parallel = figure_config("fig1", out=str(tmp_path / "parallel"), workers=8)
    csv_serial, json_serial = execute(serial)
    csv_parallel, _ = execute(parallel)
    identical = csv_serial.read_bytes() == csv_parallel.read_bytes()

    sidecar = json.loads(json_serial.read_text())
    echoed = sidecar["config"]["params"]
    caption_ok = (
        echoed["nbar"] == 5.0
        and echoed["lambda2"] == "(0.01+0j)"
        and echoed["phi"] == 0.0
    )
    rows = csv_serial.read_text().count("\n") - 1
    report(
        8,
        identical and caption_ok and rows == 121 * 601,
        f"fig1 preset CSV byte-identical between workers=1 and workers=8: {identical}; "
        f"sidecar echoes nbar=5, lambda2=0.01, phi=0: {caption_ok}; rows {rows}",
    )
