"""Output check for one benchmark run, made outside the timed region.

``check_dataset`` reads the CSV the program wrote and reports every problem
it finds: wrong header or row count, grid columns that do not match the
workload, non-finite or out-of-range values, and disagreement with the dense
reference at the seed's chosen (cell, time) points.

The reference is the benchmark's own: the dense Hamiltonian from
``ionmodel.build_full_hamiltonian``, NumPy ``eigh``, the closed-form
intrinsic-decoherence damping ``exp(-i dE t - gamma t dE^2 / 2)`` of every
eigenbasis coherence, a partial trace, and the purity or the partial
transpose.  It uses none of the program's evolution, channel or sweep code.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Block-vs-dense acceptance tolerance of the program's own test suite.
ORACLE_TOL = 1e-8
# Values carry 12 significant digits in the CSV.
GRID_RTOL = 1e-11
HEADER = "theta,gamma,nbar,scaled_time,measure,value"
# Upper bounds of each measure for the workloads' 3-dimensional ion sides:
# I-concurrence <= sqrt(2 (d - 1) / d), negativity <= (d - 1) / 2.
VALUE_RANGE = {"i_concurrence": (0.0, math.sqrt(4.0 / 3.0)), "negativity": (0.0, 1.0)}
FACTORS = ("ion1", "ion2", "field")


def _initial_state(theta: float, phi: float, nbar: float, n_fock: int) -> np.ndarray:
    """(cos theta |a b> + sin theta e^{i phi} |b a>) x coherent field on
    n <= n_fock - 3, renormalized (two empty headroom slots below the cutoff)."""
    n = np.arange(n_fock - 2)
    log_poisson = n * math.log(nbar) - nbar - np.array([math.lgamma(k + 1) for k in n])
    field = np.zeros(n_fock)
    field[: n.size] = np.exp(0.5 * log_poisson)
    field /= np.linalg.norm(field)
    psi = np.zeros((3, 3, n_fock), dtype=np.complex128)
    psi[0, 1] = math.cos(theta) * field
    psi[1, 0] = math.sin(theta) * complex(math.cos(phi), math.sin(phi)) * field
    return psi.ravel()


def _reduce(rho: np.ndarray, n_fock: int, keep) -> np.ndarray:
    """Partial trace of a full-space density matrix onto the factors in
    ``keep``, in layout order."""
    dims = (3, 3, n_fock)
    kept = [i for i, label in enumerate(FACTORS) if label in keep]
    dropped = [i for i in range(3) if i not in kept]
    order = kept + dropped
    tensor = rho.reshape(dims + dims).transpose(order + [3 + i for i in order])
    dim_keep = math.prod(dims[i] for i in kept)
    dim_drop = math.prod(dims[i] for i in dropped)
    return np.einsum("ajbj->ab", tensor.reshape(dim_keep, dim_drop, dim_keep, dim_drop))


def _measure(rho: np.ndarray, n_fock: int, measure: str, cut: tuple) -> float:
    """Measure of a full-space density matrix across ``cut`` (side_a, side_b).

    ``i_concurrence`` is returned squared, 2 (1 - tr rho_A^2), which stays
    well conditioned where the concurrence itself goes to zero.
    """
    side_a, side_b = cut
    labels = set(side_a) | set(side_b)
    if measure == "i_concurrence" and labels == set(FACTORS):
        marginal = _reduce(rho, n_fock, side_a)
        return 2.0 * (1.0 - float(np.vdot(marginal, marginal).real))
    if measure == "negativity" and labels == {"ion1", "ion2"}:
        two_ion = _reduce(rho, n_fock, labels).reshape(3, 3, 3, 3)
        eigenvalues = np.linalg.eigvalsh(two_ion.transpose(0, 3, 2, 1).reshape(9, 9))
        return float(-eigenvalues[eigenvalues < 0].sum())
    raise ValueError(f"no reference for {measure} across {cut}")


def reference_values(hamiltonian: np.ndarray, workload, inputs) -> dict:
    """Reference measure at each of the seed's (cell, time index) points."""
    n_fock = hamiltonian.shape[0] // 9
    energies, vectors = np.linalg.eigh(hamiltonian)
    gaps = energies[:, None] - energies[None, :]
    thetas, times = workload.theta.values(), workload.time.values()
    cut = tuple(tuple(s.strip() for s in side.split(",")) for side in workload.cut.split("|"))
    out = {}
    for cell, step in inputs.checks:
        theta = float(thetas[cell // len(workload.gammas)])
        gamma = workload.gammas[cell % len(workload.gammas)]
        coeffs = vectors.conj().T @ _initial_state(theta, inputs.phi, workload.nbar, n_fock)
        t = float(times[step])
        damped = np.outer(coeffs, coeffs.conj()) * np.exp(-1j * gaps * t - 0.5 * gamma * t * gaps**2)
        rho = vectors @ damped @ vectors.conj().T
        out[(cell, step)] = _measure(rho, n_fock, workload.measure, cut)
    return out


def check_dataset(csv_path: Path, workload, reference: dict) -> list[str]:
    """Problems found in the dataset; empty when the output is correct."""
    try:
        lines = Path(csv_path).read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        return [f"cannot read the dataset: {exc}"]
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        return [f"header is {lines[0] if lines else None!r}, expected {HEADER!r}"]
    rows = lines[1:]
    if len(rows) != workload.points:
        return [f"{len(rows)} rows, expected {workload.cells} cells x {workload.time.count} times"]
    try:
        table = np.array([[float(x) for i, x in enumerate(r.split(",")) if i != 4] for r in rows])
    except ValueError as exc:
        return [f"unparsable row: {exc}"]
    problems = []
    if any(r.split(",")[4] != workload.measure for r in rows):
        problems.append(f"measure column differs from {workload.measure!r}")
    thetas = np.repeat(workload.theta.values(), len(workload.gammas) * workload.time.count)
    gammas = np.tile(np.repeat(workload.gammas, workload.time.count), workload.theta.count)
    times = np.tile(workload.time.values(), workload.cells)
    for label, column, expected in (("theta", 0, thetas), ("gamma", 1, gammas),
                                    ("nbar", 2, np.full(len(rows), workload.nbar)),
                                    ("scaled_time", 3, times)):
        if not np.allclose(table[:, column], expected, rtol=GRID_RTOL, atol=1e-300):
            problems.append(f"{label} column does not match the workload grid")
    values = table[:, 4]
    if not np.all(np.isfinite(values)):
        problems.append(f"{int(np.sum(~np.isfinite(values)))} non-finite values")
    low, high = VALUE_RANGE[workload.measure]
    outside = (values < low) | (values > high + 1e-10)
    if np.any(outside):
        problems.append(f"{int(outside.sum())} values outside [{low}, {high}]")
    for (cell, step), expected in reference.items():
        value = values[cell * workload.time.count + step]
        got = value * value if workload.measure == "i_concurrence" else value
        if not abs(got - expected) <= ORACLE_TOL:
            problems.append(
                f"cell {cell} time index {step}: {workload.measure} {float(value)!r} "
                f"disagrees with the dense reference by {abs(got - expected):.3e}"
            )
    return problems
