"""ionduo benchmark: fresh-process CLI runs of three preset-shaped workloads.

Usage (from the repository root):

    python3 benchmarks/run.py --workload theta-grid|gamma-channel|long-trace|all
                              [--seed N] [--seconds S] [--trace 0|1]

Each sample is a fresh Python process (``child.py``) that imports ionduo from
this checkout's ``src``, builds the workload's config and times
``ionduo.cli.execute``: one client, one worker, one BLAS thread, closed loop.
While it runs, this process times a fixed probe (``hostspeed.py``) on the
other CPU, and the sample's timings are divided by the host slowness the
probe saw.  Samples run back to back until ``--seconds`` is used up, with
at least three (a traced and untraced pair when traced) unless the run would
pass 150 s.  After each sample, outside its timed region, the CSV is checked
against the workload grid, the measure's range and a dense NumPy reference
at seed-chosen points.

With ``--trace 0`` the end-to-end metrics are reported (medians over the
samples of the host-corrected timings).  With ``--trace 1`` traced and
untraced samples alternate; the per-layer metrics come from the traced ones
and ``tracing.overhead_s`` is the median difference between each traced
sample and the untraced one just before it.  A table goes to standard
output, then one JSON line; the full record, with the environment and the
raw wall times, goes to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, for this process and every sample it starts (they inherit
# the environment): see "Host speed and threads" in README.md.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SAMPLES = 3
# A run ends within 180 s: no sample starts unless the average one would end
# by LAUNCH_LIMIT_S, and a sample still running at CHILD_DEADLINE_S is killed.
LAUNCH_LIMIT_S = 150.0
CHILD_DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def run_child(request: dict, workdir: Path, timeout: float) -> tuple[dict | None, str]:
    """Run one sample while probing the host; returns (report, "") or (None, reason)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "child.py"), json.dumps(request)]
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(workdir / "child.out", "w+") as out, open(workdir / "child.err", "w+") as err:
        with subprocess.Popen(command, cwd=workdir, env=env, stdout=out, stderr=err) as child:
            probes = hostspeed.while_running(child, time.perf_counter() + timeout)
            if child.poll() is None:
                child.kill()
                child.wait()
                return None, f"timed out after {timeout:.0f} s"
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if child.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no message"]
        return None, f"exit code {child.returncode}: {tail[0]}"
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, "no report line"
    report["probes_s"] = probes
    report["slowness"] = statistics.median(probes) / hostspeed.REFERENCE_S
    report["cpu_s"] = (cpu_after.ru_utime + cpu_after.ru_stime
                       - cpu_before.ru_utime - cpu_before.ru_stime)
    if not Path(report["ionduo_file"]).resolve().is_relative_to(SRC.resolve()):
        return None, f"imported ionduo from {report['ionduo_file']}, not from {SRC}"
    return report, ""


def _median(values):
    return statistics.median(values) if values else None


def measure_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    import ionduo.cli
    import ionduo.ionmodel
    import reference

    workload = workloads.WORKLOADS[name]
    inputs = workloads.draw_inputs(workload, seed)
    config = workloads.build_config(ionduo.cli, workload, inputs, "dataset")
    expected = reference.reference_values(
        ionduo.ionmodel.build_full_hamiltonian(config.params), workload, inputs
    )

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    spans_path = OUT / f"{name}-seed{seed}-spans.csv"
    print(f"# workload {name}: {workload.cells} cells x {workload.time.count} times, "
          f"nbar {workload.nbar:g}, {workload.measure} on {workload.cut}")
    print(f"# inputs: seed {seed}, phi {inputs.phi:.6f}, lambda2 {inputs.lambda2:.6f}, "
          f"checked (cell, time index) {list(inputs.checks)}")

    samples, traced, failures = [], [], []
    overheads, previous_run_s = [], None  # traced minus the untraced sample before it
    hostspeed.probe()  # warm-up, not counted
    start = time.perf_counter()
    try:
        while True:
            is_traced = trace and (len(samples) + len(traced) + len(failures)) % 2 == 1
            elapsed = time.perf_counter() - start
            request = {"workload": name, "seed": seed, "prefix": "dataset",
                       "trace": int(is_traced), "spans": str(spans_path)}
            for stale in workdir.glob("dataset.*"):
                stale.unlink()
            report, reason = run_child(request, workdir, CHILD_DEADLINE_S - elapsed)
            if report is not None:
                problems = reference.check_dataset(workdir / "dataset.csv", workload, expected)
                reason = "; ".join(problems)
            kind = "traced" if is_traced else "untraced"
            if reason:
                failures.append({"kind": kind, "reason": reason})
                print(f"# sample {kind}: FAILED {reason}")
                previous_run_s = None
            else:
                (traced if is_traced else samples).append(report)
                if is_traced and previous_run_s is not None:
                    overheads.append(report["run_s"] - previous_run_s)
                previous_run_s = None if is_traced else report["run_s"]
                print(f"# sample {kind}: setup {report['setup_s']:.4f} s, run {report['run_s']:.4f} s, "
                      f"host slowness {report['slowness']:.3f} ({len(report['probes_s'])} probes), "
                      f"peak rss {report['peak_rss_mb']:.1f} MB, check ok")
            elapsed = time.perf_counter() - start
            done = len(samples) + len(traced) + len(failures)
            enough = overheads if trace else len(samples) >= MIN_SAMPLES
            average = elapsed / done
            # Stop when one more sample would end nearer past --seconds than before it.
            time_up = elapsed + average / 2 > seconds
            if elapsed + average > LAUNCH_LIMIT_S or (time_up and (enough or len(failures) >= MIN_SAMPLES)):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(samples) + len(traced) + len(failures)
    if not samples or (trace and not traced):
        raise SystemExit(f"{name}: no successful sample in {attempted} attempts: "
                         + "; ".join(f["reason"] for f in failures))
    wall = {key: _median([s[key] for s in samples]) for key in ("setup_s", "run_s")}
    if trace:
        metrics = {}
        for metric in traced[0]["layers"]:
            values = [t["layers"][metric] for t in traced]
            metrics[metric] = None if None in values else statistics.median_low(values)
        metrics["tracing.overhead_s"] = _median(overheads)
    else:
        run_s = _median([s["run_s"] / s["slowness"] for s in samples])
        metrics = {
            "setup_s": _median([s["setup_s"] / s["slowness"] for s in samples]),
            "run_s": run_s,
            "points_per_s": workload.points / run_s,
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in samples]),
        }
    result = {
        "workload": name,
        "env": env,
        "inputs": {"phi": inputs.phi, "lambda2": repr(inputs.lambda2), "checks": inputs.checks},
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": samples,
        "traced_samples": traced,
        "wall": wall,
        "metrics": metrics,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def _units(trace: bool) -> dict:
    if not trace:
        return END_TO_END
    return {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}


def print_table(result: dict, units: dict) -> None:
    n_untraced = len(result["samples"])
    n_traced = len(result["traced_samples"])
    count = f"median of {n_traced} traced" if result["trace"] else f"median of {n_untraced}"
    for name, value in result["metrics"].items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{result['workload']:>13}  {name:<34} {shown:>14} {units[name]:<6} ({count})")
    print(f"{result['workload']:>13}  {'failed_frac':<34} "
          f"{result['failed'] / result['attempted']:>14.6g} {'ratio':<6} "
          f"({result['failed']} of {result['attempted']} samples)")


def _metric(value, unit):
    return {"value": value, "unit": unit} if value is not None else {
        "value": None, "unit": unit, "missing": True}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ionduo" / "__init__.py").is_file():
        print(f"no ionduo sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    env = environment(args.seed)
    print("# env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    trace = bool(args.trace)
    units = _units(trace)
    results = [measure_workload(name, args.seed, args.seconds, trace, env) for name in names]
    for result in results:
        print_table(result, units)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): _metric(value, units[name])
            for r in results
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
