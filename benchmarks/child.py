"""One measured run of ionduo in a fresh interpreter.

Usage: python child.py '{"workload": ..., "seed": ..., "prefix": ..., "trace": 0|1, "spans": path}'

Times ``import ionduo`` and building the config (set-up), then
``ionduo.cli.execute(config)`` until the CSV and JSON are on disk (run), and
prints one JSON line with the timings, the peak resident memory and, when
traced, the per-layer metrics.  ``run.py`` starts it with ``PYTHONPATH``
pointing at the checkout's ``src``.
"""

import time

_start = time.perf_counter()
import ionduo.cli  # noqa: E402

_imported = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def _cache_counts():
    try:
        info = ionduo.ionmodel.get_block_system.cache_info()
    except AttributeError:
        return None
    return info.hits, info.misses


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.  ``ru_maxrss`` would
    also count the parent's resident set at the moment it started this
    process, so the kernel's per-image ``VmHWM`` is read where it exists."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    request = json.loads(sys.argv[1])
    workload = workloads.WORKLOADS[request["workload"]]
    inputs = workloads.draw_inputs(workload, request["seed"])
    config_start = time.perf_counter()
    config = workloads.build_config(ionduo.cli, workload, inputs, request["prefix"])
    configured = time.perf_counter()
    report = {
        "ionduo_file": ionduo.__file__,
        "import_s": _imported - _start,
        "config_s": configured - config_start,
        "setup_s": (_imported - _start) + (configured - config_start),
    }

    if not request["trace"]:
        begin = time.perf_counter()
        ionduo.cli.execute(config)
        report["run_s"] = time.perf_counter() - begin
    else:
        import tracing

        before = _cache_counts()
        with tracing.Tracer() as tracer:
            begin = time.perf_counter()
            paths = ionduo.cli.execute(config)
            report["run_s"] = time.perf_counter() - begin
        after = _cache_counts()
        csv_path, json_path = (Path(p) for p in paths)
        extras = {
            "import_s": report["import_s"],
            "config_s": report["config_s"],
            "cache": (after[0] - before[0], after[1] - before[1]) if before and after else None,
            "rows": csv_path.read_bytes().count(b"\n") - 1,
            "bytes": csv_path.stat().st_size + json_path.stat().st_size,
        }
        report["layers"] = tracing.layer_metrics(tracer.spans, tracer.absent, extras)
        tracer.write_spans(request["spans"])

    report["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
