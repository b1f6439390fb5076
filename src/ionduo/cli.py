"""Command-line front end: parse a run configuration, execute sweeps and
write plot-ready CSV datasets with a JSON metadata sidecar.

The INI configuration grammar (sections ``params``, ``sweep``, ``measure``
and ``output``) is documented key by key in the README.  Numbers may use
``pi`` (``pi``, ``pi/4``, ``0.5*pi``).  Grids are either comma-separated
numbers or ``linspace:<start>:<stop>:<count>``.  The JSON sidecar written
next to each dataset can itself be fed back through ``--config`` and
reproduces the dataset byte for byte.  It records a grid that
``np.linspace`` rebuilds bit for bit as that spec and any other grid as a
list; a sidecar of 0.3.0 or earlier, which lists every grid, still loads.
Every sweep runs in this one process; the ``[output] workers`` key is
checked and recorded, and selects nothing.  ``--out`` replaces ``[output]
prefix`` before its check, which refuses a prefix naming a directory.

Importing this module loads no command-line or INI machinery: ``main``
imports ``argparse``, reading an INI file imports ``configparser``, and
only ``selftest`` loads ``ionduo.selftest``.

Exit codes: 0 success, 1 selftest failure, 2 configuration error,
3 infeasible run (e.g. decoherence combined with sech modulation),
4 numerical failure during the run (e.g. a norm-drift check); no dataset
is written then.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import UnsupportedRegimeError, check_times
from .entanglement import Bipartition
from .experiments import (
    ION_VS_REST,
    MEASURES,
    IncompatibleMeasureError,
    MeasureSeries,
    coherent_amplitudes,
    detect_sudden_events,
    run_sweep,
    truncated_coherent,
)
from .ionmodel import FACTORS, CutoffError, block_frequencies
from .params import Constant, Sech, SimParams


class ConfigError(ValueError):
    def __init__(self, section: str, key: str, message: str, line: int | None = None):
        self.section = section
        self.key = key
        self.line = line
        where = f"[{section}] {key}" if key else f"[{section}]"
        if line is not None:
            where += f" (line {line})"
        super().__init__(f"{where}: {message}")


def _parse_number(text) -> float:
    expr = str(text).strip().lower().replace(" ", "")
    try:
        if expr == "pi":
            value = math.pi
        elif expr.endswith("*pi"):
            value = float(expr[:-3]) * math.pi
        elif expr.startswith("pi/"):
            value = math.pi / float(expr[3:])
        else:
            value = float(expr)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse number {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_positive(value) -> float:
    number = _parse_number(value)
    if number <= 0:
        raise ValueError(f"expected a number > 0, got {number}")
    return number


def _parse_int(value) -> int:
    """An integer; a bool or a float with a fractional part is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value) if isinstance(value, (int, float)) else int(str(value).strip())


def _parse_workers(value) -> int:
    workers = _parse_int(value)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _parse_grid(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple, np.ndarray)):
        grid = tuple(_parse_number(v) for v in value)
    elif str(value).strip().startswith("linspace:"):
        parts = str(value).strip().split(":")
        if len(parts) != 4:
            raise ValueError(f"linspace needs start:stop:count, got {value!r}")
        start, stop = _parse_number(parts[1]), _parse_number(parts[2])
        count = _parse_int(parts[3])
        if count < 1:
            raise ValueError(f"linspace count must be >= 1, got {count}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
            grid = tuple(np.linspace(start, stop, count).tolist())
        if not np.isfinite(grid).all():
            raise ValueError(f"linspace from {start!r} to {stop!r} overflows float64")
    else:
        grid = tuple(_parse_number(piece) for piece in str(value).split(",") if piece.strip())
    if not grid:
        raise ValueError("grid is empty")
    return grid


def _parse_times(value) -> tuple[float, ...]:
    return tuple(check_times(_parse_grid(value)).tolist())


def _parse_complex(value) -> complex:
    number = complex(str(value).strip().replace(" ", ""))
    if not cmath.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _parse_prefix(value) -> str:
    """A nonempty output prefix whose last component names the files; one
    that ends in a path separator, ``.`` or ``..`` names a directory."""
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"expected a nonempty string, got {value!r}")
    if os.path.basename(value) in ("", ".", ".."):
        raise ValueError(f"{value!r} names a directory; end the prefix with a file name")
    return value


def _parse_measure(value) -> str:
    name = str(value).strip()
    if name not in MEASURES:
        raise ValueError(f"unknown measure {name!r}; choose from {MEASURES}")
    return name


def _parse_cut(value) -> Bipartition:
    sides = str(value).split("|")
    if len(sides) != 2:
        raise ValueError(f"cut must look like 'ion1 | ion2,field', got {value!r}")
    cut = Bipartition(
        *(tuple(label.strip() for label in side.split(",") if label.strip()) for side in sides)
    )
    unknown = cut.labels - set(FACTORS)
    if unknown:
        raise ValueError(f"unknown factors {sorted(unknown)}; choose from {FACTORS}")
    return cut


def _sidecar_value(value):
    """The JSON form of a parsed value, which its parser reads back unchanged.
    A grid of three or more values that ``np.linspace`` of its ends rebuilds
    bit for bit is written as that ``linspace:`` spec, any other as a list."""
    if isinstance(value, complex):
        return str(value)
    if isinstance(value, Bipartition):
        return " | ".join(",".join(side) for side in (value.side_a, value.side_b))
    if not isinstance(value, tuple):
        return value
    if len(value) >= 3:
        first, last = float(value[0]), float(value[-1])  # a np.float64 repr does not parse
        spaced = np.linspace(first, last, len(value))
        if spaced.tobytes() == np.asarray(value, dtype=np.float64).tobytes():
            return f"linspace:{first!r}:{last!r}:{len(value)}"
    return list(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: a SimParams template plus sweep grids,
    measure selection and output policy."""

    params: SimParams
    theta_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]
    time_grid: tuple[float, ...]
    measure: str
    cut: Bipartition
    out_prefix: str
    deficit: float
    event_threshold: float
    workers: int

    def to_json_dict(self) -> dict:
        sidecar = {
            section: {
                key: _sidecar_value(getattr(self.params if section == "params" else self, attr))
                for key, (_, _, attr) in keys.items()
                if attr is not None
            }
            for section, keys in _SCHEMA.items()
        }
        modulation = self.params.modulation
        sidecar["params"]["modulation"] = (
            {"kind": "sech", "tau": modulation.tau}
            if isinstance(modulation, Sech)
            else {"kind": "constant"}
        )
        return sidecar


_REQUIRED = object()
_UNPARSED = (None, None, None)

# The grammar: for each [section] key, its parser, its default and the
# attribute the sidecar writes (of SimParams in [params], else of RunConfig).
# A [params] key with no default keeps the SimParams default.  Unparsed keys
# are resolved in build_config, or accepted and dropped: ionduo 0.1.0
# sidecars wrote nu, omega1, omega2 and standard_matrix_element, and the
# dynamics never read them.
# [output] workers selects nothing; it stays so that older configs load.
_SCHEMA = {
    "params": {
        "lambda1": (_parse_complex, None, "lambda1"),
        "lambda2": (_parse_complex, None, "lambda2"),
        "eta": (_parse_number, None, "eta"),
        "epsilon": (_parse_number, None, "epsilon"),
        "nbar": (_parse_number, None, "nbar"),
        "phi": (_parse_number, None, "phi"),
        "modulation": _UNPARSED,
        "tau": _UNPARSED,
        "fock_cutoff": (None, None, "fock_cutoff"),
        "standard_matrix_element": _UNPARSED,
        "nu": _UNPARSED,
        "omega1": _UNPARSED,
        "omega2": _UNPARSED,
    },
    "sweep": {
        "theta": (_parse_grid, _REQUIRED, "theta_grid"),
        "gamma": (_parse_grid, (0.0,), "gamma_grid"),
        "time": (_parse_times, _REQUIRED, "time_grid"),
    },
    "measure": {
        "name": (_parse_measure, _REQUIRED, "measure"),
        "cut": (_parse_cut, ION_VS_REST, "cut"),
    },
    "output": {
        "prefix": (_parse_prefix, "dataset", "out_prefix"),
        "deficit": (_parse_positive, 1e-10, "deficit"),
        "event_threshold": (_parse_positive, 1e-3, "event_threshold"),
        "workers": (_parse_workers, 1, "workers"),
    },
}


def _locate(text: str | None, section: str, key: str) -> int | None:
    """Best-effort line number of a key inside a section of the raw file."""
    if text is None:
        return None
    current = None
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section and stripped.split("=")[0].split(":")[0].strip().lower() == key:
            return number
    return None


def build_config(sections: dict, raw_text: str | None = None) -> RunConfig:
    """Validate a {section: {key: value}} mapping into a RunConfig.

    Values may be strings (from the INI grammar) or already-typed numbers
    and lists (from a JSON sidecar); unknown sections or keys are rejected.
    """

    def fail(section, key, message):
        raise ConfigError(section, key, message, _locate(raw_text, section, key))

    parsed = {section: {} for section in _SCHEMA}
    for section, given in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(section, "", "unknown section")
        if not isinstance(given, dict):
            raise ConfigError(section, "", f"expected an object of keys, got {given!r}")
        for key in given:
            if key not in _SCHEMA[section]:
                fail(section, key, "unknown key")
    for section, keys in _SCHEMA.items():
        given = sections.get(section, {})
        for key, (parse, default, attr) in keys.items():
            if parse is None:
                continue
            if key in given:
                try:
                    parsed[section][attr] = parse(given[key])
                except ValueError as exc:
                    fail(section, key, str(exc))
            elif default is _REQUIRED:
                fail(section, key, "required key is missing")
            elif default is not None:
                parsed[section][attr] = default

    given = sections.get("params", {})
    kind, tau = given.get("modulation", "constant"), given.get("tau")
    if isinstance(kind, dict):  # the sidecar form
        kind, tau = kind.get("kind", "constant"), kind.get("tau")
    kind = str(kind).strip().lower()
    if kind not in ("constant", "sech"):
        fail("params", "modulation", f"expected 'constant' or 'sech', got {kind!r}")
    if kind == "sech" and tau is None:
        fail("params", "tau", "sech modulation requires an explicit tau (no default exists)")
    try:  # a tau is checked even where constant modulation leaves it unused
        tau = None if tau is None else _parse_number(tau)
        modulation = Sech(tau) if kind == "sech" else Constant()
    except ValueError as exc:
        fail("params", "tau", str(exc))

    cutoff = given.get("fock_cutoff", "auto")
    auto = str(cutoff).strip().lower() == "auto"
    if not auto:
        try:
            cutoff = _parse_int(cutoff)
        except ValueError:
            fail("params", "fock_cutoff", f"expected 'auto' or an integer, got {cutoff!r}")
    # The cutoff follows the field preparation's own rule; its errors and
    # those of SimParams start with the name of the offending key.
    cell = parsed.pop("params")
    try:
        nbar = cell.get("nbar", SimParams.nbar)
        field = (
            coherent_amplitudes(nbar, parsed["output"]["deficit"])
            if auto
            else truncated_coherent(nbar, cutoff)
        )
        params = SimParams(fock_cutoff=field.cutoff, modulation=modulation, **cell)
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        fail("params", key if key in cell else "fock_cutoff", str(exc))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        finite = np.isfinite(block_frequencies(params)).all()
    if not finite:  # no one key is at fault, so no line is located
        raise ConfigError(
            "params", "", "lambda1, lambda2, eta and epsilon give non-finite block frequencies"
        )

    # A [sweep] key naming a SimParams field sweeps it.  Each value is checked
    # on the cell params built the way run_sweep builds them, so SimParams
    # states the range; the template takes the first value.
    swept = {
        key: parsed["sweep"][attr]
        for key, (_, _, attr) in _SCHEMA["sweep"].items()
        if key in {f.name for f in fields(SimParams)}
    }
    for key, grid in swept.items():
        for value in grid:
            try:
                replace(params, **{key: value})
            except ValueError as exc:
                fail("sweep", key, str(exc))
    params = replace(params, **{key: grid[0] for key, grid in swept.items()})
    return RunConfig(
        params=params, **{attr: v for values in parsed.values() for attr, v in values.items()}
    )


def load_config(path: str | Path) -> RunConfig:
    """Load a RunConfig from an INI file or a JSON sidecar."""
    return build_config(*_read_sections(path))


def _read_sections(path: str | Path) -> tuple[dict, str | None]:
    """The {section: {key: value}} of an INI file or JSON sidecar, and the INI text."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("file", str(path), f"cannot read config: {exc}") from None
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:  # malformed, or an integer past the digit limit
            raise ConfigError("file", str(path), f"invalid JSON: {exc}") from None
        sections = payload.get("config", payload) if isinstance(payload, dict) else payload
        if not isinstance(sections, dict):
            raise ConfigError("file", str(path), "JSON config must be an object")
        return sections, None
    import configparser  # loaded for INI files only

    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError("file", str(path), f"invalid config syntax: {exc}") from None
    sections = {
        section.lower(): {key: value for key, value in parser.items(section)}
        for section in parser.sections()
    }
    return sections, text


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


_SLICE_ROWS = 2048  # CSV rows formatted at once; bounds the formatted text


def write_dataset(
    config: RunConfig, series_list: list[MeasureSeries], preset: str | None = None
) -> tuple[Path, Path]:
    """Write <prefix>.csv and <prefix>.json; returns their paths.

    Rows are sorted by (theta, gamma, scaled_time); all floating-point
    fields carry 12 significant digits so output is byte-stable.  The time
    grid's rows are rendered once as a bytes template, which grows with the
    time count; each series fills it in slices of _SLICE_ROWS rows at a
    time, written as bytes with no text encoding.
    The sidecar is the sorted, indented JSON dump, in which an evenly spaced
    grid stands as its ``linspace:`` spec (_sidecar_value).
    """
    prefix = Path(config.out_prefix)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.parent / (prefix.name + ".csv")
    json_path = prefix.parent / (prefix.name + ".json")

    events = []
    separable_flags = []
    for series in series_list:
        entry = {
            "theta": series.params.theta,
            "gamma": series.params.gamma,
            "births": [],
            "deaths": [],
        }
        if series.times.size >= 3:  # detector needs at least three points
            detected = detect_sudden_events(series, config.event_threshold)
            entry["births"] = list(detected.births)
            entry["deaths"] = list(detected.deaths)
        events.append(entry)
        half_turns = series.params.theta / (math.pi / 2)
        if abs(half_turns - round(half_turns)) < 1e-9:
            separable_flags.append(
                {
                    "theta": series.params.theta,
                    "gamma": series.params.gamma,
                    "value_at_t0": float(series.values[0]),
                    "max_value": float(series.values.max()),
                }
            )

    field = truncated_coherent(config.params.nbar, config.params.fock_cutoff)
    sidecar = {
        "version": __version__,
        "preset": preset,
        "config": config.to_json_dict(),
        "field": {
            "fock_cutoff": config.params.fock_cutoff,
            "poisson_tail_deficit": field.deficit,
        },
        "event_threshold": config.event_threshold,
        "events": events,
        "separable_start_check": separable_flags,
    }
    if isinstance(config.params.modulation, Sech):
        sidecar["modulation_note"] = "runs start at t = 0, the peak of the sech profile"
    # Both files go to temporary siblings first, the CSV series by series, and
    # move into place once both are written: a failure leaves an earlier pair.
    paths = (csv_path, json_path)
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    starts = range(0, len(config.time_grid), _SLICE_ROWS)
    row = b"\0,%.12g," + config.measure.encode() + b",%%.12g\n"  # \0 stands for the cell
    slices = (config.time_grid[start : start + _SLICE_ROWS] for start in starts)
    template = [(row * len(times)) % times for times in slices]  # "%.12g" renders as _fmt
    try:
        with open(temps[0], "wb") as out:
            out.write(b"theta,gamma,nbar,scaled_time,measure,value\n")
            for series in series_list:
                cell = ",".join(_fmt(getattr(series.params, k)) for k in ("theta", "gamma", "nbar"))
                for start, rows in zip(starts, template):
                    values = tuple(series.values[start : start + _SLICE_ROWS].tolist())
                    out.write((rows % values).replace(b"\0", cell.encode()))
        sidecar_text = json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
        temps[1].write_text(sidecar_text, encoding="utf-8", newline="\n")
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return csv_path, json_path


def execute(config: RunConfig, preset: str | None = None) -> tuple[Path, Path]:
    series_list = run_sweep(
        config.params,
        config.theta_grid,
        config.gamma_grid,
        config.measure,
        config.cut,
        np.asarray(config.time_grid),
    )
    return write_dataset(config, series_list, preset=preset)


def figure_config(name: str, tau: float | None = None, out: str | None = None) -> RunConfig:
    """Preset sweeps mirroring the reference surfaces: theta x time at
    nbar = 5 and 15, a gamma sweep at fixed theta, and a sech-modulated
    theta x time sweep (tau mandatory there and refused elsewhere)."""
    time_grid = "linspace:0:30:601"
    theta_sweep = {"theta": "linspace:0:pi:121", "gamma": "0", "time": time_grid}
    concurrence = {"name": "i_concurrence", "cut": "ion1 | ion2,field"}
    presets = {
        "fig1": {"sweep": theta_sweep, "measure": concurrence, "params": {"nbar": 5}},
        "fig2": {"sweep": theta_sweep, "measure": concurrence, "params": {"nbar": 15}},
        "fig3": {
            "sweep": {"theta": "pi/4", "gamma": "0, 0.01, 0.05, 0.1", "time": time_grid},
            "measure": {"name": "negativity", "cut": "ion1 | ion2"},
            "params": {"nbar": 5},
        },
        "fig4": {
            "sweep": theta_sweep,
            "measure": concurrence,
            "params": {"nbar": 5, "modulation": "sech"},
        },
    }
    if name not in presets:
        raise ConfigError("figure", "name", f"unknown preset {name!r}")
    sections = presets[name]
    sections["output"] = {"prefix": name if out is None else out}
    if name == "fig4":
        sections["params"]["tau"] = tau  # build_config refuses sech without a tau
    elif tau is not None:
        raise ConfigError("figure", "tau", f"{name} runs at constant coupling; only fig4 takes tau")
    return build_config(sections)


def main(argv=None) -> int:
    import argparse  # loaded for the command line only

    parser = argparse.ArgumentParser(
        prog="ionduo",
        description="Entanglement dynamics of two three-level trapped ions "
        "coupled to a vibrational mode by a modulated laser.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_simulate = sub.add_parser("simulate", help="run a sweep described by a config file")
    p_simulate.add_argument("--config", required=True, help="INI config or JSON sidecar path")
    p_simulate.add_argument("--out", help="output path prefix (overrides the config)")

    p_figure = sub.add_parser("figure", help="run a preset sweep")
    p_figure.add_argument("name", choices=("fig1", "fig2", "fig3", "fig4"))
    p_figure.add_argument("--tau", type=float, help="sech time scale; fig4 only, and required")
    p_figure.add_argument("--out", help="output path prefix (defaults to the preset name)")

    p_selftest = sub.add_parser("selftest", help="run the fast oracle suite")
    p_selftest.add_argument("--inject-fault", choices=("mode_strength",), help=argparse.SUPPRESS)
    p_selftest.add_argument(
        "--skip-claims", action="store_true", help="run only the hard oracle checks"
    )

    args = parser.parse_args(argv)
    if args.command == "selftest":
        from .selftest import run_selftest  # the oracles load for this command only

        return run_selftest(
            inject_fault=args.inject_fault, include_claims=not args.skip_claims
        )
    preset = args.name if args.command == "figure" else None
    try:
        if preset is None:
            sections, text = _read_sections(args.config)
            if args.out is not None and isinstance(sections.get("output"), dict):
                sections["output"].pop("prefix", None)  # the flag replaces it, so it is not checked
            config = build_config(sections, text)
            if args.out is not None:  # the flag takes the [output] prefix check
                try:
                    config = replace(config, out_prefix=_parse_prefix(args.out))
                except ValueError as exc:
                    raise ConfigError("output", "prefix", str(exc)) from None
        else:
            config = figure_config(preset, tau=args.tau, out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        csv_path, json_path = execute(config, preset=preset)
    except (UnsupportedRegimeError, IncompatibleMeasureError, CutoffError) as exc:
        print(f"infeasible run: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a numerical check failed mid-run
        print(f"run failed: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
