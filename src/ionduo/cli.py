"""Command-line front end: parse a run configuration, execute sweeps and
write plot-ready CSV datasets with a JSON metadata sidecar.

The INI configuration grammar (sections ``params``, ``sweep``, ``measure``
and ``output``) is documented key by key in the README.  Numbers may use
``pi`` (``pi``, ``pi/4``, ``0.5*pi``).  Grids are either comma-separated
numbers or ``linspace:<start>:<stop>:<count>``.  The JSON sidecar written
next to each dataset can itself be fed back through ``--config`` and
reproduces the dataset byte for byte.

Exit codes: 0 success, 1 selftest failure, 2 configuration error,
3 infeasible run (e.g. decoherence combined with sech modulation).
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import check_times
from .entanglement import Bipartition
from .experiments import (
    MEASURES,
    IncompatibleMeasureError,
    MeasureSeries,
    UnsupportedRegimeError,
    coherent_amplitudes,
    detect_sudden_events,
    run_sweep,
    truncated_coherent,
)
from .ionmodel import CutoffError
from .params import Constant, Sech, SimParams
from .selftest import run_selftest

_FACTOR_LABELS = ("ion1", "ion2", "field")


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


def _parse_int(value) -> int:
    """An integer; a bool or a float with a fractional part is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value) if isinstance(value, (int, float)) else int(str(value).strip())


def _parse_grid(value) -> tuple[float, ...]:
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(_parse_number(v) for v in value)
    text = str(value).strip()
    if text.startswith("linspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"linspace needs start:stop:count, got {value!r}")
        start, stop = _parse_number(parts[1]), _parse_number(parts[2])
        count = _parse_int(parts[3])
        if count < 1:
            raise ValueError(f"linspace count must be >= 1, got {count}")
        return tuple(float(x) for x in np.linspace(start, stop, count))
    return tuple(_parse_number(piece) for piece in text.split(",") if piece.strip())


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("true", "yes", "on", "1"):
        return True
    if text in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"cannot parse boolean {value!r}")


def _parse_complex(value) -> complex:
    number = complex(str(value).strip().replace(" ", ""))
    if not cmath.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _parse_cut(value) -> Bipartition:
    if isinstance(value, dict):
        return Bipartition(tuple(value["side_a"]), tuple(value["side_b"]))
    sides = str(value).split("|")
    if len(sides) != 2:
        raise ValueError(f"cut must look like 'ion1 | ion2,field', got {value!r}")
    parsed = tuple(
        tuple(label.strip() for label in side.split(",") if label.strip()) for side in sides
    )
    cut = Bipartition(parsed[0], parsed[1])
    unknown = cut.labels - set(_FACTOR_LABELS)
    if unknown:
        raise ValueError(f"unknown factors {sorted(unknown)}; choose from {_FACTOR_LABELS}")
    return cut


def _cut_to_text(cut: Bipartition) -> str:
    return f"{','.join(cut.side_a)} | {','.join(cut.side_b)}"


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
        modulation = self.params.modulation
        mod_dict = {"kind": "sech", "tau": modulation.tau} if isinstance(modulation, Sech) else {
            "kind": "constant"
        }
        params = {key: getattr(self.params, key) for key in _PARAM_PARSERS}
        params.update(
            lambda1=str(self.params.lambda1),
            lambda2=str(self.params.lambda2),
            modulation=mod_dict,
            fock_cutoff=self.params.fock_cutoff,
        )
        return {
            "params": params,
            "sweep": {
                "theta": list(self.theta_grid),
                "gamma": list(self.gamma_grid),
                "time": list(self.time_grid),
            },
            "measure": {"name": self.measure, "cut": _cut_to_text(self.cut)},
            "output": {
                "prefix": self.out_prefix,
                "deficit": self.deficit,
                "event_threshold": self.event_threshold,
                "workers": self.workers,
            },
        }


# [params] keys parsed straight into the SimParams field of the same name;
# modulation, tau and fock_cutoff are resolved in build_config.
_PARAM_PARSERS = {
    "lambda1": _parse_complex,
    "lambda2": _parse_complex,
    "eta": _parse_number,
    "epsilon": _parse_number,
    "nbar": _parse_number,
    "phi": _parse_number,
    "standard_matrix_element": _parse_bool,
}

_KNOWN_KEYS = {
    # nu, omega1 and omega2 are accepted and dropped: 0.1.0 sidecars wrote
    # them, and the dynamics never read them.
    "params": (*_PARAM_PARSERS, "modulation", "tau", "fock_cutoff", "nu", "omega1", "omega2"),
    "sweep": ("theta", "gamma", "time"),
    "measure": ("name", "cut"),
    "output": ("prefix", "deficit", "event_threshold", "workers"),
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
        elif current == section and stripped.split("=")[0].split(":")[0].strip() == key:
            return number
    return None


def build_config(sections: dict, raw_text: str | None = None) -> RunConfig:
    """Validate a {section: {key: value}} mapping into a RunConfig.

    Values may be strings (from the INI grammar) or already-typed numbers
    and lists (from a JSON sidecar); unknown sections or keys are rejected.
    """

    def fail(section, key, message):
        raise ConfigError(section, key, message, _locate(raw_text, section, key))

    for section, keys in sections.items():
        if section not in _KNOWN_KEYS:
            raise ConfigError(section, "", "unknown section", None)
        for key in keys:
            if key not in _KNOWN_KEYS[section]:
                fail(section, key, "unknown key")

    def get(section, key, default=None):
        return sections.get(section, {}).get(key, default)

    def parse(section, key, parser, default=None, required=False):
        value = get(section, key)
        if value is None:
            if required:
                fail(section, key, "required key is missing")
            return default
        try:
            return parser(value)
        except (ValueError, TypeError, KeyError) as exc:
            fail(section, key, str(exc))

    modulation_kind = get("params", "modulation", "constant")
    if isinstance(modulation_kind, dict):
        tau_value = modulation_kind.get("tau")
        modulation_kind = modulation_kind.get("kind", "constant")
    else:
        tau_value = get("params", "tau")
        modulation_kind = str(modulation_kind).strip().lower()
    if modulation_kind == "constant":
        modulation = Constant()
    elif modulation_kind == "sech":
        if tau_value is None:
            fail("params", "tau", "sech modulation requires an explicit tau (no default exists)")
        try:
            modulation = Sech(_parse_number(tau_value))
        except (ValueError, TypeError) as exc:
            fail("params", "tau", str(exc))
    else:
        fail("params", "modulation", f"expected 'constant' or 'sech', got {modulation_kind!r}")

    deficit = parse("output", "deficit", _parse_number, default=1e-10)
    if deficit <= 0:
        fail("output", "deficit", f"deficit must be > 0, got {deficit}")

    theta_grid = parse("sweep", "theta", _parse_grid, required=True)
    gamma_grid = parse("sweep", "gamma", _parse_grid, default=(0.0,))
    time_grid = parse(
        "sweep", "time", lambda value: check_times(_parse_grid(value)).tolist(), required=True
    )
    if not theta_grid:
        fail("sweep", "theta", "grid is empty")
    if not gamma_grid:
        fail("sweep", "gamma", "grid is empty")
    for theta in theta_grid:
        if not 0.0 <= theta <= 2 * math.pi:
            fail("sweep", "theta", f"theta {theta} outside [0, 2 pi]")
    for gamma in gamma_grid:
        if gamma < 0:
            fail("sweep", "gamma", f"gamma {gamma} must be >= 0")

    measure = parse("measure", "name", str, required=True).strip()
    if measure not in MEASURES:
        fail("measure", "name", f"unknown measure {measure!r}; choose from {MEASURES}")
    cut = parse("measure", "cut", _parse_cut, default=Bipartition(("ion1",), ("ion2", "field")))

    workers = parse("output", "workers", _parse_int, default=1)
    if workers < 1:
        fail("output", "workers", f"workers must be >= 1, got {workers}")
    event_threshold = parse("output", "event_threshold", _parse_number, default=1e-3)
    if event_threshold <= 0:
        fail("output", "event_threshold", f"event_threshold must be > 0, got {event_threshold}")

    defaults = {f.name: f.default for f in fields(SimParams)}
    parsed = {
        key: parse("params", key, parser, default=defaults[key])
        for key, parser in _PARAM_PARSERS.items()
    }
    cutoff = get("params", "fock_cutoff", "auto")
    auto = str(cutoff).strip().lower() == "auto"
    if not auto:
        try:
            cutoff = _parse_int(cutoff)
        except (TypeError, ValueError):
            fail("params", "fock_cutoff", f"expected 'auto' or an integer, got {cutoff!r}")
    # The cutoff follows the field preparation's own rule; its errors and
    # those of SimParams start with the name of the offending key.
    try:
        nbar = parsed["nbar"]
        field = coherent_amplitudes(nbar, deficit) if auto else truncated_coherent(nbar, cutoff)
        params = SimParams(
            fock_cutoff=field.cutoff,
            gamma=gamma_grid[0],
            theta=theta_grid[0],
            modulation=modulation,
            **parsed,
        )
    except (ValueError, TypeError) as exc:
        key = str(exc).split(" ", 1)[0]
        fail("params", key if key in _PARAM_PARSERS else "fock_cutoff", str(exc))

    return RunConfig(
        params=params,
        theta_grid=tuple(theta_grid),
        gamma_grid=tuple(gamma_grid),
        time_grid=tuple(time_grid),
        measure=measure,
        cut=cut,
        out_prefix=str(parse("output", "prefix", str, default="dataset")),
        deficit=float(deficit),
        event_threshold=float(event_threshold),
        workers=workers,
    )


def load_config(path: str | Path) -> RunConfig:
    """Load a RunConfig from an INI file or a JSON sidecar."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("file", str(path), f"cannot read config: {exc}") from None
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("file", str(path), f"invalid JSON: {exc}") from None
        sections = payload.get("config", payload)
        if not isinstance(sections, dict):
            raise ConfigError("file", str(path), "JSON config must be an object")
        return build_config(sections, raw_text=None)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError("file", str(path), f"invalid config syntax: {exc}") from None
    sections = {
        section.lower(): {key: value for key, value in parser.items(section)}
        for section in parser.sections()
    }
    return build_config(sections, raw_text=text)


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def write_dataset(
    config: RunConfig, series_list: list[MeasureSeries], preset: str | None = None
) -> tuple[Path, Path]:
    """Write <prefix>.csv and <prefix>.json; returns their paths.

    Rows are sorted by (theta, gamma, scaled_time); all floating-point
    fields carry 12 significant digits so output is byte-stable.
    """
    prefix = Path(config.out_prefix)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.parent / (prefix.name + ".csv")
    json_path = prefix.parent / (prefix.name + ".json")

    lines = ["theta,gamma,nbar,scaled_time,measure,value"]
    for series in series_list:
        theta = series.params.theta
        gamma = series.params.gamma
        nbar = series.params.nbar
        for t, value in zip(series.times, series.values):
            lines.append(
                f"{_fmt(theta)},{_fmt(gamma)},{_fmt(nbar)},{_fmt(t)},{series.measure},{_fmt(value)}"
            )

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
    # Both files go to temporary siblings first and are moved into place only
    # once both are written, so a failure leaves an earlier pair as it was.
    texts = {
        csv_path: "\n".join(lines) + "\n",
        json_path: json.dumps(sidecar, sort_keys=True, indent=2) + "\n",
    }
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in texts]
    try:
        for temp, text in zip(temps, texts.values()):
            temp.write_text(text, encoding="utf-8", newline="\n")
        for temp, path in zip(temps, texts):
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
        workers=config.workers,
    )
    return write_dataset(config, series_list, preset=preset)


def _run(make_config, preset: str | None = None) -> int:
    """Build the config, run it and write the dataset; returns the exit code."""
    try:
        config = make_config()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        csv_path, json_path = execute(config, preset=preset)
    except (UnsupportedRegimeError, IncompatibleMeasureError, CutoffError) as exc:
        print(f"infeasible run: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_simulate(config_path: str, out: str | None, workers: int | None) -> int:
    def make_config():
        # The flags replace the file's values in its resolved sidecar form,
        # so they pass the same [output] checks.
        sections = load_config(config_path).to_json_dict()
        if out is not None:
            sections["output"]["prefix"] = out
        if workers is not None:
            sections["output"]["workers"] = workers
        return build_config(sections)

    return _run(make_config)


def figure_config(
    name: str, tau: float | None = None, out: str | None = None, workers: int | None = None
) -> RunConfig:
    """Preset sweeps mirroring the reference surfaces: theta x time at
    nbar = 5 and 15, a gamma sweep at fixed theta, and a sech-modulated
    theta x time sweep (tau mandatory, no reference value exists)."""
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
    if name == "fig4":
        if tau is None:
            raise ConfigError(
                "params",
                "tau",
                "fig4 uses sech modulation and requires --tau (no reference value exists)",
            )
        sections["params"]["tau"] = tau
    sections.setdefault("output", {})["prefix"] = out if out is not None else name
    if workers is not None:
        sections["output"]["workers"] = workers
    return build_config(sections)


def cmd_figure(name: str, tau: float | None, out: str | None, workers: int | None) -> int:
    return _run(lambda: figure_config(name, tau=tau, out=out, workers=workers), preset=name)


def main(argv=None) -> int:
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
    p_simulate.add_argument("--workers", type=int, help="worker processes (overrides the config)")

    p_figure = sub.add_parser("figure", help="run a preset sweep")
    p_figure.add_argument("name", choices=("fig1", "fig2", "fig3", "fig4"))
    p_figure.add_argument("--tau", type=float, help="sech time scale; required for fig4")
    p_figure.add_argument("--out", help="output path prefix (defaults to the preset name)")
    p_figure.add_argument("--workers", type=int)

    p_selftest = sub.add_parser("selftest", help="run the fast oracle suite")
    p_selftest.add_argument("--inject-fault", choices=("mode_strength",), help=argparse.SUPPRESS)
    p_selftest.add_argument(
        "--skip-claims", action="store_true", help="run only the hard oracle checks"
    )

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out, args.workers)
    if args.command == "figure":
        return cmd_figure(args.name, args.tau, args.out, args.workers)
    if args.command == "selftest":
        return run_selftest(
            inject_fault=args.inject_fault, include_claims=not args.skip_claims
        )
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
