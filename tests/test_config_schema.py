"""Property tests of the config schema: sidecar round trips, the sidecar
form of a grid, located errors for corrupted keys, and the README grammar
against the table.

Every test here only builds configs; none evolves a state.  Corrupted
values are drawn from NaN, infinities, division by zero, bools, fractional
integers, empty strings and, in the JSON form, lists, objects and null.
Huge ``linspace`` counts are not drawn: refusing an oversized run before
anything is allocated is not implemented yet, and these tests must
allocate nothing large.
"""

import configparser
import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from ionduo.cli import _SCHEMA, _parse_grid, _sidecar_value, build_config, main

SETTINGS = dict(derandomize=True, deadline=None)
README = Path(__file__).resolve().parents[1] / "README.md"
# Accepted in [params] and dropped, so the README no longer lists them.
DROPPED = {"nu", "omega1", "omega2", "standard_matrix_element"}



def text_or_value(strategy):
    """A value as a JSON sidecar holds it or as the INI grammar spells it."""
    return st.one_of(strategy, strategy.map(repr))


def grid(low, high, size):
    return st.lists(st.floats(low, high), min_size=1, max_size=size)


@st.composite
def sections(draw):
    params = {
        "lambda1": text_or_value(st.complex_numbers(max_magnitude=2.0, allow_nan=False)),
        "lambda2": text_or_value(st.complex_numbers(max_magnitude=2.0, allow_nan=False)),
        "eta": text_or_value(st.floats(0.0, 1.0)),
        "epsilon": text_or_value(st.floats(-1.0, 1.0)),
        "nbar": text_or_value(st.floats(0.0, 3.0)),
        "phi": text_or_value(st.floats(0.0, math.pi)),
        "fock_cutoff": st.one_of(st.just("auto"), st.integers(12, 16)),
    }
    config = {"params": {k: draw(v) for k, v in params.items() if draw(st.booleans())}}
    if draw(st.booleans()):
        config["params"]["modulation"] = "sech"
        config["params"]["tau"] = draw(text_or_value(st.floats(0.1, 10.0)))
    times = draw(st.lists(st.floats(0.01, 5.0), max_size=2, unique=True))
    config["sweep"] = {
        "theta": draw(grid(0.0, 2 * math.pi, 3)),
        "gamma": draw(grid(0.0, 1.0, 2)),
        "time": [0.0, *sorted(times)],
    }
    config["measure"] = {
        "name": draw(st.sampled_from(["i_concurrence", "negativity", "relative_entropy"])),
        "cut": draw(st.sampled_from(["ion1 | ion2,field", "ion1 | ion2", "ion2,ion1 | field"])),
    }
    config["output"] = {
        "prefix": draw(st.sampled_from(["out", "runs/a b"])),
        "deficit": draw(st.floats(1e-12, 1e-3)),
        "event_threshold": draw(st.floats(1e-6, 0.1)),
        "workers": draw(st.integers(1, 4)),
    }
    return config


@settings(max_examples=150, **SETTINGS)
@given(config=sections())
def test_sidecar_form_rebuilds_the_same_config(config):
    first = build_config(config)
    sidecar = json.dumps(first.to_json_dict(), sort_keys=True)
    again = build_config(json.loads(sidecar))
    assert again == first
    assert json.dumps(again.to_json_dict(), sort_keys=True) == sidecar


def read_back(written) -> bytes:
    """The float64 bytes of the grid a sidecar value parses back to."""
    return np.array(_parse_grid(json.loads(json.dumps(written)))).tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, **SETTINGS)
@given(start=FINITE, stop=FINITE, count=st.integers(3, 5000), data=st.data())
def test_linspace_grid_is_written_as_its_spec(start, stop, count, data):
    try:  # leave out ends whose difference or steps overflow the float range
        with np.errstate(all="raise"):
            grid = np.linspace(start, stop, count)
    except FloatingPointError:
        reject()
    written = _sidecar_value(tuple(grid.tolist()))
    assert written == f"linspace:{float(grid[0])!r}:{float(grid[-1])!r}:{count}"
    assert read_back(written) == grid.tobytes()
    # One interior entry one ulp off: no longer a linspace, so a full list.
    moved = grid.copy()
    index = data.draw(st.integers(1, count - 2))
    moved[index] = np.nextafter(moved[index], data.draw(st.sampled_from([-np.inf, np.inf])))
    assume(np.isfinite(moved[index]))
    written = _sidecar_value(tuple(moved.tolist()))
    assert isinstance(written, list)
    assert read_back(written) == moved.tobytes()


def test_negative_zero_start_keeps_the_list():
    """np.linspace(-0.0, 1.0, 3) starts at +0.0, which equals -0.0 but
    prints as another CSV cell, so only the list keeps the grid's bits."""
    grid = (-0.0, 0.5, 1.0)
    assert _sidecar_value(grid) == [-0.0, 0.5, 1.0]
    assert read_back(_sidecar_value(grid)) == np.array(grid).tobytes()


# A valid INI that sets every key of the README grammar.
VALID_INI = """\
[params]
lambda1 = 1
lambda2 = 0.01
eta = 0.202
epsilon = 0.01
nbar = 2
phi = 0
modulation = {modulation}
tau = 5
fock_cutoff = 12

[sweep]
theta = 0, 0.5
gamma = 0
time = linspace:0:1:3

[measure]
name = i_concurrence
cut = ion1 | ion2,field

[output]
prefix = {prefix}
deficit = 1e-10
event_threshold = 1e-3
workers = 1
"""

NOT_FINITE = ["nan", "inf", "-inf", "pi/0"]
NUMBER = NOT_FINITE + ["", "true", "false"]
INTEGER = NUMBER + ["2.5", "-0.5"]
GRID = NUMBER + ["0, nan", "linspace:0:1:2.5", "linspace:0:1:true"]
# Corrupted INI values for each key; a bool or a fractional value is bad
# only where the key's type refuses it.
BAD_INI = {
    ("params", "lambda1"): NUMBER,
    ("params", "lambda2"): NUMBER,
    ("params", "eta"): NUMBER,
    ("params", "epsilon"): NUMBER,
    ("params", "nbar"): NUMBER,
    ("params", "phi"): NUMBER,
    ("params", "modulation"): NOT_FINITE + ["", "true", "2.5"],
    ("params", "tau"): NUMBER,
    ("params", "fock_cutoff"): INTEGER,
    ("sweep", "theta"): GRID,
    ("sweep", "gamma"): GRID,
    ("sweep", "time"): GRID,
    ("measure", "name"): NOT_FINITE + ["", "true"],
    ("measure", "cut"): NOT_FINITE + ["", "true", "ion1 | ion1"],
    ("output", "prefix"): [""],
    ("output", "deficit"): NUMBER,
    ("output", "event_threshold"): NUMBER,
    ("output", "workers"): INTEGER,
}


def configparser_sections(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(text)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def run_main(path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", "--config", str(path)])
    return code, err.getvalue()


def assert_one_located_line(err, section, key, line=None):
    where = f"[{section}] {key}" + ("" if line is None else f" (line {line})")
    assert err.startswith(f"config error: {where}: "), err
    assert err.count("\n") == 1, err


@settings(max_examples=150, **SETTINGS)
@given(st.data())
def test_corrupted_ini_key_is_a_located_config_error(tmp_path_factory, data):
    section, key = data.draw(st.sampled_from(sorted(BAD_INI)))
    bad = data.draw(st.sampled_from(BAD_INI[section, key]))
    spelled = data.draw(st.sampled_from([key, key.upper()]))  # keys are case-insensitive
    kind = data.draw(st.sampled_from(["sech", "constant"]))  # tau is checked under both
    folder = tmp_path_factory.mktemp("ini")
    lines = VALID_INI.format(prefix=folder / "x", modulation=kind).splitlines()
    start = lines.index(f"[{section}]")
    number = next(n for n in range(start, len(lines)) if lines[n].startswith(f"{key} = ")) + 1
    lines[number - 1] = f"{spelled} = {bad}"
    path = folder / "run.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = run_main(path)
    assert code == 2, err
    assert_one_located_line(err, section, key, number)
    assert [p.name for p in folder.iterdir()] == ["run.ini"]


JSON_COMMON = [math.nan, math.inf, True, "", [], {}, None]
# Corrupted JSON values for each key, where they differ from JSON_COMMON.
BAD_JSON = {
    ("params", "modulation"): [math.nan, True, "", [], None, 2.5],
    ("params", "fock_cutoff"): JSON_COMMON + [2.5, -0.5],
    ("sweep", "theta"): JSON_COMMON + [[None], [math.nan], ["true"]],
    ("sweep", "time"): JSON_COMMON + [[0.5], [0.0, math.inf]],
    ("output", "prefix"): ["", [], {}, None, True, 2.5],
    ("output", "workers"): JSON_COMMON + [2.5, 0],
}


@settings(max_examples=150, **SETTINGS)
@given(st.data())
def test_corrupted_json_key_is_a_config_error(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("json")
    text = VALID_INI.format(prefix=folder / "x", modulation="sech")
    config = build_config(configparser_sections(text)).to_json_dict()
    section, key = data.draw(st.sampled_from(sorted(BAD_INI)))
    bad = data.draw(st.sampled_from(BAD_JSON.get((section, key), JSON_COMMON)))
    if key == "tau":  # the sidecar keeps tau inside the modulation object
        config["params"]["modulation"]["tau"] = bad
    else:
        config[section][key] = bad
    path = folder / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, err = run_main(path)
    assert code == 2, err
    assert_one_located_line(err, section, key)
    assert [p.name for p in folder.iterdir()] == ["run.json"]


def test_readme_grammar_lists_exactly_the_schema_keys():
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    documented = configparser_sections(block)
    assert list(documented) == list(_SCHEMA)
    for section, keys in _SCHEMA.items():
        assert set(documented[section]) == set(keys) - DROPPED, section
    build_config(documented)  # and the example itself is a valid config
