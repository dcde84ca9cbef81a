"""CLI fuzz: mutated inputs and flags end in exit 0 or in one `tropdyn:` line with exit 1.

Valid `tropicalize`, `hypersurface`, `balance`, `add`, `orbits` and `refine`
inputs are mutated at one or two drawn places, in the same input or in both
inputs of `add` and `refine`: a key dropped, a value of the wrong type, a
non-finite number, or a vector made ragged.  Whatever the mutations, the
command must exit 0, or exit 1 with exactly one diagnostic line, and never
raise.

Valid `amoeba`, `dequantize` and `converge` runs on small grids
have one numeric flag replaced by a negative, empty, non-finite or oversized
value.  Each case must exit 0 with nothing on stderr, exit 1 with one
diagnostic line, or exit 2 with argparse's usage error; an exception or a
warning fails the case.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from tropdyn import serialize
from tropdyn.cli import run
from tropdyn.polyhedra import Cone, Fan
from tropdyn.tropical import TropicalPolynomial, tropical_hypersurface, uniform_bergman_fan

TROPICAL_PLANE_CURVE = {
    "terms": [
        {"exp": [1, 0], "coeff": 0.5},
        {"exp": [0, 1], "coeff": -1.0},
        {"exp": [0, 0], "coeff": 0.0},
    ]
}
COMPLEX_LINE = {
    "terms": [
        {"exp": [1, 0], "re": 1.0, "im": 0.5},
        {"exp": [0, 1], "re": -2.0, "im": 0.0},
        {"exp": [0, 0], "re": 1.0},
    ]
}
SHIFTED_CURVE = serialize.cycle_to_json(
    tropical_hypersurface(TropicalPolynomial({(1, 0): 1, (0, 1): 0, (0, 0): 0}))
)
BERGMAN_LINE = serialize.cycle_to_json(uniform_bergman_fan(1, 2))
QUADRANT_FAN = serialize.fan_to_json(
    Fan(
        [
            Cone.from_generators([(1, 0), (0, 1)]),
            Cone.from_generators([(0, 1), (-1, -1)]),
            Cone.from_generators([(-1, -1), (1, 0)]),
        ]
    )
)
POINT_CYCLE = {"ambient_dim": 2, "dim": 0, "cells": [{"weight": 2}]}
LINEALITY_FAN = {"ambient_dim": 2, "cones": [{"rays": [[1, 0]], "lineality": [[0, 1]]}]}

# command -> valid input lists, one JSON object per -i
VALID = {
    "hypersurface": [[TROPICAL_PLANE_CURVE], [COMPLEX_LINE]],
    "balance": [[SHIFTED_CURVE], [BERGMAN_LINE], [POINT_CYCLE]],
    "add": [[SHIFTED_CURVE, BERGMAN_LINE], [BERGMAN_LINE, BERGMAN_LINE], [POINT_CYCLE, POINT_CYCLE]],
    "orbits": [[QUADRANT_FAN], [LINEALITY_FAN]],
    "refine": [[QUADRANT_FAN, LINEALITY_FAN], [LINEALITY_FAN, LINEALITY_FAN]],
    "tropicalize": [[COMPLEX_LINE]],
}
WRONG_VALUES = [None, "x", True, {}, [], 1.5, -1, 0, 7, 10**9, [[1]], {"rays": []}]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _places(obj, path=()):
    """Every (path, value) inside a JSON value, the value itself included."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _replace(obj, path, new):
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {k: _replace(v, rest, new) if k == key else v for k, v in obj.items()}
    return [_replace(v, rest, new) if i == key else v for i, v in enumerate(obj)]


def _mutate(draw, inputs):
    """Mutate one drawn place of one drawn input, in place."""
    which = draw(st.integers(0, len(inputs) - 1))
    path, value = draw(st.sampled_from(list(_places(inputs[which]))))
    kinds = ["wrong type"]
    if isinstance(value, dict) and value:
        kinds.append("drop key")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        kinds.append("non-finite")
    if isinstance(value, list) and value:
        kinds.append("ragged")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop key":
        gone = draw(st.sampled_from(sorted(value)))
        new = {k: v for k, v in value.items() if k != gone}
    elif kind == "non-finite":
        new = draw(st.sampled_from(NON_FINITE))
    elif kind == "ragged":
        if draw(st.booleans()):
            new = value[:-1]
        else:
            new = value + [draw(st.sampled_from([value[-1], 0, 2.5, None]))]
    else:
        new = draw(st.sampled_from(WRONG_VALUES))
    inputs[which] = _replace(inputs[which], path, new)


@st.composite
def mutated_inputs(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    inputs = list(draw(st.sampled_from(VALID[command])))
    for _ in range(draw(st.integers(1, 2))):  # a second one may hit the other input
        _mutate(draw, inputs)
    return command, inputs


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_inputs())
def test_mutated_inputs_exit_cleanly(case):
    command, inputs = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for i, obj in enumerate(inputs):
            path = Path(tmp) / f"in{i}.json"
            path.write_text(json.dumps(obj))
            argv += ["-i", str(path)]
        argv += ["-o", str(Path(tmp) / "out.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("tropdyn: "), err.getvalue()
    else:
        assert err.getvalue() == ""


# numeric command -> valid flag settings on grids of at most 7 points per axis and m <= 16
SMALL_GRID = {"--res": "5", "--box": "-2,2", "--delta": "0.5", "--density": "4", "--seed": "3"}
NUMERIC_VALID = {
    "amoeba": [{"--ms": "4,16", "--res": "7", "--box": "-2,2", "--seed": "3"}],
    "dequantize": [{"--ms": "4", "--res": "5", "--box": "-2,2", "--delta": "0.5", "--seed": "3"}],
    "converge": [
        {"--experiment": "dequantization", "--ms": "4,8", **SMALL_GRID},
        {"--experiment": "hausdorff-to-tropical", "--ms": "4,16", **SMALL_GRID, "--res": "7"},
        {"--experiment": "equidistribution-discrepancy", "--ms": "4,16", "--seed": "3"},
    ],
}
# flag -> negative, empty, non-finite and oversized replacement values
FLAG_VALUES = {
    "--seed": ["-1", "", "nan", str(2**70)],
    "--ms": ["-4", "0", "", ",", "nan", "16,4", "4,4", str(10**9), "4,x"],
    "--res": ["-7", "1", "", "nan", "7,7,7", str(10**7)],
    "--box": ["-2,-3", "", "1", "nan,1", "-inf,inf", "-1e308,1e308", "1,2,3"],
    "--delta": ["-0.5", "0", "", "nan", "inf", "1e300", "1e-300"],
    "--density": ["-4", "0", "", "nan", "inf", "1e300"],
}
FLAG_CASES = [
    pytest.param(command, {**valid, flag: value}, id=f"{command}{k}{flag}={value}")
    for command, valids in NUMERIC_VALID.items()
    for k, valid in enumerate(valids)
    for flag, values in FLAG_VALUES.items()
    if flag in valid
    for value in values
]


@pytest.mark.parametrize("command, flags", FLAG_CASES)
def test_mutated_flags_exit_cleanly(tmp_path, command, flags):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(COMPLEX_LINE))
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
    argv += ["-i", str(path), "-o", str(tmp_path / "out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert lines[-1].startswith(f"tropdyn {command}: error: "), err.getvalue()
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("tropdyn: "), err.getvalue()
    else:
        assert code == 0 and lines == []
