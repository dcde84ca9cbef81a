import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdyn import cli, serialize
from tropdyn.dynamics import PointCloud
from tropdyn.cli import run
from tropdyn.polyhedra import Cone, Fan, WeightedComplex
from tropdyn.tropical import TropicalPolynomial, uniform_bergman_fan

from oracles import cloud_to_csv_elementwise


LINE_JSON = {
    "terms": [
        {"exp": [1, 0], "re": 1.0, "im": 0.0},
        {"exp": [0, 1], "re": 1.0, "im": 0.0},
        {"exp": [0, 0], "re": 1.0, "im": 0.0},
    ]
}


@pytest.fixture
def line_path(tmp_path):
    p = tmp_path / "line.json"
    p.write_text(json.dumps(LINE_JSON))
    return str(p)


def test_hypersurface_command(tmp_path, line_path, capsys):
    out = tmp_path / "cycle.json"
    assert run(["hypersurface", "-i", line_path, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["balanced"] is True
    assert data["dim"] == 1
    rays = sorted(tuple(c["rays"][0]) for c in data["cells"])
    assert rays == [(-1, -1), (0, 1), (1, 0)]
    assert all(c["weight"] == 1 for c in data["cells"])


def test_balance_command_unbalanced(tmp_path, capsys):
    cycle = WeightedComplex.from_cone_cells(2, 1, [(((1, 0),), 1), (((0, 1),), 1)])
    path = tmp_path / "cycle.json"
    path.write_text(serialize.dumps_canonical(serialize.cycle_to_json(cycle)))
    assert run(["balance", "-i", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["balanced"] is False
    assert report["violations"][0]["residual"] == [1, 1]


def test_tropicalize_command(tmp_path, line_path):
    out = tmp_path / "trop.json"
    assert run(["tropicalize", "-i", line_path, "-o", str(out)]) == 0
    q = serialize.tropical_poly_from_json(json.loads(out.read_text()))
    assert q == TropicalPolynomial({(-1, 0): 0, (0, -1): 0, (0, 0): 0})


def test_bergman_command(tmp_path):
    out = tmp_path / "bergman.json"
    assert run(["bergman", "--p", "2", "--n", "3", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["cells"]) == 6
    cycle = serialize.cycle_from_json(data)
    assert cycle == uniform_bergman_fan(2, 3)


def test_orbits_command(tmp_path):
    fan = Fan(
        [
            Cone.from_generators([(1, 0), (0, 1)]),
            Cone.from_generators([(0, 1), (-1, -1)]),
            Cone.from_generators([(-1, -1), (1, 0)]),
        ]
    )
    path = tmp_path / "fan.json"
    path.write_text(serialize.dumps_canonical(serialize.fan_to_json(fan)))
    out = tmp_path / "orbits.json"
    assert run(["orbits", "-i", str(path), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["orbits"]) == 7
    assert sorted(o["dim"] for o in data["orbits"]) == [0, 0, 0, 1, 1, 1, 2]


def test_refine_command(tmp_path):
    quads = Fan(
        [
            Cone.from_generators([(1, 0), (0, 1)]),
            Cone.from_generators([(0, 1), (-1, 0)]),
            Cone.from_generators([(-1, 0), (0, -1)]),
            Cone.from_generators([(0, -1), (1, 0)]),
        ]
    )
    diag = Fan(
        [
            Cone.from_generators([(1, 1), (1, -1)]),
            Cone.from_generators([(1, 1), (-1, 1)]),
            Cone.from_generators([(-1, -1), (-1, 1)]),
            Cone.from_generators([(-1, -1), (1, -1)]),
        ]
    )
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(serialize.dumps_canonical(serialize.fan_to_json(quads)))
    pb.write_text(serialize.dumps_canonical(serialize.fan_to_json(diag)))
    out = tmp_path / "ref.json"
    assert run(["refine", "-i", str(pa), "-i", str(pb), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["cones"]) == 8


def test_add_command(tmp_path):
    line = uniform_bergman_fan(1, 2)
    path = tmp_path / "line.json"
    path.write_text(serialize.dumps_canonical(serialize.cycle_to_json(line)))
    out = tmp_path / "sum.json"
    assert run(["add", "-i", str(path), "-i", str(path), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["balanced"] is True
    assert sorted(c["weight"] for c in data["cells"]) == [2, 2, 2]


DUPLICATE_RAY = {
    "ambient_dim": 2,
    "dim": 1,
    "cells": [{"rays": [[1, 0]], "weight": 1}, {"rays": [[1, 0]], "weight": 2}],
}


def test_equal_cells_read_as_one(tmp_path):
    single = {"ambient_dim": 2, "dim": 1, "cells": [{"rays": [[1, 0]], "weight": 3}]}
    assert serialize.cycle_from_json(DUPLICATE_RAY) == serialize.cycle_from_json(single)
    path, out = tmp_path / "dup.json", tmp_path / "sum.json"
    path.write_text(json.dumps(DUPLICATE_RAY))
    assert run(["add", "-i", str(path), "-i", str(path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["cells"] == [{"rays": [[1, 0]], "weight": 6}]


def test_add_names_the_failing_pair(tmp_path, capsys):
    """A tropical plane plus the classical plane x1 - x2 = c: the known add_cycles defect."""
    planes = {
        "tropical": {(0, 0, 0): 0.0, (1, 0, 0): 0.25, (0, 1, 0): -0.125, (0, 0, 1): 0.1875},
        "classical": {(1, 0, 0): 0.0, (0, 1, 0): 0.125},
    }
    cycles = []
    for name, terms in planes.items():
        src, out = tmp_path / f"{name}.json", tmp_path / f"{name}_cycle.json"
        src.write_text(json.dumps({"terms": [{"exp": list(e), "coeff": c} for e, c in terms.items()]}))
        assert run(["hypersurface", "-i", str(src), "-o", str(out)]) == 0
        cycles += ["-i", str(out)]
    capsys.readouterr()
    assert run(["add", *cycles, "-o", str(tmp_path / "sum.json")]) == 1
    assert capsys.readouterr().err == "tropdyn: cells do not intersect in a common face (members 0 and 7)\n"


def test_amoeba_command_csv_and_svg(tmp_path, line_path):
    out = tmp_path / "cloud.csv"
    svg = tmp_path / "cloud.svg"
    code = run(
        [
            "amoeba", "-i", line_path, "-o", str(out), "--ms", "2",
            "--box=-2,2", "--res", "21", "--svg", str(svg),
        ]
    )
    assert code == 0
    cloud = serialize.cloud_from_csv(out.read_text())
    assert cloud.dim == 2 and len(cloud) > 0 and cloud.m == 2
    assert svg.read_text().startswith("<svg")


def test_amoeba_multiple_ms_suffixes(tmp_path, line_path):
    out = tmp_path / "cloud.csv"
    assert run(["amoeba", "-i", line_path, "-o", str(out), "--ms", "1,2", "--box=-1,1", "--res", "5"]) == 0
    assert (tmp_path / "cloud_m1.csv").exists()
    assert (tmp_path / "cloud_m2.csv").exists()


def test_dequantize_command(tmp_path, line_path):
    out = tmp_path / "deq.json"
    code = run(
        [
            "dequantize", "-i", line_path, "-o", str(out), "--ms", "4,8",
            "--box=-2,2", "--res", "15", "--delta", "0.3", "--seed", "5",
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["ms"] == [4, 8]
    assert data["linf"][1] < data["linf"][0]
    assert data["seed"] == 5


@pytest.mark.parametrize(
    "exps",
    [[[0], [1]], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]],
    ids=["n = 1", "n = 3"],
)
def test_lone_box_pair_spans_every_axis(tmp_path, exps):
    """A lone lo,hi pair is the box on every axis, the same as one pair per axis written out."""
    src = tmp_path / "f.json"
    src.write_text(json.dumps({"terms": [{"exp": e, "re": 1.0} for e in exps]}))
    lone, spelled = tmp_path / "lone.json", tmp_path / "spelled.json"
    argv = ["dequantize", "-i", str(src), "--ms", "4", "--res", "5"]
    assert run(argv + ["--box=-1,1", "-o", str(lone)]) == 0
    assert run(argv + ["--box=" + ",".join(["-1,1"] * len(exps[0])), "-o", str(spelled)]) == 0
    assert lone.read_text() == spelled.read_text()
    assert json.loads(lone.read_text())["linf"][0] > 0


def test_box_pairs_must_match_the_input(line_path, capsys):
    argv = ["dequantize", "-i", line_path, "--ms", "4", "--res", "5", "--box=-1,1,-1,1,-1,1"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "tropdyn: --box has 3 lo,hi pairs for an input in 2 variables\n"


@pytest.mark.parametrize("re, im", [(2.0, 5e-324), (1e300, 1e-300)])
def test_dequantize_coefficient_with_underflowing_phase(tmp_path, re, im):
    # the phase of such a coefficient underflows to a subnormal or zero
    line = json.loads(json.dumps(LINE_JSON))
    line["terms"][0].update(re=re, im=im)
    src = tmp_path / "line.json"
    src.write_text(json.dumps(line))
    out = tmp_path / "deq.json"
    argv = ["dequantize", "-i", str(src), "-o", str(out), "--ms", "4", "--res", "11", "--delta", "0.2"]
    assert run(argv) == 0
    data = json.loads(out.read_text())
    assert all(math.isfinite(x) for x in data["linf"] + data["l1"])


def test_equidist_command(capsys):
    assert run(["converge", "--experiment", "equidistribution-discrepancy", "--ms", "8,16"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["errors"] == pytest.approx([0.125, 0.0625], abs=1e-12)


def test_equidist_is_not_a_subcommand(capsys):
    assert run(["equidist", "--ms", "8"]) == 2
    assert "invalid choice: 'equidist'" in capsys.readouterr().err


def test_converge_command(tmp_path):
    out = tmp_path / "conv.json"
    svg = tmp_path / "conv.svg"
    code = run(
        [
            "converge", "--experiment", "equidistribution-discrepancy",
            "--ms", "16,32,64", "-o", str(out), "--svg", str(svg),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rho"] == pytest.approx(1.0, abs=1e-6)
    assert set(data) >= {"C", "rho", "ms", "errors", "seed"}
    assert svg.read_text().startswith("<svg")


def test_converge_rejects_a_zero_error(line_path, capsys):
    # at m = 256 the dequantization error of the line is 0.0 at float resolution: no power law fits it
    argv = ["converge", "-i", line_path, "--experiment", "dequantization", "--ms", "8,64,256"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("tropdyn: ")
    assert "m = 256" in err


@pytest.mark.parametrize("flag", ["--box=1,0", "--res=1"])
def test_converge_without_grid_ignores_grid_flags(tmp_path, flag):
    # the equidistribution experiment samples no grid, so grid flags are not read
    argv = ["converge", "--experiment", "equidistribution-discrepancy", "--ms", "4,8"]
    plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
    assert run(argv + ["-o", str(plain)]) == 0
    assert run(argv + [flag, "-o", str(flagged)]) == 0
    assert flagged.read_text() == plain.read_text()


def test_roundtrip_cycle_json(tmp_path):
    # affine cells keep exact rational vertices across a round trip
    q = TropicalPolynomial({(0, 0): 0, (-2, 1): 1, (1, -1): 0.5})
    from tropdyn.tropical import tropical_hypersurface

    cycle = tropical_hypersurface(q)
    blob = serialize.dumps_canonical(serialize.cycle_to_json(cycle))
    back = serialize.cycle_from_json(json.loads(blob))
    assert back == cycle
    assert serialize.dumps_canonical(serialize.cycle_to_json(back)) == blob


def test_byte_identical_reruns(tmp_path, line_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(
            ["dequantize", "-i", line_path, "-o", str(out), "--ms", "4", "--res", "9", "--seed", "3"]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    csvs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["amoeba", "-i", line_path, "-o", str(out), "--ms", "2", "--res", "9"]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_malformed_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"terms": [}')
    assert run(["hypersurface", "-i", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_domain_error_exit_one(tmp_path, capsys):
    poly5 = tmp_path / "p5.json"
    poly5.write_text(json.dumps({
        "terms": [
            {"exp": [0, 0, 0, 0, 0], "re": 1.0, "im": 0.0},
            {"exp": [1, 0, 0, 0, 0], "re": 1.0, "im": 0.0},
        ]
    }))
    assert run(["hypersurface", "-i", str(poly5)]) == 1
    assert "tropdyn:" in capsys.readouterr().err


MISSING_KEY_CASES = {
    "weight": ("balance", {"ambient_dim": 2, "dim": 1, "cells": [{"rays": [[1, 0]]}]}, "a"),
    "exp": ("hypersurface", {"terms": [{"coeff": 0.0}, {"exp": [0, 1], "coeff": 0.0}]}, "an"),
    "coeff": ("hypersurface", {"terms": [{"exp": [1, 0], "coeff": 0.0}, {"exp": [0, 1]}]}, "a"),
    "re": ("tropicalize", {"terms": [{"exp": [1, 0], "im": 1.0}]}, "a"),
    "ambient_dim": ("balance", {"dim": 0, "cells": []}, "an"),
}


@pytest.mark.parametrize("key", sorted(MISSING_KEY_CASES))
def test_missing_key_exit_one(tmp_path, capsys, key):
    command, obj, article = MISSING_KEY_CASES[key]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert run([command, "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("tropdyn:")
    assert f"needs {article} '{key}' field" in err


BINOMIAL_JSON = {
    "terms": [{"exp": [0, 0], "re": 1.45, "im": 0.9}, {"exp": [0, 1], "re": 0.56, "im": 0.52}]
}

MALFORMED_CASES = {
    "term-not-object": ("hypersurface", {"terms": [5]}, [], "terms must be objects"),
    "ray-too-long": (
        "balance",
        {"ambient_dim": 2, "dim": 1, "cells": [{"rays": [[1, 0, 0]], "weight": 1}]},
        [],
        "list of 2 numbers",
    ),
    "ambient-dim-huge": (
        "balance",
        {"ambient_dim": 10**9, "dim": 0, "cells": [{"weight": 1}]},
        [],
        "ambient dimension unsupported",
    ),
    "ambient-dim-huge-empty": (
        "balance", {"ambient_dim": 10**9, "dim": 0, "cells": []}, [], "ambient dimension unsupported"
    ),
    "dim-negative-empty": (
        "balance", {"ambient_dim": 2, "dim": -7, "cells": []}, [], "dim -7 outside -1..2"
    ),
    "exp-not-integer": (
        "hypersurface",
        {"terms": [{"exp": ["a", 0], "coeff": 0.0}, {"exp": [0, 1], "coeff": 0.0}]},
        [],
        "exponent is not a finite number",
    ),
    "exp-repeated": (
        "tropicalize",
        {"terms": [{"exp": [1], "re": 1.0}, {"exp": [1], "re": -1.0}]},
        [],
        "repeated exponent [1]",
    ),
    "exp-not-integral": (
        "hypersurface",
        {"terms": [{"exp": [1.5, 0], "coeff": 0.0}, {"exp": [0, 1], "coeff": 0.0}]},
        [],
        "exponent is not an integer: 1.5",
    ),
    "weight-boolean": (
        "balance",
        {"ambient_dim": 2, "dim": 1, "cells": [{"rays": [[1, 0]], "weight": True}]},
        [],
        "cell weight is not a finite number: True",
    ),
    "exp-boolean": (
        "hypersurface",
        {"terms": [{"exp": [True, False], "coeff": 0.0}, {"exp": [0, 1], "coeff": 0.0}]},
        [],
        "exponent is not a finite number: True",
    ),
    "re-boolean": (
        "tropicalize", {"terms": [{"exp": [1], "re": True}]}, [], "real part is not a finite number: True"
    ),
    "ambient-dim-boolean": (
        "balance", {"ambient_dim": True, "dim": 0, "cells": []}, [], "ambient_dim is not a finite number: True"
    ),
    "amoeba-slice-degree-over-budget": (
        "amoeba",
        {"terms": [{"exp": [0, 0], "re": 1.0}, {"exp": [1, 0], "re": 1.0}, {"exp": [0, 300], "re": 1.0}]},
        ["--ms", "4", "--res", "5", "-o", "x.csv"],
        "slices x degree^2 = 25 x 300^2 exceeds ALL_MODE_BUDGET = 1000000",
    ),
    "box-not-numeric": (
        "amoeba", LINE_JSON, ["--ms", "2", "--box", "a,b", "-o", "x.csv"], "--box needs numbers"
    ),
    "box-not-finite": (
        "amoeba", LINE_JSON, ["--ms", "2", "--box=nan,inf", "-o", "x.csv"], "box bounds must be finite"
    ),
    "box-infinite-converge": (
        "converge",
        LINE_JSON,
        ["--experiment", "hausdorff-to-tropical", "--ms", "4,8", "--box=-1,inf"],
        "box bounds must be finite",
    ),
    "delta-not-finite": (
        "dequantize", LINE_JSON, ["--ms", "4", "--delta", "nan"], "exclusion radius must be a finite"
    ),
    "density-nan": (
        "converge",
        LINE_JSON,
        ["--experiment", "hausdorff-to-tropical", "--ms", "4,8", "--density", "nan"],
        "density must be a finite positive number",
    ),
    "density-infinite": (
        "converge",
        LINE_JSON,
        ["--experiment", "hausdorff-to-tropical", "--ms", "4,8", "--density", "inf"],
        "density must be a finite positive number",
    ),
    "res-too-large": (
        "amoeba",
        LINE_JSON,
        ["--ms", "4", "--res", "100000000", "--box", "0,1", "-o", "x.csv"],
        "a grid has at most 1000000 points",
    ),
    "density-extreme": (
        "converge",
        LINE_JSON,
        ["--experiment", "hausdorff-to-tropical", "--ms", "4,8", "--res", "11", "--density", "1e300"],
        "a cell would take more than 1000000 samples",
    ),
    "seed-negative-dequantize": (
        "dequantize", LINE_JSON, ["--ms", "4", "--res", "7", "--seed", "-1"], "seed must be a nonnegative"
    ),
    "seed-negative-converge": (
        "converge",
        LINE_JSON,
        ["--experiment", "dequantization", "--ms", "4,8", "--res", "7", "--seed", "-1"],
        "seed must be a nonnegative",
    ),
    "box-width-infinite": (
        "amoeba", LINE_JSON, ["--ms", "4", "--box=-1e308,1e308", "-o", "x.csv"], "need a finite width"
    ),
    "delta-extreme": (
        "dequantize",
        LINE_JSON,
        ["--ms", "4", "--res", "11", "--delta", "1e-300", "-o", "x.json"],
        "a cell would take more than 1000000 samples",
    ),
    # the bound's denominator 2^1065 makes the clipped cell's integer rows overflow a float
    "box-bound-huge-denominator-dequantize": (
        "dequantize",
        BINOMIAL_JSON,
        ["--box=1.9435456893309723e-305,0.5,0,0.5", "--res", "15", "--delta", "0.02", "--ms", "4"],
        "rows too large for floats",
    ),
    "box-bound-huge-denominator-converge": (
        "converge",
        BINOMIAL_JSON,
        ["--experiment", "hausdorff-to-tropical", "--box=1.9435456893309723e-305,0.5,0,0.5", "--ms", "4,8"],
        "rows too large for floats",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_malformed_input_exit_one(tmp_path, capsys, case):
    command, obj, flags, reason = MALFORMED_CASES[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert run([command, "-i", str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("tropdyn:")
    assert reason in err


def test_plain_value_error_propagates(monkeypatch):
    """A ValueError from a bug is not reported as a domain error."""

    def broken(p, n):
        raise ValueError("not a domain error")

    monkeypatch.setattr(cli, "uniform_bergman_fan", broken)
    with pytest.raises(ValueError, match="not a domain error"):
        run(["bergman", "--p", "1", "--n", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["hypersurface", "--density", "3"],
        ["hypersurface", "--svg", "x.svg"],
        ["orbits", "--seed", "1"],
        ["converge", "--experiment", "equidistribution-discrepancy", "--ms", "8,16", "--n", "2"],
        ["bergman", "--p", "1", "--n", "2", "--ms", "4"],
        ["dequantize", "--ms", "4", "--svg", "x.svg"],
        ["amoeba", "--ms", "4", "--delta", "0.1"],
    ],
)
def test_unread_flags_are_usage_errors(argv, capsys):
    assert run(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["amoeba", "--ms=", "-o", "x.csv"],
        ["dequantize", "--ms="],
        ["converge", "--experiment", "equidistribution-discrepancy", "--ms="],
        ["converge", "--experiment", "equidistribution-discrepancy", "--ms", ","],
    ],
)
def test_empty_ms_is_usage_error(argv, line_path, capsys):
    if argv[0] in ("amoeba", "dequantize"):
        argv = argv + ["-i", line_path]
    assert run(argv) == 2
    assert "argument --ms: needs at least one value of m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["amoeba", "--ms", "4,4", "-o", "a.csv"],
        ["dequantize", "--ms", "4,8,4"],
        ["converge", "--experiment", "equidistribution-discrepancy", "--ms", "8,8"],
    ],
)
def test_repeated_m_is_usage_error(argv, line_path, tmp_path, monkeypatch, capsys):
    """A repeated m would write the same file twice, report it twice and solve its rows twice."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if argv[0] in ("amoeba", "dequantize"):
        argv = argv + ["-i", line_path]
    assert run(argv) == 2
    assert "argument --ms: repeats a value of m" in capsys.readouterr().err
    assert list(work.iterdir()) == []


def test_usage_error_exit_two(capsys):
    assert run(["hypersurface", "--definitely-not-a-flag"]) == 2
    assert run(["not-a-command"]) == 2
    assert run(["bergman"]) == 2  # missing required --p/--n


def _parse_with_full_parser(argv, capsys):
    """(exit code, stdout, stderr) of parsing argv with every subcommand's parser built."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def _run_captured(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_subcommand_help_unchanged_by_lone_parser(command, capsys):
    expected = _parse_with_full_parser([command, "--help"], capsys)
    assert _run_captured([command, "--help"], capsys) == expected
    assert expected[1].startswith(f"usage: tropdyn {command} [-h]")


@pytest.mark.parametrize(
    "argv",
    [
        ["hypersurface", "extra"],
        ["hypersurface", "--definitely-not-a-flag"],
        ["bergman"],
        ["converge", "--experiment", "nope", "--ms", "4"],
        ["not-a-command"],
        [],
        ["-h"],
    ],
)
def test_usage_messages_unchanged_by_lone_parser(argv, capsys):
    assert _run_captured(argv, capsys) == _parse_with_full_parser(argv, capsys)


def test_reused_parsers_keep_runs_independent(tmp_path, line_path, capsys):
    """Each parser is built once per process; no run's arguments reach the next run."""
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps(serialize.cycle_to_json(uniform_bergman_fan(1, 2))))
    two = ["-i", str(cycle), "-i", str(cycle)]
    assert run(["add", *two, "-o", str(tmp_path / "sum.json")]) == 0
    assert run(["hypersurface", *two]) == 1
    assert "exactly one -i" in capsys.readouterr().err

    out = tmp_path / "deq.json"
    deq = ["dequantize", "-i", line_path, "--ms", "4", "--res", "7", "--box=-2,2", "-o", str(out)]
    assert run(deq + ["--seed", "7"]) == 0
    assert json.loads(out.read_text())["seed"] == 7
    builds = cli.build_parser.cache_info().misses
    assert run(deq) == 0
    assert json.loads(out.read_text())["seed"] == 0
    assert cli.build_parser.cache_info().misses == builds

    first = _run_captured(["--help"], capsys)
    assert first[0] == 0 and first[1].startswith("usage: tropdyn")
    assert _run_captured(["--help"], capsys) == first

    assert run(["bergman", "--p", "1", "--n", "2", "-o", str(tmp_path / "b.json")]) == 0
    code, _, err = _run_captured(["bergman", "--p", "1"], capsys)
    assert code == 2 and "the following arguments are required: --n" in err


def test_unknown_command_lists_every_subcommand(capsys):
    assert run(["not-a-command"]) == 2
    err = capsys.readouterr().err
    assert len(cli.COMMANDS) == 10
    assert all(f"'{name}'" in err for name in cli.COMMANDS)


def test_readme_subcommand_table_matches_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        names, flags = (cell.strip() for cell in row.strip("|").split("|"))
        for name in names.split(", "):
            documented[name.strip("`")] = set(flags.strip("`").split())
    assert documented == {name: set(flags) for name, _, flags in cli.SUBCOMMANDS}


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("## Library example\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert sorted(c.rays for c, _ in namespace["cycle"].cells) == [((-1, -1),), ((0, 1),), ((1, 0),)]
    assert namespace["doubled"] == namespace["cycle"].scale(2)
    assert len(namespace["bergman"].cells) == 6


def test_cloud_csv_roundtrip():
    import numpy as np

    from tropdyn.dynamics import PointCloud, mth_roots

    real = PointCloud(2, np.array([[0.5, -1.25], [3.0, 4.0]]), m=4, seed=9)
    back = serialize.cloud_from_csv(serialize.cloud_to_csv(real))
    assert np.array_equal(back.points, real.points)
    assert (back.m, back.seed) == (4, 9)
    cplx = mth_roots([1.0, 8.0], 3)
    back = serialize.cloud_from_csv(serialize.cloud_to_csv(cplx))
    assert np.allclose(back.points, cplx.points)


# signed zeros, subnormals and +-1e300 besides any finite float
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cloud_csv_matches_the_elementwise_formatter(data):
    """Real and complex clouds, any finite coordinates, give the bytes of the float()-per-entry CSV."""
    dim = data.draw(st.integers(1, 3), label="dim")
    count = data.draw(st.integers(0, 6), label="points")
    values = data.draw(st.lists(FINITE, min_size=2 * dim * count, max_size=2 * dim * count))
    pairs = np.array(values, dtype=float).reshape(count, dim, 2)
    pts = pairs[..., 0]
    if data.draw(st.booleans(), label="complex"):  # parts set one by one, so -0.0 survives
        pts = np.empty((count, dim), dtype=complex)
        pts.real, pts.imag = pairs[..., 0], pairs[..., 1]
    m = data.draw(st.none() | st.integers(1, 64), label="m")
    seed = data.draw(st.none() | st.integers(0, 2**31), label="seed")
    cloud = PointCloud(dim, pts, m=m, seed=seed)
    assert serialize.cloud_to_csv(cloud) == cloud_to_csv_elementwise(cloud)


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    """Every `tropdyn` line of the README's command block exits 0 and writes its -o and --svg files."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("tropdyn ")]
    assert len(lines) == 11
    monkeypatch.chdir(tmp_path)
    quadrants = [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))]
    diagonals = [((1, 1), (1, -1)), ((1, 1), (-1, 1)), ((-1, -1), (-1, 1)), ((-1, -1), (1, -1))]
    quads, diag = (Fan([Cone.from_generators(rays) for rays in fan]) for fan in (quadrants, diagonals))
    inputs = {
        "line.json": LINE_JSON,
        "fan.json": serialize.fan_to_json(quads),
        "fanA.json": serialize.fan_to_json(quads),
        "fanB.json": serialize.fan_to_json(diag),
        "cycleA.json": serialize.cycle_to_json(uniform_bergman_fan(1, 2)),
        "cycleB.json": serialize.cycle_to_json(uniform_bergman_fan(1, 2).scale(2)),
    }
    for name, data in inputs.items():
        Path(name).write_text(json.dumps(data))
    for line in lines:
        argv = shlex.split(line)[1:]
        assert run(argv) == 0, (line, capsys.readouterr().err)
        written = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("-o", "--svg")]
        assert all(Path(name).stat().st_size > 0 for name in written), line
