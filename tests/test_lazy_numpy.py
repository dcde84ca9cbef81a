"""numpy loads on first use: the exact subcommands never execute it.

Each check runs in a fresh interpreter, since the test process has numpy
loaded already.  The lazy module sits under sys.modules["numpy"] from the
first import of tropdyn, so the checks look for numpy's submodules, which
only a real import of numpy brings in.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tropdyn import serialize
from tropdyn.polyhedra import Cone, Fan
from tropdyn.tropical import uniform_bergman_fan

SRC = Path(__file__).resolve().parents[1] / "src"

LINE = {"terms": [{"exp": [1, 0], "re": 1.0}, {"exp": [0, 1], "re": -2.0}, {"exp": [0, 0], "re": 1.0}]}
BERGMAN_LINE = serialize.cycle_to_json(uniform_bergman_fan(1, 2))
FAN = serialize.fan_to_json(
    Fan([Cone.from_generators([(1, 0), (0, 1)]), Cone.from_generators([(0, 1), (-1, -1)])])
)

# subcommand -> (inputs, extra flags)
EXACT_RUNS = {
    "tropicalize": ([LINE], []),
    "hypersurface": ([LINE], []),
    "balance": ([BERGMAN_LINE], []),
    "add": ([BERGMAN_LINE, BERGMAN_LINE], []),
    "bergman": ([], ["--p", "1", "--n", "3"]),
    "orbits": ([FAN], []),
    "refine": ([FAN, FAN], []),
}

# argv: src dir, then the tropdyn arguments; prints the exit code and numpy's loaded submodules
RUN_AND_LIST = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tropdyn.cli import run
code = run(sys.argv[2:])
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("numpy."))]))
"""


def _python(script, *args):
    done = subprocess.run(
        [sys.executable, "-c", script, str(SRC), *args], capture_output=True, text=True, check=True
    )
    return done.stdout


def _argv(tmp_path, command, inputs, flags):
    argv = [command]
    for i, obj in enumerate(inputs):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(obj))
        argv += ["-i", str(path)]
    return argv + flags + ["-o", str(tmp_path / "out.json")]


@pytest.mark.parametrize("command", sorted(EXACT_RUNS))
def test_exact_subcommand_loads_no_numpy(tmp_path, command):
    argv = _argv(tmp_path, command, *EXACT_RUNS[command])
    code, loaded = json.loads(_python(RUN_AND_LIST, *argv))
    assert code == 0
    assert loaded == []


def test_exact_evaluation_loads_no_numpy():
    script = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from tropdyn.tropical import TropicalPolynomial, eval_tropical
value = eval_tropical(TropicalPolynomial({(1, 0): 0, (0, 1): Fraction(1, 2)}), (Fraction(1, 2), 0))
print(value.argmax, sorted(name for name in sys.modules if name.startswith("numpy.")))
"""
    assert _python(script) == "((0, 1), (1, 0)) []\n"  # an exact tie


def test_numeric_subcommand_loads_the_shared_module(tmp_path):
    exact = _argv(tmp_path, "hypersurface", [LINE], [])
    numeric = _argv(tmp_path, "dequantize", [LINE], ["--ms", "4", "--res", "7", "--box=-2,2"])
    script = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tropdyn.cli, tropdyn.dynamics, tropdyn.serialize, tropdyn.tropical
exact, numeric = json.loads(sys.argv[2])
assert tropdyn.cli.run(exact) == 0
assert "numpy._core" not in sys.modules
assert tropdyn.cli.run(numeric) == 0
np = sys.modules["numpy"]
assert "numpy._core" in sys.modules
assert tropdyn.dynamics.np is np and tropdyn.serialize.np is np and tropdyn.tropical.np is np
assert isinstance(np.ndarray, type)
print("ok")
"""
    assert _python(script, json.dumps([exact, numeric])) == "ok\n"


def test_import_builds_no_parser(tmp_path):
    """Parsers are built on first use, never at import; a one-shot run builds one."""
    script = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tropdyn.cli
built = [tropdyn.cli.build_parser.cache_info().currsize]
assert tropdyn.cli.run(json.loads(sys.argv[2])) == 0
built.append(tropdyn.cli.build_parser.cache_info().currsize)
print(built)
"""
    argv = _argv(tmp_path, "bergman", *EXACT_RUNS["bergman"])
    assert _python(script, json.dumps(argv)) == "[0, 1]\n"


def test_import_loads_no_code_introspection():
    """`import tropdyn.cli` adds none of dataclasses and the introspection modules it drags in."""
    script = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import tropdyn.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    added = set(json.loads(_python(script)))
    assert "tropdyn.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert not any(name.startswith("numpy.") for name in added)


def test_numpy_imported_first_is_used():
    script = """
import sys
import numpy
sys.path.insert(0, sys.argv[1])
import tropdyn.dynamics, tropdyn.serialize, tropdyn.tropical
assert tropdyn.tropical.np is numpy and tropdyn.dynamics.np is numpy and tropdyn.serialize.np is numpy
print("ok")
"""
    assert _python(script) == "ok\n"


def test_missing_numpy_still_fails_the_import():
    script = """
import sys
sys.modules["numpy"] = None  # what an interpreter without numpy sees
sys.path.insert(0, sys.argv[1])
try:
    import tropdyn
except ModuleNotFoundError as exc:
    print(exc.name)
"""
    assert _python(script) == "numpy\n"
