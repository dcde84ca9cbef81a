"""Workload artifacts must stay byte-identical.

Runs a benchmark job list at a seed through `tropdyn.cli.run` and hashes
(exit code, artifact hash) per job the way `bench/run.py` does.  The `exact`
artifacts are exact rational data, so their digests do not depend on the
platform; a change to one means some canonical output changed.  They are
pinned at seeds 1-3: the seeds translate the hypersurfaces, so vertex order
is checked on other rationals too.

The `hausdorff-line` and `dequantize` artifacts hold floats computed with
numpy and libm (exp, log, cos, sin, atan2), so their digests depend on the
host's numpy and libm: the pins were taken with numpy 2.4 on x86-64 Linux
with glibc 2.36.  On another host a failure of that test alone may be a
platform difference rather than a change of the program; recompute the pins
from an unchanged checkout on that host before reading it as a regression.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tropdyn.cli import run

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
EXACT_DIGESTS = {
    1: "b800ace7bae46bf3e2893c47324cbb37df145ba572147fae3e56fceb38d5447c",
    2: "45c656f6a875483a78fcd9884b73c3b0185245f13b7b9447d33e113d286e6b8f",
    3: "9f1f2aa06e900c86a34bf5611e267d8553194917bbeec8a5631ad191d51e9b63",
}
NUMERIC_SEED1_DIGESTS = {
    "hausdorff-line": "11094b718f24cf463cc4aeb13047cf55a776e052de09e3336cef0b9e7f4edb48",
    "dequantize": "e2093c93b99d28d29a951f6c4d7b3ff1e648cfad2861f535a3baaf48c16b7965",
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _digest(workload, seed, tmp_path):
    jobs = _load_workloads().WORKLOADS[workload](seed, tmp_path)
    outcome = []
    for job in jobs:
        code = run(job.argv)
        out = Path(job.output)
        data = out.read_bytes() if code == 0 and out.exists() else None
        outcome.append([code, data and hashlib.sha256(data).hexdigest()])
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(EXACT_DIGESTS))
def test_exact_artifacts_unchanged(seed, tmp_path, capsys):
    digest = _digest("exact", seed, tmp_path)
    capsys.readouterr()  # the known-defect add job reports on stderr
    assert digest == EXACT_DIGESTS[seed]


@pytest.mark.parametrize("workload", sorted(NUMERIC_SEED1_DIGESTS))
def test_numeric_seed1_artifacts_unchanged(workload, tmp_path):
    assert _digest(workload, 1, tmp_path) == NUMERIC_SEED1_DIGESTS[workload]
