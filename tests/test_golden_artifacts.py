"""The exact workload's artifacts must stay byte-identical.

Runs the benchmark's `exact` job list at seed 1 through `tropdyn.cli.run` and
hashes (exit code, artifact hash) per job the way `bench/run.py` does.  The
artifacts are exact rational data, so the digest does not depend on the
platform; a change to it means some canonical output changed.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from tropdyn.cli import run

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
EXACT_SEED1_DIGEST = "b800ace7bae46bf3e2893c47324cbb37df145ba572147fae3e56fceb38d5447c"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_exact_seed1_artifacts_unchanged(tmp_path, capsys):
    jobs = _load_workloads().WORKLOADS["exact"](1, tmp_path)
    outcome = []
    for job in jobs:
        code = run(job.argv)
        out = Path(job.output)
        data = out.read_bytes() if code == 0 and out.exists() else None
        outcome.append([code, data and hashlib.sha256(data).hexdigest()])
    capsys.readouterr()  # the known-defect add job reports on stderr
    digest = hashlib.sha256(json.dumps(outcome).encode()).hexdigest()
    assert digest == EXACT_SEED1_DIGEST
