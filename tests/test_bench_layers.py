"""Every layer the traced benchmark reports must have calls on its workloads.

`bench/run.py --trace 1` reports a problem for a layer without calls on a
workload that should reach it.  This runs each workload's seed-1 job list
once under the same tracer and makes the same check, so a change that stops
calling a traced kernel (`rank_int` through `_subdivision_edges`, say) fails here.
The benchmark files are loaded, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tropdyn import cli

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    saved = list(sys.path)  # run.py puts bench/ on the path for its own imports
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload", ["hausdorff-line", "dequantize", "exact"])
def test_traced_layers_have_calls(bench_run, workload, tmp_path):
    jobs = bench_run.WORKLOADS[workload](1, tmp_path)
    tracer = bench_run.spans.Tracer()
    tracer.plan("tropdyn")
    tracer.install()
    try:
        done = bench_run.run_pass(cli, jobs, tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert all(code == 0 or job.known_failure for job, code in zip(jobs, done.codes)), done.messages
    _, missing, _ = bench_run.layer_metrics(tracer, workload, 1)
    assert missing == []
