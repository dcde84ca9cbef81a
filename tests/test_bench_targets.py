"""The benchmark tracer must find every program name it wraps."""

import importlib.util
from pathlib import Path

import tropdyn.cli  # noqa: F401  (loads every tropdyn module the tracer resolves)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.plan("tropdyn")
    assert tracer.missing == []
