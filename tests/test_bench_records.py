"""Consistency of the benchmark records (`BENCH_*.json` at the root of the repository).

Each record pairs one parent run with one change run per seed and summarises
every end-to-end metric by its quartiles and its wins and losses; these tests
recompute the summary from the runs it keeps.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _workloads(path):
    record = json.loads(path.read_text())
    return record, sorted(record["workloads"].items())


def _paired_runs(workload):
    """seed -> {side: run}, checking that each seed has exactly one run per side."""
    pairs = {}
    for run in workload["runs"]:
        sides = pairs.setdefault(run["seed"], {})
        assert run["side"] not in sides, f"seed {run['seed']} has two {run['side']} runs"
        sides[run["side"]] = run
    assert sorted(pairs) == sorted(workload["seeds"])
    assert all(set(sides) == {"parent", "change"} for sides in pairs.values())
    return pairs


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_one_parent_and_one_change_run_per_seed(path):
    _, workloads = _workloads(path)
    for name, workload in workloads:
        pairs = _paired_runs(workload)
        assert workload["pairs"] == len(workload["seeds"]) == len(pairs), name


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_measured_seeds_were_not_used_while_writing(path):
    record, workloads = _workloads(path)
    used = set(record["seeds_used_while_writing"])
    for name, workload in workloads:
        assert not used & set(workload["seeds"]), name


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_run_is_correct(path):
    _, workloads = _workloads(path)
    for name, workload in workloads:
        assert all(run["correct"] is True for run in workload["runs"]), name


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_quartiles_and_wins_recount_from_the_runs(path):
    _, workloads = _workloads(path)
    for name, workload in workloads:
        pairs = _paired_runs(workload)
        for metric, summary in workload["metrics"].items():
            for side in ("parent", "change"):
                values = [pair[side][metric] for pair in pairs.values()]
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                # to 6 decimals: the records keep 6, rounded or cut
                want = pytest.approx({"q1": q1, "median": median, "q3": q3}, rel=0, abs=1e-6)
                assert summary[side] == want, (name, metric, side)
            sign = 1 if summary["better"] == "lower" else -1
            gaps = [sign * (pair["parent"][metric] - pair["change"][metric]) for pair in pairs.values()]
            assert summary["wins"] == sum(g > 0 for g in gaps), (name, metric)
            assert summary["losses"] == sum(g < 0 for g in gaps), (name, metric)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_at_most_one_metric_is_claimed(path):
    _, workloads = _workloads(path)
    claimed = [
        (name, metric)
        for name, workload in workloads
        for metric, summary in workload["metrics"].items()
        if summary["claimed"]
    ]
    assert len(claimed) <= 1, claimed
