"""A/A check: two sets of runs of the same code, compared against the bounds.

    python3 bench/aa.py [--workloads exact,dequantize] [--runs 10] [--seconds S]

Each of the two sets runs bench/run.py once per seed (seeds 1..runs, one
fresh process each, one after another).  For every end-to-end metric of
BENCHMARK.json it prints each set's median and quartiles, the spread
(q3 - q1) / median against the metric's bound, and the shift of the second
set's median against the first.  Every spread must stay within its bound and
every shift within the bound in the worse direction; the target for a steady
benchmark is a spread below a third of the bound.  Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, end="")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="A/A spread and shift check")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        seeds = range(1, args.runs + 1)
        for s in range(2):
            results = [run_once(spec["command"], workload, seed, args.seconds) for seed in seeds]
            sets.append(results)
            bad = sum(not r["correct"] for r in results)
            failed = sorted({r["failed"] / r["attempted"] for r in results})
            print(f"{workload} set {s + 1}: {args.runs} runs, incorrect={bad}, failed_frac values={failed}")
            print("  wall_s per run: " + " ".join(f"{r['metrics']['wall_s']['value']:.3f}" for r in results))
            ok &= bad == 0
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [summarize([r["metrics"][name]["value"] for r in results]) for results in sets]
            line = [f"  {name:<12} bound {bound:.2f}"]
            for i, (med, q1, q3, spread) in enumerate(rows):
                flag = "" if spread < bound / 3 else (" (over bound/3)" if spread <= bound else " (OVER BOUND)")
                line.append(f"set{i + 1} median {med:.4g} [q1 {q1:.4g}, q3 {q3:.4g}] spread {spread:.3f}{flag}")
                ok &= spread <= bound
            sign = 1 if metric["better"] == "lower" else -1
            shift = sign * (rows[1][0] - rows[0][0]) / rows[0][0]
            line.append(f"shift {shift:+.3f}{' (OVER BOUND)' if shift > bound else ''}")
            ok &= shift <= bound
            print(" | ".join(line))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
