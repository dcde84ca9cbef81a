"""tropdyn CLI benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload exact --seed 0 --seconds 35 --trace 0

Builds the workload's inputs from the seed, then runs its job list through
`tropdyn.cli.run` in-process, one job after another (closed loop, one
client), pass after pass until --seconds have gone by.  The set-up (a fresh
interpreter importing tropdyn.cli, plus input generation) is timed 15 times,
the first before the passes and the rest spread through the run; setup_s is
their median and the time they take is added to the run.  Every artifact is
checked against an oracle that does not come from tropdyn, and every pass must
write the same bytes as the first.  Lines before the last describe the run;
the last line is one JSON object with the metrics.

--trace 0 reports the end-to-end metrics; times are the sum over jobs of each
job's fastest pass.  --trace 1 alternates untraced and traced passes and
reports per-layer span metrics plus the tracing overhead.  tropdyn is
imported from src/ of the checkout that holds this file, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 15
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import tropdyn.cli"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-layer metrics, and the workloads on which each must have calls > 0.
NUMERIC = ("hausdorff-line", "dequantize")
COMMANDS = {
    "converge": ("hausdorff-line",),
    "amoeba": ("hausdorff-line",),
    "dequantize": ("dequantize",),
    **{c: ("exact",) for c in ("hypersurface", "balance", "add", "bergman", "orbits", "refine")},
}
LAYERS = {
    "dynamics.polynomial_roots": (("calls", "self_s", "fail", "roots"), ("hausdorff-line",)),
    "dynamics.amoeba_sample": (("self_s", "points"), ("hausdorff-line",)),
    "dynamics.directed_hausdorff": (("calls", "self_s", "pairs"), ("hausdorff-line",)),
    "dynamics.sample_tropical_support": (("self_s", "points"), ("hausdorff-line", "dequantize")),
    "dynamics.dequantization_error": (("self_s", "grid_points", "kept"), ("dequantize",)),
    "dynamics.log_abs_power_pullback": (("calls", "self_s", "fail"), ("dequantize",)),
    "tropical.eval_tropical": (("calls", "self_s"), ("dequantize",)),
    "tropical.tropical_hypersurface": (("calls", "self_s", "cells"), ("exact", "hausdorff-line", "dequantize")),
    "tropical.uniform_bergman_fan": (("self_s",), ("exact",)),
    "polyhedra.Polyhedron.from_constraints": (("calls", "self_s", "empty"), ("exact",)),
    "polyhedra.Polyhedron.from_generators": (("calls", "self_s"), ("exact",)),
    "polyhedra.Cone.from_constraints": (("calls", "self_s"), ("exact",)),
    "polyhedra.Cone.from_generators": (("calls", "self_s"), ("exact",)),
    "polyhedra.WeightedComplex": (("calls", "self_s"), ("exact",)),
    "polyhedra.check_balancing": (("self_s",), ("exact",)),
    "polyhedra.add_cycles": (("self_s",), ("exact",)),
    "polyhedra.common_refinement": (("self_s",), ("exact",)),
    "lattice.integer_kernel": (("calls", "self_s"), ("exact",)),
    "lattice.saturate_and_complete": (("calls", "self_s"), ("exact",)),
    "lattice.solve_rational": (("calls", "self_s"), ("exact",)),
    "lattice.rank_int": (("calls", "self_s"), ("exact",)),
    "lattice.smith_normal_form": (("calls", "self_s"), ("exact",)),
    "lattice.quotient_outward_generator": (("calls", "self_s"), ("exact",)),
    "toric.orbits": (("calls", "self_s"), ("exact",)),
    "serialize.load": (("self_s",), NUMERIC + ("exact",)),
    "serialize.dump": (("self_s",), NUMERIC + ("exact",)),
    **{f"cli.{c}": (("jobs", "self_s", "failed"), where) for c, where in COMMANDS.items()},
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of the program and benchmark sources, keying the artifact record."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("tropdyn/*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def setup(workload, seed, workdir):
    """Fresh-interpreter import of tropdyn.cli plus input generation, timed.

    A CLI user pays the interpreter start and the import on every run, so the
    import is timed in a new process; the inputs are generated in this one.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], cwd=ROOT, check=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = WORKLOADS[workload](seed, workdir)
    return jobs, time.perf_counter() - start


@dataclass
class Pass:
    wall: float
    codes: list
    messages: list
    job_walls: list
    job_cpus: list


def fastest(passes, field):
    """Sum over jobs of each job's fastest time across the passes.

    Every pass does the same deterministic work, so the spread between passes
    is interference from outside the process, which only ever adds time.
    """
    return sum(min(times) for times in zip(*(getattr(p, field) for p in passes)))


def run_pass(cli, jobs, tracer=None):
    for job in jobs:
        Path(job.output).unlink(missing_ok=True)
    runners = {}
    codes, messages, job_walls, job_cpus = [], [], [], []
    start = time.perf_counter()
    for job in jobs:
        job_start, job_cpu = time.perf_counter(), time.process_time()
        run = cli.run
        if tracer is not None:
            tracer.job = len(tracer.spans)  # the index of the job's root span
            run = runners.setdefault(job.command, tracer.span(f"cli.{job.command}", cli.run))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = run(job.argv)
            except Exception as exc:  # a traceback from the program is a failed job
                code, err = 99, io.StringIO(f"{type(exc).__name__}: {exc}")
        job_walls.append(time.perf_counter() - job_start)
        job_cpus.append(time.process_time() - job_cpu)
        codes.append(code)
        messages.append(err.getvalue().strip())
    return Pass(time.perf_counter() - start, codes, messages, job_walls, job_cpus)


class Judge:
    """Failure accounting: exit codes, output checks and byte-identical passes."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference = None  # per job of the first pass: (exit code, artifact digest, failed)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @staticmethod
    def _judge(job, code, message, data):
        """(failed, problem); a problem is any outcome other than a pass or the known defect."""
        if code != 0:
            if code == 1 and job.known_failure is not None and job.known_failure in message:
                return True, None
            return True, f"{job.command} exited {code}: {message}"
        if data is None:
            return True, f"{job.command} wrote no artifact"
        reason = checks.check(job, data)
        return reason is not None, reason and f"{job.command}: {reason}"

    def record(self, p):
        """Judge one pass; returns the per-job failed flags."""
        outcome = []
        for i, (job, code, message) in enumerate(zip(self.jobs, p.codes, p.messages)):
            out = Path(job.output)
            data = out.read_bytes() if code == 0 and out.exists() else None
            digest = data and hashlib.sha256(data).hexdigest()
            ref = self.reference and self.reference[i]
            if ref and ref[:2] == (code, digest):
                failed = ref[2]  # same bytes as the first pass, so the same verdict
            else:
                failed, problem = self._judge(job, code, message, data)
                if problem:
                    self.problems.append(f"job {i}: {problem}")
                if ref:
                    self.problems.append(f"job {i} ({job.command}) changed outcome after the first pass")
            outcome.append((code, digest, failed))
        self.reference = self.reference or outcome
        self.attempted += len(outcome)
        self.failed += sum(o[2] for o in outcome)
        return [o[2] for o in outcome]

    def digest(self):
        return hashlib.sha256(json.dumps([o[:2] for o in self.reference]).encode()).hexdigest()


def check_record(workload, seed, digest):
    """Artifacts must hash equal to the first run at this seed of these sources."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"artifacts-{workload}-seed{seed}-{source_digest()}.sha256"
    if path.exists():
        return None if path.read_text().strip() == digest else f"artifacts differ from the first run at seed {seed}"
    path.write_text(digest + "\n")
    return None


def layer_metrics(tracer, workload, passes):
    calls, own = tracer.self_times()
    counts = dict(tracer.counts)
    counts["dynamics.dequantization_error.kept"] = (
        calls["dynamics.log_abs_power_pullback"] - counts.get("dynamics.log_abs_power_pullback.fail", 0)
    )
    metrics, missing = {}, []
    for layer, (stats, where) in LAYERS.items():
        n = calls[layer]
        if workload in where and n == 0:
            missing.append(layer)
        for stat in stats:
            if stat in ("calls", "jobs"):
                value, unit = n, "count"
            elif stat == "self_s":
                value, unit = own[layer], "s"
            else:
                value, unit = counts.get(f"{layer}.{stat}", 0), "count"
            metrics[f"{layer}.{stat}"] = {"value": value / passes, "unit": unit}
    metrics["serialize.bytes_out"] = {"value": counts.get("serialize.dump.bytes_out", 0) / passes, "unit": "B"}
    return metrics, missing, sum(own.values()) / passes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tropdyn" / "__init__.py").is_file():
        fail(f"no tropdyn sources under {SRC}; run from a checkout of the repository")

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    probedir = OUT / f"setup-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs, first_setup = setup(args.workload, args.seed, workdir)
        setup_times = [first_setup]
        sys.path.insert(0, str(SRC))
        from tropdyn import cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            fail(f"imported tropdyn from {cli.__file__}, not from {SRC}")
        judge = Judge(jobs)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.plan("tropdyn")
        plain, traced = [], []
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            # the set-up is repeated into a scratch directory at even steps
            # through the run, so its median sees the same host as the passes
            if len(setup_times) < SETUP_REPEATS and time.perf_counter() - start >= (
                len(setup_times) * args.seconds / SETUP_REPEATS
            ):
                setup_times.append(setup(args.workload, args.seed, probedir)[1])
                deadline += setup_times[-1]
            p = run_pass(cli, jobs)
            plain.append(p)
            judge.record(p)
            if tracer is not None:
                tracer.install()
                try:
                    p = run_pass(cli, jobs, tracer)
                finally:
                    tracer.uninstall()
                traced.append(p)
                for job, failed in zip(jobs, judge.record(p)):
                    tracer.counts[f"cli.{job.command}.failed"] += failed
            if time.perf_counter() >= deadline:
                break
        problem = check_record(args.workload, args.seed, judge.digest())
        if problem:
            judge.problems.append(problem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(probedir, ignore_errors=True)

    setup_s = statistics.median(setup_times)
    wall = fastest(plain, "job_walls")
    cpu = fastest(plain, "job_cpus")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_frac = judge.failed / judge.attempted
    print(f"workload={args.workload} seed={args.seed} jobs/pass={len(jobs)} passes={len(plain)} "
          f"set-ups={len(setup_times)}")
    print("pass wall_s: " + " ".join(f"{p.wall:.3f}" for p in plain))
    print(f"setup_s={setup_s:.4f} s  wall_s={wall:.4f} s  cpu_s={cpu:.4f} s  "
          f"peak_rss_mb={rss_mb:.1f} MB  failed_frac={failed_frac:.4f} ({judge.failed}/{judge.attempted} jobs)")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    if tracer is not None:
        metrics, missing, self_sum = layer_metrics(tracer, args.workload, len(traced))
        traced_wall = statistics.mean(p.wall for p in traced)
        overhead = fastest(traced, "job_walls") - wall
        metrics["trace.wall_s"] = {"value": fastest(traced, "job_walls"), "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.uncovered_s"] = {"value": traced_wall - self_sum, "unit": "s"}
        print(f"traced passes={len(traced)}  tracing overhead={overhead:.4f} s per pass  "
              f"span self-time sum={self_sum:.4f} s of traced wall {traced_wall:.4f} s")
        if tracer.missing:
            judge.problems.append(f"trace targets missing from tropdyn: {', '.join(tracer.missing)}")
        if missing:
            judge.problems.append(f"layers with no calls on {args.workload}: {', '.join(missing)}")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    for problem in judge.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
