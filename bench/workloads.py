"""Seeded input generators and CLI job lists for the three workloads.

Every workload turns a seed into input JSON files written to a work directory
and a fixed list of jobs.  A job is one `tropdyn` command line; jobs run in
order because some read what an earlier job wrote.  Nothing here imports
tropdyn: the program only ever sees the generated files.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Some 3-D `add` jobs hit a known defect: `add_cycles` rejects its own sum of
# two generic 3-D hypersurfaces.  They stay in the job list and count as
# failed; only this message marks the failure as the known one.
KNOWN_ADD_DEFECT = "cells do not intersect in a common face"


@dataclass
class Job:
    command: str
    argv: list
    output: str
    check: str
    context: dict = field(default_factory=dict)
    known_failure: str | None = None


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _write(workdir, name, obj):
    path = workdir / name
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def _complex_coeff(rng):
    """|c| = e^U(-2,2) with a uniform phase."""
    mag = math.exp(rng.uniform(-2.0, 2.0))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def _complex_poly(rng, exps):
    coeffs = {tuple(e): _complex_coeff(rng) for e in exps}
    obj = {"terms": [{"exp": list(e), "re": c.real, "im": c.imag} for e, c in coeffs.items()]}
    return obj, coeffs


def _tropical_poly(base, exps, shift):
    """Coefficients in Z/16, exact as binary floats: a draw in [-2, 2] from
    `base`, translated by `shift` (the hypersurface moves by -shift)."""
    coeffs = {
        tuple(e): Fraction(base.randint(-32, 32), 16) - sum(a * t for a, t in zip(e, shift)) for e in exps
    }
    obj = {"terms": [{"exp": list(e), "coeff": float(c)} for e, c in coeffs.items()]}
    return obj, coeffs


def _affinely_generic(exps):
    """True when k exponents affinely span a space of dimension min(k-1, n)."""
    base = exps[0]
    diffs = [[x - y for x, y in zip(e, base)] for e in exps[1:]]
    return _rank(diffs) == min(len(diffs), len(base))


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _sample_exps(rng, pool, k):
    """k distinct exponents from the pool, affinely as independent as they can be."""
    while True:
        exps = rng.sample(pool, k)
        if _affinely_generic(exps):
            return sorted(exps)


def _supports(name, pool, sizes):
    """One exponent set per size, the same for every seed.

    The work a job does follows its exponents (the cells of its tropical
    hypersurface), so drawing them once keeps the work equal across seeds;
    the seed draws the coefficients.
    """
    rng = random.Random(f"{name}/supports")
    return [_sample_exps(rng, pool, k) for k in sizes]


# ---------------------------------------------------------------------------
# numeric workloads

HAUSDORFF_JOBS = 5
HAUSDORFF_MS = (4, 8, 16)
HAUSDORFF_RES = "11"
HAUSDORFF_ARGS = ["--ms", ",".join(map(str, HAUSDORFF_MS)), "--res", HAUSDORFF_RES, "--density", "80"]


DEQUANTIZE_SUPPORTS = _supports("dequantize", [(a, b) for a in range(4) for b in range(4 - a)], (3, 4, 5, 6))
DEQUANTIZE_MS = (4, 8, 16, 32)
DEQUANTIZE_ARGS = ["--res", "17", "--delta", "0.2"]


def hausdorff_line(seed, workdir):
    """Random-coefficient lines a z1 + b z2 + c: every slice has degree 1.

    Each line also gets one `amoeba` job, m cycling through the ms, whose CSV
    is checked against the coefficients: the convergence report alone has no
    check that a wrong root finder would fail.
    """
    rng = _rng("hausdorff-line", seed)
    jobs = []
    for i in range(HAUSDORFF_JOBS):
        obj, coeffs = _complex_poly(rng, [(1, 0), (0, 1), (0, 0)])
        src = _write(workdir, f"line{i}.json", obj)
        out = str(workdir / f"converge{i}.json")
        argv = ["converge", "--experiment", "hausdorff-to-tropical", "-i", src, *HAUSDORFF_ARGS, "-o", out]
        jobs.append(Job("converge", argv, out, "converge", {"ms": list(HAUSDORFF_MS)}))
        m = HAUSDORFF_MS[i % len(HAUSDORFF_MS)]
        out = str(workdir / f"amoeba{i}.csv")
        argv = ["amoeba", "-i", src, "--ms", str(m), "--res", HAUSDORFF_RES, "-o", out]
        jobs.append(Job("amoeba", argv, out, "amoeba", {"coeffs": coeffs, "m": m}))
    return jobs


def dequantize(seed, workdir):
    """3-6-term polynomials of degree <= 3: the grid loop, no root finding.

    The exponent sets are fixed (`DEQUANTIZE_SUPPORTS`); the seed draws the
    coefficients.  One job per polynomial and m keeps every job short.
    """
    rng = _rng("dequantize", seed)
    jobs = []
    for i, exps in enumerate(DEQUANTIZE_SUPPORTS):
        obj, _ = _complex_poly(rng, exps)
        src = _write(workdir, f"poly{i}.json", obj)
        for m in DEQUANTIZE_MS:
            out = str(workdir / f"dequantize{i}_m{m}.json")
            argv = ["dequantize", "-i", src, "--ms", str(m), *DEQUANTIZE_ARGS, "-o", out]
            jobs.append(Job("dequantize", argv, out, "dequantize"))
    return jobs


# ---------------------------------------------------------------------------
# exact workload

CUBE3 = list(itertools.product(range(3), repeat=3))
SQUARE2 = list(itertools.product(range(3), repeat=2))
TROPICAL_PLANE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
CLASSICAL_PLANE = [(1, 0, 0), (0, 1, 0)]  # the plane x1 - x2 = const
# four affinely independent terms give the same cells whatever the coefficients
READBACK_SUPPORTS = _supports("exact/readback", CUBE3, (4, 4))
ADD_SUPPORTS_2D = _supports("exact/add", SQUARE2, (3, 3))
BERGMAN_PARAMS = ((1, 3), (2, 3), (2, 4), (3, 4))
STELLAR_STEPS = 1


P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]


def _p3_fan():
    return [frozenset(c) for c in itertools.combinations(P3_RAYS, 3)]


def _relabel(cones, perm):
    """Image of a fan under the lattice automorphism that permutes the rays of P^3.

    The map sends e_i to P3_RAYS[perm[i]]; any three of the four rays form a
    lattice basis, so it is unimodular and sends the fourth ray to the fourth.
    """
    image = [P3_RAYS[perm[i]] for i in range(3)]

    def move(ray):
        return tuple(sum(ray[i] * image[i][j] for i in range(3)) for j in range(3))

    return sorted((frozenset(move(r) for r in c) for c in cones), key=sorted)


def _primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v)


def _stellar_subdivision(rng, cones, steps):
    """Star-subdivide a random face of dimension >= 2, `steps` times."""
    for _ in range(steps):
        faces = sorted(
            {frozenset(f) for c in cones for k in (2, 3) for f in itertools.combinations(sorted(c), k)},
            key=sorted,
        )
        face = rng.choice(faces)
        ray = _primitive(tuple(sum(r[i] for r in face) for i in range(3)))
        out = []
        for c in cones:
            if face <= c:
                out.extend((c - {r}) | {ray} for r in face)
            else:
                out.append(c)
        cones = out
    return sorted(cones, key=sorted)


def _fan_json(cones):
    return {"ambient_dim": 3, "cones": [{"rays": [list(r) for r in sorted(c)]} for c in cones]}


def exact(seed, workdir):
    """Polyhedral jobs only: build and read back, cycle addition, fans.

    The seed moves the inputs without changing their cells: it translates
    each hypersurface (both summands of an `add` by the same amount) and
    relabels the rays of P^3 for both fans.  So every seed does the same work.
    """
    rng = _rng("exact", seed)
    base = random.Random("exact/coefficients")  # the same draws for every seed
    jobs = []

    def shift(n):
        return [Fraction(rng.randint(-16, 16), 16) for _ in range(n)]

    def hypersurface(name, exps, by):
        obj, coeffs = _tropical_poly(base, exps, by)
        src = _write(workdir, f"{name}.json", obj)
        out = str(workdir / f"{name}_cycle.json")
        argv = ["hypersurface", "-i", src, "-o", out]
        jobs.append(Job("hypersurface", argv, out, "hypersurface", {"coeffs": coeffs}))
        return out

    # build, then read the written cycle back (pairwise re-validation)
    for i, exps in enumerate(READBACK_SUPPORTS):
        cycle = hypersurface(f"h3_{i}", exps, shift(3))
        out = str(workdir / f"h3_{i}_balance.json")
        jobs.append(Job("balance", ["balance", "-i", cycle, "-o", out], out, "balance"))

    # cycle addition: 2-D pairs succeed; a tropical plane plus a classical
    # plane hits the known defect
    pairs = [("a2", a, b, None) for a, b in zip(ADD_SUPPORTS_2D[::2], ADD_SUPPORTS_2D[1::2])]
    pairs.append(("p3", TROPICAL_PLANE, CLASSICAL_PLANE, KNOWN_ADD_DEFECT))
    for i, (tag, exps_a, exps_b, known) in enumerate(pairs):
        by = shift(len(exps_a[0]))
        a = hypersurface(f"{tag}_{i}a", exps_a, by)
        b = hypersurface(f"{tag}_{i}b", exps_b, by)
        out = str(workdir / f"{tag}_{i}_sum.json")
        jobs.append(Job("add", ["add", "-i", a, "-i", b, "-o", out], out, "add", known_failure=known))

    # fans: Bergman fans, orbits and refinement of stellar subdivisions of P^3
    for p, n in BERGMAN_PARAMS:
        out = str(workdir / f"bergman_{p}_{n}.json")
        argv = ["bergman", "--p", str(p), "--n", str(n), "-o", out]
        jobs.append(Job("bergman", argv, out, "bergman", {"p": p, "n": n}))
    perm = rng.sample(range(4), 4)
    fans = random.Random("exact/fans")
    fan_a = _relabel(_stellar_subdivision(fans, _p3_fan(), STELLAR_STEPS), perm)
    fan_b = _relabel(_stellar_subdivision(fans, _p3_fan(), STELLAR_STEPS), perm)
    src_a = _write(workdir, "fan_a.json", _fan_json(fan_a))
    src_b = _write(workdir, "fan_b.json", _fan_json(fan_b))
    out = str(workdir / "fan_a_orbits.json")
    jobs.append(Job("orbits", ["orbits", "-i", src_a, "-o", out], out, "orbits", {"fan": src_a}))
    refined = str(workdir / "refined.json")
    argv = ["refine", "-i", src_a, "-i", src_b, "-o", refined]
    jobs.append(Job("refine", argv, refined, "refine", {"fans": (src_a, src_b)}))
    out = str(workdir / "refined_orbits.json")
    jobs.append(Job("orbits", ["orbits", "-i", refined, "-o", out], out, "orbits", {"fan": refined}))
    return jobs


WORKLOADS = {
    "hausdorff-line": hausdorff_line,
    "dequantize": dequantize,
    "exact": exact,
}
