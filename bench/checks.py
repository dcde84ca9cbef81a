"""Output checks whose oracles come from the inputs, not from tropdyn.

Each check takes the job and the bytes of its artifact and returns None when
the artifact is right, else a one-line reason.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

# Aberth roots carry a relative residual of at most 1e-8, so a sampled point
# may overshoot the exact bound by about that much; 1e-6 leaves room.
AMOEBA_GAP_TOL = 1e-6


def check_amoeba(job, data):
    """Top-two gap of max_a(log|c_a|/m - <a,x>) is at most log(k-1)/m.

    At a zero of f the largest monomial is at most the sum of the k-1 others,
    so at every scaled amoeba point x (positions Log = -log|z|) the gap
    between the two largest tropical terms is at most log(k-1)/m.
    """
    lines = data.decode().splitlines()
    if len(lines) < 3 or lines[0] != "dim,m,seed":
        return "amoeba CSV has no header or no points"
    dim, m = lines[1].split(",")[:2]
    if dim != "2" or int(m) != job.context["m"]:
        return f"amoeba CSV metadata {lines[1]!r} does not match the job"
    pts = np.array([[float(v) for v in row.split(",")] for row in lines[2:]])
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        return "amoeba CSV rows are not finite 2-D points"
    coeffs = job.context["coeffs"]
    exps = np.array(list(coeffs), dtype=float)
    logc = np.log(np.abs(np.array(list(coeffs.values()))))
    m = job.context["m"]
    vals = logc[None, :] / m - pts @ exps.T
    top2 = -np.partition(-vals, 1, axis=1)[:, :2]
    gap = float(np.max(top2[:, 0] - top2[:, 1]))
    bound = math.log(len(coeffs) - 1) / m
    if gap > bound + AMOEBA_GAP_TOL:
        return f"amoeba point off the amoeba: gap {gap:.3g} > log(k-1)/m = {bound:.3g}"
    return None


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_converge(job, data):
    """Finite, non-negative errors for the requested ms.

    This cannot tell right roots from wrong ones; the `amoeba` job on the same
    line carries that oracle.
    """
    rep = json.loads(data)
    errors = rep.get("errors", [])
    if rep.get("ms") != job.context["ms"] or len(errors) != len(job.context["ms"]):
        return "convergence report does not cover the requested ms"
    if not _finite(errors + [rep.get("C"), rep.get("rho")]) or min(errors) < 0:
        return "convergence report has non-finite or negative values"
    return None


def check_dequantize(job, data):
    rep = json.loads(data)
    linf, l1 = rep.get("linf", []), rep.get("l1", [])
    if not linf or len(linf) != len(l1) or not _finite(linf + l1):
        return "dequantization report has missing or non-finite values"
    if any(not 0 <= a <= b for a, b in zip(l1, linf)):
        return "dequantization report breaks 0 <= l1 <= linf"
    return None


def _balanced(rep):
    if rep.get("balanced") is not True or rep.get("violations", []):
        return "cycle is not reported balanced"
    return None


def _cell_point(cell, n):
    """Mean of the vertices plus the sum of the rays: a relative-interior point."""
    verts = [[Fraction(x) for x in v] for v in cell.get("vertices", [[0] * n])]
    pt = [sum(v[i] for v in verts) / len(verts) for i in range(n)]
    for r in cell["rays"]:
        pt = [p + x for p, x in zip(pt, r)]
    return pt


def check_hypersurface(job, data):
    """Balanced, and every cell lies where two tropical terms tie for the max."""
    rep = json.loads(data)
    reason = _balanced(rep)
    if reason:
        return reason
    if not rep["cells"]:
        return "hypersurface has no cells"
    n = rep["ambient_dim"]
    for cell in rep["cells"]:
        if not isinstance(cell["weight"], int) or cell["weight"] < 1:
            return "hypersurface cell weight is not a positive integer"
        x = _cell_point(cell, n)
        vals = sorted((sum(a * b for a, b in zip(e, x)) + c for e, c in job.context["coeffs"].items()), reverse=True)
        if vals[0] != vals[1]:
            return "hypersurface cell off the tropical tie locus"
    return None


def check_balance(job, data):
    return _balanced(json.loads(data))


def check_add(job, data):
    return _balanced(json.loads(data))


def _primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def check_bergman(job, data):
    """The cells are exactly the p-subsets of {e_1..e_n, -(e_1+...+e_n)}, weight one.

    Those cones form the p-skeleton of the complete fan of P^n, the Bergman
    fan of the uniform matroid U(p+1, n+1), which is balanced with all weights
    one.  So balance follows from (p, n); the artifact's "balanced" flag is
    not read.
    """
    rep = json.loads(data)
    p, n = job.context["p"], job.context["n"]
    rays = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [(-1,) * n]
    expected = {frozenset(c) for c in itertools.combinations(rays, p)}
    cells = rep["cells"]
    got = {frozenset(_primitive(r) for r in c["rays"]) for c in cells}
    if rep["ambient_dim"] != n or len(cells) != math.comb(n + 1, p) or got != expected:
        return f"Bergman fan cells are not the {p}-subsets of the {n + 1} rays of P^{n}"
    if any(c["weight"] != 1 or c.get("lineality") or c.get("vertices") for c in cells):
        return "Bergman fan cell is not a weight-one pointed cone"
    return None


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _cone_faces(rays):
    """Faces of a pointed cone in R^3 given by its extreme rays, as ray sets.

    Two rays span a 2-face when every other ray lies strictly on one side of
    their plane; with three or more rays those are the only 2-faces.
    """
    rays = [tuple(r) for r in rays]
    faces = {frozenset(), frozenset(rays)} | {frozenset([r]) for r in rays}
    for a, b in itertools.combinations(rays, 2):
        others = [r for r in rays if r not in (a, b)]
        signs = {(d > 0) - (d < 0) for d in (_det3(a, b, r) for r in others)}
        if not others or signs in ({1}, {-1}):
            faces.add(frozenset([a, b]))
    return faces


def _fan_cones(path):
    with open(path) as fh:
        fan = json.load(fh)
    if fan["ambient_dim"] != 3 or any(c.get("lineality") for c in fan["cones"]):
        raise ValueError("expected a pointed fan in R^3")
    return [[tuple(r) for r in c["rays"]] for c in fan["cones"]]


def check_orbits(job, data):
    """One orbit per cone of the face closure of the input fan."""
    rep = json.loads(data)
    closure = set()
    for rays in _fan_cones(job.context["fan"]):
        closure |= _cone_faces(rays)
    if len(rep["orbits"]) != len(closure) or len(rep["cones"]) != len(closure):
        return f"{len(rep['orbits'])} orbits for a face closure of {len(closure)} cones"
    return None


def _in_simplicial_cone(v, gens):
    """v is a nonnegative combination of three independent generators (Cramer)."""
    a, b, c = gens
    d = _det3(a, b, c)
    coeffs = (_det3(v, b, c), _det3(a, v, c), _det3(a, b, v))
    return all(x * d >= 0 for x in coeffs)


def check_refine(job, data):
    """Every maximal cone of the refinement lies in a cone of each input fan."""
    rep = json.loads(data)
    inputs = [_fan_cones(p) for p in job.context["fans"]]
    if any(len(c) != 3 for fan in inputs for c in fan):
        return "refine inputs are not simplicial 3-cones"
    for cone in rep["cones"]:
        rays = [tuple(r) for r in cone["rays"]]
        if len(rays) < 3 or cone.get("lineality"):
            return "refinement has a cone that is not a full-dimensional pointed cone"
        for fan in inputs:
            if not any(all(_in_simplicial_cone(r, gens) for r in rays) for gens in fan):
                return "refinement cone not inside any cone of an input fan"
    return None


CHECKS = {
    "amoeba": check_amoeba,
    "converge": check_converge,
    "dequantize": check_dequantize,
    "hypersurface": check_hypersurface,
    "balance": check_balance,
    "add": check_add,
    "bergman": check_bergman,
    "orbits": check_orbits,
    "refine": check_refine,
}


def check(job, data):
    """Run the job's check; a malformed artifact is a failed check, not a crash."""
    try:
        return CHECKS[job.check](job, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed {job.check} artifact: {exc!r}"
