"""JSON and CSV schemas for the batch interface.

All emitters are canonical: keys sorted, lists in the library's canonical
order, integers exact, rationals as fraction strings.  Equal inputs and flags
therefore produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .dynamics import ConvergenceReport, PointCloud
from .polyhedra import Cone, Fan, Polyhedron, WeightedComplex
from .tropical import ComplexPolynomial, TropicalPolynomial


class SchemaError(ValueError):
    pass


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _frac_str(x) -> str:
    return str(Fraction(x))


def _frac_parse(s) -> Fraction:
    return Fraction(s)


def _field(obj, key, what):
    """obj[key], or a SchemaError naming the missing key."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{what} needs a '{key}' field")
    return obj[key]


# -- cones and fans


def cone_to_json(c: Cone) -> dict:
    out = {"rays": [list(r) for r in c.rays]}
    if c.lineality:
        out["lineality"] = [list(l) for l in c.lineality]
    return out


def cone_from_json(obj, ambient_dim=None) -> Cone:
    rays = [tuple(int(x) for x in r) for r in _field(obj, "rays", "cone object")]
    lineality = [tuple(int(x) for x in l) for l in obj.get("lineality", [])]
    if ambient_dim is None:
        if rays:
            ambient_dim = len(rays[0])
        elif lineality:
            ambient_dim = len(lineality[0])
        else:
            raise SchemaError("cannot infer the ambient dimension of a zero cone")
    return Cone.from_generators(rays, ambient_dim, lineality=lineality)


def fan_to_json(F: Fan) -> dict:
    return {
        "ambient_dim": F.ambient_dim,
        "cones": [cone_to_json(c) for c in F.maximal_cones],
    }


def fan_from_json(obj) -> Fan:
    if "cones" not in obj or not obj["cones"]:
        raise SchemaError("fan object needs a nonempty 'cones' list")
    ambient = obj.get("ambient_dim")
    cones = [cone_from_json(c, ambient_dim=ambient) for c in obj["cones"]]
    return Fan.from_cones(cones, ambient_dim=ambient)


# -- weighted complexes


def cell_geometry_to_json(cell: Polyhedron) -> dict:
    out = {"rays": [list(r) for r in cell.rays]}
    zero = tuple(Fraction(0) for _ in range(cell.ambient_dim))
    if cell.vertices != (zero,):
        out["vertices"] = [[_frac_str(x) for x in v] for v in cell.vertices]
    if cell.lineality:
        out["lineality"] = [list(l) for l in cell.lineality]
    return out


def _cell_to_json(cell: Polyhedron, weight: int) -> dict:
    return cell_geometry_to_json(cell) | {"weight": weight}


def _cell_from_json(obj, ambient_dim) -> tuple[Polyhedron, int]:
    weight = int(_field(obj, "weight", "cycle cell"))
    rays = [tuple(int(x) for x in r) for r in obj.get("rays", [])]
    lineality = [tuple(int(x) for x in l) for l in obj.get("lineality", [])]
    if "vertices" in obj:
        vertices = [tuple(_frac_parse(x) for x in v) for v in obj["vertices"]]
    else:
        vertices = [tuple(Fraction(0) for _ in range(ambient_dim))]
    cell = Polyhedron.from_generators(
        ambient_dim, vertices=vertices, rays=rays, lineality=lineality
    )
    return cell, weight


def cycle_to_json(C: WeightedComplex, extra: dict | None = None) -> dict:
    out = {
        "ambient_dim": C.ambient_dim,
        "dim": C.dim,
        "cells": [_cell_to_json(cell, w) for cell, w in C.cells],
    }
    if extra:
        out.update(extra)
    return out


def cycle_from_json(obj) -> WeightedComplex:
    n, dim, cells = (_field(obj, f, "weighted complex") for f in ("ambient_dim", "dim", "cells"))
    n = int(n)
    return WeightedComplex(n, int(dim), [_cell_from_json(c, n) for c in cells])


# -- polynomials


def tropical_poly_to_json(q: TropicalPolynomial) -> dict:
    return {
        "terms": [
            {"exp": list(e), "coeff": float(c)} for e, c in q.terms
        ]
    }


def tropical_poly_from_json(obj) -> TropicalPolynomial:
    if "terms" not in obj or not obj["terms"]:
        raise SchemaError("tropical polynomial needs a nonempty 'terms' list")
    terms = {}
    for t in obj["terms"]:
        exp = _field(t, "exp", "tropical polynomial term")
        terms[tuple(int(x) for x in exp)] = float(_field(t, "coeff", "tropical polynomial term"))
    return TropicalPolynomial(terms)


def complex_poly_to_json(f: ComplexPolynomial) -> dict:
    return {
        "terms": [
            {"exp": list(e), "re": c.real, "im": c.imag} for e, c in f.terms
        ]
    }


def complex_poly_from_json(obj) -> ComplexPolynomial:
    if "terms" not in obj or not obj["terms"]:
        raise SchemaError("complex polynomial needs a nonempty 'terms' list")
    terms = {}
    for t in obj["terms"]:
        exp = _field(t, "exp", "complex polynomial term")
        re = float(_field(t, "re", "complex polynomial term"))
        terms[tuple(int(x) for x in exp)] = complex(re, float(t.get("im", 0.0)))
    return ComplexPolynomial(terms)


def poly_from_json(obj):
    """Either polynomial schema: 'coeff' marks tropical, 're'/'im' complex."""
    if "terms" not in obj or not obj["terms"]:
        raise SchemaError("polynomial needs a nonempty 'terms' list")
    first = obj["terms"][0]
    if "coeff" in first:
        return tropical_poly_from_json(obj)
    if "re" in first or "im" in first:
        return complex_poly_from_json(obj)
    raise SchemaError("terms need either 'coeff' or 're'/'im' coefficients")


# -- reports


def report_to_json(rep: ConvergenceReport) -> dict:
    out = {
        "experiment": rep.experiment,
        "ms": list(rep.ms),
        "errors": list(rep.errors),
        "C": rep.C,
        "rho": rep.rho,
        "seed": rep.seed,
    }
    for k, v in rep.details.items():
        out[k] = v
    return out


# -- point clouds as CSV


def cloud_to_csv(cloud: PointCloud) -> str:
    """Header 'dim,m,seed', one metadata row, then coordinate rows.

    Complex clouds are written with interleaved re/im columns.
    """
    m = "" if cloud.m is None else str(cloud.m)
    seed = "" if cloud.seed is None else str(cloud.seed)
    lines = ["dim,m,seed", f"{cloud.dim},{m},{seed}"]
    pts = cloud.points
    if np.issubdtype(pts.dtype, np.complexfloating):
        for row in pts:
            lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    else:
        for row in pts:
            lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def cloud_from_csv(text: str) -> PointCloud:
    lines = [l for l in text.strip().splitlines() if l]
    if len(lines) < 2 or lines[0] != "dim,m,seed":
        raise SchemaError("expected a 'dim,m,seed' point-cloud header")
    dim_s, m_s, seed_s = (lines[1].split(",") + ["", ""])[:3]
    dim = int(dim_s)
    m = int(m_s) if m_s else None
    seed = int(seed_s) if seed_s else None
    rows = [tuple(float(x) for x in l.split(",")) for l in lines[2:]]
    if rows and len(rows[0]) == 2 * dim:
        pts = np.array([[complex(r[2 * i], r[2 * i + 1]) for i in range(dim)] for r in rows])
    else:
        pts = np.array(rows, dtype=float) if rows else np.zeros((0, dim))
    return PointCloud(dim, pts, m=m, seed=seed)
