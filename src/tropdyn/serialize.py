"""JSON and CSV schemas for the batch interface.

All emitters are canonical: keys sorted, lists in the library's canonical
order, integers exact, rationals as fraction strings.  Equal inputs and flags
therefore produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .dynamics import ConvergenceReport, PointCloud
from .polyhedra import MAX_AMBIENT_DIM, Cone, Fan, Polyhedron, WeightedComplex
from .tropical import ComplexPolynomial, TropicalPolynomial, np


class SchemaError(ValueError):
    pass


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _frac_str(x) -> str:
    return str(Fraction(x))


def _field(obj, key, what):
    """obj[key], or a SchemaError naming the missing key."""
    if not isinstance(obj, dict) or key not in obj:
        article = "an" if key[0] in "aeiou" else "a"
        raise SchemaError(f"{what} needs {article} '{key}' field")
    return obj[key]


def _number(parse, x, what):
    """parse(x) when it gives a finite number, else a SchemaError.

    A number that parse would change is refused, not rounded: int(1.5) is 1,
    so an integer field holding 1.5 is a SchemaError.  JSON true and false
    are not numbers, though Python's bool is an int.
    """
    try:
        value = None if isinstance(x, bool) else parse(x)
    except (TypeError, ValueError, ArithmeticError):
        value = None
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        raise SchemaError(f"{what} is not a finite number: {x!r}")
    if isinstance(x, float) and value != x:
        raise SchemaError(f"{what} is not an integer: {x!r}")
    return value


def _vector(v, parse, what, n=None):
    """A JSON list of numbers read with parse, of length n when n is given."""
    if not isinstance(v, list) or (n is not None and len(v) != n):
        size = "a list" if n is None else f"a list of {n} numbers"
        raise SchemaError(f"{what} must be {size}: {v!r}")
    return tuple(_number(parse, x, what) for x in v)


def _vectors(vs, parse, what, n):
    """A JSON list of length-n number lists."""
    if not isinstance(vs, list):
        raise SchemaError(f"{what} must be a list of vectors")
    return [_vector(v, parse, what, n) for v in vs]


# -- cones and fans


def cone_to_json(c: Cone) -> dict:
    return cell_geometry_to_json(c)  # a cone's only vertex, the origin, is not written


def cone_from_json(obj, ambient_dim=None) -> Cone:
    rays = _vectors(_field(obj, "rays", "cone object"), int, "cone ray", ambient_dim)
    lineality = _vectors(obj.get("lineality", []), int, "cone lineality vector", ambient_dim)
    if ambient_dim is None:
        if not rays and not lineality:
            raise SchemaError("cannot infer the ambient dimension of a zero cone")
        ambient_dim = len((rays + lineality)[0])
    return Cone.from_generators(rays, ambient_dim, lineality=lineality)


def fan_to_json(F: Fan) -> dict:
    return {
        "ambient_dim": F.ambient_dim,
        "cones": [cone_to_json(c) for c in F.maximal_cones],
    }


def fan_from_json(obj) -> Fan:
    cones = _field(obj, "cones", "fan object")
    if not isinstance(cones, list) or not cones:
        raise SchemaError("fan object needs a nonempty 'cones' list")
    ambient = obj.get("ambient_dim")
    if ambient is not None:
        ambient = _number(int, ambient, "ambient_dim")
    cones = [cone_from_json(c, ambient_dim=ambient) for c in cones]
    return Fan(cones, ambient_dim=ambient)


# -- weighted complexes


def cell_geometry_to_json(cell: Polyhedron) -> dict:
    out = {"rays": [list(r) for r in cell.rays]}
    zero = tuple(Fraction(0) for _ in range(cell.ambient_dim))
    if cell.vertices != (zero,):
        out["vertices"] = [[_frac_str(x) for x in v] for v in cell.vertices]
    if cell.lineality:
        out["lineality"] = [list(l) for l in cell.lineality]
    return out


def _cell_from_json(obj, ambient_dim) -> tuple[Polyhedron, int]:
    weight = _number(int, _field(obj, "weight", "cycle cell"), "cell weight")
    rays = _vectors(obj.get("rays", []), int, "cell ray", ambient_dim)
    lineality = _vectors(obj.get("lineality", []), int, "cell lineality vector", ambient_dim)
    if "vertices" in obj:
        vertices = _vectors(obj["vertices"], Fraction, "cell vertex", ambient_dim)
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
        "cells": [cell_geometry_to_json(cell) | {"weight": w} for cell, w in C.cells],
    }
    if extra:
        out.update(extra)
    return out


def cycle_from_json(obj) -> WeightedComplex:
    n, dim, cells = (_field(obj, f, "weighted complex") for f in ("ambient_dim", "dim", "cells"))
    n, dim = _number(int, n, "ambient_dim"), _number(int, dim, "dim")
    if not 0 <= n <= MAX_AMBIENT_DIM:  # checked before a cell builds its origin in R^n
        raise SchemaError("ambient dimension unsupported")
    if not -1 <= dim <= n:  # an empty hypersurface in R^0 has dim -1
        raise SchemaError(f"weighted complex dim {dim} outside -1..{n}")
    if not isinstance(cells, list):
        raise SchemaError("weighted complex needs a 'cells' list")
    return WeightedComplex(n, dim, [_cell_from_json(c, n) for c in cells])


# -- polynomials


def tropical_poly_to_json(q: TropicalPolynomial) -> dict:
    return {
        "terms": [
            {"exp": list(e), "coeff": float(c)} for e, c in q.terms
        ]
    }


def _terms(obj, what):
    """The nonempty list of term objects of a polynomial."""
    terms = obj.get("terms") if isinstance(obj, dict) else None
    if not isinstance(terms, list) or not terms:
        raise SchemaError(f"{what} needs a nonempty 'terms' list")
    if not all(isinstance(t, dict) for t in terms):
        raise SchemaError(f"{what} terms must be objects")
    return terms


def _exponent(term, seen, what):
    """The exponent of a term, which no earlier term of the polynomial has."""
    exp = _vector(_field(term, "exp", what), int, "exponent")
    if exp in seen:
        raise SchemaError(f"repeated exponent {list(exp)}")
    return exp


def tropical_poly_from_json(obj) -> TropicalPolynomial:
    terms = {}
    for t in _terms(obj, "tropical polynomial"):
        exp = _exponent(t, terms, "tropical polynomial term")
        coeff = _field(t, "coeff", "tropical polynomial term")
        terms[exp] = _number(float, coeff, "coefficient")
    return TropicalPolynomial(terms)


def complex_poly_to_json(f: ComplexPolynomial) -> dict:
    return {
        "terms": [
            {"exp": list(e), "re": c.real, "im": c.imag} for e, c in f.terms
        ]
    }


def complex_poly_from_json(obj) -> ComplexPolynomial:
    terms = {}
    for t in _terms(obj, "complex polynomial"):
        exp = _exponent(t, terms, "complex polynomial term")
        re = _number(float, _field(t, "re", "complex polynomial term"), "real part")
        terms[exp] = complex(re, _number(float, t.get("im", 0.0), "imaginary part"))
    return ComplexPolynomial(terms)


def poly_from_json(obj):
    """Either polynomial schema: 'coeff' marks tropical, 're'/'im' complex."""
    first = _terms(obj, "polynomial")[0]
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
        for row in pts.tolist():
            lines.append(",".join(f"{v.real!r},{v.imag!r}" for v in row))
    else:
        for row in pts.astype(float, copy=False).tolist():
            lines.append(",".join(map(repr, row)))
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
