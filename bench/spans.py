"""Per-layer tracing from outside the program.

The tracer wraps public functions of the tropdyn modules and records one span
per call: (name, start, end, parent span, job id).  Spans stay in memory and
are written out when the run ends.  A wrapper is rebound in every tropdyn
module that binds the function, so `from .lattice import rank_int` in
`polyhedra` is traced too.  Wrappers are installed only around traced passes,
so untraced passes run the program unmodified.

Small helpers (`dot`, `vec_sub`, `primitive`, ...) are not wrapped: they run
per coordinate, and a span there would cost more than the work it measures.
Their time counts as self time of the nearest traced caller.
"""

from __future__ import annotations

import builtins
import functools
import gzip
import math
import sys
import time
from collections import defaultdict


# (module, attribute path, span name, failure exception names, result counters)
# A result counter maps (args, result) to {stat: increment}.
TARGETS = [
    ("dynamics", "polynomial_roots", "dynamics.polynomial_roots", ("RootFindingError",),
     lambda a, r: {"roots": len(r)}),
    ("dynamics", "amoeba_sample", "dynamics.amoeba_sample", (), lambda a, r: {"points": len(r)}),
    ("dynamics", "directed_hausdorff", "dynamics.directed_hausdorff", (),
     lambda a, r: {"pairs": len(a[0]) * len(a[1])}),
    ("dynamics", "sample_tropical_support", "dynamics.sample_tropical_support", (),
     lambda a, r: {"points": len(r)}),
    ("dynamics", "dequantization_error", "dynamics.dequantization_error", (),
     lambda a, r: {"grid_points": math.prod(a[2].resolution)}),
    ("dynamics", "log_abs_power_pullback", "dynamics.log_abs_power_pullback", ("ZeroDivisionError",), None),
    ("tropical", "eval_tropical", "tropical.eval_tropical", (), None),
    ("tropical", "tropical_hypersurface", "tropical.tropical_hypersurface", (),
     lambda a, r: {"cells": len(r.cells)}),
    ("tropical", "uniform_bergman_fan", "tropical.uniform_bergman_fan", (), None),
    ("polyhedra", "Polyhedron.from_constraints", "polyhedra.Polyhedron.from_constraints", (),
     lambda a, r: {"empty": int(r.is_empty)}),
    ("polyhedra", "Polyhedron.from_generators", "polyhedra.Polyhedron.from_generators", (), None),
    ("polyhedra", "Cone.from_constraints", "polyhedra.Cone.from_constraints", (), None),
    ("polyhedra", "Cone.from_generators", "polyhedra.Cone.from_generators", (), None),
    ("polyhedra", "WeightedComplex.__init__", "polyhedra.WeightedComplex", (), None),
    ("polyhedra", "check_balancing", "polyhedra.check_balancing", (), None),
    ("polyhedra", "add_cycles", "polyhedra.add_cycles", (), None),
    ("polyhedra", "common_refinement", "polyhedra.common_refinement", (), None),
    ("lattice", "integer_kernel", "lattice.integer_kernel", (), None),
    ("lattice", "saturate_and_complete", "lattice.saturate_and_complete", (), None),
    ("lattice", "solve_rational", "lattice.solve_rational", (), None),
    ("lattice", "rank_int", "lattice.rank_int", (), None),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form", (), None),
    ("lattice", "quotient_outward_generator", "lattice.quotient_outward_generator", (), None),
    ("toric", "orbits", "toric.orbits", (), None),
]


def _bytes_out(args, text):
    return {"bytes_out": len(text.encode())}


SERIALIZE_LOAD = ("poly_from_json", "tropical_poly_from_json", "complex_poly_from_json",
                  "cycle_from_json", "fan_from_json", "cone_from_json", "cloud_from_csv")
SERIALIZE_DUMP = ("tropical_poly_to_json", "complex_poly_to_json", "cycle_to_json",
                  "cell_geometry_to_json", "fan_to_json", "cone_to_json", "report_to_json")
TARGETS += [("serialize", f, "serialize.load", (), None) for f in SERIALIZE_LOAD]
TARGETS += [("serialize", f, "serialize.dump", (), None) for f in SERIALIZE_DUMP]
TARGETS += [("serialize", f, "serialize.dump", (), _bytes_out) for f in ("dumps_canonical", "cloud_to_csv")]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self.counts = defaultdict(int)  # "<span name>.<stat>" -> total
        self.stack = []
        self.job = None
        self.missing = []
        self._patches = []  # (owner, attribute, original value, wrapped value)

    def span(self, name, fn, fail_types=(), on_result=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except fail_types:
                counts[name + ".fail"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if on_result is not None:
                for stat, inc in on_result(args, result).items():
                    counts[f"{name}.{stat}"] += inc
            return result

        return wrapper

    def plan(self, package):
        """Resolve every target to (owner, attribute, wrapped value) once."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, path, name, fail_names, on_result in TARGETS:
            mod = sys.modules.get(f"{package}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            fail_types = tuple(getattr(mod, e, None) or getattr(builtins, e) for e in fail_names)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__, fail_types, on_result))
                self._patches.append((owner, attr, raw, wrapped))
                continue
            wrapped = self.span(name, raw, fail_types, on_result)
            if owner_name:
                self._patches.append((owner, attr, raw, wrapped))
                continue
            for m in modules:
                for bound_name, value in list(vars(m).items()):
                    if value is raw:
                        self._patches.append((m, bound_name, raw, wrapped))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    def self_times(self):
        """Per span name: (calls, self seconds), self = duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
        return calls, own

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{job}\n")
