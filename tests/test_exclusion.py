"""distance_to_complex, and the exclusion of dequantization_error that it certifies."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropdyn.dynamics
from tropdyn.dynamics import (
    DynamicsError,
    GridSpec,
    _outside_exclusion,
    dequantization_error,
    distance_to_complex,
    sample_tropical_support,
)
from tropdyn.polyhedra import Polyhedron, WeightedComplex
from tropdyn.tropical import ComplexPolynomial, TropicalPolynomial, tropical_hypersurface, tropicalize_poly

from oracles import nearest_distances_bruteforce


def grid_points(grid):
    mesh = np.meshgrid(*[grid.axis(i) for i in range(len(grid.box))], indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def exclusion_case(f, grid):
    cycle = tropical_hypersurface(tropicalize_poly(f))
    return cycle, sample_tropical_support(cycle, grid.box, 8 / grid.delta)


# -- distance_to_complex against dense sampling

Q = Fraction
DENSE_CASES = {
    # n = 1: the cells are points
    "vertices": TropicalPolynomial({(0,): 0, (1,): Q(3, 2), (2,): Q(-1, 3), (3,): Q(1, 4)}, 1),
    # a tropical conic: bounded segments and rays
    "segments-rays": TropicalPolynomial(
        {(0, 0): 0, (1, 0): Q(1, 2), (0, 1): Q(-1, 3), (2, 0): Q(-2), (1, 1): Q(3, 4), (0, 2): Q(-5, 2)}, 2
    ),
    # two terms: one cell, a line
    "line": TropicalPolynomial({(1, 2): Q(1, 3), (0, 0): Q(-1, 2)}, 2),
    # a tropical plane: 2-cells with a vertex, rays and segments
    "plane-cells": TropicalPolynomial(
        {(0, 0, 0): 0, (1, 0, 0): Q(1, 4), (0, 1, 0): Q(-1, 8), (0, 0, 1): Q(3, 16), (1, 1, 1): Q(-1, 2)}, 3
    ),
    # three terms in a plane of exponents: 2-cells with a line of lineality
    "lineality-2-cells": TropicalPolynomial({(0, 0, 0): 0, (1, 0, 0): Q(2, 3), (0, 1, 0): Q(-1, 5)}, 3),
}


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_distance_to_complex_against_dense_sampling(name):
    q = DENSE_CASES[name]
    n = q.ambient_dim
    C = tropical_hypersurface(q)
    pitch = 0.05 if n < 3 else 0.25
    half = 8.0  # every query point's nearest point of |C| lies in the sampled box
    S = sample_tropical_support(C, ((-half, half),) * n, 1 / pitch)
    X = np.random.default_rng(7).uniform(-2.5, 2.5, size=(60, n))
    exact = distance_to_complex(C, X)
    sampled = nearest_distances_bruteforce(X, S.points)
    assert np.all(exact <= half - 2.5 * np.sqrt(n))
    assert np.all(exact <= sampled + 1e-12)
    assert np.all(exact >= sampled - pitch)
    # on the support itself the distance is zero up to rounding
    assert np.max(distance_to_complex(C, S.points)) < 1e-9


def test_distance_to_complex_closed_forms():
    # a segment, seen past each end and from the side, and a ray seen from behind its apex
    seg = Polyhedron.from_generators(2, vertices=[(0, 0), (3, 4)])
    ray = Polyhedron.from_generators(2, vertices=[(10, 0)], rays=[(1, 0)])
    C = WeightedComplex(2, 1, [(seg, 1), (ray, 1)])
    X = np.array([(-3.0, -4.0), (6.0, 8.0), (4.0, -3.0), (7.0, 0.0), (20.0, 2.0)])
    assert distance_to_complex(C, X) == pytest.approx([5.0, 5.0, 5.0, 3.0, 2.0], abs=1e-12)
    # a 2-cell in R^3 counts its plane distance only above the cell
    tri = Polyhedron.from_generators(3, vertices=[(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    C = WeightedComplex(3, 2, [(tri, 1)])
    X = np.array([(0.25, 0.25, 2.0), (2.0, 0.0, 1.0), (-1.0, -1.0, 0.0)])
    assert distance_to_complex(C, X) == pytest.approx([2.0, np.sqrt(2.0), np.sqrt(2.0)], abs=1e-12)


def test_distance_to_complex_rejects_bad_input():
    cube = Polyhedron.from_generators(3, vertices=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(DynamicsError, match="at most 2"):
        distance_to_complex(WeightedComplex(3, 3, [(cube, 1)]), np.zeros((1, 3)))
    plane = tropical_hypersurface(DENSE_CASES["plane-cells"])
    with pytest.raises(DynamicsError, match="matching"):
        distance_to_complex(plane, np.zeros((4, 2)))


# -- the certified exclusion equals brute force


@st.composite
def exclusion_inputs(draw):
    """Random polynomials in n = 1, 2, 3 variables, asymmetric boxes with bounds up to 10^6, several deltas."""
    n = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=2, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = ComplexPolynomial({e: complex(*rng.uniform(0.5, 2.0, size=2)) for e in exps})
    scale = 10.0 ** draw(st.sampled_from([0, 1, 3, 6]))
    box = []
    for _ in range(n):
        lo = draw(st.integers(-1000, 200)) / 1000 * scale
        box.append((lo, lo + draw(st.integers(300, 1000)) / 1000 * scale))
    delta = draw(st.sampled_from([0.03, 0.1, 0.2] if n < 3 else [0.2, 0.3])) * scale
    grid = GridSpec(box=tuple(box), resolution=((40,), (15, 15), (7, 7, 7))[n - 1], delta=delta)
    return f, grid


@settings(max_examples=100, deadline=None)
@given(exclusion_inputs())
def test_exclusion_equals_bruteforce(inputs):
    f, grid = inputs
    cycle, support = exclusion_case(f, grid)
    if len(support) == 0:
        return
    pts = grid_points(grid)
    oracle = nearest_distances_bruteforce(pts, support.points) >= grid.delta + grid.delta / 8
    assert np.array_equal(_outside_exclusion(cycle, support, pts, grid), oracle)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_exclusion_at_the_radius_from_a_ray(scale):
    # points radius +- 1e-12 off a sample on a ray, at every scale of the box
    line = ComplexPolynomial({(1, 0): 2, (0, 1): 3j, (0, 0): -1})
    grid = GridSpec(box=((-3 * scale, 2 * scale), (-2 * scale, 3 * scale)), resolution=(2, 2), delta=0.2 * scale)
    cycle, support = exclusion_case(line, grid)
    radius = grid.delta + grid.delta / 8
    on_ray = support.points[np.abs(support.points[:, 1]) < 1e-9]  # the ray along +x1
    s = on_ray[np.argmin(np.abs(on_ray[:, 0] - scale))]
    pts = np.array([s + (0.0, radius - 1e-12), s + (0.0, radius + 1e-12), s - (0.0, radius - 1e-12)])
    oracle = nearest_distances_bruteforce(pts, support.points) >= radius
    if scale == 1.0:  # at larger scales 1e-12 is below the spacing of floats
        assert oracle.tolist() == [False, True, False]
    assert np.array_equal(_outside_exclusion(cycle, support, pts, grid), oracle)


def test_exclusion_measures_few_points(monkeypatch):
    # the dequantize benchmark's jobs: its exponent sets, res 17, delta 0.2, the default box;
    # 120 of the 1,156 grid points are measured
    supports = [
        [(0, 3), (1, 0), (1, 1)],
        [(0, 2), (1, 1), (2, 0), (3, 0)],
        [(0, 0), (0, 2), (0, 3), (1, 2), (3, 0)],
        [(0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 1)],
    ]
    rng = np.random.default_rng(3)
    grid = GridSpec(box=((-3.0, 3.0), (-3.0, 3.0)), resolution=(17, 17), delta=0.2)
    rows = []
    kernel = tropdyn.dynamics._nearest_distances

    def counting(P, Q):
        rows.append(len(P))
        return kernel(P, Q)

    monkeypatch.setattr(tropdyn.dynamics, "_nearest_distances", counting)
    for exps in supports:
        f = ComplexPolynomial({e: complex(*rng.uniform(0.5, 2.0, size=2)) for e in exps})
        dequantization_error(f, 4, grid, seed=1)
    assert 0 < sum(rows) <= 0.15 * len(supports) * 17 * 17
