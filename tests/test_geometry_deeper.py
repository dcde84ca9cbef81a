"""Heavier exercises of the exact polyhedral core in dimensions 3 and 4."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdyn.dynamics import GridSpec, amoeba_sample, clip_to_box, directed_hausdorff, sample_tropical_support
from tropdyn.polyhedra import (
    Cone,
    Fan,
    Polyhedron,
    check_balancing,
    common_refinement,
    is_complete,
    is_unimodular,
)
from tropdyn.tropical import ComplexPolynomial, TropicalPolynomial, tropical_hypersurface, tropicalize_poly


def cube_fan_3d():
    """Face fan of the cube: six square cones over the facets."""
    cones = []
    for axis in range(3):
        for sign in (1, -1):
            rays = []
            for signs in itertools.product((1, -1), repeat=2):
                v = [0, 0, 0]
                v[axis] = sign
                rest = [i for i in range(3) if i != axis]
                v[rest[0]], v[rest[1]] = signs
                rays.append(tuple(v))
            cones.append(Cone.from_generators(rays))
    return Fan.from_cones(cones)


def test_positive_orthant_r4():
    c = Cone.from_generators([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert len(c.ineq_normals) == 4
    assert c.dim == 4
    assert is_unimodular(c)


def test_cone_over_cube_r4():
    rays = [signs + (1,) for signs in itertools.product((1, -1), repeat=3)]
    c = Cone.from_generators(rays)
    assert c.dim == 4
    assert len(c.rays) == 8
    assert len(c.ineq_normals) == 6  # one facet per cube face
    assert not is_unimodular(c)  # square facets are not simplicial


def test_cube_fan_complete_and_not_unimodular():
    fan = cube_fan_3d()
    assert len(fan.maximal_cones) == 6
    assert is_complete(fan)
    assert not is_unimodular(fan)
    partial = Fan.from_cones(fan.maximal_cones[:5], ambient_dim=3)
    assert not is_complete(partial)


def test_octant_fan_r3_refinement():
    octants = Fan.from_cones(
        [
            Cone.from_generators([(sx, 0, 0), (0, sy, 0), (0, 0, sz)])
            for sx in (1, -1)
            for sy in (1, -1)
            for sz in (1, -1)
        ]
    )
    assert is_complete(octants)
    assert is_unimodular(octants)
    # refining by a fan of two half-spaces along a diagonal plane splits
    # every octant the plane passes through
    halves = Fan.from_cones(
        [
            Cone.from_constraints([(1, 1, 0)], [], 3),
            Cone.from_constraints([(-1, -1, 0)], [], 3),
        ]
    )
    refined = common_refinement(octants, halves)
    assert is_complete(refined)
    assert len(refined.maximal_cones) == 12  # 4 octants stay, 4 split in two


def test_refinement_support_r3_sampling():
    octants = Fan.from_cones(
        [
            Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            Cone.from_generators([(-1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ]
    )
    halves = Fan.from_cones([Cone.from_constraints([(0, 0, 1)], [], 3)])
    ref = common_refinement(octants, halves)
    rng = random.Random(3)
    for _ in range(300):
        x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        assert ref.support_contains(x) == (
            octants.support_contains(x) and halves.support_contains(x)
        )


def test_hypersurface_weight_scaling():
    # the tropical square (exponents and coefficients doubled) keeps the same
    # locus and doubles every lattice-length weight
    base = {(0, 0): 0, (-1, 0): Fraction(1, 2), (0, -1): 1, (1, 1): 0}
    q1 = TropicalPolynomial(base)
    q2 = TropicalPolynomial({tuple(2 * e for e in exp): 2 * c for exp, c in base.items()})
    c1 = tropical_hypersurface(q1)
    c2 = tropical_hypersurface(q2)
    w1 = sorted(w for _, w in c1.cells)
    w2 = sorted(w for _, w in c2.cells)
    assert w2 == [2 * w for w in w1]
    assert [cell.key for cell, _ in c1.cells] == [cell.key for cell, _ in c2.cells]


def test_hypersurface_surface_in_r3():
    # max(0, -x1, -x2, -x3): the cone over the tropical plane, 6 maximal cells
    q = TropicalPolynomial({(0, 0, 0): 0, (-1, 0, 0): 0, (0, -1, 0): 0, (0, 0, -1): 0})
    cycle = tropical_hypersurface(q)
    assert cycle.dim == 2
    assert len(cycle.cells) == 6
    assert check_balancing(cycle).balanced


def test_amoeba_quadratic_slices():
    # 1 + z1 + z2^2: rays (0,1) w1, (1,0) w2, (-2,-1) w1; quadratic in z2
    f = ComplexPolynomial({(0, 0): 1, (1, 0): 1, (0, 2): 1})
    cycle = tropical_hypersurface(tropicalize_poly(f))
    weights = {cell.rays[0]: w for cell, w in cycle.cells}
    assert weights == {(0, 1): 1, (1, 0): 2, (-2, -1): 1}
    assert check_balancing(cycle).balanced
    box = ((-3.0, 3.0), (-3.0, 3.0))
    grid = GridSpec(box=box, resolution=(61, 61))
    cloud = clip_to_box(amoeba_sample(f, grid, 16), box)
    spine = clip_to_box(sample_tropical_support(cycle, box, density=30.0), box)
    assert directed_hausdorff(cloud, spine) < 0.2
    assert directed_hausdorff(spine, cloud) < 0.2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_polyhedron_canonical_roundtrip(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 5))
    ineqs = []
    for _ in range(k):
        a = tuple(data.draw(st.integers(-3, 3)) for _ in range(n))
        if all(x == 0 for x in a):
            continue
        ineqs.append((a, data.draw(st.integers(-4, 4))))
    P = Polyhedron.from_constraints(n, ineqs=ineqs)
    if P.is_empty:
        return
    # V-rep satisfies the H-rep, and rebuilding from generators is idempotent
    for v in P.vertices:
        assert P.contains(v)
    for a, b in P.ineqs:
        for r in P.rays:
            assert sum(x * y for x, y in zip(a, r)) >= 0
        for l in P.lineality:
            assert sum(x * y for x, y in zip(a, l)) == 0
    assert P.contains(P.relint_point())
    Q = Polyhedron.from_generators(
        n, vertices=P.vertices, rays=P.rays, lineality=P.lineality
    )
    assert Q == P
