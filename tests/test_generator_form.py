"""The one stored V-data form: canonical generators of the homogenisation.

A polyhedron in R^n keeps its V-data as primitive integer vectors of
R^(n+1): a vertex p/q as (p, q) with q > 0, a ray r as (r, 0), vertices
first in the order of their rational points, then rays.  These properties
compare that form with the Fraction formulas it replaced (kept in
`oracles`): the `vertices` and `rays` views and their order, the dimension
of every face and the quotient lattice of every face.
"""

import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

from tropdyn.lattice import _integral, primitive
from tropdyn.polyhedra import Cone, Polyhedron, _vrep_quotient

from oracles import vertex_and_ray_views, vrep_dim, vrep_quotient_fractions


@st.composite
def polyhedra(draw):
    """Polyhedra and cones in R^1..R^3, from generators or from constraints.

    Lineality, equations and few generators give lower-dimensional ones.
    """
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    point = st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * n)
    lineality = draw(st.lists(vec, max_size=1))  # a zero vector spans nothing
    kind = draw(st.sampled_from(["polyhedron", "cone", "constraints", "cone constraints"]))
    event(kind)
    if kind == "polyhedron":
        vertices = draw(st.lists(point, min_size=1, max_size=5))
        rays = draw(st.lists(vec, max_size=2))
        return Polyhedron.from_generators(n, vertices=vertices, rays=rays, lineality=lineality)
    if kind == "cone":
        return Cone.from_generators(draw(st.lists(vec, max_size=4)), n, lineality=lineality)
    ineqs = draw(st.lists(st.tuples(vec, st.integers(-3, 3)), max_size=5))
    eqs = draw(st.lists(st.tuples(vec, st.integers(-2, 2)), max_size=1))
    if kind == "constraints":
        return Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs)
    return Cone.from_constraints([a for a, _ in ineqs], [a for a, _ in eqs], n)


@settings(max_examples=200, deadline=None)
@given(polyhedra())
def test_generators_are_primitive_and_signed(P):
    n = P.ambient_dim
    event("empty" if P.is_empty else f"dim {P.dim}, lineality {len(P.lineality)}")
    assert all(len(g) == n + 1 and math.gcd(*g) == 1 for g in P.gens)
    last = [g[n] for g in P.gens]
    assert all(t >= 0 for t in last)
    # vertex generators (t > 0) first, then rays (t = 0)
    assert last == sorted(last, key=lambda t: t == 0)
    assert P.is_empty or last[0] > 0


@settings(max_examples=200, deadline=None)
@given(polyhedra())
def test_views_and_order_match_the_fraction_formula(P):
    n = P.ambient_dim
    vertices, rays = vertex_and_ray_views(n, P.gens)
    event("several vertices" if len(vertices) > 1 else "one vertex or none")
    assert (P.vertices, P.rays) == (vertices, rays)
    assert P.key == (n, vertices, rays, P.lineality)
    vertex_gens = tuple(primitive(_integral((*v, 1)))[0] for v in vertices)
    assert P.gens == vertex_gens + tuple((*r, 0) for r in rays)


@settings(max_examples=200, deadline=None)
@given(polyhedra())
def test_face_dimension_and_quotient_match_the_fraction_formula(P):
    n = P.ambient_dim
    if P.is_empty:
        return
    assert _vrep_quotient(n, *P.vkey()) == vrep_quotient_fractions(n, P.vertices, P.rays, P.lineality)
    for k in P.face_vkeys():
        face = P._face(k[0])
        assert face.vkey() == k
        assert vrep_dim(*k) == face.dim
        # QuotientLattice equality compares both the sublattice and the complement basis
        assert _vrep_quotient(n, *k) == vrep_quotient_fractions(n, face.vertices, face.rays, face.lineality)
