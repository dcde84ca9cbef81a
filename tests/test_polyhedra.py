import itertools
import math
import random
from fractions import Fraction

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from tropdyn import polyhedra, serialize
from tropdyn.polyhedra import (
    Cone,
    Fan,
    Polyhedron,
    PolyhedralError,
    WeightedComplex,
    add_cycles,
    check_balancing,
    common_refinement,
    is_complete,
    is_unimodular,
)
from tropdyn.lattice import dot, primitive, rank_int, smith_normal_form, vec_sub
from tropdyn.tropical import TropicalPolynomial, tropical_hypersurface, uniform_bergman_fan

from oracles import (
    balancing_violations_ambient,
    check_common_faces_unfiltered,
    contains,
    face_data_of_rank,
    face_vkeys_rank,
    facets,
    h_cone_generators_reference,
    polyhedron_from_constraints_homogenised,
    relint_point,
    subset_fractions,
    support_contains,
)


def quadrant_fan():
    quads = [
        Cone.from_generators([(1, 0), (0, 1)]),
        Cone.from_generators([(0, 1), (-1, 0)]),
        Cone.from_generators([(-1, 0), (0, -1)]),
        Cone.from_generators([(0, -1), (1, 0)]),
    ]
    return Fan(quads)


def p2_fan():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [
        Cone.from_generators([rays[0], rays[1]]),
        Cone.from_generators([rays[1], rays[2]]),
        Cone.from_generators([rays[2], rays[0]]),
    ]
    return Fan(cones)


def tropical_line_cycle(weight=1):
    return WeightedComplex.from_cone_cells(
        2, 1, [(((1, 0),), weight), (((0, 1),), weight), (((-1, -1),), weight)]
    )


# -- dual description: Cone.from_generators computes both descriptions


def test_dual_description_quadrant():
    c = Cone.from_generators([(1, 0), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert set(c.ineq_normals) == {(1, 0), (0, 1)}
    assert c.eq_normals == ()
    assert c.lineality == ()


def test_dual_description_skew():
    c = Cone.from_generators([(1, 0), (1, 2)])
    assert set(c.ineq_normals) == {(0, 1), (2, -1)}
    # both descriptions agree on sampled rational points
    rng = random.Random(0)
    for _ in range(200):
        x = (Fraction(rng.randint(-8, 8), rng.randint(1, 5)), Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
        by_ineq = all(x[0] * a[0] + x[1] * a[1] >= 0 for a in c.ineq_normals)
        # generator test: x = s(1,0) + t(1,2) with s,t >= 0 <=> x2 >= 0 and 2x1 >= x2
        by_gen = x[1] >= 0 and 2 * x[0] - x[1] >= 0
        assert by_ineq == by_gen


def test_dual_description_line():
    c = Cone.from_generators([(1, 1), (-1, -1)])
    assert c.rays == ()
    assert c.lineality == ((1, 1),)
    assert len(c.eq_normals) == 1
    a = c.eq_normals[0]
    assert a[0] + a[1] == 0  # x1 - x2 = 0 up to sign


def test_dual_description_dim_cap():
    with pytest.raises(PolyhedralError):
        Cone.from_generators([(1, 0, 0, 0, 0)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Polyhedron.from_generators(2, vertices=[(1, 2, 3)]), "mixed ambient dimensions"),
        (lambda: Polyhedron.from_generators(2, vertices=[(1,)]), "mixed ambient dimensions"),
        (lambda: Polyhedron.from_generators(2, vertices=[(0, 0)], rays=[(1,)]), "mixed ambient dimensions"),
        (lambda: Polyhedron.from_generators(5, vertices=[(0,) * 5]), "ambient dimension unsupported"),
        (lambda: Cone.from_constraints([(1, 0, 0)], [], 2), "mixed ambient dimensions"),
        (lambda: Cone.from_constraints([], [(1,)], 2), "mixed ambient dimensions"),
        (lambda: Cone.from_constraints([], [], 7), "ambient dimension unsupported"),
        (lambda: Polyhedron.from_constraints(2, ineqs=[((1, 0, 0), 0)]), "mixed ambient dimensions"),
        (lambda: Polyhedron.from_constraints(2, eqs=[((1,), 0)]), "mixed ambient dimensions"),
        (lambda: Polyhedron.from_constraints(-1), "ambient dimension unsupported"),
    ],
)
def test_constructors_check_dimension_and_lengths(build, message):
    with pytest.raises(PolyhedralError, match=message):
        build()


def test_cone_is_the_origin_vertex_polyhedron():
    c = Cone.from_generators([(1, 0), (1, 2)])
    cell = Polyhedron.from_generators(2, vertices=((0, 0),), rays=((1, 0), (1, 2)))
    assert isinstance(c, Polyhedron) and c == cell
    assert (c.eqs, c.ineqs) == (cell.eqs, cell.ineqs)
    assert c.ineq_normals == tuple(a for a, b in c.ineqs) and all(b == 0 for _, b in c.ineqs)
    assert {f.key for f in c.faces()} == {f.key for f in cell.faces()}
    assert all(isinstance(f, Cone) for f in c.faces() + facets(c))


def test_non_integral_generators_are_scaled_not_truncated():
    assert Cone.from_generators([(Fraction(1, 2), 1)]).rays == ((1, 2),)
    cell = Polyhedron.from_generators(2, vertices=[(0, 0)], rays=[(1, 0)], lineality=[(0.5, 1)])
    assert cell.lineality == ((1, 2),)
    assert Polyhedron.from_generators(2, vertices=[(0, 0)], rays=[(Fraction(1, 3), 1)]).rays == ((1, 3),)


def test_non_integral_constraints_are_scaled_not_truncated():
    # (1/2) x + y >= 0 is x + 2y >= 0, and (1/3) x + y = 0 is x + 3y = 0
    assert Cone.from_constraints([(Fraction(1, 2), 1)], [], 2).ineqs == (((1, 2), 0),)
    assert Cone.from_constraints([(0.5, 1)], [], 2).ineqs == (((1, 2), 0),)
    assert Cone.from_constraints([], [(Fraction(1, 3), 1)], 2).eqs == (((1, 3), 0),)


@st.composite
def cones_with_lineality(draw):
    n = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(vec, min_size=1, max_size=4))
    lin = draw(st.lists(vec.filter(any), min_size=1, max_size=2))
    return n, gens, lin


@settings(max_examples=100, deadline=None)
@given(cones_with_lineality())
def test_cone_rays_orthogonal_to_lineality(case):
    n, gens, lin = case
    c = Cone.from_generators(gens, n, lineality=lin)
    assume(c.rays and c.lineality)
    for r in c.rays:
        assert math.gcd(*r) == 1
        assert all(sum(x * y for x, y in zip(r, l)) == 0 for l in c.lineality)
    for g in gens + lin + [tuple(-x for x in l) for l in lin]:
        assert contains(c, g)
    assert Cone.from_constraints(c.ineq_normals, c.eq_normals, n) == c


def test_zero_cone():
    c = Cone.from_generators([], ambient_dim=3)
    assert c.dim == 0
    assert c.rays == () and c.lineality == ()
    assert contains(c, (0, 0, 0)) and not contains(c, (1, 0, 0))


def _both_signs(vectors):
    return [tuple(v) for v in vectors] + [tuple(-x for x in v) for v in vectors]


def _same_descriptions(P, Q):
    assert (P.key, P.eqs, P.ineqs) == (Q.key, Q.eqs, Q.ineqs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equations_match_opposite_inequalities(data):
    n = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    ineqs = data.draw(st.lists(st.tuples(vec.filter(any), st.integers(-3, 3)), max_size=4))
    eqs = data.draw(st.lists(st.tuples(vec.filter(any), st.integers(-3, 3)), max_size=2))
    split = list(eqs) + [(tuple(-x for x in a), -b) for a, b in eqs]
    _same_descriptions(
        Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs),
        Polyhedron.from_constraints(n, ineqs=ineqs + split),
    )
    normals = [a for a, _ in ineqs]
    eq_normals = data.draw(st.lists(vec, max_size=2))
    _same_descriptions(
        Cone.from_constraints(normals, eq_normals, n),
        Cone.from_constraints(normals + _both_signs(eq_normals), (), n),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lineality_matches_opposite_generators(data):
    n = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    gens = data.draw(st.lists(vec, max_size=4))
    lin = data.draw(st.lists(vec, max_size=2))
    _same_descriptions(
        Cone.from_generators(gens, n, lineality=lin),
        Cone.from_generators(gens + _both_signs(lin), n),
    )
    point = st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n).map(tuple)
    vertices = data.draw(st.lists(point, min_size=1, max_size=3))
    _same_descriptions(
        Polyhedron.from_generators(n, vertices=vertices, rays=gens, lineality=lin),
        Polyhedron.from_generators(n, vertices=vertices, rays=gens + _both_signs(lin)),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_h_cone_generators_match_two_pass_reference(data):
    """Rays and lineality equal the Laplace-kernel, two-pass-sign-test conversion's.

    Up to the homogenised dimension 5, with equations, lineality pairs
    (a and -a), duplicate rows and zero rows.
    """
    d = data.draw(st.integers(1, 5), label="d")
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)
    normals = data.draw(st.lists(vec, max_size=6), label="normals")
    eqs = data.draw(st.lists(vec, max_size=2), label="eqs")
    for a in data.draw(st.lists(vec, max_size=2), label="lineality pairs"):
        normals += [a, tuple(-x for x in a)]
    if normals and data.draw(st.booleans(), label="a duplicate row"):
        normals.append(data.draw(st.sampled_from(normals)))
    if data.draw(st.booleans(), label="a zero row"):
        normals.append((0,) * d)
    got = polyhedra._h_cone_generators(normals, d, eqs)
    assert got == h_cone_generators_reference(normals, d, eqs)
    event(f"{len(got[0])} rays, lineality {len(got[1])}")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_zero_rhs_constraints_match_the_homogenised_route(data):
    """Cones converted in R^n, from either description, equal the homogenised build.

    Every right-hand side 0, n = 0 to 4, with equations, Fraction entries,
    duplicate rows and zero rows.  The same cone from its generators, as a
    Polyhedron with the origin as its only vertex and as a Cone, and each
    face of the cone cut by one halfspace a.x >= b with b < 0, which keeps
    the origin a vertex beside others, match the homogenised build too, in
    every description and in type.
    """
    n = data.draw(st.integers(0, 4), label="n")
    entry = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3)
    vec = st.lists(entry, min_size=n, max_size=n).map(tuple)
    ineqs = data.draw(st.lists(vec, max_size=6), label="inequality normals")
    eqs = data.draw(st.lists(vec, max_size=2), label="equation normals")
    if ineqs and data.draw(st.booleans(), label="a duplicate row"):
        ineqs.append(data.draw(st.sampled_from(ineqs)))
    if data.draw(st.booleans(), label="a zero row"):
        ineqs.append((0,) * n)
    eqs = [(e, 0) for e in eqs]
    ineqs = [(a, 0) for a in ineqs]

    def descriptions(P):
        return type(P), P.eqs, P.ineqs, P.gens, P.lineality

    want = polyhedron_from_constraints_homogenised(n, eqs=eqs, ineqs=ineqs)
    assert type(want) is Polyhedron
    assert descriptions(Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs)) == descriptions(want)
    from_gens = Polyhedron.from_generators(n, [(0,) * n], want.rays, want.lineality)
    assert descriptions(from_gens) == descriptions(want)
    cone = Cone.from_generators(want.rays, n, want.lineality)
    assert descriptions(cone) == (Cone, *descriptions(want)[1:])
    cut = (data.draw(vec, label="cut normal"), data.draw(st.fractions(-3, -1, max_denominator=3)))
    P = Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs + [cut])
    assert descriptions(P) == descriptions(polyhedron_from_constraints_homogenised(n, eqs, ineqs + [cut]))
    for gens, _ in P.face_vkeys():
        tight = tuple((a, b) for a, b in P.ineqs if not any(dot((*a, -b), g) for g in gens))
        face = polyhedron_from_constraints_homogenised(n, P.eqs + tight, P.ineqs)
        assert descriptions(P._face(gens)) == descriptions(face)
    event(f"dim {want.dim}, lineality {len(want.lineality)}, {len(P.vertices)} vertices after the cut")


def test_zero_rhs_constraints_stay_in_dimension_n(monkeypatch):
    """Every right-hand side 0: no conversion in R^(n+1); any other is homogenised."""
    dims = []
    convert = polyhedra._h_cone_generators

    def recording(rows, d, eqs=()):
        dims.append(d)
        return convert(rows, d, eqs)

    monkeypatch.setattr(polyhedra, "_h_cone_generators", recording)
    quadrant = Polyhedron.from_constraints(2, ineqs=(((1, 0), 0), ((0, 1), Fraction(0))))
    assert dims == [2, 2] and type(quadrant) is Polyhedron
    assert quadrant.rays == ((0, 1), (1, 0)) and quadrant.vertices == ((0, 0),)
    dims.clear()
    Polyhedron.from_constraints(2, ineqs=(((1, 0), 0), ((0, 1), -1)))
    assert dims == [3, 3]


def test_h_to_v_enumerates_inequality_subsets_only(monkeypatch):
    """Equations are fixed rows: the kernels take 1 of 3 inequality rows, not 3 of 7 rows."""
    subsets = []
    cross_kernel, convert = polyhedra._cross_kernel, polyhedra._h_cone_generators

    def counting_cross_kernel(*args):
        subsets[-1] += 1
        return cross_kernel(*args)

    def counting_convert(*args, **kwargs):
        subsets.append(0)
        return convert(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "_cross_kernel", counting_cross_kernel)
    monkeypatch.setattr(polyhedra, "_h_cone_generators", counting_convert)
    seg = Polyhedron.from_constraints(
        3,
        eqs=(((0, 1, 0), 0), ((0, 0, 1), 0)),
        ineqs=(((1, 0, 0), 0), ((-1, 0, 0), -1)),
    )
    assert seg.vertices == ((0, 0, 0), (1, 0, 0)) and seg.dim == 1
    assert 1 <= subsets[0] <= 3


def _rank_dim(vertices, rays, lineality):
    """Dimension of conv(vertices) + cone(rays) + span(lineality) by a rank; -1 when empty."""
    if not vertices:
        return -1
    vecs = [vec_sub(v, vertices[0]) for v in vertices[1:]] + list(rays) + list(lineality)
    return rank_int(vecs) if vecs else 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dim_matches_generator_rank(data):
    """dim read off the stored equations equals the rank of the generators."""
    n = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    point = st.lists(st.fractions(-2, 2, max_denominator=2), min_size=n, max_size=n).map(tuple)
    vertices = data.draw(st.lists(point, max_size=3))
    rays = data.draw(st.lists(vec, max_size=3))
    lin = data.draw(st.lists(vec, max_size=2))
    ineqs = data.draw(st.lists(st.tuples(vec, st.integers(-2, 2)), max_size=4))
    eqs = data.draw(st.lists(st.tuples(vec, st.integers(-2, 2)), max_size=2))
    # from generators the oracle reads the input; from constraints, the computed V-data
    P = Polyhedron.from_generators(n, vertices=vertices, rays=rays, lineality=lin)
    assert P.dim == _rank_dim(vertices, rays, lin)
    assert Cone.from_generators(rays, n, lineality=lin).dim == _rank_dim([(0,) * n], rays, lin)
    for Q in (
        Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs),
        Cone.from_constraints([a for a, _ in ineqs], [a for a, _ in eqs], n),
    ):
        assert Q.dim == _rank_dim(Q.vertices, Q.rays, Q.lineality)
        event("empty" if Q.is_empty else f"codim {n - Q.dim}")
        event("lineality" if Q.lineality else "pointed")


# -- fans, refinement, unimodularity, completeness


def test_fan_rejects_bad_intersection():
    overlapping = [
        Cone.from_generators([(1, 0), (0, 1)]),
        Cone.from_generators([(1, 1), (1, -1)]),
    ]
    with pytest.raises(PolyhedralError):
        Fan(overlapping)


def test_fan_collapses_a_repeated_cone():
    cones = list(p2_fan().maximal_cones)
    doubled = Fan(cones + [cones[0]], 2)
    assert doubled.maximal_cones == tuple(cones)
    assert doubled == Fan(cones, 2)
    assert is_complete(doubled)


def test_fan_keeps_only_maximal_cones():
    """A face listed with its cone is dropped, so it is neither compared nor written."""
    c = Cone.from_generators([(1, 0), (0, 1)])
    f = Cone.from_generators([(1, 0)])
    assert Fan([c, f], 2) == Fan([c], 2)
    assert serialize.fan_to_json(Fan([f, c], 2))["cones"] == [serialize.cone_to_json(c)]
    half = Cone.from_generators([(0, 1)], lineality=[(1, 0)])
    line = Cone.from_generators([], 2, lineality=[(1, 0)])
    assert Fan([line, half], 2).maximal_cones == (half,)


def test_fan_needs_a_cone():
    with pytest.raises(PolyhedralError, match="a fan needs at least one cone"):
        Fan([], 2)


def test_fan_rejects_a_cone_of_another_dimension():
    octant = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(PolyhedralError, match="mixed ambient dimensions"):
        Fan([octant], 2)
    with pytest.raises(PolyhedralError, match="mixed ambient dimensions"):
        Fan([octant, Cone.from_generators([(1, 0), (0, 1)])], 2)


def test_fan_rejects_a_member_that_is_not_a_cone():
    """A translated quadrant is a Polyhedron; validated or not, it never enters a fan."""
    members = [
        Polyhedron.from_generators(2, vertices=[(1, 1)], rays=[(1, 0), (0, 1)]),
        Cone.from_generators([(-1, 0), (0, -1)]),
    ]
    for validate in (True, False):
        with pytest.raises(PolyhedralError, match="fan members must be cones"):
            Fan(members, 2, validate=validate)
    with pytest.raises(PolyhedralError, match="fan members must be cones"):
        Fan(members)


def test_refinement_octants():
    rotated = Fan(
        [
            Cone.from_generators([(1, 1), (1, -1)]),
            Cone.from_generators([(1, 1), (-1, 1)]),
            Cone.from_generators([(-1, -1), (-1, 1)]),
            Cone.from_generators([(-1, -1), (1, -1)]),
        ]
    )
    ref = common_refinement(quadrant_fan(), rotated)
    assert len([c for c in ref.maximal_cones if c.dim == 2]) == 8


def test_refinement_idempotent():
    A = quadrant_fan()
    assert common_refinement(A, A) == A


def test_refinement_p2_quadrants():
    # direct enumeration: e1, e2 lie on quadrant boundaries, -e1-e2 splits the
    # third quadrant, so the refinement has 5 maximal cones
    ref = common_refinement(p2_fan(), quadrant_fan())
    assert len(ref.maximal_cones) == 5


def test_refinement_support_sampling():
    A = p2_fan()
    B = quadrant_fan()
    half = Fan([Cone.from_generators([(1, 0), (0, 1), (-1, 2)])])
    ref = common_refinement(half, B)
    rng = random.Random(7)
    for _ in range(1000):
        x = (
            Fraction(rng.randint(-12, 12), rng.randint(1, 7)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 7)),
        )
        assert support_contains(ref, x) == (support_contains(half, x) and support_contains(B, x))
    ref2 = common_refinement(A, B)
    for _ in range(200):
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert support_contains(ref2, x) == (support_contains(A, x) and support_contains(B, x))


def test_unimodular():
    assert is_unimodular(Cone.from_generators([(1, 0), (0, 1)]))
    assert not is_unimodular(Cone.from_generators([(1, 0), (1, 2)]))
    assert is_unimodular(p2_fan())
    with pytest.raises(PolyhedralError):
        is_unimodular(Cone.from_generators([(1, 0), (-1, 0)]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unimodular_matches_smith_invariant_factors(data):
    n = data.draw(st.integers(1, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    cone = Cone.from_generators(data.draw(st.lists(vec, max_size=5)), n)
    assume(not cone.lineality)
    factors = smith_normal_form(cone.rays).invariant_factors if cone.rays else ()
    event(f"unimodular {is_unimodular(cone)}")
    assert is_unimodular(cone) == (len(factors) == len(cone.rays) and set(factors) <= {1})


def test_complete():
    assert is_complete(p2_fan())
    assert is_complete(quadrant_fan())
    assert not is_complete(Fan([Cone.from_generators([(1, 0), (0, 1)])]))


def test_complete_whole_line():
    line = Fan([Cone.from_generators([(1,), (-1,)], ambient_dim=1)])
    assert is_complete(line)


# -- polyhedra


def test_polyhedron_from_constraints_segment():
    seg = Polyhedron.from_constraints(
        2,
        eqs=(((0, 1), 0),),
        ineqs=(((1, 0), 0), ((-1, 0), -1)),
    )
    assert seg.dim == 1
    assert seg.vertices == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    assert seg.rays == ()
    pt = relint_point(seg)
    assert contains(seg, pt)
    assert len(facets(seg)) == 2


def test_polyhedron_empty():
    p = Polyhedron.from_constraints(2, ineqs=(((1, 0), 1), ((-1, 0), 0)))
    assert p.is_empty
    assert p.dim == -1


@pytest.mark.parametrize(
    "eqs, ineqs, empty",
    [
        ((), (((0, 0), 0),), False),  # 0.x >= 0
        ((), (((0, 0), -1),), False),  # 0.x >= -1
        ((((0, 0), 0),), (), False),  # 0.x = 0
        ((), (((0, 0), 1),), True),  # 0.x >= 1
        ((((0, 0), Fraction(1, 2)),), (), True),  # 0.x = 1/2
        ((((0, 0), -2),), (), True),  # 0.x = -2
    ],
)
def test_polyhedron_zero_normal_rows(eqs, ineqs, empty):
    """A zero-normal row is dropped when vacuous and empties the set when infeasible."""
    box = (((1, 0), 0), ((-1, 0), -1), ((0, 1), 0))
    p = Polyhedron.from_constraints(2, eqs=eqs, ineqs=ineqs + box)
    assert p.is_empty == empty
    if not empty:
        assert p == Polyhedron.from_constraints(2, ineqs=box)
    whole = Polyhedron.from_constraints(2, eqs=eqs, ineqs=ineqs)
    assert whole.is_empty == empty
    if not empty:
        assert whole.dim == 2 and whole.lineality and not whole.ineqs


def test_polyhedron_affine_line():
    # x1 = 1 in R^2: one vertex representative plus lineality
    p = Polyhedron.from_constraints(2, eqs=(((1, 0), 1),))
    assert p.dim == 1
    assert p.lineality == ((0, 1),)
    assert len(p.vertices) == 1
    assert contains(p, (1, Fraction(22, 7)))
    assert not contains(p, (0, 0))
    assert facets(p) == []


def test_polyhedron_roundtrip_generators():
    p = Polyhedron.from_generators(
        2, vertices=((Fraction(1, 2), 0),), rays=((1, 1),)
    )
    q = Polyhedron.from_constraints(2, eqs=p.eqs, ineqs=p.ineqs)
    assert p == q


# -- balancing


def test_balancing_tropical_line_variants():
    balanced = WeightedComplex.from_cone_cells(
        2, 1, [(((1, 1),), 1), (((-1, 0),), 1), (((0, -1),), 1)]
    )
    assert check_balancing(balanced).balanced


def test_balancing_unbalanced_pair():
    bad = WeightedComplex.from_cone_cells(2, 1, [(((1, 0),), 1), (((0, 1),), 1)])
    report = check_balancing(bad)
    assert not report.balanced
    assert len(report.violations) == 1
    tau, residual = report.violations[0]
    assert tau.dim == 0
    assert residual == (1, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_balancing_matches_ambient_generator_oracle(data):
    """Violations and residuals of hypersurfaces with perturbed weights match the Z^n sum."""
    n = data.draw(st.integers(2, 3))
    exps = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    coeffs = st.fractions(-2, 2, max_denominator=4)
    terms = data.draw(st.dictionaries(exps, coeffs, min_size=2, max_size=5))
    cycle = tropical_hypersurface(TropicalPolynomial(terms, ambient_dim=n))
    k = len(cycle.cells)
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    perturbed = WeightedComplex(n, cycle.dim, [(c, w) for (c, _), w in zip(cycle.cells, weights)])
    report = check_balancing(perturbed)
    event("balanced" if report.balanced else "unbalanced")
    assert [(tau.key, r) for tau, r in report.violations] == balancing_violations_ambient(perturbed)


def test_balancing_saturates_once_per_ridge(monkeypatch):
    fan = uniform_bergman_fan(2, 3)  # four ridges: the rays e1, e2, e3, -(e1+e2+e3)
    calls = []
    saturate = polyhedra.saturate_and_complete

    def counting(vecs):
        calls.append(vecs)
        return saturate(vecs)

    monkeypatch.setattr(polyhedra, "saturate_and_complete", counting)
    assert check_balancing(fan).balanced
    assert len(calls) == 4


def test_balancing_weighted_residual():
    bad = WeightedComplex.from_cone_cells(
        2, 1, [(((1, 0),), 2), (((0, 1),), 1), (((-1, -1),), 1)]
    )
    report = check_balancing(bad)
    assert not report.balanced
    assert report.violations[0][1] == (1, 0)


def test_balancing_weight_two_line():
    # a full line has no codimension-one faces, so it is trivially balanced
    line = Polyhedron.from_constraints(2, eqs=(((1, 0), 0),))
    C = WeightedComplex(2, 1, [(line, 2)])
    assert check_balancing(C).balanced


def test_balancing_refinement_invariance():
    # split the (1,0) ray of the tropical line at (1,0); verdict unchanged
    seg = Polyhedron.from_constraints(
        2, eqs=(((0, 1), 0),), ineqs=(((1, 0), 0), ((-1, 0), -1))
    )
    tail = Polyhedron.from_constraints(2, eqs=(((0, 1), 0),), ineqs=(((1, 0), 1),))
    up = Cone.from_generators([(0, 1)])
    diag = Cone.from_generators([(-1, -1)])
    refined = WeightedComplex(2, 1, [(seg, 1), (tail, 1), (up, 1), (diag, 1)])
    assert check_balancing(refined).balanced
    coarse = tropical_line_cycle()
    assert check_balancing(coarse).balanced


def test_non_pure_complex_rejected():
    ray = Cone.from_generators([(1, 0)])
    quad = Cone.from_generators([(1, 0), (0, 1)])
    with pytest.raises(PolyhedralError):
        WeightedComplex(2, 1, [(ray, 1), (quad, 1)])


def test_complex_rejects_non_face_overlap():
    a, b = _segments_sharing_a_line()
    message = r"^cells do not intersect in a common face \(members 0 and 1\)$"
    with pytest.raises(PolyhedralError, match=message):
        WeightedComplex(2, 1, [(a, 1), (b, 1)])


# -- common-face validation: sign tests first, one conversion for the rest


def _segments_sharing_a_line():
    a = Polyhedron.from_constraints(2, eqs=(((0, 1), 0),), ineqs=(((1, 0), 0), ((-1, 0), -2)))
    b = Polyhedron.from_constraints(2, eqs=(((0, 1), 0),), ineqs=(((1, 0), 1), ((-1, 0), -3)))
    return [a, b]


def _verdict(check, *args):
    """The validation error's message, or None when the check passes."""
    try:
        check(*args)
    except PolyhedralError as e:
        return str(e)
    return None


P3_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))


def _stellar_p3(data, steps):
    """Maximal cones (ray tuples) of the fan of P^3 after stellar subdivisions at drawn faces."""
    cones = list(itertools.combinations(P3_RAYS, 3))
    for _ in range(steps):
        sigma = data.draw(st.sampled_from(cones))
        face = data.draw(st.lists(st.sampled_from(sigma), min_size=2, max_size=3, unique=True))
        rho = primitive(tuple(map(sum, zip(*face))))[0]
        cones = [
            cone
            for tau in cones
            for cone in (
                [tuple(r for r in tau if r != s) + (rho,) for s in face]
                if set(face) <= set(tau)
                else [tau]
            )
        ]
    return cones


def _hypersurface_cells(data, n, flat):
    """Cells of a drawn tropical hypersurface; flat exponents give every cell the lineality e_n."""
    exp = st.tuples(*[st.integers(0, 2)] * (n - 1), st.just(0) if flat else st.integers(0, 2))
    exps = data.draw(st.lists(exp, min_size=3, max_size=4, unique=True))
    coeffs = data.draw(st.lists(st.integers(-16, 16), min_size=len(exps), max_size=len(exps)))
    q = TropicalPolynomial({e: Fraction(c, 8) for e, c in zip(exps, coeffs)}, n)
    return [cell for cell, _ in tropical_hypersurface(q).cells]


def _translated(cell, shift):
    return Polyhedron.from_generators(
        cell.ambient_dim,
        vertices=[tuple(x + y for x, y in zip(v, shift)) for v in cell.vertices],
        rays=cell.rays,
        lineality=cell.lineality,
    )


@st.composite
def validation_cases(draw):
    """(kind, ambient_dim, dim, members, label): valid complexes and fans, some broken."""
    data = draw(st.data())
    labels = ["hypersurface", "flat hypersurface", "bergman", "stellar", "lineality fan", "segments"]
    label = draw(st.sampled_from(labels))
    if label == "segments":  # they share a hyperplane but not a face
        n, dim, kind, members = 2, 1, "cells", _segments_sharing_a_line()
    elif label in ("hypersurface", "flat hypersurface"):
        n = 3 if label == "flat hypersurface" else draw(st.integers(2, 3))
        kind, members = "cells", _hypersurface_cells(data, n, label == "flat hypersurface")
        assume(members)
        dim = n - 1
    elif label == "bergman":
        n = draw(st.integers(2, 4))
        dim = draw(st.integers(1, min(n, 2)))
        kind, members = "cells", [c for c, _ in uniform_bergman_fan(dim, n).cells]
    else:
        n, dim, kind = 3, 3, "cones"
        if label == "stellar":
            members = [Cone.from_generators(rays) for rays in _stellar_p3(data, draw(st.integers(0, 3)))]
        else:  # the fan of P^2 times the line spanned by e_3
            rays = [(1, 0, 0), (0, 1, 0), (-1, -1, 0)]
            pairs = itertools.combinations(rays, 2)
            members = [Cone.from_generators(pair, lineality=[(0, 0, 1)]) for pair in pairs]
    broken = draw(st.sampled_from([None, "overlap", "along hull"]))
    if broken == "overlap" and kind == "cones":
        c = draw(st.sampled_from(members))
        v = draw(st.tuples(*[st.integers(-1, 1)] * 3).filter(any))
        extra = Cone.from_generators(c.rays[1:] + (v,), 3, lineality=c.lineality)
        if extra.dim < 3:  # v lies in the span of the kept rays: keep them all
            extra = Cone.from_generators(c.rays + (v,), 3, lineality=c.lineality)
        members.append(extra)
    elif broken == "overlap":
        shift = draw(st.tuples(*[st.fractions(-1, 1, max_denominator=2)] * n))
        members.append(_translated(draw(st.sampled_from(members)), shift))
    elif broken == "along hull":
        i = draw(st.integers(0, len(members) - 1))
        basis = members[i].direction_basis()
        factor = st.fractions(-1, 1, max_denominator=2)
        factors = draw(st.lists(factor, min_size=len(basis), max_size=len(basis)))
        shift = tuple(sum(f * b[j] for f, b in zip(factors, basis)) for j in range(n))
        members[i] = _translated(members[i], shift)
    return kind, n, dim, members, f"{label}, {broken or 'unchanged'}"


@settings(max_examples=120, deadline=None)
@given(validation_cases())
def test_validation_matches_unfiltered_oracle(case):
    """Fan and WeightedComplex raise exactly when intersect-then-face-lattice does, on the same pair.

    A fan member translated along its hull is no longer a cone, which the fan rejects first.
    """
    kind, n, dim, members, label = case
    if kind == "cones" and label.endswith("along hull"):  # a translated cone is a Polyhedron
        event(f"{label}: not cones")
        for validate in (True, False):
            with pytest.raises(PolyhedralError, match="fan members must be cones"):
                Fan(members, n, validate=validate)
        return
    if kind == "cones":
        build = lambda validate: Fan(members, n, validate=validate)  # noqa: E731
        ordered = build(False).maximal_cones
    else:
        cells = [(c, 1) for c in members]
        build = lambda validate: WeightedComplex(n, dim, cells, validate=validate)  # noqa: E731
        ordered = [c for c, _ in build(False).cells]
    for P, Q in itertools.combinations(ordered, 2):
        event(polyhedra._sign_test(P, Q) or polyhedra._sign_test(Q, P) or "fallback")
    expected = _verdict(check_common_faces_unfiltered, ordered, kind)
    event(f"{label}: {'rejected' if expected else 'valid'}")
    assert _verdict(build, True) == expected


def test_each_separation_branch():
    """One fixed pair per outcome of the sign tests, each also passed by the unfiltered oracle."""
    def seg(x0, x1, y):
        return Polyhedron.from_generators(2, vertices=[(x0, y), (x1, y)])

    half_line = Polyhedron.from_generators(2, vertices=[(0, 1)], rays=[(1, 0)])
    cases = {
        "separated": (seg(0, 1, 0), seg(2, 3, 0)),
        # y >= -1 is tight on the half-line y = 1 only at infinity
        "misses": (half_line, seg(0, 1, -1)),
        "common face": (Cone.from_generators([(1, 0), (0, 1)]), Cone.from_generators([(0, 1), (-1, 0)])),
        # the cones meet in the ray e_1, which no facet hyperplane of either exposes
        None: (
            Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            Cone.from_generators([(1, 0, 0), (0, -1, 0), (0, 0, -1)]),
        ),
    }
    for outcome, (P, Q) in cases.items():
        assert (polyhedra._sign_test(P, Q) or polyhedra._sign_test(Q, P)) == outcome
        assert _verdict(check_common_faces_unfiltered, [P, Q], "cells") is None
        assert _verdict(polyhedra._check_common_faces, [P, Q], "cells") is None
    assert polyhedra._meet_vkey(*cases[None]) == Cone.from_generators([(1, 0, 0)]).vkey()


@st.composite
def small_polyhedra(draw, n):
    vec = st.tuples(*[st.integers(-1, 1)] * n)
    rays = draw(st.lists(vec, max_size=3))
    lin = draw(st.lists(vec, max_size=1))
    if draw(st.booleans()):
        return Cone.from_generators(rays, n, lineality=lin)
    point = st.tuples(*[st.fractions(-1, 1, max_denominator=2)] * n)
    vertices = draw(st.lists(point, min_size=1, max_size=3))
    return Polyhedron.from_generators(n, vertices=vertices, rays=rays, lineality=lin)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exposed_face_test_matches_face_lattice(data):
    """On random pairs in R^1..R^3, P cap Q is a face exactly when it is in the face
    lattice, and a pair the sign tests settle passes the unfiltered check."""
    n = data.draw(st.integers(1, 3))
    P = data.draw(small_polyhedra(n))
    if data.draw(st.booleans()):
        Q = data.draw(small_polyhedra(n))
    else:  # a face of P plus a point: P cap Q is often that face
        F = data.draw(st.sampled_from(P.faces()))
        point = data.draw(st.tuples(*[st.fractions(-2, 2, max_denominator=2)] * n))
        Q = Polyhedron.from_generators(n, vertices=F.vertices + (point,), rays=F.rays, lineality=F.lineality)
    settled = polyhedra._sign_test(P, Q) or polyhedra._sign_test(Q, P)
    event(settled or "fallback")
    if settled:
        assert _verdict(check_common_faces_unfiltered, [P, Q], "cells") is None
    inter = P.intersect(Q)
    if inter.is_empty:
        assert polyhedra._meet_vkey(P, Q) is None
        return
    k = inter.vkey()
    assert polyhedra._meet_vkey(P, Q) == k
    for X in (P, Q):
        event("face" if k in X.face_vkeys() else "not a face")
        assert polyhedra._is_face(X, k) == (k in X.face_vkeys())


@st.composite
def face_lattice_cases(draw):
    """(label, P) in R^1..R^4: polytopes, unbounded polyhedra and cones, some with
    lineality, cells in a hyperplane, and constraint lists with duplicate rows."""
    n = draw(st.integers(1, 4))
    labels = ["polytope", "unbounded", "cone", "constraints"] + ["flat"] * (n > 1)
    label = draw(st.sampled_from(labels))
    vec = st.tuples(*[st.integers(-1, 1)] * n)
    if label == "constraints":
        row = st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-2, 2))
        ineqs = draw(st.lists(row, min_size=1, max_size=6))
        a, b = draw(st.sampled_from(ineqs))
        ineqs.append((tuple(2 * x for x in a), 2 * b))  # the same row, scaled
        eqs = draw(st.lists(row, max_size=1))
        return label, Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs)
    size = 4 if n == 4 else 5
    lin = [] if label == "polytope" else draw(st.lists(vec, max_size=1))
    rays = draw(st.lists(vec, min_size=label in ("unbounded", "cone"), max_size=3))
    if label == "cone":
        return label, Cone.from_generators(rays + rays[:1], n, lineality=lin)
    point = st.tuples(*[st.fractions(-2, 2, max_denominator=2)] * n)
    vertices = draw(st.lists(point, min_size=1, max_size=size))
    vertices.append(vertices[0])  # a repeated generator
    if label == "polytope":
        rays = []
    if label == "flat":  # everything in the hyperplane x_1 = 1/2
        vertices = [(Fraction(1, 2), *v[1:]) for v in vertices]
        rays, lin = [(0, *r[1:]) for r in rays], [(0, *l[1:]) for l in lin]
    return label, Polyhedron.from_generators(n, vertices=vertices, rays=rays, lineality=lin)


@settings(max_examples=200, deadline=None)
@given(face_lattice_cases())
def test_facets_by_incidence_match_the_rank_oracle(case):
    """The facets of every face, in order, and the face lattice equal the rank-tested ones."""
    label, P = case
    faces = face_vkeys_rank(P)
    event(f"{label}, dim {P.dim}, {len(faces)} faces")
    assert P.face_vkeys() == faces
    for gens, _ in faces:
        assert polyhedra._face_data_of(P, gens) == face_data_of_rank(P, gens)


@st.composite
def containment_pairs(draw):
    """(P, Q, label) in R^1..R^3: cones and affine cells, with lineality, some empty, many nested."""
    n = draw(st.integers(1, 3))
    Q = draw(small_polyhedra(n))
    empty = Polyhedron.from_constraints(n, ineqs=[((0,) * n, 1)])
    label = draw(st.sampled_from(["random", "face", "meet", "empty P", "empty Q"]))
    if label == "face":
        P = draw(st.sampled_from(Q.faces()))
    elif label == "meet":
        P = Q.intersect(draw(small_polyhedra(n)))
    elif label == "empty P":
        P = empty
    else:
        P = draw(small_polyhedra(n))
    return P, empty if label == "empty Q" else Q, label


@settings(max_examples=200, deadline=None)
@given(containment_pairs())
def test_subset_by_generator_signs_matches_fraction_oracle(pair):
    P, Q, label = pair
    expected = subset_fractions(P, Q)
    event(f"{label}: {'subset' if expected else 'not a subset'}")
    assert polyhedra._subset(P, Q) == expected


def _entries(P):
    """Every number of P's canonical data: equations, inequalities, generators, lineality."""
    rows = [(*a, b) for a, b in P.eqs + P.ineqs]
    return [x for v in rows + list(P.gens + P.lineality) for x in v]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_constructors_return_python_ints(data):
    """Fraction, float and numpy.int64 input comes back as canonical data of Python ints.

    Each public constructor's result equals the one built with the reference
    conversion, which makes every row primitive by `primitive` itself.
    """
    n = data.draw(st.integers(1, 3), label="n")
    kind = data.draw(st.sampled_from(["Fraction", "float", "numpy.int64"]), label="kind")
    convert = {
        "Fraction": lambda k: Fraction(k, data.draw(st.integers(1, 3))),
        "float": lambda k: k / 2,
        "numpy.int64": np.int64,
    }[kind]
    vec = st.tuples(*[st.integers(-2, 2)] * n).map(lambda v: tuple(map(convert, v)))
    rhs = st.integers(-1, 1).map(convert)
    ineqs = data.draw(st.lists(st.tuples(vec, rhs), max_size=4), label="ineqs")
    eqs = data.draw(st.lists(st.tuples(vec, rhs), max_size=1), label="eqs")
    if data.draw(st.booleans(), label="every right-hand side 0"):
        ineqs, eqs = [(a, 0 * b) for a, b in ineqs], [(a, 0 * b) for a, b in eqs]
    vertices = data.draw(st.lists(vec, min_size=1, max_size=3), label="vertices")
    rays = data.draw(st.lists(vec, max_size=3), label="rays")
    lin = data.draw(st.lists(vec, max_size=1), label="lineality")
    builds = {
        "Polyhedron.from_constraints": lambda: Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs),
        "Polyhedron.from_generators": lambda: Polyhedron.from_generators(
            n, vertices=vertices, rays=rays, lineality=lin
        ),
        "Cone.from_generators": lambda: Cone.from_generators(rays, n, lineality=lin),
        "Cone.from_constraints": lambda: Cone.from_constraints(
            [a for a, _ in ineqs], [a for a, _ in eqs], n
        ),
    }
    for name, build in builds.items():
        got = build()
        with mock.patch.object(polyhedra, "_h_cone_generators", h_cone_generators_reference):
            want = build()
        assert all(type(x) is int for x in _entries(got)), (name, kind)
        assert type(got) is type(want), name
        assert (got.eqs, got.ineqs, got.gens, got.lineality) == (
            want.eqs,
            want.ineqs,
            want.gens,
            want.lineality,
        ), name


def test_exposed_face_test_fixed_cases():
    square = Polyhedron.from_generators(2, vertices=[(0, 0), (1, 0), (0, 1), (1, 1)])
    half_facet = Polyhedron.from_generators(2, vertices=[(0, 0), (Fraction(1, 2), 0)])
    facet = Polyhedron.from_generators(2, vertices=[(0, 0), (1, 0)])
    assert not polyhedra._is_face(square, half_facet.vkey())
    assert polyhedra._is_face(square, facet.vkey())
    assert polyhedra._is_face(square, square.vkey())
    quadrant = Cone.from_generators([(1, 0), (0, 1)])
    assert polyhedra._is_face(quadrant, quadrant.vkey())
    assert not polyhedra._is_face(quadrant, Cone.from_generators([(1, 1)]).vkey())


# -- cycle addition


def test_add_cycles_doubles():
    line = tropical_line_cycle()
    doubled = add_cycles(line, line)
    assert doubled == line.scale(2)
    assert check_balancing(doubled).balanced


def test_add_cycles_cancellation():
    line = tropical_line_cycle()
    neg = line.scale(-1)
    total = add_cycles(line, neg)
    assert total.is_empty


def test_equal_cells_are_one_member_with_summed_weight():
    ray = Cone.from_generators([(1, 0)])
    assert WeightedComplex(2, 1, [(ray, 1), (ray, 2)]) == WeightedComplex(2, 1, [(ray, 3)])
    assert WeightedComplex(2, 1, [(ray, 1), (ray, -1)]).is_empty


def test_add_cycles_two_lines_through_origin():
    line1 = tropical_line_cycle()
    line2 = WeightedComplex.from_cone_cells(
        2, 1, [(((1, 1),), 1), (((-1, 0),), 1), (((0, -1),), 1)]
    )
    total = add_cycles(line1, line2)
    assert check_balancing(total).balanced
    # union of the six rays, no shared rays here
    assert len(total.cells) == 6
    assert all(w == 1 for _, w in total.cells)


def test_add_cycles_shared_rays():
    a = WeightedComplex.from_cone_cells(2, 1, [(((1, 0),), 1), (((-1, 0),), 1)])
    b = WeightedComplex.from_cone_cells(
        2, 1, [(((1, 0),), 2), (((0, 1),), 1), (((-1, -1),), 1)]
    )
    total = add_cycles(a, b)
    weights = {c.rays[0]: w for c, w in total.cells}
    assert weights[(1, 0)] == 3
    assert weights[(-1, 0)] == 1
    assert weights[(0, 1)] == 1
    assert weights[(-1, -1)] == 1


def test_add_cycles_transversal_crossing_subdivides():
    # horizontal line (as a cycle) plus a vertical line shifted to x1 = 1:
    # the crossing at (1, 0) must become a vertex of the refined complex
    horiz = WeightedComplex(2, 1, [(Polyhedron.from_constraints(2, eqs=(((0, 1), 0),)), 1)])
    vert = WeightedComplex(2, 1, [(Polyhedron.from_constraints(2, eqs=(((1, 0), 1),)), 1)])
    total = add_cycles(horiz, vert)
    assert len(total.cells) == 4
    assert check_balancing(total).balanced


def test_add_cycles_dim_mismatch():
    line = tropical_line_cycle()
    pt = WeightedComplex(
        2, 0, [(Polyhedron.from_generators(2, vertices=((Fraction(0), Fraction(0)),)), 1)]
    )
    with pytest.raises(PolyhedralError):
        add_cycles(line, pt)


def _same_affine_hull(P, Q):
    span = list(P.direction_basis()) + list(Q.direction_basis())
    span.append(vec_sub(relint_point(Q), relint_point(P)))
    return P.dim == Q.dim == rank_int(span)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eqs_equal_iff_same_affine_hull(data):
    # cells drawn around two random affine spaces, so hulls often coincide;
    # add_cycles keys affine hulls by the canonical eqs
    n = data.draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    vec = st.tuples(*[small] * n)
    spaces = [(data.draw(vec), data.draw(st.lists(vec, max_size=n))) for _ in range(2)]

    def cell():
        base, dirs = spaces[data.draw(st.integers(0, 1))]
        den = data.draw(st.integers(1, 2))
        combos = data.draw(st.lists(st.tuples(*[small] * len(dirs)), min_size=1, max_size=4))
        verts = [
            tuple(b + Fraction(sum(c * d[i] for c, d in zip(cs, dirs)), den) for i, b in enumerate(base))
            for cs in combos
        ]
        rays = data.draw(st.lists(st.sampled_from(dirs), max_size=2)) if dirs else []
        return Polyhedron.from_generators(n, vertices=verts, rays=rays)

    P, Q = cell(), cell()
    assert (P.eqs == Q.eqs) == _same_affine_hull(P, Q)
