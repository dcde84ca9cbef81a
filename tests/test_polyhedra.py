import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropdyn import polyhedra
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


def quadrant_fan():
    quads = [
        Cone.from_generators([(1, 0), (0, 1)]),
        Cone.from_generators([(0, 1), (-1, 0)]),
        Cone.from_generators([(-1, 0), (0, -1)]),
        Cone.from_generators([(0, -1), (1, 0)]),
    ]
    return Fan.from_cones(quads)


def p2_fan():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [
        Cone.from_generators([rays[0], rays[1]]),
        Cone.from_generators([rays[1], rays[2]]),
        Cone.from_generators([rays[2], rays[0]]),
    ]
    return Fan.from_cones(cones)


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


def test_cone_is_the_origin_vertex_polyhedron():
    c = Cone.from_generators([(1, 0), (1, 2)])
    cell = Polyhedron.from_generators(2, vertices=((0, 0),), rays=((1, 0), (1, 2)))
    assert isinstance(c, Polyhedron) and c == cell
    assert (c.eqs, c.ineqs) == (cell.eqs, cell.ineqs)
    assert c.ineq_normals == tuple(a for a, b in c.ineqs) and all(b == 0 for _, b in c.ineqs)
    assert {f.key for f in c.faces()} == {f.key for f in cell.faces()}
    assert all(isinstance(f, Cone) for f in c.faces() + c.facets())


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
        assert c.contains(g)
    assert Cone.from_constraints(c.ineq_normals, c.eq_normals, n) == c


def test_zero_cone():
    c = Cone.from_generators([], ambient_dim=3)
    assert c.dim == 0
    assert c.rays == () and c.lineality == ()
    assert c.contains((0, 0, 0)) and not c.contains((1, 0, 0))


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


# -- fans, refinement, unimodularity, completeness


def test_fan_rejects_bad_intersection():
    overlapping = [
        Cone.from_generators([(1, 0), (0, 1)]),
        Cone.from_generators([(1, 1), (1, -1)]),
    ]
    with pytest.raises(PolyhedralError):
        Fan.from_cones(overlapping)


def test_refinement_octants():
    rotated = Fan.from_cones(
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
    half = Fan.from_cones([Cone.from_generators([(1, 0), (0, 1), (-1, 2)])])
    ref = common_refinement(half, B)
    rng = random.Random(7)
    for _ in range(1000):
        x = (
            Fraction(rng.randint(-12, 12), rng.randint(1, 7)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 7)),
        )
        assert ref.support_contains(x) == (half.support_contains(x) and B.support_contains(x))
    ref2 = common_refinement(A, B)
    for _ in range(200):
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert ref2.support_contains(x) == (A.support_contains(x) and B.support_contains(x))


def test_unimodular():
    assert is_unimodular(Cone.from_generators([(1, 0), (0, 1)]))
    assert not is_unimodular(Cone.from_generators([(1, 0), (1, 2)]))
    assert is_unimodular(p2_fan())
    with pytest.raises(PolyhedralError):
        is_unimodular(Cone.from_generators([(1, 0), (-1, 0)]))


def test_complete():
    assert is_complete(p2_fan())
    assert is_complete(quadrant_fan())
    assert not is_complete(Fan.from_cones([Cone.from_generators([(1, 0), (0, 1)])]))


def test_complete_whole_line():
    line = Fan.from_cones([Cone.from_generators([(1,), (-1,)], ambient_dim=1)])
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
    pt = seg.relint_point()
    assert seg.contains(pt)
    assert len(seg.facets()) == 2


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
    assert p.contains((1, Fraction(22, 7)))
    assert not p.contains((0, 0))
    assert p.facets() == []


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
    a = Polyhedron.from_constraints(2, eqs=(((0, 1), 0),), ineqs=(((1, 0), 0), ((-1, 0), -2)))
    b = Polyhedron.from_constraints(2, eqs=(((0, 1), 0),), ineqs=(((1, 0), 1), ((-1, 0), -3)))
    with pytest.raises(PolyhedralError):
        WeightedComplex(2, 1, [(a, 1), (b, 1)])


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
