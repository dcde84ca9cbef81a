"""Facts that replace walks: each shortcut is compared with the walk it replaced.

- A fan is complete iff it has a full-dimensional cone and every facet of its
  full-dimensional cones bounds exactly two of them (the two-owner rule);
  the reference pairs every ridge and walks the facet graph.
- A fan is unimodular iff its maximal cones are: a face's rays are a subset
  of its cone's rays.
- A pair of exponents that ties on a hypersurface cell found already cuts out
  that same cell, so `tropical_hypersurface` builds each cell once.
- Tropical hypersurfaces with lattice-length weights and uniform Bergman fans
  with weight one are balanced, so building them runs no balancing check;
  the check itself confirms the theorem on drawn hypersurfaces.
- A face's generators are a subset of its parent's canonical generators, so
  one V -> H conversion gives the same face as the full round trip.
"""

import itertools
import sys
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from tropdyn import polyhedra, tropical
from tropdyn.lattice import dot, identity, primitive
from tropdyn.polyhedra import (
    Cone,
    Fan,
    Polyhedron,
    PolyhedralError,
    check_balancing,
    is_complete,
    is_unimodular,
)
from tropdyn.tropical import TropicalPolynomial, tropical_hypersurface, uniform_bergman_fan

from oracles import hypersurface_cells_all_pairs, is_complete_ridge_pairing, vertex_and_ray_views


def projective_space_fan(n):
    """Ray sets of the maximal cones of the complete simplicial fan of P^n."""
    rays = list(identity(n)) + [tuple([-1] * n)]
    return [frozenset(s) for s in itertools.combinations(rays, n)]


def lineality_fans(n):
    """Half-space, two half-spaces, hyperplane and whole-space fans in R^n, with a mix."""
    e1, rest = identity(n)[0], identity(n)[1:]
    half = Cone.from_generators([e1], n, lineality=rest)
    other = Cone.from_generators([tuple(-x for x in e1)], n, lineality=rest)
    plane = Cone.from_generators([], n, lineality=rest)
    whole = Cone.from_generators([], n, lineality=identity(n))
    return [[half], [half, other], [plane], [whole], [half, plane], [half, other, plane]]


@st.composite
def fans(draw):
    """Stellar subdivisions of P^2..P^4, with cones dropped, faces added or cones
    replaced by proper faces; lineality fans."""
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.integers(1, 3))
        return Fan(draw(st.sampled_from(lineality_fans(n))), n)
    n = draw(st.integers(2, 4))
    cones = projective_space_fan(n)
    for _ in range(draw(st.integers(0, 2))):
        faces = {
            frozenset(f) for c in cones for k in range(2, n + 1) for f in itertools.combinations(c, k)
        }
        face = draw(st.sampled_from(sorted(faces, key=sorted)))
        weights = draw(st.lists(st.integers(1, 2), min_size=len(face), max_size=len(face)))
        gens = sorted(face)
        ray = primitive(tuple(sum(w * r[i] for w, r in zip(weights, gens)) for i in range(n)))[0]
        cones = [c for c in cones if not face <= c] + [
            (c - {r}) | {ray} for c in cones if face <= c for r in face
        ]
    cells = [Cone.from_generators(sorted(c), n) for c in sorted(cones, key=sorted)]
    change = draw(st.sampled_from(["none", "drop", "extra faces", "proper faces"]))
    if change == "drop":
        gone = draw(
            st.lists(st.integers(0, len(cells) - 1), min_size=1, max_size=len(cells) - 1, unique=True)
        )
        cells = [c for i, c in enumerate(cells) if i not in gone]
    elif change == "extra faces":
        for c in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2)):
            cells.append(draw(st.sampled_from(c.faces())))
    elif change == "proper faces":  # no full-dimensional cone is left
        cells = [draw(st.sampled_from(c.faces()[1:])) for c in cells]
    event(change)
    return Fan(cells, n)


def _outcome(check, x):
    try:
        return check(x)
    except PolyhedralError:
        return "raises"


@settings(max_examples=80, deadline=None)
@given(fans())
def test_two_owner_rule_matches_ridge_pairing(fan):
    expected = is_complete_ridge_pairing(fan)
    event(f"complete {expected}")
    assert is_complete(fan) == expected


@settings(max_examples=40, deadline=None)
@given(fans())
def test_fan_unimodular_from_maximal_cones(fan):
    expected = _outcome(lambda F: all(is_unimodular(c) for c in F.all_cones()), fan)
    event(f"unimodular {expected}")
    assert _outcome(is_unimodular, fan) == expected


def test_hypersurface_builds_each_cell_once(monkeypatch):
    # max(0, x, 2x, y): the three terms 0, x, 2x tie on the ray x = 0, y <= 0
    calls = {"build": 0, "eval": 0}
    build, evaluate = Polyhedron.from_constraints.__func__, tropical.eval_tropical

    def counted_build(cls, *args, **kwargs):
        calls["build"] += 1
        return build(cls, *args, **kwargs)

    def counted_eval(*args):
        calls["eval"] += 1
        return evaluate(*args)

    monkeypatch.setattr(Polyhedron, "from_constraints", classmethod(counted_build))
    monkeypatch.setattr(tropical, "eval_tropical", counted_eval)
    H = tropical_hypersurface(TropicalPolynomial({(0, 0): 0, (1, 0): 0, (2, 0): 0, (0, 1): 0}))
    assert sorted(w for _, w in H.cells) == [1, 1, 2]
    assert calls == {"build": 4, "eval": 3}


@st.composite
def tied_polynomials(draw):
    """Three collinear exponents and a few more, with coefficients linear in the
    exponents plus sparse noise, so that ties of three or more terms are common."""
    n = draw(st.integers(2, 3))
    vec = st.tuples(*[st.integers(-1, 1)] * n)
    start, step = draw(vec), draw(vec.filter(any))
    exps = {tuple(a + k * d for a, d in zip(start, step)) for k in range(3)}
    exps |= set(draw(st.lists(vec, max_size=5 - n)))
    slope = draw(st.tuples(*[st.integers(-2, 2)] * n))
    noise = st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2)])
    return TropicalPolynomial({e: dot(slope, e) + draw(noise) for e in sorted(exps)}, n)


@settings(max_examples=150, deadline=None)
@given(tied_polynomials())
def test_hypersurface_matches_all_pairs_enumeration(q):
    got = tropical_hypersurface(q)
    want = sorted(hypersurface_cells_all_pairs(q), key=lambda cw: cw[0].key)
    exact = TropicalPolynomial(q.exact_terms(), q.ambient_dim)
    ties = [len(tropical.eval_tropical(exact, c.relint_point()).argmax) for c, _ in want]
    event(f"largest tie {max(ties, default=0)}")
    assert [(c.key, c.eqs, c.ineqs, w) for c, w in got.cells] == [
        (c.key, c.eqs, c.ineqs, w) for c, w in want
    ]


@st.composite
def hypersurface_polynomials(draw):
    """n = 1..3, Laurent exponents, often three collinear ones; float or Fraction coefficients."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    exps = set(draw(st.lists(vec, min_size=2, max_size=6 - n)))
    if draw(st.booleans()):
        start, step = draw(vec), draw(vec.filter(any))
        exps |= {tuple(a + k * d for a, d in zip(start, step)) for k in range(3)}
    if draw(st.booleans()):
        coeff = st.floats(-4, 4, allow_subnormal=False)
        event("float coefficients")
    else:
        coeff = st.fractions(-4, 4, max_denominator=8)
    return TropicalPolynomial({e: draw(coeff) for e in sorted(exps)}, n)


@settings(max_examples=150, deadline=None)
@given(hypersurface_polynomials())
def test_hypersurfaces_are_balanced(q):
    H = tropical_hypersurface(q)
    event(f"n = {q.ambient_dim}, {'empty' if H.is_empty else 'cells'}")
    assert check_balancing(H).balanced


def test_built_cycles_run_no_balancing_check():
    code = polyhedra.check_balancing.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    def count(build):
        calls.clear()
        sys.setprofile(profile)
        try:
            build()
        finally:
            sys.setprofile(None)
        return len(calls)

    q = TropicalPolynomial({(0, 0, 0): 0, (1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): Fraction(1, 2)})
    H = tropical_hypersurface(q)
    assert count(lambda: tropical_hypersurface(q)) == 0
    assert count(lambda: uniform_bergman_fan(2, 3)) == 0
    assert count(lambda: check_balancing(H)) == 1  # the counter sees a call


@st.composite
def polyhedra_with_faces(draw):
    """Polyhedra and cones in R^1..R^3 from small generators, with or without lineality."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    rays = draw(st.lists(vec, max_size=4))
    lineality = draw(st.lists(vec.filter(any), max_size=1))
    if draw(st.booleans()):
        event("cone")
        return Cone.from_generators(rays, n, lineality=lineality)
    point = st.tuples(*[st.fractions(-2, 2, max_denominator=2)] * n)
    vertices = draw(st.lists(point, min_size=1, max_size=4))
    return Polyhedron.from_generators(n, vertices=vertices, rays=rays, lineality=lineality)


@settings(max_examples=150, deadline=None)
@given(polyhedra_with_faces())
def test_face_from_canonical_generators_matches_round_trip(P):
    event(f"lineality {len(P.lineality)}")
    for gens, lineality in P.face_vkeys():
        face = P._face(gens)
        vertices, rays = vertex_and_ray_views(P.ambient_dim, gens)
        if isinstance(P, Cone):
            want = Cone.from_generators(rays, P.ambient_dim, lineality=lineality)
        else:
            want = Polyhedron.from_generators(P.ambient_dim, vertices, rays, lineality)
        assert (type(face), face.key, face.eqs, face.ineqs) == (type(want), want.key, want.eqs, want.ineqs)
