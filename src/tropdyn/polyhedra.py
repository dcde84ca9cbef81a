"""Exact rational polyhedral geometry: polyhedra, cones, fans, weighted complexes.

All combinatorics run over exact integer arithmetic, so tie decisions never
depend on rounding.  There is one polyhedron type: a `Cone` is the
`Polyhedron` whose only vertex is the origin.  V- and H-descriptions are kept
canonical.  The V-data is `gens`, the canonical generators of the
homogenisation in R^(n+1): a vertex p/q is the primitive (p, q) with q > 0, a
ray r is (r, 0), primitive and orthogonal to the lineality space; vertices
come first in the order of their rational points, then rays.  Lineality
lattices are stored in Hermite normal form.  Equal sets therefore compare
equal as tuples.  A row a.x >= b is the integer vector (a, -b), so its sign
on any generator is one integer dot product, and so is each containment test.
The Fraction views `vertices` and `key` enter no exact decision; float
sampling takes its centres from `gens`.

Conversions between descriptions use brute-force extreme-ray enumeration,
exact and comfortably fast for the ambient dimensions this engine supports
(<= MAX_AMBIENT_DIM): the kernel of each row subset is its signed cofactor
vector, written out in closed form up to d = 5 (the homogenised dimension
of R^4, and that of a hypersurface's lifted hull in R^3), and one pass over
the inequalities keeps it, with its sign, or drops it at the first row of
the opposite sign.  Equations and lineality are fixed rows of every kernel;
the subsets are drawn from the inequalities only.  Each conversion makes
its rows primitive once, by math.gcd alone: the public constructors hand it
tuples of Python ints (`_integral`, `primitive`).  Cones are converted in
their ambient dimension, other polyhedra homogenised one dimension higher:
a measured choice, as cones sent through the homogenised path made the
`exact` benchmark 27% slower (8% with a K x R>=0 product rule for them).
`Polyhedron.from_constraints` with every right-hand side 0 (each cell of a
hypersurface with constant coefficients) builds a cone, so it stays in
dimension n too, and returns a Polyhedron all the same.

Faces come by incidence, with no rank test: the facets of a face F are the
inclusion-maximal proper on-sets that P's inequalities cut from F's
generators and that hold a vertex generator (`_face_data_of`).

Fans and weighted complexes check that every two members are disjoint or
meet in a common face.  A pair is first tried by integer sign tests on the
rows of each member: a row a.x >= b of one with the other in a.x <= b shows
the pair disjoint, or meeting in the intersection of the two faces that
a.x = b exposes, a common face when those are equal.  Only the pairs no row
settles get one H -> V conversion of their intersection, which is a face of
a member when it equals the face cut out by the member's inequalities tight
on it (the smallest face containing it).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from .lattice import (
    QuotientLattice,
    _cross_kernel,
    _det,
    _integral,
    dot,
    hnf_basis,
    identity,
    integer_kernel,
    is_zero_vector,
    primitive,
    quotient_outward_generator,
    saturate_and_complete,
    vec_neg,
)

MAX_AMBIENT_DIM = 4


class PolyhedralError(ValueError):
    """Raised on invalid polyhedral input (dimension caps, non-fans, ...)."""


# ---------------------------------------------------------------------------
# small exact kernels


def _pointed_extreme_rays(rows, d, fixed=()):
    """Extreme rays of the pointed cone {y in R^d : r . y >= 0, e . y = 0}.

    r runs over rows and e over the independent fixed rows (equations and
    lineality); every ray spans the kernel of the fixed rows plus
    d - 1 - len(fixed) of the rows, the cofactor vector of those d - 1 rows.
    One pass over the rows fixes the candidate's sign and drops it at the
    first row of the opposite sign.  With no room left the cone is {0}.
    """
    fixed = tuple(fixed)
    k = d - 1 - len(fixed)
    if k < 0:
        return []
    found = []
    seen = set()  # both orientations of every ray found
    for S in itertools.combinations(rows, k):
        v = _cross_kernel(fixed + S, d)
        if v is None or v in seen:
            continue
        sign = 0
        for r in rows:
            p = sum(map(mul, r, v))
            if p > 0:
                if sign < 0:
                    break
                sign = 1
            elif p < 0:
                if sign > 0:
                    break
                sign = -1
        else:
            neg = vec_neg(v)
            seen.update((v, neg))
            found.append(neg if sign < 0 else v)
    return sorted(found)


def _primitive_rows(rows):
    """The distinct primitive multiples of the nonzero rows, in first-occurrence order.

    Rows are tuples of Python ints: every public constructor makes them so
    (`_integral`, `primitive`), so math.gcd alone normalises them.
    """
    out = {}
    for a in rows:
        g = math.gcd(*a)
        if g:
            out[a if g == 1 else tuple(x // g for x in a)] = None
    return list(out)


def _h_cone_generators(normals, dim, eqs=()):
    """Canonical extreme rays and lineality of {x : a . x >= 0, e . x = 0}.

    a runs over normals and e over eqs, tuples of ints; with neither the
    whole space comes back as pure lineality.  Rays are primitive and
    orthogonal to the lineality space L: they are the extreme rays of the
    pointed cone cut by L . x = 0, which are the orthogonal projections of
    the cone's rays.  L and the equations are the fixed rows (independent,
    as L is orthogonal to the equations' span), so subsets come from the
    inequalities only.  The lineality basis is in Hermite normal form.
    """
    normals = _primitive_rows(normals)
    eqs = _primitive_rows(eqs)
    if not normals and not eqs:
        return (), identity(dim)
    lin = integer_kernel(normals + eqs)
    fixed = lin + hnf_basis(eqs) if eqs else lin
    return tuple(_pointed_extreme_rays(normals, dim, fixed)), lin


def _canonical(rows, d, eqs=()):
    """Both canonical descriptions of the cone {x in R^d : r . x >= 0, e . x = 0}.

    H -> V, then V -> H with the lineality as equations: returns
    ((rays, lineality), (normals, equation normals)).  By duality, generators
    and lineality in place of normals and equations give the H-description
    first.
    """
    rays, lin = _h_cone_generators(rows, d, eqs)
    return (rays, lin), _h_cone_generators(rays, d, eqs=lin)


def _homogenised_vrep(n, eqs, ineqs):
    """H -> V half of Polyhedron.from_constraints for {x in R^n : a . x >= b, e . x = c}.

    Returns the canonical rays and lineality of the homogenisation in
    R^(n+1), last coordinate t, or None when the polyhedron is empty.
    """
    # a row with a zero normal is vacuous or, on its own, infeasible
    if any(b > 0 for a, b in ineqs if not any(a)) or any(b != 0 for a, b in eqs if not any(a)):
        return None
    rows = [primitive(_integral((*a, -b)))[0] for a, b in ineqs if any(a)]
    rows.append(tuple([0] * n + [1]))  # t >= 0
    eq_rows = [primitive(_integral((*a, -b)))[0] for a, b in eqs if any(a)]
    rays, lin = _h_cone_generators(rows, n + 1, eq_rows)
    if all(r[n] == 0 for r in rays):
        return None
    return rays, lin


def _dehomogenised_vkey(n, rays_h, lin_h):
    """V-data key (gens, lineality) of P from the canonical V-data of its homogenisation.

    Vertex generators are ordered as their points p/q: scaled to the common
    denominator D, p (D/q) orders as p/q does.
    """
    verts = [g for g in rays_h if g[n]]
    den = math.lcm(*(g[n] for g in verts))
    verts.sort(key=lambda g: tuple(x * (den // g[n]) for x in g[:n]))
    # t >= 0 (or t = 1 on every vertex generator) gives every lineality vector t = 0
    return tuple(verts) + tuple(sorted(g for g in rays_h if not g[n])), tuple(l[:n] for l in lin_h)


def _vrep_quotient(n, gens, lineality):
    """Z^n over the integer directions of aff(P), P given by its V-data key.

    The spanning vectors are the rays, the lineality, then for each vertex
    p/q after the first p0/q0 the primitive q0 p - q p0, along v - v0.
    """
    vecs = [g[:n] for g in gens if not g[n]] + list(lineality)
    vecs += [primitive(_direction(n, gens[0], g))[0] for g in gens[1:] if g[n]]
    if not vecs:
        return QuotientLattice(n, (), identity(n))
    return saturate_and_complete(vecs)


def _direction(n, g0, g):
    """First n entries of q0 g - g[n] g0, g0 = (p0, q0) a vertex generator.

    A positive multiple of r for a ray g = (r, 0) and of v - v0 for a vertex.
    """
    q0, t = g0[n], g[n]
    return tuple(q0 * x - t * y for x, y in zip(g[:n], g0[:n]))


def _face_data_of(P, gens):
    """Facets of the face F of P on gens, as V-data keys (gens, lineality).

    Each inequality h of P is >= 0 on F, so F's generators on h = 0 (h's
    on-set) are the canonical generators of the face F cap {h = 0}, which is
    nonempty exactly when the on-set holds a vertex generator (last entry
    > 0) and proper exactly when the on-set misses one of F's generators.
    The facets of F are the inclusion-maximal proper nonempty on-sets, so no
    rank test is needed:

    - a facet G of F is a face of P, the intersection of P's facets that
      contain it, and one of those, on h = 0, does not contain F (else F
      would lie in G); F cap {h = 0} is then a proper face of F containing
      G, which is G;
    - every proper nonempty on-set is a face of F, so it lies in a facet
      of F.

    Facets come in the order of their first on-set among P's inequalities.
    The V-data of a face is a subset of the parent's canonical generators,
    so it is canonical too.
    """
    # sets of generators as bit masks: bit i stands for gens[i]
    full = (1 << len(gens)) - 1
    verts = sum(1 << i for i, g in enumerate(gens) if g[-1])
    on_sets = {}
    for h in P._rows()[: len(P.ineqs)]:
        on = 0
        for i, g in enumerate(gens):
            if not sum(map(mul, h, g)):
                on |= 1 << i
        if on != full and on & verts:
            on_sets[on] = None
    return [
        (tuple(g for i, g in enumerate(gens) if on >> i & 1), P.lineality)
        for on in on_sets
        if not any(o != on and on & o == on for o in on_sets)
    ]


# ---------------------------------------------------------------------------
# rational polyhedra and cones


class Polyhedron:
    """Rational polyhedron with canonical H- and V-descriptions.

    eqs and ineqs are (normal, rhs) pairs of integers meaning a.x = b and
    a.x >= b.  The eqs are the Hermite basis of the homogenised equation
    lattice, so two nonempty polyhedra have the same affine hull exactly when
    their eqs are equal.  gens are the canonical generators of the
    homogenisation (see the module docstring) and lineality the primitive
    integer basis of the lineality space.  vertices (exact rationals) and
    rays are views of gens.
    """

    def __init__(self, ambient_dim, eqs, ineqs, gens, lineality):
        n = ambient_dim
        self.ambient_dim = n
        self.eqs = eqs
        self.ineqs = ineqs
        self.gens = gens
        self.lineality = lineality
        self.vertices = tuple(tuple(Fraction(x, g[n]) for x in g[:n]) for g in gens if g[n])
        self.rays = tuple(g[:n] for g in gens if not g[n])
        self.key = (n, self.vertices, self.rays, lineality)
        self._quotient = None
        self._faces = None
        self._row_cache = None

    # -- construction

    @classmethod
    def from_constraints(cls, ambient_dim, eqs=(), ineqs=()):
        n = ambient_dim
        eqs, ineqs = tuple(eqs), tuple(ineqs)
        _check_dims(n, [a for a, _ in eqs + ineqs])
        if all(b == 0 for _, b in eqs + ineqs):  # a cone: converted in dimension n
            return cls._from_normals(n, [a for a, _ in ineqs], [a for a, _ in eqs])
        vrep = _homogenised_vrep(n, eqs, ineqs)
        if vrep is None:
            return cls._empty(n)
        return cls._dehomogenise(n, vrep, _h_cone_generators(vrep[0], n + 1, eqs=vrep[1]))

    @classmethod
    def from_generators(cls, ambient_dim, vertices=(), rays=(), lineality=()):
        _check_dims(ambient_dim, [*vertices, *rays, *lineality])
        if not vertices:
            return cls._empty(ambient_dim)
        gens = [_integral((*v, 1)) for v in vertices]
        gens += [_integral(r) + (0,) for r in rays]
        lin = [_integral(l) + (0,) for l in lineality]
        hrep, vrep = _canonical(gens, ambient_dim + 1, eqs=lin)
        return cls._dehomogenise(ambient_dim, vrep, hrep)

    @classmethod
    def _from_normals(cls, n, ineq_normals, eq_normals):
        """The cone {x in R^n : a . x >= 0, e . x = 0}, converted in dimension n."""
        ineq_normals = [_integral(a) for a in ineq_normals]
        eq_normals = [_integral(e) for e in eq_normals]
        vrep, hrep = _canonical(ineq_normals, n, eqs=eq_normals)
        return cls._through_origin(n, vrep, hrep)

    @classmethod
    def _through_origin(cls, n, vrep, hrep):
        """A cone from the canonical descriptions of itself in R^n (no homogenising)."""
        (rays, lin), (normals, eq_normals) = vrep, hrep
        eqs = tuple(sorted((a, 0) for a in eq_normals))
        ineqs = tuple(sorted((a, 0) for a in normals))
        return cls(n, eqs, ineqs, _cone_gens(n, rays), lin)

    @classmethod
    def _empty(cls, ambient_dim):
        zero = tuple([0] * ambient_dim)
        return cls(ambient_dim, ((zero, 1),), (), (), ())

    @classmethod
    def _dehomogenise(cls, n, vrep, hrep):
        """P from the canonical descriptions of its homogenisation (last coordinate t)."""
        # an equation (0, ..., 0, c) of a nonempty P has c = 0
        ineq_h, eq_h = hrep
        ineqs = [(a[:n], -a[n]) for a in ineq_h if not is_zero_vector(a[:n])]  # drops t >= 0
        eqs = [(a[:n], -a[n]) for a in eq_h if not is_zero_vector(a[:n])]
        return cls(n, tuple(sorted(eqs)), tuple(sorted(ineqs)), *_dehomogenised_vkey(n, *vrep))

    # -- queries

    @property
    def is_empty(self):
        return not self.gens

    @property
    def dim(self):
        # eqs is a basis of the affine hull's equations: n - dim independent rows
        return -1 if self.is_empty else self.ambient_dim - len(self.eqs)

    def quotient(self):
        """Z^n over the integer directions of aff(P), as a QuotientLattice."""
        if self._quotient is None:
            self._quotient = _vrep_quotient(self.ambient_dim, *self.vkey())
        return self._quotient

    def direction_basis(self):
        """Saturated integer basis of the linear space parallel to aff(P)."""
        return self.quotient().sublattice_basis

    def contains(self, x):
        return all(dot(a, x) == b for a, b in self.eqs) and all(
            dot(a, x) >= b for a, b in self.ineqs
        )

    def vkey(self):
        return (self.gens, self.lineality)

    def _rows(self):
        """Each inequality a.x >= b as the row (a, -b) of R^(n+1), then each equation once per sign.

        A row's sign on a generator is one integer dot product: on (p, q) it
        is the sign of a.(p/q) - b, on (r, 0) that of a.r.
        """
        if self._row_cache is None:
            rows = [(*a, -b) for a, b in self.ineqs]
            rows += [row for a, b in self.eqs for row in ((*a, -b), (*vec_neg(a), b))]
            self._row_cache = rows
        return self._row_cache

    def face_vkeys(self):
        """V-data keys of all faces (the polyhedron itself included)."""
        if self._faces is None:
            seen = {self.vkey()}
            frontier = [self.vkey()]
            while frontier:
                nxt = []
                for gens, _ in frontier:
                    for sub in _face_data_of(self, gens):
                        if sub not in seen:
                            seen.add(sub)
                            nxt.append(sub)
                frontier = nxt
            self._faces = seen
        return self._faces

    def _face(self, gens):
        """The face on a subset of our canonical generators, by one V -> H conversion."""
        n = self.ambient_dim
        lin = [(*l, 0) for l in self.lineality]
        return Polyhedron._dehomogenise(n, (gens, lin), _h_cone_generators(gens, n + 1, eqs=lin))

    def faces(self):
        """All faces, the polyhedron itself included, by decreasing dimension then key."""
        return _faces_of([self])

    def intersect(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise PolyhedralError("mixed ambient dimensions")
        if isinstance(self, Cone) and isinstance(other, Cone):  # stays in dimension n
            return Cone.from_constraints(
                self.ineq_normals + other.ineq_normals,
                self.eq_normals + other.eq_normals,
                self.ambient_dim,
            )
        return Polyhedron.from_constraints(
            self.ambient_dim, eqs=self.eqs + other.eqs, ineqs=self.ineqs + other.ineqs
        )

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.is_empty:
            return "Polyhedron(empty)"
        return (
            f"{type(self).__name__}(vertices={list(self.vertices)}, rays={list(self.rays)},"
            f" lineality={list(self.lineality)})"
        )


class Cone(Polyhedron):
    """Rational polyhedral cone: the Polyhedron whose only vertex is the origin.

    Its descriptions are computed in the ambient dimension itself, without
    homogenising; every equation and inequality has right-hand side 0.
    """

    @classmethod
    def from_generators(cls, generators, ambient_dim=None, lineality=()):
        gens = [primitive(_integral(g))[0] for g in generators if not is_zero_vector(g)]
        lin = [primitive(_integral(l))[0] for l in lineality if not is_zero_vector(l)]
        if ambient_dim is None:
            if not gens and not lin:
                raise PolyhedralError("ambient dimension required for the zero cone")
            ambient_dim = len((gens + lin)[0])
        _check_dims(ambient_dim, gens + lin)
        hrep, vrep = _canonical(gens, ambient_dim, eqs=lin)
        return cls._through_origin(ambient_dim, vrep, hrep)

    @classmethod
    def from_constraints(cls, ineq_normals, eq_normals, ambient_dim):
        _check_dims(ambient_dim, [*ineq_normals, *eq_normals])
        return cls._from_normals(ambient_dim, ineq_normals, eq_normals)

    @property
    def ineq_normals(self):
        return tuple(a for a, _ in self.ineqs)

    @property
    def eq_normals(self):
        return tuple(a for a, _ in self.eqs)

    @property
    def is_pointed(self):
        return not self.lineality

    def _face(self, gens):
        rays = tuple(g[:-1] for g in gens if not g[-1])
        hrep = _h_cone_generators(rays, self.ambient_dim, eqs=self.lineality)
        return Cone._through_origin(self.ambient_dim, (rays, self.lineality), hrep)


def _check_dims(n, vectors):
    """Raise unless n is a supported ambient dimension and every vector has n entries."""
    if not 0 <= n <= MAX_AMBIENT_DIM:
        raise PolyhedralError("ambient dimension unsupported")
    if any(len(v) != n for v in vectors):
        raise PolyhedralError("mixed ambient dimensions")


def _cone_gens(n, rays):
    """Canonical generators of a cone: the origin (0, ..., 0, 1), then each ray r as (r, 0)."""
    return ((0,) * n + (1,),) + tuple((*r, 0) for r in rays)


def _facet_owners(cells):
    """V-data key of each facet of the cells -> indices of the cells it bounds."""
    owners = {}
    for i, cell in enumerate(cells):
        for k in _face_data_of(cell, cell.gens):
            owners.setdefault(k, []).append(i)
    return owners


def _faces_of(members):
    """Every face of the members, each built once, by decreasing dimension then key."""
    owners = {}
    for P in members:
        for k in P.face_vkeys():
            owners.setdefault(k, P)
    faces = [P if k == P.vkey() else P._face(k[0]) for k, P in owners.items()]
    return sorted(faces, key=lambda f: (-f.dim, f.key))


def _sign_test(P, Q):
    """Which sign test on a row of P settles the pair P, Q, or None.

    A row a.x >= b of P (an equation gives two) with Q in a.x <= b puts
    P cap Q on the hyperplane a.x = b.  The pair is disjoint when no vertex
    of Q ("separated") or of P ("misses") is on it; otherwise P cap Q is the
    intersection of the two faces it exposes, a common face when their V-data
    keys are equal ("common face").
    """
    for h in P._rows():
        signs = [dot(h, g) for g in Q.gens]
        if any(s > 0 for s in signs) or any(dot(h, (*l, 0)) for l in Q.lineality):
            continue
        on_q = tuple(g for g, s in zip(Q.gens, signs) if not s)
        if not any(g[-1] for g in on_q):
            return "separated"
        on_p = tuple(g for g in P.gens if not dot(h, g))
        if not any(g[-1] for g in on_p):
            return "misses"
        if (on_p, P.lineality) == (on_q, Q.lineality):
            return "common face"
    return None


def _subset(P, Q):
    """Whether P lies in Q: every row of Q is >= 0 on P's generators and 0 on its lineality."""
    gens = P.gens + tuple((*s, 0) for l in P.lineality for s in (l, vec_neg(l)))
    return all(dot(h, g) >= 0 for h in Q._rows() for g in gens)


def _meet_vkey(P, Q):
    """V-data key of P cap Q by one H -> V conversion, or None when it is empty."""
    n = P.ambient_dim
    if isinstance(P, Cone) and isinstance(Q, Cone):  # stays in dimension n
        normals, eq_normals = P.ineq_normals + Q.ineq_normals, P.eq_normals + Q.eq_normals
        rays, lin = _h_cone_generators(normals, n, eq_normals)
        return _cone_gens(n, rays), lin
    vrep = _homogenised_vrep(n, P.eqs + Q.eqs, P.ineqs + Q.ineqs)
    return None if vrep is None else _dehomogenised_vkey(n, *vrep)


def _is_face(P, k):
    """Whether the V-data key k of a nonempty subset of P is a face of P.

    The inequalities of P tight on all of k's generators cut out the
    smallest face of P containing k; k is a face iff that face's key is k.
    """
    tight = [h for h in P._rows()[: len(P.ineqs)] if not any(dot(h, g) for g in k[0])]
    face = tuple(g for g in P.gens if not any(dot(h, g) for h in tight))
    return (face, P.lineality) == k


def _check_common_faces(members, kind):
    """Raise unless every two members are disjoint or meet in a common face.

    A pair that a row of either member settles by sign tests costs no
    conversion; any other pair gets one H -> V conversion of P cap Q, whose
    V-data is then tested as an exposed face of both members.
    """
    for (i, P), (j, Q) in itertools.combinations(enumerate(members), 2):
        if _sign_test(P, Q) or _sign_test(Q, P):
            continue
        k = _meet_vkey(P, Q)
        if k is not None and not (_is_face(P, k) and _is_face(Q, k)):
            raise PolyhedralError(f"{kind} do not intersect in a common face (members {i} and {j})")


# ---------------------------------------------------------------------------
# fans


class Fan:
    """Finite collection of cones closed under faces with face-compatible intersections.

    Of a nonempty list of cones only the maximal ones are stored, one per key
    and sorted by it; faces are generated on demand.  validate checks that
    every two maximal cones meet in a common face (see the module docstring
    for which pairs get a conversion); a failure names the pair by its
    indices in maximal_cones.
    """

    def __init__(self, cones, ambient_dim=None, validate=True):
        cones = list(cones)
        if not all(isinstance(c, Cone) for c in cones):
            raise PolyhedralError("fan members must be cones")
        if not cones:
            raise PolyhedralError("a fan needs at least one cone")
        cones = list({c.key: c for c in cones}.values())
        ambient_dim = cones[0].ambient_dim if ambient_dim is None else ambient_dim
        if any(c.ambient_dim != ambient_dim for c in cones):
            raise PolyhedralError("mixed ambient dimensions")
        maximal = [c for c in cones if not any(o is not c and _subset(c, o) for o in cones)]
        self.ambient_dim = ambient_dim
        self.maximal_cones = tuple(sorted(maximal, key=lambda c: c.key))
        if validate:
            _check_common_faces(self.maximal_cones, "cones")

    def all_cones(self):
        """Face closure, sorted by decreasing dimension then key."""
        return _faces_of(self.maximal_cones)

    def support_contains(self, v):
        return any(c.contains(v) for c in self.maximal_cones)

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.ambient_dim == other.ambient_dim
            and tuple(c.key for c in self.maximal_cones) == tuple(c.key for c in other.maximal_cones)
        )

    def __repr__(self):
        return f"Fan({len(self.maximal_cones)} maximal cones in R^{self.ambient_dim})"


def common_refinement(A: Fan, B: Fan) -> Fan:
    """Fan of all pairwise intersections; its support is |A| intersect |B|."""
    if A.ambient_dim != B.ambient_dim:
        raise PolyhedralError("mismatched ambient dimensions")
    if A.ambient_dim > MAX_AMBIENT_DIM:
        raise PolyhedralError("ambient dimension unsupported")
    pieces = [c1.intersect(c2) for c1 in A.maximal_cones for c2 in B.maximal_cones]
    return Fan(pieces, A.ambient_dim, validate=False)


def is_unimodular(x) -> bool:
    """Whether the cone's rays (or those of every cone of a fan) extend to a Z-basis.

    k integer vectors extend to a Z-basis iff their maximal (k x k) minors
    have gcd 1; dependent vectors have only zero minors.
    """
    if isinstance(x, Fan):  # a face's rays are a subset of its cone's rays
        return all(is_unimodular(c) for c in x.maximal_cones)
    if not isinstance(x, Cone):
        raise PolyhedralError("expected a Cone or Fan")
    if not x.is_pointed:
        raise PolyhedralError("unimodularity is defined for pointed cones")
    if not x.rays:
        return True
    minors = (
        _det([[r[j] for j in cols] for r in x.rays])
        for cols in itertools.combinations(range(x.ambient_dim), len(x.rays))
    )
    return math.gcd(*minors) == 1


def is_complete(F: Fan) -> bool:
    """Support = R^n test by the two-owner rule.

    A fan is complete iff it has a full-dimensional cone and every facet of
    its full-dimensional cones bounds exactly two of them: their union is
    then a closed pseudomanifold around the origin, which can only be R^n.
    """
    n = F.ambient_dim
    if n > MAX_AMBIENT_DIM:
        raise PolyhedralError("ambient dimension unsupported")
    full = [c for c in F.maximal_cones if c.dim == n]
    return bool(full) and all(len(o) == 2 for o in _facet_owners(full).values())


# ---------------------------------------------------------------------------
# weighted complexes and balancing


class WeightedComplex:
    """Pure-dimensional rational cells with nonzero integer weights.

    Only maximal cells are stored, equal cells once with their weights
    summed (a zero sum drops the cell); codimension-one faces are generated
    on demand.  Cells must pairwise intersect in common faces; validate
    checks it as Fan does and names a failing pair by its indices in cells.
    """

    def __init__(self, ambient_dim, dim, cells, validate=True):
        kept = []
        for cell, w in sorted(cells, key=lambda cw: cw[0].key):
            w = int(w)
            if w == 0 or cell.is_empty:
                continue
            if cell.ambient_dim != ambient_dim:
                raise PolyhedralError("mixed ambient dimensions")
            if cell.dim != dim:
                raise PolyhedralError("complex is not pure-dimensional")
            if kept and kept[-1][0].vkey() == cell.vkey():  # equal cells are adjacent
                w += kept.pop()[1]
            kept.append((cell, w))
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.cells = tuple(cw for cw in kept if cw[1])
        if validate:
            _check_common_faces([c for c, _ in self.cells], "cells")

    @classmethod
    def from_cone_cells(cls, ambient_dim, dim, ray_weight_pairs, validate=True):
        cells = [(Cone.from_generators(rays, ambient_dim), w) for rays, w in ray_weight_pairs]
        return cls(ambient_dim, dim, cells, validate=validate)

    @property
    def is_empty(self):
        return not self.cells

    def support_contains(self, x):
        return any(c.contains(x) for c, _ in self.cells)

    def scale(self, k):
        k = int(k)
        return WeightedComplex(
            self.ambient_dim, self.dim, [(c, k * w) for c, w in self.cells], validate=False
        )

    def __eq__(self, other):
        return (
            isinstance(other, WeightedComplex)
            and self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and tuple((c.key, w) for c, w in self.cells)
            == tuple((c.key, w) for c, w in other.cells)
        )

    def __repr__(self):
        return f"WeightedComplex(dim={self.dim}, cells={len(self.cells)})"


class BalancingReport:
    """Outcome of the balancing check: balanced iff violations is empty."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        self.balanced = not self.violations

    def __repr__(self):
        state = "balanced" if self.balanced else f"{len(self.violations)} violations"
        return f"BalancingReport({state})"


def check_balancing(C: WeightedComplex) -> BalancingReport:
    """Check sum_{sigma > tau} w_sigma u_{sigma/tau} = 0 in Z^n/(H_tau cap Z^n).

    Runs at every codimension-one cell tau of the complex, summing in the
    coordinates of one quotient lattice per tau; each violation carries tau
    and that sum, the residual class.  u_{sigma/tau} is read off the first
    generator g of sigma outside tau: tau is cut from sigma by a supporting
    hyperplane, which every other generator lies strictly above, so the
    direction of g from a vertex generator of tau (`_direction`) points to
    the sigma side.  Violations come sorted by tau's key.
    """
    if not isinstance(C, WeightedComplex):
        raise PolyhedralError("expected a WeightedComplex")
    owners = _facet_owners([cell for cell, _ in C.cells])
    violations = []
    n = C.ambient_dim
    for (gens, lin), incident in owners.items():
        quotient = _vrep_quotient(n, gens, lin)
        residual = (0,) * quotient.quotient_rank
        for cell, w in (C.cells[i] for i in incident):
            off = next(g for g in cell.gens if g not in gens)
            u = quotient_outward_generator(quotient, _direction(n, gens[0], off))
            residual = tuple(r + w * x for r, x in zip(residual, u))
        if any(residual):
            violations.append((C.cells[incident[0]][0]._face(gens), residual))
    return BalancingReport(sorted(violations, key=lambda v: v[0].key))


def _split_cell(cell, halfspaces, p):
    """Refine a cell by halfspaces (a, b); keep the dimension-p fragments."""
    frags = [cell]
    for a, b in halfspaces:
        h = (*a, -b)
        nxt = []
        for f in frags:
            signs = [dot(h, g) for g in f.gens]
            crossed = any(s > 0 for s in signs) and any(s < 0 for s in signs)
            if not (crossed or any(dot(h, (*l, 0)) for l in f.lineality)):
                nxt.append(f)
                continue
            for side in (1, -1):
                piece = Polyhedron.from_constraints(
                    f.ambient_dim,
                    eqs=f.eqs,
                    ineqs=tuple(f.ineqs) + ((tuple(side * x for x in a), side * b),),
                )
                if piece.dim == p:
                    nxt.append(piece)
        frags = nxt
    return frags


def add_cycles(C1: WeightedComplex, C2: WeightedComplex) -> WeightedComplex:
    """Sum of weighted complexes on a common refinement of their supports."""
    if C1.ambient_dim != C2.ambient_dim:
        raise PolyhedralError("dimension mismatch")
    if not C1.is_empty and not C2.is_empty and C1.dim != C2.dim:
        raise PolyhedralError("dimension mismatch")
    if C1.is_empty:
        return C2
    if C2.is_empty:
        return C1
    n, p = C1.ambient_dim, C1.dim

    def cuts_for(cell, others):
        # cells with equal (canonical) eqs share their affine hull
        cuts = []
        for other, _ in others:
            if other.eqs == cell.eqs:
                cuts.extend(other.ineqs)
            else:
                for a, b in other.eqs:
                    cuts.append((a, b))
                    cuts.append((vec_neg(a), -b))
        return cuts

    # a fragment was cut by the inequalities of the other's cells on its hull: in each or not
    out = []
    for c1, w1 in C1.cells:
        for frag in _split_cell(c1, cuts_for(c1, C2.cells), p):
            w = w1 + sum(w2 for c2, w2 in C2.cells if c2.eqs == c1.eqs and _subset(frag, c2))
            out.append((frag, w))
    for c2, w2 in C2.cells:
        for frag in _split_cell(c2, cuts_for(c2, C1.cells), p):
            if any(c1.eqs == c2.eqs and _subset(frag, c1) for c1, _ in C1.cells):
                continue  # already counted from the C1 side
            out.append((frag, w2))
    return WeightedComplex(n, p, out)
