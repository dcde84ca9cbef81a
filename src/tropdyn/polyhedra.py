"""Exact rational polyhedral geometry: polyhedra, cones, fans, weighted complexes.

All combinatorics run over exact arithmetic (Python ints plus Fractions for
vertices), so tie decisions never depend on rounding.  There is one polyhedron
type: a `Cone` is the `Polyhedron` whose only vertex is the origin.  V- and
H-descriptions are kept canonical: extreme rays are primitive and orthogonal
to the lineality space, lineality lattices are stored in Hermite normal form,
vertices are sorted Fractions.  Equal sets therefore compare equal as tuples.

Conversions between descriptions use brute-force extreme-ray enumeration
(kernels of row subsets via signed maximal minors), exact and comfortably
fast for the ambient dimensions this engine supports (<= MAX_AMBIENT_DIM).
Equations and lineality are fixed rows of every kernel; the subsets are drawn
from the inequalities only.  Cones are converted in their ambient dimension;
other polyhedra are homogenised one dimension higher.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .lattice import (
    dot,
    hnf_basis,
    identity,
    integer_kernel,
    is_zero_vector,
    primitive,
    quotient_outward_generator,
    rank_int,
    saturate_and_complete,
    smith_normal_form,
    solve_rational,
    vec_neg,
    vec_sub,
)

MAX_AMBIENT_DIM = 4


class PolyhedralError(ValueError):
    """Raised on invalid polyhedral input (dimension caps, non-fans, ...)."""


# ---------------------------------------------------------------------------
# small exact kernels


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _cross_kernel(rows, d):
    """Kernel direction of (d-1) x d integer rows via signed maximal minors.

    Returns None when the rows are rank-deficient (kernel not 1-dimensional).
    """
    v = []
    for i in range(d):
        minor = [row[:i] + row[i + 1:] for row in rows]
        v.append((-1) ** i * _det(minor))
    if all(x == 0 for x in v):
        return None
    return primitive(v)[0]


def _project_off(v, lin):
    """Orthogonal projection of v onto the rational complement of span(lin)."""
    if not lin:
        return tuple(Fraction(x) for x in v)
    gram = [[dot(a, b) for b in lin] for a in lin]
    rhs = tuple(sum(Fraction(l[i]) * Fraction(v[i]) for i in range(len(v))) for l in lin)
    y = solve_rational(gram, rhs)
    return tuple(
        Fraction(v[i]) - sum(y[j] * lin[j][i] for j in range(len(lin)))
        for i in range(len(v))
    )


def _integral(v):
    """A rational vector times the lcm of its denominators: an integer vector."""
    v = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in v))
    return tuple(int(x * den) for x in v)


def _frac_primitive(v):
    """Primitive integer vector with the direction of a rational vector."""
    return primitive(_integral(v))[0]


def _pointed_extreme_rays(rows, d, fixed=()):
    """Extreme rays of the pointed cone {y in R^d : r . y >= 0, e . y = 0}.

    r runs over rows and e over the independent fixed rows (equations and
    lineality); every ray spans the kernel of the fixed rows plus
    d - 1 - len(fixed) of the rows.  With no room left the cone is {0}.
    """
    k = d - 1 - len(fixed)
    if k < 0:
        return []
    found = {}
    for S in itertools.combinations(rows, k):
        v = _cross_kernel(list(fixed) + list(S), d)
        if v is None or v in found or vec_neg(v) in found:
            continue
        prods = [dot(r, v) for r in rows]
        if all(p >= 0 for p in prods):
            found[v] = True
        elif all(p <= 0 for p in prods):
            found[vec_neg(v)] = True
    return sorted(found)


def _h_cone_generators(normals, dim, eqs=()):
    """Canonical extreme rays and lineality of {x : a . x >= 0, e . x = 0}.

    a runs over normals and e over eqs; with neither the whole space comes
    back as pure lineality.  Rays are primitive and orthogonal to the
    lineality space L: they are the extreme rays of the pointed cone cut by
    L . x = 0, which are the orthogonal projections of the cone's rays.  L
    and the equations are the fixed rows (independent, as L is orthogonal to
    the equations' span), so subsets come from the inequalities only.  The
    lineality basis is in Hermite normal form.
    """
    normals = list(dict.fromkeys(primitive(a)[0] for a in normals if not is_zero_vector(a)))
    eqs = list(dict.fromkeys(primitive(e)[0] for e in eqs if not is_zero_vector(e)))
    if not normals and not eqs:
        return (), identity(dim)
    lin = hnf_basis(integer_kernel(normals + eqs))
    return tuple(_pointed_extreme_rays(normals, dim, fixed=lin + hnf_basis(eqs))), lin


def _canonical(rows, d, eqs=(), is_empty=None):
    """Both canonical descriptions of the cone {x in R^d : r . x >= 0, e . x = 0}.

    H -> V, then V -> H with the lineality as equations: returns
    ((rays, lineality), (normals, equation normals)).  By duality, generators
    and lineality in place of normals and equations give the H-description
    first.  When is_empty accepts the rays, None comes back before the second
    conversion.
    """
    rays, lin = _h_cone_generators(rows, d, eqs)
    if is_empty is not None and is_empty(rays):
        return None
    return (rays, lin), _h_cone_generators(rays, d, eqs=lin)


def _vrep_dim(vertices, rays, lineality):
    if not vertices and not rays and not lineality:
        return -1
    vecs = list(rays) + list(lineality)
    if vertices:
        v0 = vertices[0]
        vecs += [vec_sub(v, v0) for v in vertices[1:]]
    if not vecs:
        return 0
    return rank_int(vecs)


def _vrep_relint(vertices, rays):
    n = len(vertices[0]) if vertices else len(rays[0])
    pt = [Fraction(0)] * n
    for v in vertices:
        for i in range(n):
            pt[i] += Fraction(v[i])
    k = len(vertices) if vertices else 1
    pt = [x / k for x in pt]
    for r in rays:
        for i in range(n):
            pt[i] += r[i]
    return tuple(pt)


def _vrep_direction_basis(vertices, rays, lineality):
    vecs = [tuple(r) for r in rays] + [tuple(l) for l in lineality]
    if vertices:
        v0 = vertices[0]
        for v in vertices[1:]:
            diff = vec_sub(v, v0)
            if not is_zero_vector(diff):
                vecs.append(_frac_primitive(diff))
    vecs = [v for v in vecs if not is_zero_vector(v)]
    if not vecs:
        return ()
    return saturate_and_complete(vecs).sublattice_basis


def _face_data_of(vertices, rays, lineality, parent_ineqs):
    """Codim-one faces of a face given by active V-data, cut by the parent's inequalities.

    Returns the V-data keys (vertices, rays, lineality) of those faces.  The
    V-data of a face is a subset of the parent's canonical generators, so it
    is canonical too.
    """
    out = {}
    p = _vrep_dim(vertices, rays, lineality)
    for a, b in parent_ineqs:
        verts = tuple(v for v in vertices if dot(a, v) == b)
        rs = tuple(r for r in rays if dot(a, r) == 0)
        if not verts or (verts, rs) == (vertices, rays):
            continue
        if _vrep_dim(verts, rs, lineality) != p - 1:
            continue
        out[(verts, rs, lineality)] = True
    return list(out)


# ---------------------------------------------------------------------------
# rational polyhedra and cones


class Polyhedron:
    """Rational polyhedron with canonical H- and V-descriptions.

    eqs and ineqs are (normal, rhs) pairs of integers meaning a.x = b and
    a.x >= b.  vertices are Fraction tuples; rays and lineality are primitive
    integer tuples, rays reduced modulo the lineality space.
    """

    def __init__(self, ambient_dim, eqs, ineqs, vertices, rays, lineality):
        self.ambient_dim = ambient_dim
        self.eqs = eqs
        self.ineqs = ineqs
        self.vertices = vertices
        self.rays = rays
        self.lineality = lineality
        self.key = (ambient_dim, vertices, rays, lineality)
        self._dim = None
        self._dirs = None
        self._faces = None

    # -- construction

    @classmethod
    def from_constraints(cls, ambient_dim, eqs=(), ineqs=()):
        if not 0 <= ambient_dim <= MAX_AMBIENT_DIM:
            raise PolyhedralError("ambient dimension unsupported")
        n, eqs, ineqs = ambient_dim, tuple(eqs), tuple(ineqs)
        # a row with a zero normal is vacuous or, on its own, infeasible
        if any(b > 0 for a, b in ineqs if not any(a)) or any(b != 0 for a, b in eqs if not any(a)):
            return cls._empty(n)
        rows = [_frac_primitive((*a, -Fraction(b))) for a, b in ineqs if any(a)]
        rows.append(tuple([0] * n + [1]))  # t >= 0
        eq_rows = [_frac_primitive((*a, -Fraction(b))) for a, b in eqs if any(a)]
        canon = _canonical(
            rows, n + 1, eqs=eq_rows, is_empty=lambda rays: all(r[n] == 0 for r in rays)
        )
        if canon is None:
            return cls._empty(n)
        vrep, hrep = canon
        return cls._dehomogenise(n, vrep, hrep)

    @classmethod
    def from_generators(cls, ambient_dim, vertices=(), rays=(), lineality=()):
        if not 0 <= ambient_dim <= MAX_AMBIENT_DIM:
            raise PolyhedralError("ambient dimension unsupported")
        if not vertices:
            return cls._empty(ambient_dim)
        gens = [_integral((*v, 1)) for v in vertices]
        gens += [tuple(int(x) for x in r) + (0,) for r in rays]
        lin = [tuple(int(x) for x in l) + (0,) for l in lineality]
        hrep, vrep = _canonical(gens, ambient_dim + 1, eqs=lin)
        return cls._dehomogenise(ambient_dim, vrep, hrep)

    @classmethod
    def _empty(cls, ambient_dim):
        zero = tuple([0] * ambient_dim)
        return cls(ambient_dim, ((zero, 1),), (), (), (), ())

    @classmethod
    def _dehomogenise(cls, n, vrep, hrep):
        """P from the canonical descriptions of its homogenisation (last coordinate t)."""
        (rays_h, lin_h), (ineq_h, eq_h) = vrep, hrep
        if any(l[n] != 0 for l in lin_h):
            raise PolyhedralError("unbounded homogenising coordinate")
        vertices = tuple(
            sorted(tuple(Fraction(x, r[n]) for x in r[:n]) for r in rays_h if r[n] > 0)
        )
        rec_rays = tuple(sorted(r[:n] for r in rays_h if r[n] == 0))
        lineality = tuple(l[:n] for l in lin_h)
        ineqs = [(a[:n], -a[n]) for a in ineq_h if not is_zero_vector(a[:n])]  # drops t >= 0
        eqs = []
        for a in eq_h:
            if is_zero_vector(a[:n]):
                if a[n] != 0:
                    raise PolyhedralError("inconsistent homogenisation")
                continue
            eqs.append((a[:n], -a[n]))
        return cls(n, tuple(sorted(eqs)), tuple(sorted(ineqs)), vertices, rec_rays, lineality)

    # -- queries

    @property
    def is_empty(self):
        return not self.vertices

    @property
    def dim(self):
        if self._dim is None:
            self._dim = _vrep_dim(self.vertices, self.rays, self.lineality)
        return self._dim

    def direction_basis(self):
        """Saturated integer basis of the linear space parallel to aff(P)."""
        if self._dirs is None:
            self._dirs = _vrep_direction_basis(self.vertices, self.rays, self.lineality)
        return self._dirs

    def relint_point(self):
        if self.is_empty:
            raise PolyhedralError("empty polyhedron has no relative interior")
        return _vrep_relint(self.vertices, self.rays)

    def contains(self, x):
        return all(dot(a, x) == b for a, b in self.eqs) and all(
            dot(a, x) >= b for a, b in self.ineqs
        )

    def vkey(self):
        return (self.vertices, self.rays, self.lineality)

    def face_vkeys(self):
        """V-data keys of all faces (the polyhedron itself included)."""
        if self._faces is None:
            seen = {self.vkey()}
            frontier = [self.vkey()]
            while frontier:
                nxt = []
                for k in frontier:
                    for sub in _face_data_of(*k, self.ineqs):
                        if sub not in seen:
                            seen.add(sub)
                            nxt.append(sub)
                frontier = nxt
            self._faces = seen
        return self._faces

    def _face(self, vertices, rays):
        """The face with these canonical generators, as the same kind of object."""
        return Polyhedron.from_generators(
            self.ambient_dim, vertices=vertices, rays=rays, lineality=self.lineality
        )

    def facets(self):
        return [self._face(v, r) for v, r, _ in _face_data_of(*self.vkey(), self.ineqs)]

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
        gens = [primitive(g)[0] for g in generators if not is_zero_vector(g)]
        lin = [primitive(l)[0] for l in lineality if not is_zero_vector(l)]
        if ambient_dim is None:
            if not gens and not lin:
                raise PolyhedralError("ambient dimension required for the zero cone")
            ambient_dim = len((gens + lin)[0])
        if not 0 <= ambient_dim <= MAX_AMBIENT_DIM:
            raise PolyhedralError("ambient dimension unsupported")
        if any(len(g) != ambient_dim for g in gens + lin):
            raise PolyhedralError("mixed ambient dimensions")
        hrep, vrep = _canonical(gens, ambient_dim, eqs=lin)
        return cls._through_origin(ambient_dim, vrep, hrep)

    @classmethod
    def from_constraints(cls, ineq_normals, eq_normals, ambient_dim):
        vrep, hrep = _canonical(ineq_normals, ambient_dim, eqs=eq_normals)
        return cls._through_origin(ambient_dim, vrep, hrep)

    @classmethod
    def _through_origin(cls, n, vrep, hrep):
        (rays, lin), (normals, eq_normals) = vrep, hrep
        eqs = tuple(sorted((a, 0) for a in eq_normals))
        ineqs = tuple(sorted((a, 0) for a in normals))
        return cls(n, eqs, ineqs, (tuple([Fraction(0)] * n),), rays, lin)

    @property
    def ineq_normals(self):
        return tuple(a for a, _ in self.ineqs)

    @property
    def eq_normals(self):
        return tuple(a for a, _ in self.eqs)

    @property
    def is_pointed(self):
        return not self.lineality

    def _face(self, vertices, rays):
        return Cone.from_generators(rays, self.ambient_dim, lineality=self.lineality)


def _faces_of(members):
    """Every face of the members, each built once, by decreasing dimension then key."""
    owners = {}
    for P in members:
        for k in P.face_vkeys():
            owners.setdefault(k, P)
    faces = [P if k == P.vkey() else P._face(*k[:2]) for k, P in owners.items()]
    return sorted(faces, key=lambda f: (-f.dim, f.key))


def _check_common_faces(members, kind):
    """Raise unless every two members are disjoint or meet in a common face."""
    for P, Q in itertools.combinations(members, 2):
        inter = P.intersect(Q)
        if inter.is_empty:
            continue
        k = inter.vkey()
        if k not in P.face_vkeys() or k not in Q.face_vkeys():
            raise PolyhedralError(f"{kind} do not intersect in a common face")


# ---------------------------------------------------------------------------
# fans


class Fan:
    """Finite collection of cones closed under faces with face-compatible intersections.

    Only maximal cones are stored; faces are generated on demand.
    """

    def __init__(self, maximal_cones, ambient_dim, validate=True):
        self.ambient_dim = ambient_dim
        self.maximal_cones = tuple(sorted(maximal_cones, key=lambda c: c.key))
        if validate:
            _check_common_faces(self.maximal_cones, "cones")

    @classmethod
    def from_cones(cls, cones, ambient_dim=None, validate=True):
        cones = list(cones)
        if not cones:
            raise PolyhedralError("a fan needs at least one cone")
        if ambient_dim is None:
            ambient_dim = cones[0].ambient_dim
        if any(c.ambient_dim != ambient_dim for c in cones):
            raise PolyhedralError("mixed ambient dimensions")
        cones = list({c.key: c for c in cones}.values())

        def inside(c, o):
            gens = c.rays + c.lineality + tuple(vec_neg(l) for l in c.lineality)
            return all(o.contains(g) for g in gens)

        maximal = [c for c in cones if not any(o is not c and inside(c, o) for o in cones)]
        return cls(maximal, ambient_dim, validate=validate)

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
    return Fan.from_cones(pieces, A.ambient_dim, validate=False)


def is_unimodular(x) -> bool:
    """Whether the cone's rays (or all cones of a fan) extend to a Z-basis."""
    if isinstance(x, Fan):
        return all(is_unimodular(c) for c in x.all_cones())
    if not isinstance(x, Cone):
        raise PolyhedralError("expected a Cone or Fan")
    if not x.is_pointed:
        raise PolyhedralError("unimodularity is defined for pointed cones")
    if not x.rays:
        return True
    snf = smith_normal_form(list(x.rays))
    factors = snf.invariant_factors
    return len(factors) == len(x.rays) and all(f == 1 for f in factors)


def is_complete(F: Fan) -> bool:
    """Support = R^n test via ridge pairing.

    A fan is complete iff it has a full-dimensional cone, every
    codimension-one cone is a facet of exactly two full-dimensional cones,
    and the full-dimensional cones are facet-connected.
    """
    n = F.ambient_dim
    if n > MAX_AMBIENT_DIM:
        raise PolyhedralError("ambient dimension unsupported")
    full = [c for c in F.maximal_cones if c.dim == n]
    if not full:
        return False
    owners = {}
    for idx, c in enumerate(full):
        for k in _face_data_of(*c.vkey(), c.ineqs):
            owners.setdefault(k, []).append(idx)
    ridges = {k for c in F.maximal_cones for k in c.face_vkeys() if _vrep_dim(*k) == n - 1}
    if any(len(owners.get(k, ())) != 2 for k in ridges):
        return False
    if any(len(v) != 2 for v in owners.values()):
        return False
    # facet connectivity
    adj = {i: set() for i in range(len(full))}
    for a, b in owners.values():
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == len(full)


# ---------------------------------------------------------------------------
# weighted complexes and balancing


class WeightedComplex:
    """Pure-dimensional rational cells with nonzero integer weights.

    Only maximal cells are stored; codimension-one faces are generated on
    demand.  Cells must pairwise intersect in common faces.
    """

    def __init__(self, ambient_dim, dim, cells, validate=True):
        kept = []
        for cell, w in cells:
            w = int(w)
            if w == 0 or cell.is_empty:
                continue
            if cell.ambient_dim != ambient_dim:
                raise PolyhedralError("mixed ambient dimensions")
            if cell.dim != dim:
                raise PolyhedralError("complex is not pure-dimensional")
            kept.append((cell, w))
        kept.sort(key=lambda cw: cw[0].key)
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.cells = tuple(kept)
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

    Runs at every codimension-one cell tau of the complex; each violation
    carries tau and the residual class in quotient coordinates.
    """
    if not isinstance(C, WeightedComplex):
        raise PolyhedralError("expected a WeightedComplex")
    groups = {}
    for cell, w in C.cells:
        for k in _face_data_of(*cell.vkey(), cell.ineqs):
            groups.setdefault(k, []).append((cell, w))
    violations = []
    n = C.ambient_dim
    for (verts, rays, lin), incident in sorted(groups.items()):
        tau_dirs = _vrep_direction_basis(verts, rays, lin)
        tau_pt = _vrep_relint(verts, rays)
        total = [0] * n
        for cell, w in incident:
            sample = vec_sub(cell.relint_point(), tau_pt)
            u = quotient_outward_generator(tau_dirs, cell.direction_basis(), sample)
            for i in range(n):
                total[i] += w * u[i]
        total = tuple(total)
        if tau_dirs:
            residual = saturate_and_complete(tau_dirs).quotient_coords(total)
        else:
            residual = total
        if any(residual):
            tau = Polyhedron.from_generators(n, vertices=verts, rays=rays, lineality=lin)
            violations.append((tau, residual))
    return BalancingReport(violations)


def _hull_key(cell: Polyhedron):
    """Canonical identifier of the affine hull: direction lattice + foot point."""
    dirs = hnf_basis(cell.direction_basis())
    foot = _project_off(cell.relint_point(), dirs) if dirs else cell.relint_point()
    return (dirs, tuple(Fraction(x) for x in foot))


def _split_cell(cell, halfspaces, p):
    """Refine a cell by halfspaces (a, b); keep the dimension-p fragments."""
    frags = [cell]
    for a, b in halfspaces:
        nxt = []
        for f in frags:
            vals = [dot(a, v) - b for v in f.vertices]
            dirvals = [dot(a, r) for r in f.rays] + [dot(a, l) for l in f.lineality] + [
                dot(a, vec_neg(l)) for l in f.lineality
            ]
            has_above = any(x > 0 for x in vals) or any(x > 0 for x in dirvals)
            has_below = any(x < 0 for x in vals) or any(x < 0 for x in dirvals)
            if not (has_above and has_below):
                nxt.append(f)
                continue
            for side in (1, -1):
                piece = Polyhedron.from_constraints(
                    f.ambient_dim,
                    eqs=f.eqs,
                    ineqs=tuple(f.ineqs) + ((tuple(side * x for x in a), side * b),),
                )
                if not piece.is_empty and piece.dim == p:
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
    hulls1 = [(_hull_key(c), c, w) for c, w in C1.cells]
    hulls2 = [(_hull_key(c), c, w) for c, w in C2.cells]

    def cuts_for(cell_hull, others):
        cuts = []
        for hk, other, _ in others:
            if hk == cell_hull:
                cuts.extend(other.ineqs)
            else:
                for a, b in other.eqs:
                    cuts.append((a, b))
                    cuts.append((vec_neg(a), -b))
        return cuts

    out = []
    for hk, c1, w1 in hulls1:
        for frag in _split_cell(c1, cuts_for(hk, hulls2), p):
            pt = frag.relint_point()
            w = w1 + sum(w2 for hk2, c2, w2 in hulls2 if hk2 == hk and c2.contains(pt))
            out.append((frag, w))
    for hk, c2, w2 in hulls2:
        for frag in _split_cell(c2, cuts_for(hk, hulls1), p):
            pt = frag.relint_point()
            if any(hk1 == hk and c1.contains(pt) for hk1, c1, _ in hulls1):
                continue  # already counted from the C1 side
            out.append((frag, w2))
    return WeightedComplex(n, p, out)
