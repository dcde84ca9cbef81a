"""Reference computations the tests compare the library against."""

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from tropdyn import dynamics, lattice
from tropdyn.lattice import (
    IntMatrix,
    IntVector,
    LatticeError,
    _as_int_vector,
    _det,
    _integral,
    dot,
    hnf_basis,
    identity,
    integer_kernel,
    is_zero_vector,
    primitive,
    rank_int,
    saturate_and_complete,
    solve_rational,
    vec_neg,
    vec_sub,
)
from tropdyn.polyhedra import (
    MAX_AMBIENT_DIM,
    Fan,
    PolyhedralError,
    Polyhedron,
    _check_dims,
    _h_cone_generators,
)
from tropdyn.dynamics import ALL_MODE_BUDGET, DynamicsError
from tropdyn.tropical import FLOAT_TIE_TOL, TropicalPolynomial, eval_tropical


def relint_point(P):
    """The mean of P's vertices plus the sum of its rays: a point of its relative interior."""
    if P.is_empty:
        raise PolyhedralError("empty polyhedron has no relative interior")
    k = len(P.vertices)
    return tuple(
        sum(v[i] for v in P.vertices) / k + sum(r[i] for r in P.rays) for i in range(P.ambient_dim)
    )


def contains(P, x):
    """Whether the point x lies in the polyhedron P: every equation and inequality holds exactly."""
    return all(dot(a, x) == b for a, b in P.eqs) and all(dot(a, x) >= b for a, b in P.ineqs)


def support_contains(X, x):
    """Whether x lies in a maximal cone of the Fan X, or in a cell of the WeightedComplex X."""
    members = X.maximal_cones if isinstance(X, Fan) else [cell for cell, _ in X.cells]
    return any(contains(P, x) for P in members)


def weyl_sum_bruteforce(m: int, nu) -> complex:
    """Direct summation over all root-of-unity tuples; oracle for `weyl_sum`."""
    nu = [int(x) for x in nu]
    total = 1.0 + 0j
    for nj in nu:
        total *= sum(cmath.exp(2j * cmath.pi * l * nj / m) for l in range(m))
    return total


def log_abs_power_pullback_scalar(f, x, theta, m: int) -> float:
    """log|f(z^m)| for z_j = exp(-x_j + i theta_j), one point at a time with cmath.

    Oracle for the batched `log_abs_power_pullback`, which must equal it bit
    for bit and mask exactly the points where this raises ZeroDivisionError.
    """
    parts = []
    for exp, coeff in f.terms:
        L = math.log(abs(coeff)) - m * fold_sum(e * xj for e, xj in zip(exp, x))
        ph = math.atan2(coeff.imag, coeff.real) + m * fold_sum(e * tj for e, tj in zip(exp, theta))
        parts.append((L, ph))
    top = max(L for L, _ in parts)
    val = fold_sum((cmath.exp(complex(L - top, ph)) for L, ph in parts), 0j)
    if abs(val) < 1e-280:
        raise ZeroDivisionError("hit a zero of f(z^m)")
    return top + math.log(abs(val))


def directed_hausdorff_bruteforce(A, B) -> float:
    """max over rows a of A of min over rows b of B of |a - b|, over all (N, M, d) pairs at once.

    Oracle for `directed_hausdorff`, which must equal it bit for bit.
    """
    d2 = ((A.points[:, None, :] - B.points[None, :, :]) ** 2).sum(axis=-1)
    return float(np.max(np.sqrt(np.min(d2, axis=1))))


def nearest_distances_bruteforce(P, Q, rows=64):
    """Distance from each row of P to the nearest row of Q, over all (rows, M, d) pairs of a block at once.

    Oracle for the exclusion in `dequantization_error`: its kept mask must
    equal `nearest_distances_bruteforce(pts, support) >= radius` bit for bit.
    """
    out = np.empty(len(P))
    for start in range(0, len(P), rows):
        d2 = ((P[start:start + rows, None, :] - Q[None, :, :]) ** 2).sum(axis=-1)
        out[start:start + rows] = np.sqrt(np.min(d2, axis=1))
    return out


def eval_tropical_float_scalar(q, x):
    """(value, argmax) of q at one float point, term by term in plain Python.

    Oracle for the batched float path of `eval_tropical`.
    """
    vals = [(fold_sum(float(xi) * e_i for xi, e_i in zip(x, e)) + float(c), e) for e, c in q.terms]
    top = max(v for v, _ in vals)
    tol = FLOAT_TIE_TOL * max(1.0, abs(top))
    return top, tuple(sorted(e for v, e in vals if top - v <= tol))


def fold_sum(values, start=0.0):
    """values added left to right to start, with no compensation.

    Oracle for `builtin_sum`.  The builtin sum() compensates floats from
    Python 3.12 on and complex numbers from 3.14 on, so the scalar oracles
    fold by hand to agree with the library on every interpreter.  Complex
    values fold from 0j: complex + complex adds part by part everywhere.
    """
    total = start
    for x in values:
        total = total + x
    return total


def integer_kernel_hermite(rows):
    """Saturated kernel basis of integer rows, from the Hermite form of [A^T | I_n] alone.

    Oracle for `integer_kernel`, which takes this route only when the kernel
    has rank 2 or more.
    """
    rows = [tuple(r) for r in rows if any(r)]
    m, n = len(rows), len(rows[0])
    aug = [tuple(r[j] for r in rows) + e for j, e in enumerate(identity(n))]
    return tuple(h[m:] for h in hnf_basis(aug) if not any(h[:m]))


def cross_kernel_laplace(rows, d):
    """Kernel direction of (d-1) x d integer rows via signed maximal minors.

    Every minor by _det's Laplace expansion.  Oracle for `_cross_kernel`,
    which must return the same vector, sign included, or None with it.
    """
    v = [_det([row[:i] + row[i + 1:] for row in rows]) for i in range(d)]
    v[1::2] = [-x for x in v[1::2]]
    if not any(v):
        return None
    return primitive(v)[0]


def independent_rows_full_bareiss(rows) -> list[int]:
    """Bareiss row selection that rewrites every column at each step.

    Oracle for `_independent_rows`, which must return the same indices in
    the same (pivot) order.
    """
    mat = [list(r) for r in rows]
    order = list(range(len(mat)))
    ncols = len(mat[0]) if mat else 0
    prev, k = 1, 0
    for col in range(ncols):
        if k == len(mat):
            break
        piv = next((i for i in range(k, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[k], mat[piv] = mat[piv], mat[k]
        order[k], order[piv] = order[piv], order[k]
        top = mat[k]
        p = top[col]
        for i in range(k + 1, len(mat)):
            a = mat[i][col]
            mat[i] = [(p * x - a * y) // prev for x, y in zip(mat[i], top)]
        prev = p
        k += 1
    return order[:k]


def pointed_extreme_rays_two_pass(rows, d, fixed=()):
    """Extreme rays of {y in R^d : r . y >= 0, e . y = 0}: every product, then two sign tests.

    Kernels by `cross_kernel_laplace`.  Oracle for `_pointed_extreme_rays`.
    """
    k = d - 1 - len(fixed)
    if k < 0:
        return []
    found = {}
    for S in itertools.combinations(rows, k):
        v = cross_kernel_laplace(list(fixed) + list(S), d)
        if v is None or v in found or vec_neg(v) in found:
            continue
        prods = [dot(r, v) for r in rows]
        if all(p >= 0 for p in prods):
            found[v] = True
        elif all(p <= 0 for p in prods):
            found[vec_neg(v)] = True
    return sorted(found)


def h_cone_generators_reference(normals, dim, eqs=()):
    """Canonical extreme rays and lineality of {x : a . x >= 0, e . x = 0}.

    The lineality from `integer_kernel_hermite`, the rays from
    `pointed_extreme_rays_two_pass`.  Oracle for `_h_cone_generators`.
    """
    normals = list(dict.fromkeys(primitive(a)[0] for a in normals if not is_zero_vector(a)))
    eqs = list(dict.fromkeys(primitive(e)[0] for e in eqs if not is_zero_vector(e)))
    if not normals and not eqs:
        return (), identity(dim)
    lin = integer_kernel_hermite(normals + eqs)
    rays = pointed_extreme_rays_two_pass(normals, dim, fixed=lin + hnf_basis(eqs))
    return tuple(rays), lin


def polyhedron_from_constraints_homogenised(ambient_dim, eqs=(), ineqs=()):
    """Polyhedron.from_constraints by the homogenisation in R^(n+1), for cones too.

    Oracle for every polyhedron build (`_v_key` then `_h_key`), which
    converts a cone (every right-hand side 0, or the origin its only vertex)
    in dimension n instead.
    """
    n = ambient_dim
    eqs, ineqs = tuple(eqs), tuple(ineqs)
    _check_dims(n, [a for a, _ in eqs + ineqs])
    if any(b > 0 for a, b in ineqs if not any(a)) or any(b != 0 for a, b in eqs if not any(a)):
        return Polyhedron._empty(n)
    rows = [primitive(_integral((*a, -b)))[0] for a, b in ineqs if any(a)]
    rows.append(tuple([0] * n + [1]))  # t >= 0
    eq_rows = [primitive(_integral((*a, -b)))[0] for a, b in eqs if any(a)]
    rays_h, lin_h = _h_cone_generators(rows, n + 1, eq_rows)
    if all(r[n] == 0 for r in rays_h):
        return Polyhedron._empty(n)
    ineq_h, eq_h = _h_cone_generators(rays_h, n + 1, eqs=lin_h)
    ineqs = [(a[:n], -a[n]) for a in ineq_h if not is_zero_vector(a[:n])]  # drops t >= 0
    eqs = [(a[:n], -a[n]) for a in eq_h if not is_zero_vector(a[:n])]
    verts = [g for g in rays_h if g[n]]
    den = math.lcm(*(g[n] for g in verts))
    verts.sort(key=lambda g: tuple(x * (den // g[n]) for x in g[:n]))
    gens = tuple(verts) + tuple(sorted(g for g in rays_h if not g[n]))
    return Polyhedron(n, tuple(sorted(eqs)), tuple(sorted(ineqs)), gens, tuple(l[:n] for l in lin_h))


def vrep_dim(gens, lineality):
    """Dimension of the polyhedron on gens: the rank of its homogenisation, minus one."""
    return rank_int(list(gens) + [(*l, 0) for l in lineality]) - 1


def face_data_of_rank(P, gens):
    """Codim-one faces of the face of P on gens, cut by P's inequalities.

    Returns the V-data keys (gens, lineality) of those faces.  The V-data of
    a face is a subset of the parent's canonical generators, so it is
    canonical too; a face needs a vertex generator (last entry > 0).

    Oracle for `_face_data_of`, which keeps the inclusion-maximal on-sets
    instead of testing the rank of each.
    """
    out = {}
    p = vrep_dim(gens, P.lineality)
    for h in P._rows()[: len(P.ineqs)]:
        on = tuple(g for g in gens if not dot(h, g))
        if on == gens or not any(g[-1] for g in on):
            continue
        if vrep_dim(on, P.lineality) == p - 1:
            out[(on, P.lineality)] = True
    return list(out)


def facets(P):
    """The facets of P, each built by one V -> H conversion, in `face_data_of_rank` order."""
    return [P._face(gens) for gens, _ in face_data_of_rank(P, P.gens)]


def face_vkeys_rank(P):
    """V-data keys of all faces of P (P included), closed under `face_data_of_rank`.

    Oracle for `Polyhedron.face_vkeys`.
    """
    seen = {P.vkey()}
    frontier = [P.vkey()]
    while frontier:
        frontier = [k for gens, _ in frontier for k in face_data_of_rank(P, gens) if k not in seen]
        seen.update(frontier)
    return seen


def _gauss_jordan(mat, ncols) -> list[int]:
    """Reduce Fraction rows in place on their first ncols columns; return the pivot columns.

    Pivot rows come first and are not normalised; the elimination stops as
    soon as every row holds a pivot.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / p
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    return pivots


def rank_gauss_jordan(rows) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fraction rows; oracle for `rank_int`."""
    mat = [[Fraction(x) for x in r] for r in rows]
    return len(_gauss_jordan(mat, len(mat[0]) if mat else 0))


def solve_gauss_jordan(columns, target) -> tuple[Fraction, ...]:
    """Solve sum_j x_j * columns[j] = target by Gauss-Jordan on Fraction rows; oracle for `solve_rational`.

    ``columns`` is column-major as in `solve_rational`.  Raises LatticeError
    on an inconsistent system; a rank-deficient one gets its free variables
    set to 0.
    """
    ncols = len(columns[0]) if columns else 0
    aug = [[Fraction(x) for x in row] + [Fraction(t)] for row, t in zip(columns, target)]
    pivots = _gauss_jordan(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        raise LatticeError("inconsistent linear system")
    sol = [Fraction(0)] * ncols
    for row, col in zip(aug, pivots):
        sol[col] = row[ncols] / row[col]
    return tuple(sol)


def quotient_outward_generator(tau_basis, sigma_basis, direction_sample) -> IntVector:
    """Representative generating (Z^n cap H_sigma)/(Z^n cap H_tau), signed.

    ``tau_basis``/``sigma_basis`` are saturated integer bases of the direction
    spaces, with rank(sigma) = rank(tau) + 1.  ``direction_sample`` is any
    vector of ints and Fractions in H_sigma minus H_tau pointing to the sigma side (for
    cells: relint(sigma) - relint(tau)); the returned vector pairs positively
    with a functional vanishing on H_tau that is positive on that sample.

    Reference for the library's two-argument generator, which works in the
    quotient lattice instead; used through `balancing_violations_ambient`.
    """
    sigma_basis = [_as_int_vector(b) for b in sigma_basis]
    tau_basis = [_as_int_vector(b) for b in tau_basis]
    p = len(sigma_basis)
    if p != len(tau_basis) + 1:
        raise LatticeError("sigma must have direction rank one more than tau")
    n = len(sigma_basis[0])
    if p == 1:
        u = sigma_basis[0]
    else:
        cols = [list(col) for col in zip(*sigma_basis)]
        coords = []
        for b in tau_basis:
            x = solve_rational(cols, b)
            if any(c.denominator != 1 for c in x):
                raise LatticeError("tau lattice not contained in sigma lattice")
            coords.append(tuple(int(c) for c in x))
        ql = saturate_and_complete(coords)
        if ql.quotient_rank != 1:
            raise LatticeError("tau is not of codimension one in sigma")
        comp = ql.complement_basis[0]
        u = tuple(sum(comp[j] * sigma_basis[j][i] for j in range(p)) for i in range(n))
    # orient: pick a functional vanishing on H_tau and not on u
    if tau_basis:
        functionals = integer_kernel(tau_basis)
    else:
        functionals = identity(n)
    ell = next((f for f in functionals if dot(f, u) != 0), None)
    if ell is None:
        raise LatticeError("degenerate quotient: u lies in H_tau")
    side = dot(ell, direction_sample)
    if side == 0:
        raise LatticeError("direction sample lies in H_tau")
    if (dot(ell, u) > 0) != (side > 0):
        u = vec_neg(u)
    return u


def vertex_and_ray_views(n, gens):
    """(vertices, rays) of homogenised generators, each view sorted on its own.

    A vertex (p, q), q > 0, is the Fraction point p/q and a ray (r, 0) is r.
    Oracle for the `vertices` and `rays` views of a polyhedron and for the
    order of its generators, which must follow these sorted views.
    """
    vertices = sorted(tuple(Fraction(x, g[n]) for x in g[:n]) for g in gens if g[n] > 0)
    return tuple(vertices), tuple(sorted(g[:n] for g in gens if g[n] == 0))


def vrep_quotient_fractions(n, vertices, rays, lineality):
    """Z^n over the integer directions of aff(P), from the Fraction V-data of P.

    Spans by the rays, the lineality and the primitive integer multiple of
    v - v0 for each vertex v after the first v0.  Oracle for
    `polyhedra._vrep_quotient`, which reads the same vectors off the generators.
    """
    vecs = list(rays) + list(lineality)
    if vertices:
        v0 = vertices[0]
        vecs += [primitive(_integral(vec_sub(v, v0)))[0] for v in vertices[1:]]
    if not vecs:
        return lattice.QuotientLattice(n, (), identity(n))
    return saturate_and_complete(vecs)


def balancing_violations_ambient(C):
    """(tau key, residual) of each violation, the generators summed in Z^n.

    Oracle for `check_balancing`: each u_{sigma/tau} comes from the
    three-argument `quotient_outward_generator` above, and only the sum is
    projected to quotient coordinates.
    """
    groups = {}
    for cell, w in C.cells:
        for k in face_data_of_rank(cell, cell.gens):
            groups.setdefault(k, []).append((cell, w))
    violations = []
    n = C.ambient_dim
    for (gens, lin), incident in groups.items():
        vertices, rays = vertex_and_ray_views(n, gens)
        tau = Polyhedron.from_generators(n, vertices=vertices, rays=rays, lineality=lin)
        tau_dirs = vrep_quotient_fractions(n, vertices, rays, lin).sublattice_basis
        tau_pt = relint_point(tau)
        total = [0] * n
        for cell, w in incident:
            sample = vec_sub(relint_point(cell), tau_pt)
            u = quotient_outward_generator(tau_dirs, cell.direction_basis(), sample)
            total = [t + w * x for t, x in zip(total, u)]
        if tau_dirs:
            residual = saturate_and_complete(tau_dirs).quotient_coords(total)
        else:
            residual = tuple(total)
        if any(residual):
            violations.append((tau.key, residual))
    return sorted(violations)


def is_complete_ridge_pairing(F) -> bool:
    """Support = R^n test via ridge pairing.

    A fan is complete iff it has a full-dimensional cone, every
    codimension-one cone is a facet of exactly two full-dimensional cones,
    and the full-dimensional cones are facet-connected.

    Oracle for `is_complete`, which keeps only the two-owner rule on the
    facets of the full-dimensional cones.
    """
    n = F.ambient_dim
    if n > MAX_AMBIENT_DIM:
        raise PolyhedralError("ambient dimension unsupported")
    full = [c for c in F.maximal_cones if c.dim == n]
    if not full:
        return False
    owners = {}
    for idx, c in enumerate(full):
        for k in face_data_of_rank(c, c.gens):
            owners.setdefault(k, []).append(idx)
    ridges = {k for c in F.maximal_cones for k in c.face_vkeys() if vrep_dim(*k) == n - 1}
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


def tropical_product(q1, q2):
    """q1 ⊙ q2: the max over term pairs of <x, a1 + a2> + c1 + c2, equal exponents merged by max."""
    terms = {}
    for (e1, c1), (e2, c2) in itertools.product(q1.terms, q2.terms):
        e = tuple(a + b for a, b in zip(e1, e2))
        terms[e] = max(terms.get(e, c1 + c2), c1 + c2)
    return TropicalPolynomial(terms, q1.ambient_dim)


def weight_at(q, x):
    """Weight of trop(q) at a rational point x of R^2, from the terms attaining the max.

    The lattice length of the segment the argmax exponents span
    (Maclagan-Sturmfels, Prop. 3.1.6), 0 when a single term attains the max.
    Raises at a vertex of trop(q), where they span a polygon.
    """
    vals = [(sum(Fraction(xi) * e_i for xi, e_i in zip(x, e)) + Fraction(c), e) for e, c in q.terms]
    top = max(v for v, _ in vals)
    tying = sorted(e for v, e in vals if v == top)
    d = vec_sub(tying[-1], tying[0])
    if any(d[0] * w[1] - d[1] * w[0] for w in (vec_sub(e, tying[0]) for e in tying)):
        raise ValueError(f"{x} is a vertex of trop(q)")
    return math.gcd(*d)


def slice_tropical_roots(q, axis, s):
    """(y, jump) for each breakpoint y of y -> q on the line x_axis = s of R^2, sorted by y.

    On that line q is max over k of k y + C_k, where C_k is the largest
    e_axis s + c over the terms with e_other = k.  Its breakpoints are the
    edges of the upper hull of the points (k, C_k), the tropical Newton
    polygon: consecutive hull vertices (k1, C1), (k2, C2) tie at
    y = (C1 - C2) / (k2 - k1), where the slope jumps by k2 - k1.  Exact for
    rational q and s.
    """
    top = {}
    for e, c in q.exact_terms():
        k, value = e[1 - axis], e[axis] * Fraction(s) + c
        top[k] = max(top.get(k, value), value)
    hull = []
    for point in sorted(top.items()):
        # drop the last vertex while it lies on or below the chord to the new point
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (point[0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(point)
    return sorted(((c1 - c2) / (k2 - k1), k2 - k1) for (k1, c1), (k2, c2) in zip(hull, hull[1:]))


def slice_crossings(C, axis, s):
    """(y, multiplicity) for each point where the plane tropical curve C crosses x_axis = s, sorted by y.

    Each cell meets the line in one H -> V conversion.  A cell of weight w
    whose equation has the primitive normal nu crosses with multiplicity
    w |nu_other|, summed over the cells through a point; cells parallel to
    the line (nu_other = 0) are skipped.
    """
    line = (tuple(int(i == axis) for i in range(2)), Fraction(s))
    found = {}
    for cell, w in C.cells:
        ((a, _),) = cell.eqs
        nu, _ = primitive(a)
        if nu[1 - axis] == 0:
            continue
        meet = Polyhedron.from_constraints(2, eqs=tuple(cell.eqs) + (line,), ineqs=cell.ineqs)
        for v in meet.vertices:
            found[v[1 - axis]] = found.get(v[1 - axis], 0) + w * abs(nu[1 - axis])
    return sorted(found.items())


def hypersurface_cells_all_pairs(q):
    """(cell, weight) of each cell of q's tropical hypersurface, sorted by tie set.

    Oracle for `tropical_hypersurface`, which skips an exponent pair that
    ties on a cell found already: here every pair's tie region is built and
    evaluated, and regions with the same tie set are merged.
    """
    n = q.ambient_dim
    terms = q.exact_terms()
    exact = TropicalPolynomial(terms, n)
    cells = {}
    for (ei, ci), (ej, cj) in itertools.combinations(terms, 2):
        eqs = ((vec_sub(ei, ej), cj - ci),)
        ineqs = tuple(
            (vec_sub(ei, ek), ck - ci) for ek, ck in terms if ek not in (ei, ej)
        )
        cell = Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs)
        if cell.dim != n - 1:
            continue
        cells[eval_tropical(exact, relint_point(cell)).argmax] = cell
    return [
        (cell, math.gcd(*vec_sub(tying[-1], tying[0]))) for tying, cell in sorted(cells.items())
    ]


def check_common_faces_unfiltered(members, kind):
    """Raise unless every two members are disjoint or meet in a common face.

    Oracle for `_check_common_faces`: every pair is intersected by both
    conversions of a double description, and the intersection is looked up
    in the whole face lattice of each member.
    """
    for (i, P), (j, Q) in itertools.combinations(enumerate(members), 2):
        inter = P.intersect(Q)
        if inter.is_empty:
            continue
        k = inter.vkey()
        if k not in P.face_vkeys() or k not in Q.face_vkeys():
            raise PolyhedralError(f"{kind} do not intersect in a common face (members {i} and {j})")


def subset_fractions(P, Q) -> bool:
    """Whether P lies in Q, by Fraction points; oracle for `polyhedra._subset`.

    Every vertex v of P must be in Q, and every ray r and lineality vector
    +-l of P a recession direction of Q: w + r in Q for every vertex w of Q.
    (v + r in Q alone does not show that: a bounded Q can hold both.)  That
    suffices because each facet of Q holds a vertex w, which w + r leaves
    when r points out of the facet.
    """
    directions = list(P.rays) + list(P.lineality) + [vec_neg(l) for l in P.lineality]
    return all(contains(Q, v) for v in P.vertices) and all(
        contains(Q, tuple(x + y for x, y in zip(w, d))) for w in Q.vertices for d in directions
    )


def box_constraints_fractions(box):
    """The box as inequalities (a, b) meaning a.x >= b, with Fraction bounds b."""
    out = []
    for i, (lo, hi) in enumerate(box):
        e = tuple(1 if j == i else 0 for j in range(len(box)))
        out.append((e, Fraction(lo)))
        out.append((tuple(-x for x in e), -Fraction(hi)))
    return out


def clipped_cells_fractions(C, box):
    """The nonempty intersections of the complex's cells with the box, cut by Fraction rows."""
    box_ineqs = tuple(box_constraints_fractions(box))
    for cell, _ in C.cells:
        clipped = Polyhedron.from_constraints(
            C.ambient_dim, eqs=cell.eqs, ineqs=tuple(cell.ineqs) + box_ineqs
        )
        if not clipped.is_empty:
            yield clipped


def sample_tropical_support_per_cell(C, box, density: float) -> dynamics.PointCloud:
    """Uniform samples on each cell of the complex clipped to the box, one cell at a time.

    Oracle for `sample_tropical_support`, which must equal it bit for bit:
    here the centre is the Fraction relint_point rounded, each cell has its
    own QR factorisation, and rows are gathered one by one.
    """
    if not (math.isfinite(density) and density > 0):
        raise DynamicsError("density must be a finite positive number")
    n = C.ambient_dim
    if len(box) != n:
        raise DynamicsError("box dimension mismatch")
    pts = []
    for clipped in clipped_cells_fractions(C, box):
        center = np.array([float(x) for x in relint_point(clipped)])
        pts.append(center)
        dirs = clipped.direction_basis()
        if not dirs:
            continue
        D = np.array(dirs, dtype=float).T  # n x p
        Q, _ = np.linalg.qr(D)
        verts = np.array([[float(x) for x in v] for v in clipped.vertices])
        coords = (verts - center) @ Q
        step = 1.0 / density
        ranges = [(coords[:, j].min(), coords[:, j].max() + step / 2) for j in range(Q.shape[1])]
        # np.arange(lo, stop, step) has ceil((stop - lo) / step) entries
        count = math.prod(np.ceil((stop - lo) / step) for lo, stop in ranges)
        if not count <= ALL_MODE_BUDGET:  # also catches an infinite count
            raise DynamicsError(f"a cell would take more than {ALL_MODE_BUDGET} samples at density {density:g}")
        axes = [np.arange(lo, stop, step) for lo, stop in ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        u = np.stack([g.ravel() for g in mesh], axis=-1)
        cand = center + u @ Q.T
        keep = np.ones(len(cand), dtype=bool)
        for a, b in clipped.ineqs:
            keep &= cand @ np.asarray(a, dtype=float) >= float(b) - 1e-9
        for a, b in clipped.eqs:
            keep &= np.abs(cand @ np.asarray(a, dtype=float) - float(b)) <= 1e-9
        pts.extend(cand[keep])
    arr = np.asarray(pts, dtype=float) if pts else np.zeros((0, n))
    return dynamics.PointCloud(n, arr)


def cloud_to_csv_elementwise(cloud: dynamics.PointCloud) -> str:
    """The point-cloud CSV, each coordinate taken from the array by float().

    Oracle for `serialize.cloud_to_csv`, which formats the rows of
    `points.tolist()`.
    """
    m = "" if cloud.m is None else str(cloud.m)
    seed = "" if cloud.seed is None else str(cloud.seed)
    lines = ["dim,m,seed", f"{cloud.dim},{m},{seed}"]
    pts = cloud.points
    if np.issubdtype(pts.dtype, np.complexfloating):
        for row in pts:
            lines.append(",".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    else:
        for row in pts:
            lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The six value records as the dataclasses they were defined as, verbatim.
# Oracles for the plain `lattice.Record` classes of the same names in
# tropdyn.dynamics and tropdyn.lattice: same constructors, repr, ==, hash,
# frozenness and errors.  Within this module the names mean these
# dataclasses; the functions above use tropdyn's own classes.


@dataclass(frozen=True)
class GridSpec:
    """Sampling window: per-axis [lo, hi], per-axis resolution, exclusion radius."""

    box: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    delta: float = 0.0

    def __post_init__(self):
        if not self.box:
            raise DynamicsError("a grid needs at least one axis")
        if len(self.box) != len(self.resolution):
            raise DynamicsError("box and resolution must have the same length")
        if not all(math.isfinite(x) for interval in self.box for x in interval):
            raise DynamicsError("box bounds must be finite numbers")
        if any(lo >= hi for lo, hi in self.box):
            raise DynamicsError("box intervals need lo < hi")
        if not all(math.isfinite(hi - lo) for lo, hi in self.box):
            raise DynamicsError("box intervals need a finite width")
        if any(r < 2 for r in self.resolution):
            raise DynamicsError("resolution must be at least 2 per axis")
        if math.prod(self.resolution) > ALL_MODE_BUDGET:
            raise DynamicsError(f"a grid has at most {ALL_MODE_BUDGET} points")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise DynamicsError("exclusion radius must be a finite nonnegative number")

    def axis(self, i):
        lo, hi = self.box[i]
        return np.linspace(lo, hi, self.resolution[i])


@dataclass
class PointCloud:
    """Fixed-dimension samples; complex clouds are used for root/torus data.

    counters holds deterministic work counts of the sampler that made the
    cloud (amoeba_sample fills it); they never enter the CSV artifact.
    """

    dim: int
    points: np.ndarray
    m: int | None = None
    seed: int | None = None
    counters: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points)
        if self.points.size == 0:
            self.points = self.points.reshape(0, self.dim)
        if self.points.ndim != 2 or self.points.shape[1] != self.dim:
            raise DynamicsError("points must be an (N, dim) array")
        if not np.issubdtype(self.points.dtype, np.complexfloating):
            if not np.all(np.isfinite(self.points)):
                raise DynamicsError("point coordinates must be finite")

    def __len__(self):
        return self.points.shape[0]


@dataclass
class ConvergenceReport:
    """Per-m errors with a least-squares power-law fit errors ~ C * m^(-rho)."""

    experiment: str
    ms: tuple[int, ...]
    errors: tuple[float, ...]
    C: float
    rho: float
    seed: int
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BatchRoots:
    """Roots of a batch of polynomials of one degree d, one row per polynomial.

    roots[r] holds row r's d roots sorted by modulus, then phase.  Where
    failed[r] is set they are the last approximations (NaN for a row that
    could not be started) and must not be used.  iterations[r] counts the
    Aberth sweeps row r took (0 at degree 1).
    """

    roots: np.ndarray
    failed: np.ndarray
    iterations: np.ndarray

    def __len__(self):
        """The number of roots in rows that did not fail."""
        return int(np.count_nonzero(~self.failed)) * self.roots.shape[1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D for unimodular U, V and diagonal D, d_i | d_{i+1} >= 0.

    Only U_inv is kept, the one transform its one caller, saturate_and_complete,
    reads: M * V = U_inv * D, so its first rank columns span the saturation
    of M's column span.
    """

    D: IntMatrix
    U_inv: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k) if self.D[i][i] != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


@dataclass(frozen=True)
class QuotientLattice:
    """Z^n = (H cap Z^n) + complement, presenting Z^n / (H cap Z^n).

    ``sublattice_basis`` is a saturated basis of H cap Z^n (so the quotient is
    torsion-free) and together with ``complement_basis`` it forms a Z-basis of
    Z^n (determinant +-1).
    """

    ambient_dim: int
    sublattice_basis: tuple[IntVector, ...]
    complement_basis: tuple[IntVector, ...]

    @property
    def rank(self) -> int:
        return len(self.sublattice_basis)

    @property
    def quotient_rank(self) -> int:
        return len(self.complement_basis)

    def quotient_coords(self, v) -> IntVector:
        """Coordinates of the class of ``v`` in Z^n/(H cap Z^n)."""
        v = _as_int_vector(v)
        basis = list(self.sublattice_basis) + list(self.complement_basis)
        coeffs = solve_rational([list(col) for col in zip(*basis)], v)
        out = []
        for x in coeffs[self.rank:]:
            if x.denominator != 1:
                raise LatticeError("vector not integral in the chosen basis")
            out.append(int(x))
        return tuple(out)
