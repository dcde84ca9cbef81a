"""Max-plus algebra: tropical polynomials, hypersurfaces, Bergman fans, binomials.

Tropical arithmetic is (max, +) on R plus -inf.  Hypersurface combinatorics
run on exact rationals: float coefficients are taken at their exact binary
value, so tie cells never depend on rounding.  Plain evaluation keeps a float
path with a small tie tolerance.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction

from .lattice import _as_int_vector, dot, identity, primitive, rank_int, vec_sub
from .polyhedra import MAX_AMBIENT_DIM, PolyhedralError, Polyhedron, WeightedComplex, _h_cone_generators


def _lazy_numpy():
    """numpy as imported already, or a module that imports it on first attribute access.

    The exact side never reads a numpy attribute, so exact work never loads
    numpy; the numeric modules take np from here, never by their own import
    statement, which would load numpy at once.
    """
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

NEG_INF = float("-inf")
FLOAT_TIE_TOL = 1e-9
MAX_HYPERSURFACE_DIM = 3


class TropicalError(ValueError):
    pass


class TropicalPolynomial:
    """max over terms of <x, alpha> + c_alpha; exponents may be Laurent."""

    def __init__(self, terms, ambient_dim=None):
        merged = {}
        for exp, coeff in dict(terms).items():
            exp = _as_int_vector(exp)
            if exp in merged:
                merged[exp] = max(merged[exp], coeff)
            else:
                merged[exp] = coeff
        if not merged:
            raise TropicalError("a tropical polynomial needs at least one term")
        if ambient_dim is None:
            ambient_dim = len(next(iter(merged)))
        if any(len(e) != ambient_dim for e in merged):
            raise TropicalError("mixed exponent dimensions")
        self.ambient_dim = ambient_dim
        self.terms = tuple(sorted(merged.items()))

    def is_rational(self):
        return all(isinstance(c, (int, Fraction)) for _, c in self.terms)

    def exact_terms(self):
        """Terms with coefficients as exact Fractions (floats taken exactly)."""
        return tuple((e, Fraction(c)) for e, c in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, TropicalPolynomial)
            and self.ambient_dim == other.ambient_dim
            and len(self.terms) == len(other.terms)
            and all(
                ea == eb and float(ca) == float(cb)
                for (ea, ca), (eb, cb) in zip(self.terms, other.terms)
            )
        )

    def __repr__(self):
        parts = " , ".join(f"<x,{list(e)}>+{c}" for e, c in self.terms)
        return f"TropicalPolynomial(max{{{parts}}})"


TropicalValue = namedtuple("TropicalValue", ["value", "argmax"])


def builtin_sum(columns):
    """Elementwise sum of equal-shape float arrays, left to right from 0.0, uncompensated."""
    total = 0.0 + columns[0]
    for x in columns[1:]:
        total = total + x
    return total


def builtin_max(columns):
    """Elementwise max() of equal-shape float arrays: the first of equal values wins."""
    top = columns[0]
    for x in columns[1:]:
        top = np.where(x > top, x, top)
    return top


def exponent_dots(exps, X):
    """(N, T) array of sum(e_j * x_j) for each row x of the float array X and each exponent e.

    Each entry sums the products over j left to right from 0.0, so a batch
    agrees bit for bit with the same dot product taken one point at a time.
    """
    out = np.empty((X.shape[0], len(exps)))
    for t, e in enumerate(exps):
        out[:, t] = builtin_sum([e_j * X[:, j] for j, e_j in enumerate(e)])
    return out


def _eval_float_rows(q, X) -> TropicalValue:
    """Float evaluation of q at every row of the (N, n) array X in one batch."""
    if X.shape[1] != q.ambient_dim:
        raise TropicalError("point dimension does not match the polynomial")
    vals = exponent_dots([e for e, _ in q.terms], X) + np.array([float(c) for _, c in q.terms])
    top = builtin_max(vals.T)
    tol = FLOAT_TIE_TOL * np.maximum(1.0, np.abs(top))
    return TropicalValue(top, top[:, None] - vals <= tol[:, None])


def eval_tropical(q: TropicalPolynomial, x) -> TropicalValue:
    """Evaluate q at x; reports the value and the set of argmax exponents.

    Rational inputs get exact tie decisions; the float path uses a 1e-9
    tolerance relative to the top value.  An (N, n) float array is evaluated
    in one batch: value holds the N row maxima and argmax an (N, T) mask over
    q.terms.  A single float point is row 0 of that batch, so both agree bit
    for bit.
    """
    if getattr(x, "ndim", None) == 2:  # an array batch; never loads numpy for a tuple
        return _eval_float_rows(q, x.astype(float, copy=False))
    if len(x) != q.ambient_dim:
        raise TropicalError("point dimension does not match the polynomial")
    exact = q.is_rational() and all(isinstance(c, (int, Fraction)) for c in x)
    if exact:
        vals = [(sum(Fraction(xi) * e_i for xi, e_i in zip(x, e)) + Fraction(c), e) for e, c in q.terms]
        top = max(v for v, _ in vals)
        arg = tuple(sorted(e for v, e in vals if v == top))
        return TropicalValue(float(top), arg)
    batch = _eval_float_rows(q, np.array([[float(xi) for xi in x]]))
    arg = tuple(e for (e, _), hit in zip(q.terms, batch.argmax[0]) if hit)  # terms are sorted
    return TropicalValue(float(batch.value[0]), arg)


def dequantized_sum(values, h: float) -> float:
    """h * ln(sum exp(v_i / h)), shifted by the max for stability.

    Satisfies max(v) <= result <= max(v) + h*ln(k) for k values.
    """
    if h <= 0:
        raise TropicalError("dequantization scale h must be positive")
    values = list(values)
    if not values:
        raise TropicalError("need at least one value")
    top = max(values)
    if top == NEG_INF:
        return NEG_INF
    return top + h * math.log(math.fsum(math.exp((v - top) / h) for v in values))


class ComplexPolynomial:
    """sum over A of c_alpha z^alpha with A in Z^n_{>=0} and c_alpha != 0."""

    def __init__(self, terms, ambient_dim=None):
        cleaned = {}
        for exp, coeff in dict(terms).items():
            exp = _as_int_vector(exp)
            coeff = complex(coeff)
            if coeff == 0:
                raise TropicalError("zero coefficients are not stored")
            if any(e < 0 for e in exp):
                raise TropicalError("complex polynomials use nonnegative exponents")
            cleaned[exp] = coeff
        if not cleaned:
            raise TropicalError("the zero polynomial is not allowed")
        if ambient_dim is None:
            ambient_dim = len(next(iter(cleaned)))
        if any(len(e) != ambient_dim for e in cleaned):
            raise TropicalError("mixed exponent dimensions")
        self.ambient_dim = ambient_dim
        self.terms = tuple(sorted(cleaned.items()))

    def __call__(self, z):
        total = 0j
        for exp, coeff in self.terms:
            mono = coeff
            for zi, e in zip(z, exp):
                mono *= zi ** e
            total += mono
        return total

    def __eq__(self, other):
        return isinstance(other, ComplexPolynomial) and self.terms == other.terms

    def __repr__(self):
        parts = " + ".join(f"({c})z^{list(e)}" for e, c in self.terms)
        return f"ComplexPolynomial({parts})"


def tropicalize_poly(f: ComplexPolynomial) -> TropicalPolynomial:
    """Trivial-valuation tropicalisation: max over A of <-alpha, x>.

    Exponents are negated because the harness measures positions with
    Log = -log|.|; coefficients are dropped to 0.
    """
    return TropicalPolynomial(
        {tuple(-e for e in exp): 0 for exp, _ in f.terms}, f.ambient_dim
    )


TropicalCycle = WeightedComplex


def tropical_hypersurface(q: TropicalPolynomial) -> TropicalCycle:
    """Non-differentiability locus of q as a weighted, balanced complex.

    A cell is dual to an edge of the regular subdivision that the lifted
    terms (e, c) induce on the Newton polytope, weighted by the edge's lattice
    length (Maclagan-Sturmfels, Introduction to Tropical Geometry, Prop.
    3.1.6).  The terms on an edge (its tie set, indices ascending) tie on the
    relative interior of its cell, which is built once, as the edge's first
    pair cut by the terms off it, with weight gcd(last - first) of its sorted
    exponents.  `_subdivision_edges` finds the edges without building a
    polyhedron, so every build is a cell.  Balanced by theorem (ibid., Prop.
    3.3.2), the cycle is returned without a balancing check.

    All of it runs in integers: the coefficients are scaled by the lcm D of
    their denominators, which scales the lift and keeps its subdivision, and
    the row D (e_i - e_k).x >= D (c_k - c_i) is a positive multiple of the
    cell's rational row, the same row once made primitive.
    """
    n = q.ambient_dim
    if n > MAX_HYPERSURFACE_DIM:
        raise TropicalError("ambient dimension unsupported for hypersurfaces")
    terms = q.exact_terms()
    den = math.lcm(*(c.denominator for _, c in terms))
    # int(): the numerator of a numpy integer coefficient is a numpy integer
    lifted = [(*e, int(c.numerator) * (den // c.denominator)) for e, c in terms]

    def row(i, k):  # (D (e_i - e_k), D (c_k - c_i))
        d = vec_sub(lifted[i], lifted[k])
        return tuple(den * x for x in d[:n]), -d[n]

    cells = []
    for edge in _subdivision_edges(lifted, n):
        ineqs = [row(edge[0], k) for k in range(len(lifted)) if k not in edge]
        cell = Polyhedron.from_constraints(n, eqs=[row(edge[0], edge[1])], ineqs=ineqs)
        cells.append((cell, math.gcd(*vec_sub(terms[edge[-1]][0], terms[edge[0]][0]))))
    return WeightedComplex(n, n - 1, cells, validate=False)


def _subdivision_edges(lifted, n):
    """Tie set of each edge of the regular subdivision of the lifted points (e, c) in Z^(n+1).

    Affinely independent exponents span a simplex, and every pair of its
    vertices is an edge of every subdivision of it, with no other term on
    it.  Otherwise one V -> H conversion of the cone over the points (e, c, 1)
    and the ray (0, ..., 0, -1, 0) gives the upper hull.  The smallest face
    holding the points i and j is cut out by the facets tight on both; it is
    an edge when those facets and the equations have rank n, so that the
    face is a 2-dimensional cone, and its tie set is the points tight on all
    those facets.  Such a face is upper: the ray and two points with
    distinct exponents are linearly independent, so a face holding all three
    has dimension at least 3.  An edge is listed at its first pair only.
    """
    pairs = itertools.combinations(range(len(lifted)), 2)
    if rank_int([vec_sub(p, lifted[0])[:n] for p in lifted[1:]]) == len(lifted) - 1:
        return [list(pair) for pair in pairs]
    facets, eqs = _h_cone_generators([(*p, 1) for p in lifted] + [(0,) * n + (-1, 0)], n + 2)
    tight = [{f for f, h in enumerate(facets) if not dot(h, (*p, 1))} for p in lifted]
    edges = []
    for i, j in pairs:
        common = tight[i] & tight[j]
        ties = [k for k, t in enumerate(tight) if common <= t]
        if ties[:2] == [i, j] and rank_int([facets[f] for f in common] + list(eqs)) == n:
            edges.append(ties)
    return edges


def uniform_bergman_fan(p: int, n: int) -> TropicalCycle:
    """Weight-one fan on all p-subsets of {e_1..e_n, -(e_1+...+e_n)}.

    This is the union of the p-dimensional cones of the standard complete
    simplicial fan on n+1 rays, the Bergman fan of the uniform matroid
    U(p+1, n+1).  With all weights one it is balanced (Ardila-Klivans,
    JCTB 96, 2006), so it is returned without a balancing check.
    """
    if not 1 <= p <= n:
        raise TropicalError("need 1 <= p <= n")
    if n > MAX_AMBIENT_DIM:  # before the C(n + 1, p) subsets are listed
        raise PolyhedralError("ambient dimension unsupported")
    rays = list(identity(n))
    rays.append(tuple(-1 for _ in range(n)))
    cells = [
        (subset, 1) for subset in itertools.combinations(rays, p)
    ]
    return WeightedComplex.from_cone_cells(n, p, cells, validate=False)


def fiber_binomial(beta, c) -> tuple[ComplexPolynomial, int]:
    """Binomial z^{alpha+} - c z^{alpha-} for beta = w * alpha, alpha primitive.

    The zero set is a fiber of the projection attached to the hyperplane with
    normal beta; c on the unit circle encodes the circle translation.  Returns
    the binomial and the lattice-length weight w.
    """
    beta = _as_int_vector(beta)
    if not any(beta):
        raise TropicalError("zero normal has no fiber binomial")
    alpha, weight = primitive(beta)
    plus = tuple(max(a, 0) for a in alpha)
    minus = tuple(max(-a, 0) for a in alpha)
    c = complex(c)
    if c == 0:
        raise TropicalError("circle parameter must be nonzero")
    return ComplexPolynomial({plus: 1.0, minus: -c}), weight
