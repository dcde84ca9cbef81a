"""Max-plus algebra: tropical polynomials, hypersurfaces, Bergman fans, binomials.

Tropical arithmetic is (max, +) on R plus -inf.  Hypersurface combinatorics
run on exact rationals: float coefficients are taken at their exact binary
value, so tie cells never depend on rounding.  Plain evaluation keeps a float
path with a small tie tolerance.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .lattice import identity, primitive, vec_sub
from .polyhedra import Polyhedron, WeightedComplex, check_balancing

NEG_INF = float("-inf")
FLOAT_TIE_TOL = 1e-9
MAX_HYPERSURFACE_DIM = 3


class TropicalError(ValueError):
    pass


class TropicalNumber:
    """Element of the (max, +) semiring on R plus -inf.

    Addition is max, multiplication is +; -inf is the additive identity and
    absorbs under multiplication.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def __add__(self, other):
        return TropicalNumber(max(self.value, other.value))

    def __mul__(self, other):
        if self.value == NEG_INF or other.value == NEG_INF:
            return TropicalNumber(NEG_INF)
        return TropicalNumber(self.value + other.value)

    def __eq__(self, other):
        return isinstance(other, TropicalNumber) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"TropicalNumber({self.value})"


TROPICAL_ZERO = TropicalNumber(NEG_INF)  # additive identity
TROPICAL_ONE = TropicalNumber(0.0)  # multiplicative identity


class TropicalPolynomial:
    """max over terms of <x, alpha> + c_alpha; exponents may be Laurent."""

    def __init__(self, terms, ambient_dim=None):
        merged = {}
        for exp, coeff in dict(terms).items():
            exp = tuple(int(e) for e in exp)
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

#: whether the builtin sum() adds floats with Neumaier compensation (Python 3.12 on)
SUM_COMPENSATES = sum([1.0, 1e100, 1.0, -1e100]) == 2.0
#: the same for complex numbers, part by part (Python 3.14 on)
COMPLEX_SUM_COMPENSATES = sum([1 + 0j, 1e100 + 0j, 1 + 0j, -1e100 + 0j]).real == 2.0


def builtin_sum(columns, compensated=SUM_COMPENSATES):
    """Elementwise sum of equal-shape float arrays, in order, bit-equal to sum().

    sum() starts from the int 0 and, where compensated, carries a Neumaier
    term that it adds at the end when nonzero and finite; the flag says
    whether the running interpreter's sum() does that for these values.
    """
    total = 0.0 + columns[0]
    comp = np.zeros_like(total)
    for x in columns[1:]:
        t = total + x
        if compensated:
            comp += np.where(np.abs(total) >= np.abs(x), (total - t) + x, (x - t) + total)
        total = t
    if compensated:
        total = np.where((comp != 0) & np.isfinite(comp), total + comp, total)
    return total


def builtin_max(columns):
    """Elementwise max() of equal-shape float arrays: the first of equal values wins."""
    top = columns[0]
    for x in columns[1:]:
        top = np.where(x > top, x, top)
    return top


def exponent_dots(exps, X):
    """(N, T) array of sum(e_j * x_j) for each row x of the float array X and each exponent e.

    Each entry equals the builtin sum() of the products over j in order, so a
    batch agrees bit for bit with the same dot product taken one point at a time.
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
    if isinstance(x, np.ndarray) and x.ndim == 2:
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
            exp = tuple(int(e) for e in exp)
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


def as_tropical_cycle(C: WeightedComplex) -> TropicalCycle:
    """Validate the balancing condition; a cycle is a balanced complex."""
    report = check_balancing(C)
    if not report.balanced:
        raise TropicalError(f"weighted complex is not balanced: {report.violations}")
    return C


def _collinear_weight(exps):
    """Lattice length between the extreme exponents of a collinear family."""
    base = exps[0]
    diffs = [vec_sub(e, base) for e in exps[1:]]
    nonzero = [d for d in diffs if any(d)]
    if not nonzero:
        raise TropicalError("tying exponents coincide")
    direction, _ = primitive(nonzero[0])
    pivot = next(i for i, x in enumerate(direction) if x != 0)
    ts = [0] + [Fraction(d[pivot], direction[pivot]) for d in diffs]
    for d, t in zip(diffs, ts[1:]):
        if any(Fraction(di) != t * wi for di, wi in zip(d, direction)):
            raise TropicalError("tying exponents are not collinear")
    span = max(ts) - min(ts)
    if span.denominator != 1:
        raise TropicalError("non-integral exponent spread")
    return int(span)


def tropical_hypersurface(q: TropicalPolynomial) -> TropicalCycle:
    """Non-differentiability locus of q as a weighted, balanced complex.

    Cells come from exact pairwise-tie enumeration: for each exponent pair the
    region where both attain the max, kept when it has dimension n-1 and
    merged whenever several pairs cut out the same cell.  The weight of a cell
    is the lattice length between the extreme exponents among all terms tying
    there; on a codimension-one cell those exponents are automatically
    collinear (their differences live in the rank-one normal lattice).
    """
    n = q.ambient_dim
    if n > MAX_HYPERSURFACE_DIM:
        raise TropicalError("ambient dimension unsupported for hypersurfaces")
    terms = q.exact_terms()
    if len(terms) == 1:
        return WeightedComplex(n, n - 1, [])
    cells = {}
    for (ei, ci), (ej, cj) in itertools.combinations(terms, 2):
        normal = vec_sub(ei, ej)
        if not any(normal):
            continue
        eqs = ((normal, cj - ci),)
        ineqs = tuple(
            (vec_sub(ei, ek), ck - ci) for ek, ck in terms if ek not in (ei, ej)
        )
        cell = Polyhedron.from_constraints(n, eqs=eqs, ineqs=ineqs)
        if cell.is_empty or cell.dim != n - 1:
            continue
        point = cell.relint_point()
        tying = tuple(
            e
            for e, c in terms
            if sum(Fraction(xi) * e_i for xi, e_i in zip(point, e)) + c
            == sum(Fraction(xi) * e_i for xi, e_i in zip(point, ei)) + ci
        )
        cells[tying] = cell
    weighted = [
        (cell, _collinear_weight(list(tying))) for tying, cell in sorted(cells.items())
    ]
    complex_ = WeightedComplex(n, n - 1, weighted, validate=False)
    return as_tropical_cycle(complex_)


def uniform_bergman_fan(p: int, n: int) -> TropicalCycle:
    """Weight-one fan on all p-subsets of {e_1..e_n, -(e_1+...+e_n)}.

    This is the union of the p-dimensional cones of the standard complete
    simplicial fan on n+1 rays; balanced with all weights one.
    """
    if not 1 <= p <= n:
        raise TropicalError("need 1 <= p <= n")
    rays = list(identity(n))
    rays.append(tuple(-1 for _ in range(n)))
    cells = [
        (subset, 1) for subset in itertools.combinations(rays, p)
    ]
    complex_ = WeightedComplex.from_cone_cells(n, p, cells, validate=False)
    return as_tropical_cycle(complex_)


def fiber_binomial(beta, c) -> tuple[ComplexPolynomial, int]:
    """Binomial z^{alpha+} - c z^{alpha-} for beta = w * alpha, alpha primitive.

    The zero set is a fiber of the projection attached to the hyperplane with
    normal beta; c on the unit circle encodes the circle translation.  Returns
    the binomial and the lattice-length weight w.
    """
    beta = tuple(int(b) for b in beta)
    if not any(beta):
        raise TropicalError("zero normal has no fiber binomial")
    alpha, weight = primitive(beta)
    plus = tuple(max(a, 0) for a in alpha)
    minus = tuple(max(-a, 0) for a in alpha)
    c = complex(c)
    if c == 0:
        raise TropicalError("circle parameter must be nonzero")
    return ComplexPolynomial({plus: 1.0, minus: -c}), weight
