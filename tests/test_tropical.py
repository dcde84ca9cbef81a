import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdyn.polyhedra import add_cycles, check_balancing
from tropdyn.tropical import (
    COMPLEX_SUM_COMPENSATES,
    ComplexPolynomial,
    TropicalError,
    TropicalPolynomial,
    builtin_sum,
    dequantized_sum,
    eval_tropical,
    fiber_binomial,
    tropical_hypersurface,
    tropicalize_poly,
    uniform_bergman_fan,
)

from oracles import compensated_sum, eval_tropical_float_scalar


def cycle_rays(cycle):
    """(ray, weight) pairs for a fan-supported cycle of one-dimensional cells."""
    out = {}
    for cell, w in cycle.cells:
        assert len(cell.rays) == 1 and not cell.lineality
        out[cell.rays[0]] = w
    return out


# -- evaluation


def test_eval_examples():
    q = TropicalPolynomial({(0, 0): 0, (-1, 0): 0, (0, -1): 0})
    v = eval_tropical(q, (1, 2))
    assert v.value == 0 and v.argmax == ((0, 0),)
    v = eval_tropical(q, (0, 3))
    assert v.value == 0 and v.argmax == ((-1, 0), (0, 0))
    q2 = TropicalPolynomial({(1,): 1, (2,): 0})
    v = eval_tropical(q2, (1,))
    assert v.value == 2 and v.argmax == ((1,), (2,))


def test_eval_float_tie_tolerance():
    q = TropicalPolynomial({(1,): 0.0, (0,): 1.0})
    v = eval_tropical(q, (1.0 + 1e-12,))
    assert len(v.argmax) == 2


@settings(max_examples=100)
@given(st.data())
def test_eval_convexity(data):
    n = data.draw(st.integers(1, 3))
    nterms = data.draw(st.integers(1, 5))
    q = TropicalPolynomial(
        {
            tuple(data.draw(st.integers(-3, 3)) for _ in range(n)): data.draw(
                st.integers(-2, 2)
            )
            for _ in range(nterms)
        },
        ambient_dim=n,
    )
    x = [data.draw(st.floats(-5, 5)) for _ in range(n)]
    y = [data.draw(st.floats(-5, 5)) for _ in range(n)]
    t = data.draw(st.floats(0, 1))
    mid = [t * a + (1 - t) * b for a, b in zip(x, y)]
    lhs = eval_tropical(q, mid).value
    rhs = t * eval_tropical(q, x).value + (1 - t) * eval_tropical(q, y).value
    assert lhs <= rhs + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_float_path_matches_exact_path(data):
    """At small-denominator rational points the float path agrees with the exact one."""
    n = data.draw(st.integers(1, 3))
    small = st.fractions(-5, 5, max_denominator=8)
    exps = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    terms = data.draw(st.dictionaries(exps, small, min_size=1, max_size=6))
    x = tuple(data.draw(small) for _ in range(n))

    def at_x(e):
        return sum(xi * ei for xi, ei in zip(x, e))

    top = max(at_x(e) + c for e, c in terms.items())
    # one more term tied with the top at x, so that ties are common
    tied = data.draw(exps)
    terms.setdefault(tied, top - at_x(tied))
    q = TropicalPolynomial(terms, ambient_dim=n)
    exact = eval_tropical(q, x)
    floating = eval_tropical(q, tuple(float(xi) for xi in x))
    scale = max(1, abs(top))
    assert abs(floating.value - exact.value) <= 1e-12 * scale
    assert set(exact.argmax) <= set(floating.argmax)
    runner_up = max((at_x(e) + c for e, c in q.terms if at_x(e) + c < top), default=None)
    if runner_up is not None and top - runner_up > Fraction(2e-9) * scale:
        assert floating.argmax == exact.argmax


# -- dequantization


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_batch_matches_scalar_float_path(data):
    """Each row of a batched float evaluation equals the per-point formula bit for bit."""
    n = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    coeffs = st.one_of(st.floats(-10, 10), st.integers(-5, 5), st.fractions(-5, 5, max_denominator=7))
    q = TropicalPolynomial(data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=6)), ambient_dim=n)
    coord = st.one_of(st.floats(-1e3, 1e3), st.integers(-4, 4).map(float))  # integers make ties
    X = np.array(data.draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=8)))
    batch = eval_tropical(q, X)
    for x, value, hits in zip(X.tolist(), batch.value, batch.argmax):
        top, arg = eval_tropical_float_scalar(q, x)
        assert value == top == eval_tropical(q, tuple(x)).value
        assert tuple(e for (e, _), hit in zip(q.terms, hits) if hit) == arg == eval_tropical(q, tuple(x)).argmax


@settings(max_examples=300)
@given(st.lists(st.one_of(st.floats(-1e200, 1e200), st.floats(-1, 1)), min_size=1, max_size=6))
def test_builtin_sum_matches_sum(values):
    """Elementwise sums repeat the running interpreter's sum(), compensated or not."""
    columns = [np.array([v]) for v in values]
    assert builtin_sum(columns)[0] == sum(values)
    assert builtin_sum(columns, COMPLEX_SUM_COMPENSATES)[0] == sum(complex(v, 1.0) for v in values).real
    assert builtin_sum(columns, compensated=True)[0] == compensated_sum(values)


def test_dequantized_examples():
    assert dequantized_sum([0, 0], 1.0) == pytest.approx(math.log(2), abs=1e-12)
    assert dequantized_sum([1, 0], 0.1) == pytest.approx(1 + 0.1 * math.log(1 + math.e ** -10), rel=1e-12)
    assert dequantized_sum([5], 0.37) == 5


def test_dequantized_errors():
    with pytest.raises(TropicalError):
        dequantized_sum([1, 2], 0)
    with pytest.raises(TropicalError):
        dequantized_sum([], 1)


@settings(max_examples=200)
@given(
    st.lists(st.floats(-20, 20), min_size=1, max_size=6),
    st.sampled_from([1.0, 0.1, 0.01]),
)
def test_dequantized_bounds(values, h):
    s = dequantized_sum(values, h)
    assert max(values) - 1e-12 <= s <= max(values) + h * math.log(len(values)) + 1e-12


@settings(max_examples=100)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=5), st.floats(0.01, 2), st.floats(0.01, 2))
def test_dequantized_monotone_in_h(values, h1, h2):
    lo, hi = sorted([h1, h2])
    assert dequantized_sum(values, lo) <= dequantized_sum(values, hi) + 1e-9


# -- tropicalisation


def test_tropicalize_line():
    f = ComplexPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): 1})
    q = tropicalize_poly(f)
    assert q == TropicalPolynomial({(-1, 0): 0, (0, -1): 0, (0, 0): 0})


def test_tropicalize_monomial_and_laurent():
    f = ComplexPolynomial({(2, 0): 1})
    assert tropicalize_poly(f) == TropicalPolynomial({(-2, 0): 0})
    f = ComplexPolynomial({(0, 0): 1, (1, 2): 1})
    assert tropicalize_poly(f) == TropicalPolynomial({(0, 0): 0, (-1, -2): 0})


# -- hypersurfaces


def scan_kinks_line(box=3.0, steps=41, h=1e-4):
    """Grid points where max(0, -x1, -x2) fails the second-difference test.

    Hand-coded oracle, independent of the tie machinery in the library.
    """

    def q(x1, x2):
        return max(0.0, -x1, -x2)

    pts = []
    dirs = [(1, 0), (0, 1), (1, 1), (1, -1)]
    axis = [box * (2 * i / (steps - 1) - 1) for i in range(steps)]
    for x1 in axis:
        for x2 in axis:
            for d in dirs:
                bend = q(x1 + h * d[0], x2 + h * d[1]) + q(x1 - h * d[0], x2 - h * d[1]) - 2 * q(x1, x2)
                if bend > 0.4 * h:
                    pts.append((x1, x2))
                    break
    return pts


def test_hypersurface_line_with_scan_oracle():
    q = TropicalPolynomial({(0, 0): 0, (-1, 0): 0, (0, -1): 0})
    cycle = tropical_hypersurface(q)
    rays = cycle_rays(cycle)
    assert rays == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
    assert check_balancing(cycle).balanced
    # every kink point sits near a returned ray, and each ray is witnessed
    kinks = scan_kinks_line()
    assert kinks
    pitch = 6.0 / 40
    for x1, x2 in kinks:
        dist = min(
            _dist_to_ray((x1, x2), r) for r in rays
        )
        assert dist <= pitch
    for r in rays:
        t = 1.5
        p = (t * r[0], t * r[1])
        assert min(abs(p[0] - k[0]) + abs(p[1] - k[1]) for k in kinks) <= 2 * pitch


def _dist_to_ray(p, r):
    rr = r[0] * r[0] + r[1] * r[1]
    t = max(0.0, (p[0] * r[0] + p[1] * r[1]) / rr)
    return math.hypot(p[0] - t * r[0], p[1] - t * r[1])


def test_hypersurface_opposite_line():
    q = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0})
    rays = cycle_rays(tropical_hypersurface(q))
    assert rays == {(1, 1): 1, (-1, 0): 1, (0, -1): 1}


def test_hypersurface_weight_two():
    q = TropicalPolynomial({(0, 0): 0, (-2, 0): 0})
    cycle = tropical_hypersurface(q)
    assert len(cycle.cells) == 1
    cell, w = cycle.cells[0]
    assert w == 2
    assert cell.lineality == ((0, 1),)
    assert cell.contains((0, 5)) and not cell.contains((1, 0))


@pytest.mark.parametrize("k", [2, 3])
def test_hypersurface_weight_spans_extreme_tying_exponents(k):
    # max(0, x, kx, y): on the ray (0, -1) the exponents 0, e1 and k e1 tie, and
    # the weight k runs from the first to the last; an adjacent pair gives 1,
    # and for k = 3 the largest adjacent gap gives 2
    q = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (k, 0): 0, (0, 1): 0})
    assert cycle_rays(tropical_hypersurface(q)) == {(0, -1): k, (-1, 0): 1, (1, k): 1}


def test_hypersurface_affine_cell():
    q = TropicalPolynomial({(0, 0): 0, (-1, 0): 1})
    cycle = tropical_hypersurface(q)
    assert len(cycle.cells) == 1
    cell, w = cycle.cells[0]
    assert w == 1
    assert cell.contains((1, 7)) and not cell.contains((0, 0))


def test_hypersurface_vertex_structure():
    # three generic affine terms: a tropical line translated off the origin
    q = TropicalPolynomial({(0, 0): 0, (-1, 0): 1, (0, -1): 2})
    cycle = tropical_hypersurface(q)
    assert len(cycle.cells) == 3
    assert check_balancing(cycle).balanced
    verts = {v for cell, _ in cycle.cells for v in cell.vertices}
    assert verts == {(Fraction(1), Fraction(2))}


def test_hypersurface_single_term_empty():
    q = TropicalPolynomial({(2, 0): 0})
    assert tropical_hypersurface(q).is_empty


def test_hypersurface_dim_cap():
    with pytest.raises(TropicalError):
        tropical_hypersurface(TropicalPolynomial({(0, 0, 0, 0): 0, (1, 0, 0, 0): 0}))


def test_hypersurface_product_is_cycle_sum():
    # (z1 + z2)^2 tropicalises to a weight-2 line; equals the sum of the factors
    f_sq = ComplexPolynomial({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    h_sq = tropical_hypersurface(tropicalize_poly(f_sq))
    f = ComplexPolynomial({(1, 0): 1, (0, 1): 1})
    h = tropical_hypersurface(tropicalize_poly(f))
    assert h_sq == add_cycles(h, h)
    # monomial times binomial: monomial contributes an empty cycle
    f_mono = ComplexPolynomial({(1, 0): 1})
    f_prod = ComplexPolynomial({(2, 0): 1, (1, 1): 1})  # z1 * (z1 + z2)
    lhs = tropical_hypersurface(tropicalize_poly(f_prod))
    rhs = add_cycles(tropical_hypersurface(tropicalize_poly(f_mono)), h)
    assert lhs == rhs


def random_tropical_polynomial(rng, n):
    nterms = rng.randint(2, 6)
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(-3, 3) for _ in range(n))
        coeff = Fraction(rng.randint(-32, 32), 16)
        terms[exp] = coeff
    return TropicalPolynomial(terms, ambient_dim=n)


def test_random_hypersurfaces_balanced_sample():
    rng = random.Random(20260810)
    for i in range(12):
        n = 2 if i % 2 == 0 else 3
        q = random_tropical_polynomial(rng, n)
        cycle = tropical_hypersurface(q)
        assert check_balancing(cycle).balanced, f"unbalanced for {q}"


# -- Bergman fans


def test_bergman_line():
    rays = cycle_rays(uniform_bergman_fan(1, 2))
    assert rays == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}


def test_bergman_counts():
    assert len(uniform_bergman_fan(2, 3).cells) == 6
    for n in (2, 3):
        assert len(uniform_bergman_fan(n, n).cells) == n + 1


def test_bergman_fan_is_tropical_linear_hypersurface():
    """trop V(z_1 + ... + z_n + 1) is the uniform Bergman fan B(n - 1, n)."""
    for n in (2, 3):
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        f = ComplexPolynomial({e: 1 for e in unit + [(0,) * n]})
        assert tropical_hypersurface(tropicalize_poly(f)) == uniform_bergman_fan(n - 1, n)


def test_bergman_range_errors():
    with pytest.raises(TropicalError):
        uniform_bergman_fan(0, 2)
    with pytest.raises(TropicalError):
        uniform_bergman_fan(3, 2)


# -- fiber binomials


def test_fiber_binomial_examples():
    f, w = fiber_binomial((1, -1), 1)
    assert w == 1
    assert f == ComplexPolynomial({(1, 0): 1, (0, 1): -1})
    f, w = fiber_binomial((2, -2), 1)
    assert w == 2
    assert f == ComplexPolynomial({(1, 0): 1, (0, 1): -1})
    f, w = fiber_binomial((1, 1), -1)
    assert w == 1
    assert f == ComplexPolynomial({(1, 1): 1, (0, 0): 1})


def test_fiber_binomial_zero_normal():
    with pytest.raises(TropicalError):
        fiber_binomial((0, 0), 1)


def test_fiber_binomial_vanishes_on_fiber():
    # points with z^alpha = c are zeros of the binomial
    f, w = fiber_binomial((2, -2), 1j)
    z1 = 2.0 + 0j
    z2 = z1 / (1j)  # then z1 - i z2 has z1^1 z2^0 - i z2 = 0
    assert abs(f((z1, z2))) < 1e-12
