import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropdyn.dynamics
from tropdyn.dynamics import (
    DynamicsError,
    GridSpec,
    PointCloud,
    amoeba_sample,
    clip_to_box,
    convergence_report,
    dequantization_error,
    directed_hausdorff,
    empirical_fourier,
    hausdorff,
    log_abs_power_pullback,
    mth_roots,
    polynomial_roots,
    sample_tropical_support,
    star_discrepancy,
    weyl_sum,
)
from tropdyn.tropical import (
    ComplexPolynomial,
    TropicalPolynomial,
    dequantized_sum,
    eval_tropical,
    tropical_hypersurface,
    tropicalize_poly,
)

from oracles import directed_hausdorff_bruteforce, log_abs_power_pullback_scalar, weyl_sum_bruteforce

LINE = ComplexPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): 1})


def line_cycle():
    return tropical_hypersurface(tropicalize_poly(LINE))


# -- roots of unity


def test_mth_roots_unit():
    cloud = mth_roots([1.0], 4)
    got = sorted(cloud.points[:, 0], key=lambda z: cmath.phase(z) % (2 * math.pi))
    expect = [1, 1j, -1, -1j]
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, expect))


def test_mth_roots_eight():
    cloud = mth_roots([8.0], 3)
    assert len(cloud) == 3
    assert np.allclose(np.abs(cloud.points), 2.0)


def test_mth_roots_pairs():
    assert len(mth_roots([1.0, 1.0], 2)) == 4


def test_mth_roots_budget_and_zero():
    with pytest.raises(DynamicsError):
        mth_roots([1.0, 1.0, 1.0], 101)
    with pytest.raises(DynamicsError):
        mth_roots([1.0, 0.0], 3)


# -- Weyl sums


def test_weyl_examples():
    assert weyl_sum(3, (1,)) == 0
    assert weyl_sum(3, (6,)) == 3
    assert weyl_sum(4, (2, 0)) == 0
    assert abs(weyl_sum_bruteforce(4, (2, 0))) < 1e-10


def test_weyl_matches_bruteforce():
    for m in (2, 3, 5, 8, 12):
        for nu in [(-3,), (0,), (7,), (2, 4), (m, -m), (1, m)]:
            assert abs(weyl_sum(m, nu) - weyl_sum_bruteforce(m, nu)) <= 1e-9


def test_empirical_fourier_matches_weyl():
    m, n = 9, 2
    cloud = mth_roots([1.0, 1.0], m)
    for nu in [(1, 0), (3, 3), (m, 0), (m, m), (4, -5)]:
        expect = weyl_sum(m, nu) / m ** n
        assert abs(empirical_fourier(cloud, nu) - expect) <= 1e-12


def test_star_discrepancy_equispaced():
    for m in (5, 16, 64):
        assert star_discrepancy(mth_roots([1.0], m)) == pytest.approx(1 / m, abs=1e-12)


# -- polynomial roots


def one_row(coeffs):
    """polynomial_roots of one polynomial as a one-row batch: (its roots as a list, whether it failed)."""
    batch = polynomial_roots(np.asarray([coeffs], dtype=complex))
    return batch.roots[0].tolist(), bool(batch.failed[0])


def test_roots_basic():
    roots, failed = one_row([1, 0, 1])  # z^2 + 1
    assert not failed
    assert sorted(r.imag for r in roots) == pytest.approx([-1, 1], abs=1e-10)
    roots, failed = one_row([2, -3, 1])  # z^2 - 3z + 2
    assert not failed
    assert sorted(r.real for r in roots) == pytest.approx([1, 2], abs=1e-10)


def test_roots_match_mth_roots():
    roots, failed = one_row([-1, 0, 0, 1])  # z^3 - 1
    assert not failed
    expect = sorted(mth_roots([1.0], 3).points[:, 0], key=lambda z: cmath.phase(z))
    got = sorted(roots, key=lambda z: cmath.phase(z))
    assert all(abs(a - b) < 1e-10 for a, b in zip(got, expect))


def test_roots_against_numpy_oracle():
    rng = np.random.default_rng(5)
    for deg in (1, 2, 5, 9, 17):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        roots, failed = one_row(c)
        assert not failed
        mine = sorted(roots, key=lambda z: (z.real, z.imag))
        ref = sorted(np.roots(c[::-1]).tolist(), key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) < 1e-7 for a, b in zip(mine, ref))


def test_roots_vieta():
    c = [6, -5, 1]  # (z-2)(z-3)
    roots, failed = one_row(c)
    assert not failed
    prod = abs(np.prod(roots))
    assert prod == pytest.approx(abs(c[0] / c[-1]), rel=1e-8)


def test_roots_deflation_and_multiplicity():
    # z^2: a zero constant term fails the row (amoeba_sample shifts zero roots out first)
    _, failed = one_row([0, 0, 1])
    assert failed
    roots, failed = one_row([1, 2, 1])  # (z+1)^2
    assert not failed
    assert all(abs(r + 1) < 1e-6 for r in roots)


def test_roots_errors():
    with pytest.raises(DynamicsError):
        polynomial_roots([3])
    with pytest.raises(DynamicsError):
        polynomial_roots([1, 2, 0])
    with pytest.raises(DynamicsError):
        polynomial_roots(np.ones((4, 1)))


def _matches(mine, ref, tol):
    """Every root of either list lies within tol * max(1, |root|) of the other list."""
    mine, ref = np.asarray(mine), np.asarray(ref)
    gaps = np.abs(mine[:, None] - ref[None, :])
    scale = np.maximum(1.0, np.abs(ref))
    return np.all(gaps.min(axis=1) <= tol * scale.max()) and np.all(gaps.min(axis=0) <= tol * scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_batch_roots_property(d, rows, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(rows, d + 1)) + 1j * rng.normal(size=(rows, d + 1))
    c *= np.exp(rng.uniform(-3, 3, size=(rows, 1)))  # rows of different scales
    batch = polynomial_roots(c)
    assert batch.roots.shape == (rows, d) and batch.failed.shape == (rows,)
    assert len(batch) == d * int(np.count_nonzero(~batch.failed))
    for r in range(rows):
        # the batch row is the one-row call (same roots, same flag), and agrees with numpy
        alone = polynomial_roots(c[r:r + 1])
        assert alone.failed[0] == batch.failed[r]
        assert np.array_equal(alone.roots[0], batch.roots[r], equal_nan=True)
        if batch.failed[r]:
            continue
        assert _matches(batch.roots[r], np.roots(c[r, ::-1]), 1e-7)
        if d == 1:
            assert batch.roots[r, 0] == -c[r, 0] / c[r, 1]
            assert batch.iterations[r] == 0
    # one Aberth sweep does not converge: rows of degree >= 3 come back failed
    if d >= 3:
        with pytest.MonkeyPatch.context() as mp:  # a function-scoped fixture is refused under @given
            mp.setattr(tropdyn.dynamics, "MAX_SWEEPS", 1)
            assert polynomial_roots(c).failed.all()


def test_batch_roots_unstartable_rows_fail():
    c = np.array([[1, 2, 0], [0, 1, 1], [np.nan, 1, 1], [2, -3, 1]], dtype=complex)
    batch = polynomial_roots(c)
    assert batch.failed.tolist() == [True, True, True, False]
    assert np.isnan(batch.roots[:3]).all()
    assert batch.roots[3] == pytest.approx([1, 2], abs=1e-10)
    assert len(polynomial_roots(np.zeros((0, 4)))) == 0


# -- amoeba sampling


def test_log_map_convention():
    """Points land at -(1/m) log|root|: on 1 + z1 + z2 the root of a slice z1 is -(1 + z1)."""
    m, grid = 2, GridSpec(box=((-1, 1), (-1, 1)), resolution=(3, 3))
    z1 = [cmath.exp(complex(-m * s, 2 * math.pi * k / 3)) for s in (-1, 0, 1) for k in range(3)]
    slice_s = [s for s in (-1, 0, 1) for _ in range(3)]
    log_root = [-math.log(abs(1 + z)) / m for z in z1]
    expected = [(s, y) for s, y in zip(slice_s, log_root)] + [(y, s) for s, y in zip(slice_s, log_root)]
    assert tropdyn.dynamics.LOG_SIGN == -1.0
    assert amoeba_sample(LINE, grid, m).points == pytest.approx(np.array(expected), abs=1e-12)


def test_amoeba_slice_example():
    grid = GridSpec(box=((-1, 1), (-1, 1)), resolution=(3, 3))
    cloud = amoeba_sample(LINE, grid, 1)
    target = np.array([0.0, -math.log(2)])
    dists = np.linalg.norm(cloud.points - target, axis=1)
    assert dists.min() < 1e-9


def test_amoeba_diagonal():
    f = ComplexPolynomial({(1, 0): 1, (0, 1): -1})
    grid = GridSpec(box=((-2, 2), (-2, 2)), resolution=(9, 9))
    cloud = amoeba_sample(f, grid, 1)
    assert len(cloud) > 0
    assert np.max(np.abs(cloud.points[:, 0] - cloud.points[:, 1])) < 1e-9


def test_amoeba_scaling_identity():
    grid = GridSpec(box=((-2, 2), (-2, 2)), resolution=(5, 5))
    grid8 = GridSpec(box=((-16, 16), (-16, 16)), resolution=(5, 5))
    c_m = amoeba_sample(LINE, grid, 8)
    c_1 = amoeba_sample(LINE, grid8, 1)
    assert np.array_equal(np.sort(c_m.points, axis=0), np.sort(c_1.points / 8, axis=0))


def test_amoeba_torus_rotation_invariance():
    """LINE(e^{0.3i} z) has LINE's amoeba; the fixed phases sample it at other points."""
    grid = GridSpec(box=((-2, 2), (-2, 2)), resolution=(41, 41))
    turn = cmath.exp(0.3j)
    rotated = ComplexPolynomial({(1, 0): turn, (0, 1): turn, (0, 0): 1})
    a = amoeba_sample(LINE, grid, 1)
    b = amoeba_sample(rotated, grid, 1)
    assert not np.array_equal(a.points, b.points)
    pitch = 4 / 40
    assert hausdorff(a, b) <= 2 * pitch


def test_amoeba_univariate_rejected():
    f = ComplexPolynomial({(1, 0): 1, (2, 0): 1})
    with pytest.raises(DynamicsError):
        amoeba_sample(f, GridSpec(box=((-1, 1), (-1, 1)), resolution=(3, 3)), 1)


def test_amoeba_calls_root_finder_once_per_axis(monkeypatch):
    """The slices of an axis form one batch, so the root finder runs once or twice per call."""
    calls = []
    inner = tropdyn.dynamics.polynomial_roots

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tropdyn.dynamics, "polynomial_roots", counting)
    cloud = amoeba_sample(LINE, GridSpec(box=((-3, 3), (-3, 3)), resolution=(11, 11)), 4)
    assert len(cloud) > 0
    assert 1 <= len(calls) <= 2


def test_amoeba_cancelled_bucket_keeps_degree(monkeypatch):
    """A row whose top coefficient cancels exactly is solved in its own, lower-degree batch."""
    slice_matrix = tropdyn.dynamics._slice_matrix
    solve = tropdyn.dynamics.polynomial_roots
    shapes = []

    def cancel_first_top(f, axis, log_w, phi):
        logmag, phase, present = slice_matrix(f, axis, log_w, phi)
        logmag[0, -1], present[0, -1] = -np.inf, False
        return logmag, phase, present

    def recording(c):
        shapes.append(np.shape(c))
        return solve(c)

    monkeypatch.setattr(tropdyn.dynamics, "_slice_matrix", cancel_first_top)
    monkeypatch.setattr(tropdyn.dynamics, "polynomial_roots", recording)
    f = ComplexPolynomial({(0, 2): 1, (1, 1): 1, (0, 0): 1})  # z2^2 + z1 z2 + 1
    grid = GridSpec(box=((-1, 1), (-1, 1)), resolution=(3, 3))
    cloud = amoeba_sample(f, grid, 2)
    S = 3 * 3
    # axis 0: row 0 is z1 z2 + 1 (degree 1), the rest quadratic in z2; axis 1:
    # row 0 keeps only its constant coefficient (no roots), the rest linear in z1
    assert sorted(shapes) == sorted([(S - 1, 3), (1, 2), (S - 1, 2)])
    assert cloud.counters["slices"] == 2 * S - 1
    # z2 = -1/z1 with |z1| = e^(-m s): the scaled point is (s, -s)
    assert cloud.points[0].tolist() == [-1.0, 1.0]
    assert len(cloud) == 1 + 2 * (S - 1) + (S - 1)


def _random_curve(rng, degree):
    """A curve whose Newton polygon has both variables: k >= 3 terms of degree <= degree."""
    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    while True:
        k = int(rng.integers(3, len(exps) + 1))
        chosen = [exps[i] for i in rng.choice(len(exps), size=k, replace=False)]
        if max(e[0] for e in chosen) > 0 and max(e[1] for e in chosen) > 0:
            break
    coeffs = np.exp(rng.uniform(-2, 2, size=k)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=k))
    return ComplexPolynomial(dict(zip(chosen, coeffs.tolist())))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.sampled_from([4, 8, 16]), st.integers(0, 2 ** 32 - 1))
def test_amoeba_points_satisfy_gap_bound(degree, m, seed):
    """At a zero of f no term exceeds the sum of the k-1 others.

    So at every scaled amoeba point x the two largest of log|c_a|/m - <a, x>
    are at most log(k-1)/m apart.  Slices of degree 2-4 go through Aberth.
    """
    f = _random_curve(np.random.default_rng(seed), degree)
    grid = GridSpec(box=((-3, 3), (-3, 3)), resolution=(13, 13))
    cloud = amoeba_sample(f, grid, m)
    assert cloud.counters["slices"] > 0
    exps = np.array([e for e, _ in f.terms], dtype=float)
    logc = np.log(np.abs(np.array([c for _, c in f.terms])))
    vals = logc[None, :] / m - cloud.points @ exps.T
    top2 = -np.partition(-vals, 1, axis=1)[:, :2]
    assert np.all(top2[:, 0] - top2[:, 1] <= math.log(len(f.terms) - 1) / m + 1e-6)


# -- support sampling and Hausdorff


def test_support_sampling_line():
    # rays (1,1), (-1,0), (0,-1): the hypersurface of max{0, x1, x2}
    q = TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0})
    cloud = sample_tropical_support(tropical_hypersurface(q), ((-2, 2), (-2, 2)), 10.0)
    for target in [(1.0, 1.0), (-2.0, 0.0), (0.0, -1.5)]:
        d = np.linalg.norm(cloud.points - np.array(target), axis=1).min()
        assert d <= 0.15
    # stays on the support
    for p in cloud.points:
        on = (
            (abs(p[0] - p[1]) < 1e-6 and p[0] >= -1e-9)
            or (abs(p[1]) < 1e-6 and p[0] <= 1e-9)
            or (abs(p[0]) < 1e-6 and p[1] <= 1e-9)
        )
        assert on, p


def test_support_sampling_empty_cycle():
    from tropdyn.polyhedra import WeightedComplex

    empty = WeightedComplex(2, 1, [])
    assert len(sample_tropical_support(empty, ((-1, 1), (-1, 1)), 5.0)) == 0


def test_support_sampling_weighted_line():
    q = TropicalPolynomial({(0, 0): 0, (-2, 0): 0})
    cycle = tropical_hypersurface(q)
    cloud = sample_tropical_support(cycle, ((-2, 2), (-2, 2)), 8.0)
    assert np.max(np.abs(cloud.points[:, 0])) < 1e-9


def test_hausdorff_examples():
    A = PointCloud(2, np.array([[0.0, 0.0]]))
    B = PointCloud(2, np.array([[3.0, 4.0]]))
    assert directed_hausdorff(A, B) == pytest.approx(5.0)
    sub = PointCloud(2, np.array([[0.0, 0.0], [1.0, 1.0]]))
    sup = PointCloud(2, np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert directed_hausdorff(sub, sup) == 0.0
    A = PointCloud(1, np.array([[0.0], [1.0]]))
    B = PointCloud(1, np.array([[0.5]]))
    assert directed_hausdorff(A, B) == pytest.approx(0.5)
    assert hausdorff(A, B) == pytest.approx(0.5)
    with pytest.raises(DynamicsError):
        directed_hausdorff(A, PointCloud(1, np.zeros((0, 1))))


def test_hausdorff_rejects_complex_clouds():
    with pytest.raises(DynamicsError, match="real point clouds"):
        directed_hausdorff(mth_roots([1.0], 4), mth_roots([1.0], 8))


@st.composite
def hausdorff_clouds(draw):
    """Pairs of clouds with ties, repeated rows, tight far-off clusters, small B, one-row A, A inside B."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["lattice", "cluster", "uniform"]))

    def cloud(size):
        if kind == "lattice":  # equal distances everywhere
            return rng.integers(-3, 4, size=(size, d)).astype(float)
        if kind == "cluster":  # steps of about one ulp at a large offset
            return 1e8 + rng.integers(-4, 5, size=(size, d)) * 1e-8
        return rng.uniform(-5.0, 5.0, size=(size, d))

    B = cloud(draw(st.integers(1, 3 * tropdyn.dynamics.PRUNE_STRIDE)))
    if draw(st.booleans()):
        B = np.concatenate([B, B[rng.integers(0, len(B), size=len(B))]])  # repeated rows
    subset = draw(st.booleans())
    rows = draw(st.integers(1, 40))
    A = B[rng.integers(0, len(B), size=rows)] if subset else cloud(rows)
    return PointCloud(d, A), PointCloud(d, B), subset


@settings(max_examples=200, deadline=None)
@given(hausdorff_clouds())
def test_directed_hausdorff_bit_equal_to_bruteforce(clouds):
    A, B, subset = clouds
    got = directed_hausdorff(A, B)
    assert got == directed_hausdorff_bruteforce(A, B)
    if subset:
        assert got == 0.0
    assert directed_hausdorff(B, A) == directed_hausdorff_bruteforce(B, A)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_hausdorff_prunes_most_pairs(monkeypatch, m):
    # the hausdorff-line workload's shape: a generic line, 231 cloud points <-> 825 spine points.
    # Pruning needs the answer to exceed about half the strided spine's pitch: for LINE at
    # m = 16 the cloud hugs the spine closer than that and half the pairs are computed.
    line = ComplexPolynomial({(1, 0): 2, (0, 1): 3j, (0, 0): -1})
    box = ((-3.0, 3.0), (-3.0, 3.0))
    spine = clip_to_box(sample_tropical_support(tropical_hypersurface(tropicalize_poly(line)), box, 80.0), box)
    cloud = clip_to_box(amoeba_sample(line, GridSpec(box=box, resolution=(11, 11)), m), box)
    pairs = []
    kernel = tropdyn.dynamics._nearest_distances

    def counting(P, Q):
        pairs.append(len(P) * len(Q))
        return kernel(P, Q)

    monkeypatch.setattr(tropdyn.dynamics, "_nearest_distances", counting)
    assert hausdorff(cloud, spine) == max(
        directed_hausdorff_bruteforce(cloud, spine), directed_hausdorff_bruteforce(spine, cloud)
    )
    assert sum(pairs) <= 0.4 * 2 * len(cloud) * len(spine)


# -- dequantization


def test_dequantization_probe_value():
    # phase-0 value at the probe x = (1, 2); random phases can only shrink it
    hand = math.log(1 + math.e ** -8 + math.e ** -16) / 8
    probe = log_abs_power_pullback(LINE, np.array([(1.0, 2.0)]), np.zeros((1, 2)), 8)[0][0] / 8
    assert probe == pytest.approx(hand, rel=1e-9)
    grid = GridSpec(box=((1.0, 3.0), (2.0, 4.0)), resolution=(2, 2), delta=0.2)
    linf, l1 = dequantization_error(LINE, 8, grid, seed=3)
    assert 0 < linf <= 1.05 * hand
    assert l1 <= linf
    # reproducible for a fixed seed
    assert dequantization_error(LINE, 8, grid, seed=3) == (linf, l1)


def test_dequantization_monomial_exact():
    f = ComplexPolynomial({(1, 0): 1})
    grid = GridSpec(box=((-2, 2), (-2, 2)), resolution=(5, 5), delta=0.1)
    linf, l1 = dequantization_error(f, 6, grid, seed=0)
    assert linf == 0.0 and l1 == 0.0


def test_dequantization_needs_exclusion():
    grid = GridSpec(box=((-1, 1), (-1, 1)), resolution=(3, 3))
    with pytest.raises(DynamicsError):
        dequantization_error(LINE, 2, grid)


def test_dequantization_halving_near_set():
    # leading-term model: error(2m)/error(m) ~ 1/2 while m*gap stays small
    x = (0.02, 5.0)
    q = tropicalize_poly(LINE)
    errs = []
    for m in (1, 2):
        vals = [sum(-a * xi for a, xi in zip(exp, x)) for exp, _ in LINE.terms]
        errs.append(abs(dequantized_sum(vals, 1.0 / m) - max(vals)))
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.1)


def test_dequantized_sum_matches_phase_zero_log():
    # for positive coefficients at phase zero, (1/m) log f(z^m) is exactly a
    # dequantized sum of the tropical terms at scale h = 1/m
    f = ComplexPolynomial({(1, 0): 2.0, (0, 1): 0.5, (0, 0): 3.0})
    x = (0.7, -1.3)
    for m in (1, 4, 16):
        h = 1.0 / m
        direct = log_abs_power_pullback(f, np.array([x]), np.zeros((1, 2)), m)[0][0] / m
        values = [
            sum(-a * xi for a, xi in zip(exp, x)) + h * math.log(abs(c))
            for exp, c in f.terms
        ]
        assert direct == pytest.approx(dequantized_sum(values, h), abs=1e-12)


@st.composite
def pullback_inputs(draw):
    """A polynomial in 2-3 variables with up to 6 terms, a batch of points and phases, and m.

    A few drawn rows come first; 200 seeded rows in a drawn box follow, since
    an ulp of difference in one exp changes about one row in a thousand.
    """
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    part = st.floats(-1e3, 1e3)
    coeffs = st.builds(complex, part, part).filter(lambda c: abs(c) >= 1e-3)
    f = ComplexPolynomial(draw(st.dictionaries(exps, coeffs, min_size=1, max_size=6)))
    rows = draw(st.integers(1, 4))
    row = st.lists(st.floats(-6, 6), min_size=n, max_size=n)
    phase = st.lists(st.floats(-2 * math.pi, 4 * math.pi), min_size=n, max_size=n)
    X = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    T = np.array(draw(st.lists(phase, min_size=rows, max_size=rows)))
    lo = draw(st.floats(-6, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = np.concatenate([X, rng.uniform(lo, lo + draw(st.floats(0.1, 6)), size=(200, n))])
    T = np.concatenate([T, rng.uniform(0.0, 2 * np.pi, size=(200, n))])
    return f, X, T, draw(st.integers(1, 64))


@settings(max_examples=150, deadline=None)
@given(pullback_inputs())
def test_pullback_batch_bit_equal_to_scalar_oracle(inputs):
    f, X, T, m = inputs
    vals, zero = log_abs_power_pullback(f, X, T, m)
    for i, (x, theta, val, masked) in enumerate(zip(X.tolist(), T.tolist(), vals, zero)):
        try:
            expected = log_abs_power_pullback_scalar(f, x, theta, m)
        except ZeroDivisionError:
            assert masked
            continue
        assert not masked and val == expected
        if i < len(X) - 200:  # the one-row call on the drawn rows
            assert log_abs_power_pullback(f, np.array([x]), np.array([theta]), m)[0][0] == expected


def test_pullback_subnormal_phase_bit_equal_to_scalar_oracle():
    # arg(2 + 5e-324 i) underflows to 0.0 in atan2; cmath.phase raises OverflowError
    f = ComplexPolynomial({(1, 0): 2 + 5e-324j, (0, 1): -1 + 0.5j, (0, 0): 3.0})
    rng = np.random.default_rng(7)
    X = rng.uniform(-3.0, 3.0, size=(50, 2))
    T = rng.uniform(0.0, 2 * np.pi, size=(50, 2))
    for m in (1, 4, 17):
        vals, zero = log_abs_power_pullback(f, X, T, m)
        assert not zero.any()
        for x, theta, val in zip(X.tolist(), T.tolist(), vals):
            assert val == log_abs_power_pullback_scalar(f, x, theta, m)


def test_pullback_masks_an_exact_zero():
    # 2 - z1 - z2 at z = (e^(-2 pi i), 1): the phases -pi and pi cancel exactly
    f = ComplexPolynomial({(0, 0): 2, (1, 0): -1, (0, 1): -1})
    X = np.array([[0.0, 0.0], [0.5, 0.0]])
    T = np.array([[-2 * math.pi, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroDivisionError):
        log_abs_power_pullback_scalar(f, X[0], T[0], 1)
    vals, zero = log_abs_power_pullback(f, X, T, 1)
    assert zero.tolist() == [True, False] and math.isnan(vals[0])
    assert vals[1] == log_abs_power_pullback_scalar(f, X[1], T[1], 1)
    vals, zero = log_abs_power_pullback(f, X[:1], T[:1], 1)
    assert zero.tolist() == [True] and math.isnan(vals[0])


RETRY_GRID = GridSpec(box=((1.0, 3.0), (2.0, 4.0)), resolution=(4, 4), delta=0.2)


def _masking_kernel(monkeypatch, seed, bad):
    """Patch the kernel so that point i fails on draw d for each (i, d) in bad.

    Points are numbered in the order of the first (full) batch and draws in
    the order of the seeded stream.  Returns the list of kept points.
    """
    n = 2
    stream = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=(200, n))
    draw_index = {row.tobytes(): d for d, row in enumerate(stream)}
    points = []

    def kernel(f, X, T, m):
        if not points:
            points.extend(map(tuple, X.tolist()))
        vals, zero = log_abs_power_pullback(f, X, T, m)
        index = {p: i for i, p in enumerate(points)}
        for r, (x, theta) in enumerate(zip(X.tolist(), T)):
            if (index[tuple(x)], draw_index[theta.tobytes()]) in bad:
                vals[r], zero[r] = np.nan, True
        return vals, zero

    monkeypatch.setattr(tropdyn.dynamics, "log_abs_power_pullback", kernel)
    return points


def _sequential_reference(f, m, points, seed, bad, max_retries):
    """The per-point loop: n phases per draw, a failed draw retried with the next one."""
    q = tropicalize_poly(f)
    rng = np.random.default_rng(seed)
    errors, draws, hits = [], 0, 0
    for i, x in enumerate(points):
        for _ in range(max_retries + 1):
            theta = rng.uniform(0.0, 2 * np.pi, size=len(x))
            draws += 1
            if (i, draws - 1) in bad:
                hits += 1
                continue
            g = log_abs_power_pullback_scalar(f, x, tuple(theta), m) / m
            errors.append(abs(g - eval_tropical(q, x).value))
            break
        else:
            raise DynamicsError("exceeded the phase retry budget near a zero")
    return (float(np.max(errors)), float(np.mean(errors))), hits


def test_dequantization_retry_takes_the_next_draws(monkeypatch):
    # point 0 fails draws 0 and 1, point 2 then draw 4, point 7 draw 10
    bad = {(0, 0), (0, 1), (2, 4), (7, 10)}
    points = _masking_kernel(monkeypatch, 5, bad)
    monkeypatch.setattr(tropdyn.dynamics, "MAX_RETRIES", 2)
    got = dequantization_error(LINE, 8, RETRY_GRID, seed=5)
    assert len(points) >= 8
    expected, hits = _sequential_reference(LINE, 8, points, 5, bad, max_retries=2)
    assert hits == len(bad)
    assert got == expected


def test_dequantization_retry_budget_is_per_point(monkeypatch):
    # point 1 fails on MAX_RETRIES + 1 draws in a row: 1, 2, 3, 4
    monkeypatch.setattr(tropdyn.dynamics, "MAX_RETRIES", 3)
    bad = {(1, d) for d in range(1, 5)}
    _masking_kernel(monkeypatch, 5, bad)
    with pytest.raises(DynamicsError, match="retry budget"):
        dequantization_error(LINE, 8, RETRY_GRID, seed=5)
    # spread over two points, the same failures stay within budget
    bad = {(1, 1), (1, 2), (1, 3), (2, 5), (2, 6), (2, 7)}
    points = _masking_kernel(monkeypatch, 5, bad)
    got = dequantization_error(LINE, 8, RETRY_GRID, seed=5)
    assert got == _sequential_reference(LINE, 8, points, 5, bad, max_retries=3)[0]


# -- convergence harness


def test_convergence_discrepancy():
    rep = convergence_report("equidistribution-discrepancy", (64, 128, 256))
    assert rep.errors == pytest.approx([1 / 64, 1 / 128, 1 / 256], abs=1e-12)
    assert rep.rho == pytest.approx(1.0, abs=1e-6)
    assert all(e <= 2 / m for e, m in zip(rep.errors, rep.ms))


def test_convergence_validation():
    with pytest.raises(DynamicsError):
        convergence_report("equidistribution-discrepancy", (8,))
    with pytest.raises(DynamicsError):
        convergence_report("equidistribution-discrepancy", (8, 8))
    with pytest.raises(DynamicsError):
        convergence_report("nope", (2, 4))


def test_convergence_hausdorff_decreasing():
    grid = GridSpec(box=((-2, 2), (-2, 2)), resolution=(41, 41))
    rep = convergence_report("hausdorff-to-tropical", (2, 4, 8), f=LINE, grid=grid, density=20.0)
    pitch = rep.details["grid_pitch"]
    for a, b in zip(rep.errors, rep.errors[1:]):
        assert b <= a + 2 * pitch
    # every slice of a line is degree 1: 2 axes x 41 values x 41 phases, no sweeps
    assert rep.details["slices"] == [2 * 41 * 41] * 3
    assert rep.details["failed_slices"] == [0, 0, 0]
    assert rep.details["aberth_iterations"] == [0, 0, 0]


def test_gridspec_validation():
    with pytest.raises(DynamicsError, match="at least one axis"):
        GridSpec(box=(), resolution=())
    with pytest.raises(DynamicsError):
        GridSpec(box=((1, 0),), resolution=(4,))
    with pytest.raises(DynamicsError):
        GridSpec(box=((0, 1),), resolution=(1,))
    with pytest.raises(DynamicsError):
        GridSpec(box=((0, 1),), resolution=(4,), delta=-1)
    for bad in ((math.nan, math.inf), (-1.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(DynamicsError, match="finite"):
            GridSpec(box=(bad,), resolution=(4,))
    for bad in (math.nan, math.inf):
        with pytest.raises(DynamicsError, match="finite"):
            GridSpec(box=((0, 1),), resolution=(4,), delta=bad)
    with pytest.raises(DynamicsError, match="at most"):
        GridSpec(box=((0, 1), (0, 1)), resolution=(1001, 1000))
    assert GridSpec(box=((0, 1), (0, 1)), resolution=(1000, 1000))
    cycle = tropical_hypersurface(tropicalize_poly(LINE))
    for bad in (math.nan, math.inf):
        with pytest.raises(DynamicsError, match="finite"):
            sample_tropical_support(cycle, ((-1, 1), (-1, 1)), bad)


def test_clip_to_box():
    cloud = PointCloud(2, np.array([[0.0, 0.0], [5.0, 0.0]]))
    clipped = clip_to_box(cloud, ((-1, 1), (-1, 1)))
    assert len(clipped) == 1
