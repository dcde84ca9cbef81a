"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and time budget is pinned here.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from tropdyn.cli import run
from tropdyn.dynamics import (
    GridSpec,
    amoeba_sample,
    clip_to_box,
    dequantization_error,
    empirical_fourier,
    hausdorff,
    log_abs_power_pullback,
    sample_tropical_support,
    weyl_sum,
    PointCloud,
)
from tropdyn.polyhedra import (
    Cone,
    Fan,
    add_cycles,
    check_balancing,
    common_refinement,
    is_unimodular,
)
from tropdyn.toric import distinguished_point, orbit_point, orbits, preimages
from tropdyn.tropical import (
    ComplexPolynomial,
    TropicalPolynomial,
    dequantized_sum,
    tropical_hypersurface,
    tropicalize_poly,
    uniform_bergman_fan,
)

from oracles import weyl_sum_bruteforce

LINE = ComplexPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): 1})


@contextmanager
def criterion(num, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"[criterion {num:02d}] {name}: PASS ({elapsed:.1f}s)")


def _scan_kinks(box=3.0, steps=41, h=1e-4):
    # independent non-differentiability scan of max(0, -x1, -x2)
    def q(x1, x2):
        return max(0.0, -x1, -x2)

    pts = []
    axis = [box * (2 * i / (steps - 1) - 1) for i in range(steps)]
    for x1 in axis:
        for x2 in axis:
            for d in ((1, 0), (0, 1), (1, 1), (1, -1)):
                bend = (
                    q(x1 + h * d[0], x2 + h * d[1])
                    + q(x1 - h * d[0], x2 - h * d[1])
                    - 2 * q(x1, x2)
                )
                if bend > 0.4 * h:
                    pts.append((x1, x2))
                    break
    return pts


def _dist_to_ray(p, r):
    rr = r[0] * r[0] + r[1] * r[1]
    t = max(0.0, (p[0] * r[0] + p[1] * r[1]) / rr)
    return math.hypot(p[0] - t * r[0], p[1] - t * r[1])


def test_criterion_01_tropical_line(tmp_path):
    with criterion(1, "tropical line via the hypersurface command", 1.0):
        src = tmp_path / "line.json"
        src.write_text(json.dumps({
            "terms": [
                {"exp": [1, 0], "re": 1.0, "im": 0.0},
                {"exp": [0, 1], "re": 1.0, "im": 0.0},
                {"exp": [0, 0], "re": 1.0, "im": 0.0},
            ]
        }))
        out = tmp_path / "cycle.json"
        assert run(["hypersurface", "-i", str(src), "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["balanced"] is True
        cells = {tuple(c["rays"][0]): c["weight"] for c in data["cells"]}
        assert cells == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
        # independent grid scan validates the ray set
        kinks = _scan_kinks()
        pitch = 6.0 / 40
        assert kinks
        for p in kinks:
            assert min(_dist_to_ray(p, r) for r in cells) <= pitch
        for r in cells:
            probe = (1.5 * r[0], 1.5 * r[1])
            assert min(math.hypot(probe[0] - k[0], probe[1] - k[1]) for k in kinks) <= 2 * pitch


def test_criterion_02_random_hypersurfaces_balanced():
    with criterion(2, "50 random tropical hypersurfaces balanced", 30.0):
        rng = random.Random(97)
        for i in range(50):
            n = 2 if i % 2 == 0 else 3
            terms = {}
            for _ in range(rng.randint(2, 6)):
                exp = tuple(rng.randint(-3, 3) for _ in range(n))
                terms[exp] = Fraction(rng.randint(-32, 32), 16)
            q = TropicalPolynomial(terms, ambient_dim=n)
            cycle = tropical_hypersurface(q)
            report = check_balancing(cycle)
            assert report.balanced, f"violations for {q}: {report.violations}"


def test_criterion_03_bergman_fans_balanced():
    with criterion(3, "uniform Bergman fans balanced for 1 <= p <= n <= 4", 10.0):
        for n in range(1, 5):
            for p in range(1, n + 1):
                cycle = uniform_bergman_fan(p, n)
                assert check_balancing(cycle).balanced, (p, n)


def test_criterion_04_weyl_sums():
    with criterion(4, "Weyl sums: closed form vs brute force", 10.0):
        for m in range(2, 65):
            for nj in range(-10, 11):
                closed = weyl_sum(m, (nj,))
                brute = weyl_sum_bruteforce(m, (nj,))
                assert abs(closed - brute) <= 1e-10
                if nj % m != 0:
                    assert closed == 0
        for m in (2, 3, 4, 5, 7, 8, 11, 16):
            for nu in itertools.product(range(-10, 11, 4), repeat=2):
                closed = weyl_sum(m, nu)
                assert abs(closed - weyl_sum_bruteforce(m, nu)) <= 1e-10
                if any(x % m != 0 for x in nu):
                    assert closed == 0


def test_criterion_05_orbit_equidistribution():
    with criterion(5, "preimage clouds equidistribute on orbit tori", 10.0):
        m = 128
        freqs = [x for x in range(-10, 11) if x != 0]
        # dense torus orbit (zero cone, n = 2)
        zero = Cone.from_generators([], ambient_dim=2)
        z = orbit_point(zero, (0.8 + 0.3j, -1.2 + 0.4j))
        pre = preimages(zero, m, z)
        assert len(pre) == m ** 2
        cloud = PointCloud(2, np.array([p.coords for p in pre]))
        for nu in itertools.product(freqs, freqs):
            assert abs(empirical_fourier(cloud, nu)) <= 1e-10, nu
        # one-dimensional orbit of the ray cone
        ray = Cone.from_generators([(1, 0)])
        z1 = orbit_point(ray, (2.0 - 1.0j,))
        pre1 = preimages(ray, m, z1)
        assert len(pre1) == m  # m^(n - dim sigma) with dim sigma = 1
        cloud1 = PointCloud(1, np.array([p.coords for p in pre1]))
        for nj in freqs:
            assert abs(empirical_fourier(cloud1, (nj,))) <= 1e-10, nj


def test_criterion_06_dynamical_kapranov_rate():
    with criterion(6, "dequantization errors decrease at the expected rate", 60.0):
        ms = (4, 8, 16, 32)
        grid = GridSpec(box=((-3, 3), (-3, 3)), resolution=(61, 61), delta=0.2)
        errors = []
        for m in ms:
            linf, _ = dequantization_error(LINE, m, grid, seed=0)
            errors.append(linf)
        assert all(b < a for a, b in zip(errors, errors[1:])), errors
        # phase-0 probe at x = (1, 2) against the hand value
        hand = math.log(1 + math.e ** -8 + math.e ** -16) / 8
        probe = log_abs_power_pullback(LINE, np.array([(1.0, 2.0)]), np.zeros((1, 2)), 8)[0][0] / 8
        assert abs(probe - hand) <= 0.2 * hand
        logm = np.log(np.asarray(ms, float))
        loge = np.log(np.asarray(errors))
        slope = np.polyfit(logm, loge, 1)[0]
        rho = -float(slope)
        # NOTE: with a fixed exclusion radius delta > 0 the pointwise error at
        # distance g from the tropical set is ~ exp(-m g)/m (the phase-0 probe
        # above confirms the model), so the sup over the admissible grid decays
        # like exp(-m delta)/m: faster than any fixed power on this m range.
        # The window below therefore cannot hold; the assertion is kept at the
        # required threshold rather than loosened to match the measurement.
        assert 0.8 <= rho <= 1.2, f"fitted exponent {rho:.2f} outside [0.8, 1.2]"


def test_criterion_07_hausdorff_convergence():
    with criterion(7, "scaled amoebas converge to the tropical support", 120.0):
        ms = (4, 8, 16, 32)
        box = ((-3.0, 3.0), (-3.0, 3.0))
        grid = GridSpec(box=box, resolution=(121, 121))
        cycle = tropical_hypersurface(tropicalize_poly(LINE))
        spine = clip_to_box(sample_tropical_support(cycle, box, density=60.0), box)
        pitch = 6.0 / 120
        values = []
        for cloud in amoeba_sample(LINE, grid, ms):
            values.append(hausdorff(clip_to_box(cloud, box), spine))
        for a, b in zip(values, values[1:]):
            assert b <= a + 2 * pitch, values
        assert values[-1] <= (values[0] / 4) * 1.3, values


def test_criterion_08_dequantized_sum_bound():
    with criterion(8, "dequantized sums obey the max / max + h ln k bound", 5.0):
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randint(1, 6)
            values = [rng.uniform(-10, 10) for _ in range(k)]
            for h in (1.0, 0.1, 0.01):
                s = dequantized_sum(values, h)
                assert max(values) - 1e-12 <= s <= max(values) + h * math.log(k) + 1e-12
        # exact agreement with (1/m) log|f(z^m)| at phase 0 for positive coefficients
        f = ComplexPolynomial({(1, 0): 2.0, (0, 1): 0.5, (1, 1): 3.0, (0, 0): 1.0})
        for m in (1, 2, 8, 32):
            h = 1.0 / m
            for x in ((0.3, -0.7), (1.5, 2.0), (-2.0, 0.1)):
                direct = log_abs_power_pullback(f, np.array([x]), np.zeros((1, 2)), m)[0][0] / m
                values = [
                    sum(-a * xi for a, xi in zip(exp, x)) + h * math.log(abs(c))
                    for exp, c in f.terms
                ]
                assert abs(direct - dequantized_sum(values, h)) <= 1e-12


def test_criterion_09_toric_combinatorics():
    with criterion(9, "orbit counts, distinguished points, unimodularity", 1.0):
        p2 = Fan(
            [
                Cone.from_generators([(1, 0), (0, 1)]),
                Cone.from_generators([(0, 1), (-1, -1)]),
                Cone.from_generators([(-1, -1), (1, 0)]),
            ]
        )
        obs = orbits(p2)
        assert len(obs) == 7
        assert sorted(o.dim for o in obs) == [0, 0, 0, 1, 1, 1, 2]
        zero = Cone.from_generators([], ambient_dim=2)
        probes = [(0, 0), (1, 0), (0, 1), (2, -3), (-5, 7)]
        assert distinguished_point(zero, probes) == (1, 1, 1, 1, 1)
        assert is_unimodular(p2)
        assert not is_unimodular(Cone.from_generators([(1, 0), (1, 2)]))


def test_criterion_10_refinement_and_addition():
    with criterion(10, "cycle addition and fan refinement counts", 5.0):
        line = uniform_bergman_fan(1, 2)
        doubled = add_cycles(line, line)
        assert doubled == line.scale(2)
        assert check_balancing(doubled).balanced
        quads = Fan(
            [
                Cone.from_generators([(1, 0), (0, 1)]),
                Cone.from_generators([(0, 1), (-1, 0)]),
                Cone.from_generators([(-1, 0), (0, -1)]),
                Cone.from_generators([(0, -1), (1, 0)]),
            ]
        )
        rotated = Fan(
            [
                Cone.from_generators([(1, 1), (1, -1)]),
                Cone.from_generators([(1, 1), (-1, 1)]),
                Cone.from_generators([(-1, -1), (-1, 1)]),
                Cone.from_generators([(-1, -1), (1, -1)]),
            ]
        )
        refined = common_refinement(quads, rotated)
        assert len(refined.maximal_cones) == 8
