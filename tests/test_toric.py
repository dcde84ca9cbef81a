import cmath

import pytest

from tropdyn import polyhedra, toric
from tropdyn.polyhedra import Cone, Fan
from tropdyn.toric import (
    ToricError,
    distinguished_point,
    orbit_point,
    orbits,
    phi_m_orbit,
    preimages,
)


def p2_fan():
    rays = [(1, 0), (0, 1), (-1, -1)]
    return Fan(
        [
            Cone.from_generators([rays[0], rays[1]]),
            Cone.from_generators([rays[1], rays[2]]),
            Cone.from_generators([rays[2], rays[0]]),
        ]
    )


def quadrant_fan():
    return Fan(
        [
            Cone.from_generators([(1, 0), (0, 1)]),
            Cone.from_generators([(0, 1), (-1, 0)]),
            Cone.from_generators([(-1, 0), (0, -1)]),
            Cone.from_generators([(0, -1), (1, 0)]),
        ]
    )


def test_orbits_p2(monkeypatch):
    """An orbit's dimension is n - dim(cone), read without presenting Z^n/(H_sigma cap Z^n)."""

    def no_quotient(*args):
        raise AssertionError("an orbit built a quotient lattice")

    monkeypatch.setattr(polyhedra, "_vrep_quotient", no_quotient)
    obs = orbits(p2_fan())
    assert len(obs) == 7
    assert sorted(o.dim for o in obs) == [0, 0, 0, 1, 1, 1, 2]
    for o in obs:
        assert o.dim + o.cone.dim == 2


def test_orbits_trivial_fan():
    trivial = Fan([Cone.from_generators([], ambient_dim=3)])
    obs = orbits(trivial)
    assert len(obs) == 1
    assert obs[0].dim == 3


def test_orbits_p1xp1():
    assert len(orbits(quadrant_fan())) == 9


def test_distinguished_point_torus():
    zero = Cone.from_generators([], ambient_dim=2)
    vals = distinguished_point(zero, [(1, 0), (0, 1), (-3, 5), (0, 0)])
    assert vals == (1, 1, 1, 1)  # the point (1, ..., 1)


def test_distinguished_point_ray():
    sigma = Cone.from_generators([(1, 0)])
    assert distinguished_point(sigma, [(1, 0), (0, 1), (0, -1)]) == (0, 1, 1)
    with pytest.raises(ToricError):
        distinguished_point(sigma, [(-1, 0)])


def test_distinguished_point_full_dim():
    sigma = Cone.from_generators([(1, 0), (0, 1)])
    assert distinguished_point(sigma, [(0, 0), (1, 0), (1, 1)]) == (1, 0, 0)


def test_distinguished_multiplicative_on_generators():
    sigma = Cone.from_generators([(1, 0)])
    probes = [(1, 0), (0, 1), (1, 1)]
    vals = dict(zip(probes, distinguished_point(sigma, probes)))
    # rule is a semigroup homomorphism: value(u+v) = value(u) * value(v)
    assert vals[(1, 1)] == vals[(1, 0)] * vals[(0, 1)]


def test_phi_m_torus_preimages():
    zero = Cone.from_generators([], ambient_dim=2)
    z = orbit_point(zero, (1, 1))
    pre = preimages(zero, 3, z)
    assert len(pre) == 9
    for w in pre:
        fwd = phi_m_orbit(zero, 3, w)
        assert all(abs(a - b) < 1e-12 for a, b in zip(fwd.coords, z.coords))


def test_phi_m_ray_orbit():
    sigma = Cone.from_generators([(1, 0)])
    z = orbit_point(sigma, (8,))
    pre = preimages(sigma, 3, z)
    assert len(pre) == 3  # m^(n - dim sigma) = 3^1
    mags = sorted(abs(w.coords[0]) for w in pre)
    assert all(abs(m - 2) < 1e-12 for m in mags)
    angles = sorted(cmath.phase(w.coords[0]) % (2 * cmath.pi) for w in pre)
    for a, b in zip(angles, angles[1:]):
        assert abs((b - a) - 2 * cmath.pi / 3) < 1e-9


def test_preimages_of_coordinate_with_subnormal_phase():
    sigma = Cone.from_generators([(1, 0)])
    z = orbit_point(sigma, (8 + 5e-324j,))
    pre = preimages(sigma, 3, z)
    assert all(abs(w.coords[0] ** 3 - 8) < 1e-12 for w in pre)


def test_preimages_refuse_more_than_the_budget_before_building(monkeypatch):
    """m = 10^4 on a 2-D orbit asks for 10^8 points; the check runs before any root is taken."""
    zero = Cone.from_generators([], ambient_dim=2)
    z = orbit_point(zero, (1, 1))

    def no_roots(c, m):
        raise AssertionError("roots taken before the size check")

    monkeypatch.setattr(toric, "_roots_of", no_roots)
    with pytest.raises(ToricError, match="at most 1000000 points, not 10000\\^2"):
        preimages(zero, 10 ** 4, z)
    with pytest.raises(AssertionError, match="before the size check"):  # 1000^2 is within the budget
        preimages(zero, 1000, z)


def test_phi_m_identity():
    sigma = Cone.from_generators([(1, 0)])
    z = orbit_point(sigma, (2 + 1j,))
    assert len(preimages(sigma, 1, z)) == 1
    fwd = phi_m_orbit(sigma, 1, z)
    assert fwd.coords == z.coords


def test_phi_composition():
    zero = Cone.from_generators([], ambient_dim=2)
    z = orbit_point(zero, (0.5 + 0.2j, -1.5))
    lhs = phi_m_orbit(zero, 2, phi_m_orbit(zero, 3, z))
    rhs = phi_m_orbit(zero, 6, z)
    assert all(abs(a - b) < 1e-9 for a, b in zip(lhs.coords, rhs.coords))


def test_preimage_count_exponent():
    zero3 = Cone.from_generators([], ambient_dim=3)
    z = orbit_point(zero3, (1, 2, 3j))
    for m in (1, 2, 4):
        assert len(preimages(zero3, m, z)) == m ** 3


def test_phi_m_errors():
    sigma = Cone.from_generators([(1, 0)])
    z = orbit_point(sigma, (1,))
    with pytest.raises(ToricError):
        phi_m_orbit(sigma, 0, z)
    other = Cone.from_generators([(0, 1)])
    with pytest.raises(ToricError):
        phi_m_orbit(other, 2, z)


def test_preimage_fourier_bridge():
    # empirical Fourier coefficients of the preimage cloud vanish for
    # frequencies not divisible by m
    zero = Cone.from_generators([], ambient_dim=2)
    z = orbit_point(zero, (1, 1))
    m = 16
    pre = preimages(zero, m, z)
    for nu in [(1, 0), (0, 3), (5, 7), (m - 1, 1)]:
        total = 0j
        for w in pre:
            theta = [cmath.phase(c) for c in w.coords]
            total += cmath.exp(-1j * (nu[0] * theta[0] + nu[1] * theta[1]))
        assert abs(total) / len(pre) < 1e-12
    nu = (m, 2 * m)
    total = sum(
        cmath.exp(-1j * (nu[0] * cmath.phase(w.coords[0]) + nu[1] * cmath.phase(w.coords[1])))
        for w in pre
    )
    assert abs(total / len(pre) - 1) < 1e-9
