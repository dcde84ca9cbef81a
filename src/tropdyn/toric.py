"""Combinatorial toric layer: orbits of fans, distinguished points, powering maps.

The orbit of a cone sigma is the torus on Z^n/(H_sigma cap Z^n), of
dimension n - dim(sigma); points carry one nonzero coordinate per quotient
direction.  The powering map t -> t^m acts componentwise there, and its
fibers are the m-th root combinations.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .dynamics import ALL_MODE_BUDGET
from .lattice import _as_int_vector, dot
from .polyhedra import Cone, Fan


class ToricError(ValueError):
    pass


class Orbit:
    """Torus of Z^n/(H_sigma cap Z^n) attached to a cone; dim = n - dim(cone) by rank-nullity."""

    def __init__(self, cone: Cone):
        self.cone = cone
        self.dim = cone.ambient_dim - cone.dim

    def __repr__(self):
        return f"Orbit(cone_dim={self.cone.dim}, dim={self.dim})"


def orbits(F: Fan) -> tuple[Orbit, ...]:
    """One orbit per cone of the fan, the zero cone included."""
    return tuple(Orbit(c) for c in F.all_cones())


def distinguished_point(sigma: Cone, probes) -> tuple[int, ...]:
    """Evaluate the semigroup rule u -> 1 on sigma-perp, 0 elsewhere.

    Probes must lie in the dual cone of sigma (pairing >= 0 with every
    generator); membership in sigma-perp is an exact kernel test against the
    generators.
    """
    out = []
    for u in probes:
        u = _as_int_vector(u)
        pair_rays = [dot(u, r) for r in sigma.rays]
        pair_lin = [dot(u, l) for l in sigma.lineality]
        if any(p < 0 for p in pair_rays) or any(p != 0 for p in pair_lin):
            raise ToricError(f"probe {u} is outside the dual cone")
        out.append(1 if all(p == 0 for p in pair_rays) else 0)
    return tuple(out)


class OrbitPoint:
    """Point of an orbit in quotient-torus coordinates (all nonzero)."""

    def __init__(self, orbit: Orbit, coords):
        coords = tuple(complex(c) for c in coords)
        if len(coords) != orbit.dim:
            raise ToricError("coordinate count does not match the orbit dimension")
        if any(c == 0 for c in coords):
            raise ToricError("orbit coordinates must be nonzero")
        self.orbit = orbit
        self.coords = coords

    def __repr__(self):
        return f"OrbitPoint({self.coords})"


def orbit_point(sigma: Cone, coords) -> OrbitPoint:
    return OrbitPoint(Orbit(sigma), coords)


def _check_on_orbit(sigma: Cone, z: OrbitPoint):
    if z.orbit.cone.key != sigma.key:
        raise ToricError("point does not lie on the orbit of sigma")


def phi_m_orbit(sigma: Cone, m: int, z: OrbitPoint) -> OrbitPoint:
    """Forward powering map on the orbit: each quotient coordinate to the m-th power."""
    if m < 1:
        raise ToricError("m must be a positive integer")
    _check_on_orbit(sigma, z)
    return OrbitPoint(z.orbit, tuple(c ** m for c in z.coords))


def _roots_of(c: complex, m: int) -> list[complex]:
    r = abs(c) ** (1.0 / m)
    theta = math.atan2(c.imag, c.real) / m
    return [r * cmath.exp(1j * (theta + 2 * cmath.pi * k / m)) for k in range(m)]


def preimages(sigma: Cone, m: int, z: OrbitPoint) -> tuple[OrbitPoint, ...]:
    """All m^(n - dim sigma) preimages of z under the powering map, in angular order."""
    if m < 1:
        raise ToricError("m must be a positive integer")
    _check_on_orbit(sigma, z)
    if m ** z.orbit.dim > ALL_MODE_BUDGET:
        raise ToricError(f"preimages lists at most {ALL_MODE_BUDGET} points, not {m}^{z.orbit.dim}")
    per_coord = [_roots_of(c, m) for c in z.coords]
    return tuple(OrbitPoint(z.orbit, combo) for combo in itertools.product(*per_coord))
