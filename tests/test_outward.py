import pytest

from tropdyn.lattice import (
    LatticeError,
    QuotientLattice,
    identity,
    quotient_outward_generator,
    saturate_and_complete,
    vec_sub,
)
from tropdyn.polyhedra import Cone


def tau_quotient(tau):
    dirs = tau.direction_basis()
    if dirs:
        return saturate_and_complete(dirs)
    return QuotientLattice(tau.ambient_dim, (), identity(tau.ambient_dim))


def outward(tau, sigma):
    """Class of u_{sigma/tau} as the balancing check computes it for a face tau of sigma."""
    sample = vec_sub(sigma.relint_point(), tau.relint_point())
    return quotient_outward_generator(tau_quotient(tau), sample)


def test_outward_ray_from_origin():
    tau = Cone.from_generators([], ambient_dim=2)
    sigma = Cone.from_generators([(1, 0)])
    assert outward(tau, sigma) == (1, 0)


def test_outward_quadrant_over_axis():
    tau = Cone.from_generators([(1, 0)])
    sigma = Cone.from_generators([(1, 0), (0, 1)])
    u = outward(tau, sigma)
    # generates Z^2/Z(1,0) and is the class of e2, which points up into the quadrant
    assert u in ((1,), (-1,))
    assert u == tau_quotient(tau).quotient_coords((0, 1))


def test_outward_skew_cone():
    tau = Cone.from_generators([(1, 1)])
    sigma = Cone.from_generators([(1, 1), (1, -1)])
    u = outward(tau, sigma)
    # the sample (1, -1) is twice the class of (0, -1), the outward generator
    assert u in ((1,), (-1,))
    assert u == tau_quotient(tau).quotient_coords((0, -1))


def test_outward_not_a_face():
    sigma = Cone.from_generators([(1, 0), (0, 1)])
    # the diagonal ray meets the interior: its relative-interior sample lies in H_tau
    not_face = Cone.from_generators([(1, 1)])
    with pytest.raises(LatticeError, match="lies in H_tau"):
        outward(not_face, sigma)
