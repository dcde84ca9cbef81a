import pytest

from tropdyn.lattice import LatticeError, quotient_outward_generator, saturate_and_complete, vec_sub
from tropdyn.polyhedra import Cone


def outward(tau, sigma):
    """u_{sigma/tau} as the balancing check computes it for a face tau of sigma."""
    sample = vec_sub(sigma.relint_point(), tau.relint_point())
    return quotient_outward_generator(tau.direction_basis(), sigma.direction_basis(), sample)


def test_outward_ray_from_origin():
    tau = Cone.from_generators([], ambient_dim=2)
    sigma = Cone.from_generators([(1, 0)])
    assert outward(tau, sigma) == (1, 0)


def test_outward_quadrant_over_axis():
    tau = Cone.from_generators([(1, 0)])
    sigma = Cone.from_generators([(1, 0), (0, 1)])
    u = outward(tau, sigma)
    # class generates Z^2/Z(1,0) and points up into the quadrant
    ql = saturate_and_complete([(1, 0)])
    assert ql.quotient_coords(u) in ((1,), (-1,))
    assert u[1] > 0


def test_outward_skew_cone():
    tau = Cone.from_generators([(1, 1)])
    sigma = Cone.from_generators([(1, 1), (1, -1)])
    u = outward(tau, sigma)
    ql = saturate_and_complete([(1, 1)])
    # the Smith invariant factor of the class is 1: it generates the quotient
    assert ql.quotient_coords(u) in ((1,), (-1,))
    # same class as (0, -1), the outward generator
    diff = (u[0] - 0, u[1] + 1)
    assert diff[0] == diff[1]


def test_outward_not_a_face():
    sigma = Cone.from_generators([(1, 0), (0, 1)])
    # the diagonal ray meets the interior: its relative-interior sample lies in H_tau
    not_face = Cone.from_generators([(1, 1)])
    with pytest.raises(LatticeError):
        outward(not_face, sigma)
    wrong_dim = Cone.from_generators([], ambient_dim=2)
    with pytest.raises(LatticeError):
        outward(wrong_dim, sigma)
