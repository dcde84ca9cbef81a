"""tropdyn: exact tropical-geometry engine plus a numerical dynamics harness.

The exact side (lattice, polyhedra, tropical, toric) runs on arbitrary
precision integers and Fractions; the dynamics side samples amoebas, root
clouds and dequantization errors in floating point, everything seeded.
"""

from .dynamics import (
    BatchRoots,
    ConvergenceReport,
    GridSpec,
    PointCloud,
    amoeba_sample,
    convergence_report,
    dequantization_error,
    directed_hausdorff,
    empirical_fourier,
    hausdorff,
    mth_roots,
    polynomial_roots,
    sample_tropical_support,
    weyl_sum,
)
from .lattice import (
    QuotientLattice,
    SmithDecomposition,
    primitive,
    saturate_and_complete,
    smith_normal_form,
)
from .polyhedra import (
    BalancingReport,
    Cone,
    Fan,
    Polyhedron,
    WeightedComplex,
    add_cycles,
    check_balancing,
    common_refinement,
    is_complete,
    is_unimodular,
)
from .toric import Orbit, OrbitPoint, distinguished_point, orbit_point, orbits, phi_m_orbit, preimages
from .tropical import (
    ComplexPolynomial,
    TropicalCycle,
    TropicalPolynomial,
    dequantized_sum,
    eval_tropical,
    fiber_binomial,
    tropical_hypersurface,
    tropicalize_poly,
    uniform_bergman_fan,
)

__version__ = "0.1.0"
