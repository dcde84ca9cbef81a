#!/usr/bin/env python3
"""Equidistribution of powering-map preimages: Fourier decay and discrepancy.

For a point on the dense torus orbit, the m^n preimages under z -> z^m form
exact product root grids: every empirical Fourier coefficient with a
frequency not divisible by m cancels, and the angular star discrepancy is 1/m.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tropdyn.cli import DOMAIN_ERRORS, parse_ms
from tropdyn.dynamics import PointCloud, empirical_fourier, mth_roots, star_discrepancy
from tropdyn.polyhedra import Cone
from tropdyn.toric import orbit_point, preimages


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ms", type=parse_ms, default="8,16,32,64,128")
    ap.add_argument("--numax", type=int, default=6)
    args = ap.parse_args()
    try:
        report(args.ms, args.numax)
    except DOMAIN_ERRORS as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        return 1
    return 0


def report(ms, numax):
    zero = Cone.from_generators([], ambient_dim=2)
    base = orbit_point(zero, (0.9 + 0.1j, -1.3 + 0.7j))
    print(f"{'m':>5}  {'#preimages':>10}  {'max |fourier|':>14}  {'discrepancy':>12}")
    for m in ms:
        pre = preimages(zero, m, base)
        cloud = PointCloud(2, np.array([p.coords for p in pre]))
        worst = 0.0
        for n1 in range(-numax, numax + 1):
            for n2 in range(-numax, numax + 1):
                if (n1, n2) == (0, 0):
                    continue
                worst = max(worst, abs(empirical_fourier(cloud, (n1, n2))))
        disc = star_discrepancy(mth_roots([1.0], m))
        print(f"{m:>5}  {len(pre):>10}  {worst:>14.3e}  {disc:>12.5f}")


if __name__ == "__main__":
    sys.exit(main())
