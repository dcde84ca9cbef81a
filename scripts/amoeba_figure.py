#!/usr/bin/env python3
"""Scaled amoeba of z1 + z2 + 1 with its tropical spine overlaid (SVG + CSV).

The cloud is the 1/m-scaled amoeba sample: as m grows it hugs the spine, the
picture behind the Hausdorff-convergence check.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tropdyn import serialize, svgplot
from tropdyn.cli import DOMAIN_ERRORS
from tropdyn.dynamics import GridSpec, amoeba_sample, clip_to_box, spine_segments
from tropdyn.tropical import ComplexPolynomial, tropical_hypersurface, tropicalize_poly


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--res", type=int, default=121)
    ap.add_argument("--out", default="amoeba_m{m}.svg")
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()
    try:
        draw(args)
    except DOMAIN_ERRORS as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        return 1
    return 0


def draw(args):
    f = ComplexPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): 1})
    box = ((-3.0, 3.0), (-3.0, 3.0))
    grid = GridSpec(box=box, resolution=(args.res, args.res))
    cloud = clip_to_box(amoeba_sample(f, grid, args.m), box)
    spine = spine_segments(tropical_hypersurface(tropicalize_poly(f)), box)
    out = Path(args.out.format(m=args.m))
    out.write_text(
        svgplot.scatter_with_segments(
            cloud.points, spine, box, title=f"scaled amoeba of z1+z2+1, m={args.m}"
        )
    )
    print(f"{len(cloud)} points; wrote {out}")
    if args.csv:
        Path(args.csv).write_text(serialize.cloud_to_csv(cloud))
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    sys.exit(main())
