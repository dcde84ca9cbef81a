#!/usr/bin/env python3
"""Dequantization error of (1/m) log|f(z^m)| against trop(f) across m.

Prints a rate table for f = z1 + z2 + 1 and writes the convergence report
(JSON, optional SVG). The fixed exclusion radius makes the sup error decay
like exp(-m*delta)/m, so expect a fitted exponent well above 1.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tropdyn import serialize, svgplot
from tropdyn.cli import DOMAIN_ERRORS, parse_ms
from tropdyn.dynamics import GridSpec, convergence_report
from tropdyn.tropical import ComplexPolynomial


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ms", type=parse_ms, default="4,8,16,32")
    ap.add_argument("--delta", type=float, default=0.2)
    ap.add_argument("--res", type=int, default=61)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="kapranov_rate.json")
    ap.add_argument("--svg", default=None)
    args = ap.parse_args()
    try:
        report(args)
    except DOMAIN_ERRORS as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        return 1
    return 0


def report(args):
    f = ComplexPolynomial({(1, 0): 1, (0, 1): 1, (0, 0): 1})
    grid = GridSpec(
        box=((-3, 3), (-3, 3)), resolution=(args.res, args.res), delta=args.delta
    )
    rep = convergence_report("dequantization", args.ms, f=f, grid=grid, seed=args.seed)
    print(f"{'m':>5}  {'sup error':>12}")
    for m, e in zip(rep.ms, rep.errors):
        print(f"{m:>5}  {e:>12.4e}")
    print(f"fit: C = {rep.C:.3g}, rho = {rep.rho:.3f}  (seed {rep.seed})")
    Path(args.out).write_text(serialize.dumps_canonical(serialize.report_to_json(rep)))
    if args.svg:
        Path(args.svg).write_text(svgplot.loglog(rep.ms, rep.errors, title="dequantization"))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.exit(main())
