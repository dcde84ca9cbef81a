"""Batch front end: JSON/flags in, JSON/CSV/SVG artifacts out.

One subcommand per library entry point; exit code 0 on success, 1 on domain
errors (single-line diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize, svgplot
from .dynamics import (
    EXPERIMENTS,
    DynamicsError,
    GridSpec,
    amoeba_sample,
    clip_to_box,
    convergence_report,
    dequantization_error,
    spine_segments,
)
from .lattice import LatticeError
from .polyhedra import PolyhedralError, add_cycles, check_balancing, common_refinement
from .serialize import SchemaError
from .toric import ToricError, orbits
from .tropical import (
    ComplexPolynomial,
    TropicalError,
    tropical_hypersurface,
    tropicalize_poly,
    uniform_bergman_fan,
)

DOMAIN_ERRORS = (
    LatticeError,
    PolyhedralError,
    TropicalError,
    ToricError,
    DynamicsError,
    SchemaError,
    OSError,
)


def _parse_ints(text):
    return tuple(int(x) for x in text.split(",") if x != "")


def parse_ms(text):
    try:
        ms = _parse_ints(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs comma-separated integers: {text!r}") from None
    if not ms:
        raise argparse.ArgumentTypeError("needs at least one value of m")
    return ms


def _parse_box(text):
    try:
        vals = [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise SchemaError(f"--box needs numbers: {text!r}") from None
    if len(vals) == 2:
        vals = vals * 2
    if len(vals) % 2 != 0:
        raise SchemaError("--box needs lo,hi pairs")
    return tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))


def _parse_res(text, axes):
    try:
        vals = _parse_ints(text)
    except ValueError:
        raise SchemaError(f"--res needs integers: {text!r}") from None
    if len(vals) == 1:
        vals = vals * axes
    if len(vals) != axes:
        raise SchemaError("--res count does not match the box")
    return vals


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError:
            raise SchemaError(f"{path} is not UTF-8 text") from None


def _write_text(path, text):
    Path(path).write_text(text)


def _emit(args, obj):
    text = serialize.dumps_canonical(obj)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _single_input(args):
    if not args.inputs or len(args.inputs) != 1:
        raise SchemaError("this command takes exactly one -i input")
    return _read_json(args.inputs[0])


def _pair_inputs(args):
    if not args.inputs or len(args.inputs) != 2:
        raise SchemaError("this command takes exactly two -i inputs")
    return _read_json(args.inputs[0]), _read_json(args.inputs[1])


def _as_tropical(poly):
    if isinstance(poly, ComplexPolynomial):
        return tropicalize_poly(poly)
    return poly


def _as_complex(poly):
    if not isinstance(poly, ComplexPolynomial):
        raise SchemaError("this command needs a complex polynomial input")
    return poly


def _suffixed(path, m, many):
    if not many:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}_m{m}{p.suffix}"))


def cmd_tropicalize(args):
    f = _as_complex(serialize.poly_from_json(_single_input(args)))
    _emit(args, serialize.tropical_poly_to_json(tropicalize_poly(f)))
    return 0


def cmd_hypersurface(args):
    q = _as_tropical(serialize.poly_from_json(_single_input(args)))
    cycle = tropical_hypersurface(q)  # balanced by theorem (see tropical_hypersurface)
    _emit(args, serialize.cycle_to_json(cycle, extra={"balanced": True}))
    return 0


def cmd_balance(args):
    cycle = serialize.cycle_from_json(_single_input(args))
    report = check_balancing(cycle)
    out = {
        "balanced": report.balanced,
        "violations": [
            {"cell": serialize.cell_geometry_to_json(tau), "residual": list(res)}
            for tau, res in report.violations
        ],
    }
    _emit(args, out)
    return 0


def cmd_bergman(args):
    cycle = uniform_bergman_fan(args.p, args.n)  # balanced by theorem (see uniform_bergman_fan)
    _emit(args, serialize.cycle_to_json(cycle, extra={"balanced": True}))
    return 0


def cmd_orbits(args):
    fan = serialize.fan_from_json(_single_input(args))
    obs = orbits(fan)
    out = {
        "cones": [serialize.cone_to_json(o.cone) for o in obs],
        "orbits": [
            {"cone_index": i, "dim": o.dim} for i, o in enumerate(obs)
        ],
    }
    _emit(args, out)
    return 0


def cmd_amoeba(args):
    f = _as_complex(serialize.poly_from_json(_single_input(args)))
    box = _parse_box(args.box)
    res = _parse_res(args.res, len(box))
    grid = GridSpec(box=box, resolution=res)
    if not args.output:
        raise SchemaError("amoeba needs -o for its CSV artifact")
    many = len(args.ms) > 1
    if args.svg:
        segs = spine_segments(tropical_hypersurface(tropicalize_poly(f)), box)
    for m in args.ms:
        cloud = clip_to_box(amoeba_sample(f, grid, m), box)
        cloud.seed = args.seed
        _write_text(_suffixed(args.output, m, many), serialize.cloud_to_csv(cloud))
        if args.svg:
            svg = svgplot.scatter_with_segments(
                cloud.points, segs, box, title=f"scaled amoeba, m={m}"
            )
            _write_text(_suffixed(args.svg, m, many), svg)
    return 0


def cmd_dequantize(args):
    f = _as_complex(serialize.poly_from_json(_single_input(args)))
    box = _parse_box(args.box)
    res = _parse_res(args.res, len(box))
    grid = GridSpec(box=box, resolution=res, delta=args.delta)
    linfs, l1s = [], []
    for m in args.ms:
        linf, l1 = dequantization_error(f, m, grid, seed=args.seed)
        linfs.append(linf)
        l1s.append(l1)
    _emit(
        args,
        {
            "ms": list(args.ms),
            "linf": linfs,
            "l1": l1s,
            "delta": args.delta,
            "seed": args.seed,
        },
    )
    return 0


def cmd_converge(args):
    f = None
    if args.inputs:
        f = _as_complex(serialize.poly_from_json(_single_input(args)))
    grid = None
    if args.experiment in ("hausdorff-to-tropical", "dequantization"):  # only these sample a grid
        box = _parse_box(args.box)
        grid = GridSpec(box=box, resolution=_parse_res(args.res, len(box)), delta=args.delta)
    rep = convergence_report(
        args.experiment, args.ms, f=f, grid=grid, seed=args.seed, density=args.density
    )
    _emit(args, serialize.report_to_json(rep))
    if args.svg:
        _write_text(args.svg, svgplot.loglog(rep.ms, rep.errors, title=rep.experiment))
    return 0


def cmd_refine(args):
    a, b = _pair_inputs(args)
    refined = common_refinement(serialize.fan_from_json(a), serialize.fan_from_json(b))
    _emit(args, serialize.fan_to_json(refined))
    return 0


def cmd_add(args):
    a, b = _pair_inputs(args)
    total = add_cycles(serialize.cycle_from_json(a), serialize.cycle_from_json(b))
    report = check_balancing(total)
    _emit(args, serialize.cycle_to_json(total, extra={"balanced": report.balanced}))
    return 0


# argparse spec of every flag; each subcommand gets only the flags it reads
FLAGS = {
    "-i": dict(dest="inputs", action="append", metavar="PATH", help="input JSON"),
    "-o": dict(dest="output", metavar="PATH", help="output artifact"),
    "--ms": dict(type=parse_ms, required=True),
    "--box": dict(default="-3,3"),
    "--res": dict(default="61"),
    "--delta": dict(type=float, default=0.2),
    "--density": dict(type=float, default=40.0),
    "--seed": dict(type=int, default=0),
    "--svg": dict(metavar="PATH"),
    "--p": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--experiment": dict(required=True, choices=EXPERIMENTS),
}
IO = ("-i", "-o")
SUBCOMMANDS = (
    ("tropicalize", cmd_tropicalize, IO),
    ("hypersurface", cmd_hypersurface, IO),
    ("balance", cmd_balance, IO),
    ("orbits", cmd_orbits, IO),
    ("amoeba", cmd_amoeba, IO + ("--ms", "--box", "--res", "--seed", "--svg")),
    ("dequantize", cmd_dequantize, IO + ("--ms", "--box", "--res", "--delta", "--seed")),
    ("refine", cmd_refine, IO),
    ("add", cmd_add, IO),
    ("bergman", cmd_bergman, ("-o", "--p", "--n")),
    (
        "converge",
        cmd_converge,
        IO + ("--experiment", "--ms", "--box", "--res", "--delta", "--density", "--seed", "--svg"),
    ),
)
COMMANDS = tuple(name for name, _, _ in SUBCOMMANDS)


def build_parser(names=None):
    """The tropdyn parser; with names, only those subcommands' parsers are built.

    The top-level usage line still lists every subcommand, so help and usage
    errors read the same whichever parsers were built.
    """
    parser = argparse.ArgumentParser(
        prog="tropdyn",
        description="tropical geometry engine and powering-map dynamics harness",
    )
    metavar = None if names is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, fn, flags in SUBCOMMANDS:
        if names is not None and name not in names:
            continue
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known subcommand first: build its parser alone; anything else (no
    # argument, -h, an unknown name) needs all of them for help and errors
    parser = build_parser(argv[:1] if argv[:1] and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"tropdyn: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except DOMAIN_ERRORS as exc:
        print(f"tropdyn: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
