"""Batch front end: JSON/flags in, JSON/CSV/SVG artifacts out.

One subcommand per library entry point; exit code 0 on success, 1 on domain
errors (single-line diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import serialize, svgplot
from .dynamics import (
    EXPERIMENTS,
    DynamicsError,
    GridSpec,
    amoeba_sample,
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
    if len(set(ms)) < len(ms):
        raise argparse.ArgumentTypeError(f"repeats a value of m: {text!r}")
    return ms


def _parse_box(text, axes):
    """One (lo, hi) pair per axis of the input; a lone pair covers every axis."""
    try:
        vals = [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise SchemaError(f"--box needs numbers: {text!r}") from None
    if len(vals) % 2 != 0:
        raise SchemaError("--box needs lo,hi pairs")
    pairs = [(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
    if len(pairs) == 1:
        pairs *= axes
    if len(pairs) != axes:
        raise SchemaError(f"--box has {len(pairs)} lo,hi pairs for an input in {axes} variables")
    return tuple(pairs)


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


def _grid(args, axes, delta):
    """The GridSpec of --box and --res for an input in axes variables, exclusion radius delta."""
    box = _parse_box(args.box, axes)
    return GridSpec(box=box, resolution=_parse_res(args.res, len(box)), delta=delta)


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
    grid = _grid(args, f.ambient_dim, 0.0)
    if not args.output:
        raise SchemaError("amoeba needs -o for its CSV artifact")
    many = len(args.ms) > 1
    if args.svg:
        segs = spine_segments(tropical_hypersurface(tropicalize_poly(f)), grid.box)
    for cloud in amoeba_sample(f, grid, args.ms):
        cloud.seed = args.seed
        _write_text(_suffixed(args.output, cloud.m, many), serialize.cloud_to_csv(cloud))
        if args.svg:
            svg = svgplot.scatter_with_segments(
                cloud.points, segs, grid.box, title=f"scaled amoeba, m={cloud.m}"
            )
            _write_text(_suffixed(args.svg, cloud.m, many), svg)
    return 0


def cmd_dequantize(args):
    f = _as_complex(serialize.poly_from_json(_single_input(args)))
    grid = _grid(args, f.ambient_dim, args.delta)
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
    if f is not None and args.experiment in ("hausdorff-to-tropical", "dequantization"):
        grid = _grid(args, f.ambient_dim, args.delta)  # only these sample a grid, on the input's axes
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


@functools.cache
def build_parser(names=None):
    """The tropdyn parser; with names, a tuple, only those subcommands' parsers are built.

    The top-level usage line still lists every subcommand, so help and usage
    errors read the same whichever parsers were built.  Each parser is built
    once per process, on first use, and reused: sweeps over m run many `run`
    calls in one process, and a new parser per call was 14% of a profiled
    `dequantize` pass.  Reuse is safe because `parse_args` reads a built
    parser and never changes it; every call gets a fresh namespace.
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
    """Run one tropdyn command line; returns its exit code.

    The parsers come from `build_parser`'s per-process cache, so a sweep of
    many runs in one process builds each of them once.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known subcommand first: its parser alone; anything else (no argument,
    # -h, an unknown name) needs all of them for help and errors
    parser = build_parser(tuple(argv[:1])) if argv[:1] and argv[0] in COMMANDS else build_parser()
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
