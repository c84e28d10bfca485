"""Command-line front end.

Parses a surface (or an implicit polynomial, whose irreducibility over the
rationals implicit mode checks), dispatches the requested mode, prints the
JSON report, and optionally writes a plotting mesh.

Exit codes:
  0  success
  1  bad invocation or unparsable input
  2  a documented precondition fails (cylindrical ruling, positive-
     dimensional system, section heuristic failure, an implicit polynomial
     that is not irreducible over the rationals); a structured diagnostic
     with a machine-readable code is printed to stderr
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import ParseError, SymmetryError, ZeroDirection, ZeroInput
from .implicit import ImplicitSurface, implicit_pipeline
from .mesh import emit_mesh
from .parser import parse_multipoly
from .report import build_report
from .surface import surface_from_json

_PARSE_EXIT = 1
_PRECONDITION_EXIT = 2
_IMPLICIT_VARS = ("x", "y", "z")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; our policy says 1.

    Also widens the negative-number test so range values such as ``-2:2``
    are read as values rather than mistaken for option flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_PARSE_EXIT, "%s: error: %s\n" % (self.prog, message))


def build_argparser():
    parser = _ArgumentParser(
        prog="ruledsym",
        description="Exact Euclidean symmetries of rational ruled surfaces "
                    "given as x(t, s) = p(t) + s q(t), and of implicit "
                    "algebraic surfaces via their top-degree form.",
    )
    parser.add_argument(
        "--mode", choices=("all", "involutions", "conical", "implicit"),
        default="all", help="what to compute (default: all)")
    parser.add_argument(
        "--input", metavar="PATH",
        help='JSON input file; surface modes expect {"p": [...], "q": '
             '[...]}, implicit mode {"polynomial": "..."}')
    parser.add_argument(
        "--poly", metavar="TEXT",
        help="inline defining polynomial in x, y, z (implicit mode only)")
    parser.add_argument(
        "--emit-mesh", metavar="PATH",
        help="also write a CSV point grid (t,s,x,y,z) for plotting")
    parser.add_argument(
        "--t-range", metavar="LO:HI",
        help="mesh range for t (exact values, e.g. -2:2 or -1/2:3/2)")
    parser.add_argument(
        "--s-range", metavar="LO:HI", help="mesh range for s")
    parser.add_argument(
        "--samples", metavar="NT:NS",
        help="mesh sample counts (each at least 2)")
    parser.add_argument(
        "--output", metavar="PATH",
        help="write the JSON report here instead of stdout")
    return parser


def _split_pair(text, flag, parser, converter):
    parts = text.split(":")
    if len(parts) != 2:
        parser.error("%s expects two values separated by ':'" % flag)
    try:
        return converter(parts[0]), converter(parts[1])
    except (ValueError, ZeroDivisionError):
        parser.error("%s: could not read %r" % (flag, text))


def _read_input(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("%s is not valid JSON: %s" % (path, exc))


def _diagnostic(exc):
    payload = {"error": {"code": exc.code, "message": str(exc) or exc.code}}
    if exc.details:
        payload["error"]["details"] = {
            k: str(v) for k, v in sorted(exc.details.items())}
    sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run(argv=None):
    parser = build_argparser()
    args = parser.parse_args(argv)

    if args.input is not None and args.poly is not None:
        parser.error("give exactly one of --input and --poly")
    if args.mode == "implicit":
        if args.input is None and args.poly is None:
            parser.error("implicit mode needs --poly or --input")
        if args.emit_mesh:
            parser.error("--emit-mesh applies to parametric surface modes")
    else:
        if args.input is None:
            parser.error("surface modes need --input")
        if args.poly is not None:
            parser.error("--poly applies to implicit mode only")
    if args.emit_mesh and not (args.t_range and args.s_range and args.samples):
        parser.error("--emit-mesh needs --t-range, --s-range and --samples")

    mesh_plan = None
    if args.emit_mesh:
        t_range = _split_pair(args.t_range, "--t-range", parser, Fraction)
        s_range = _split_pair(args.s_range, "--s-range", parser, Fraction)
        counts = _split_pair(args.samples, "--samples", parser, int)
        if counts[0] < 2 or counts[1] < 2:
            parser.error("--samples values must be at least 2")
        mesh_plan = (t_range, s_range, counts)

    try:
        if args.mode == "implicit":
            if args.poly is not None:
                text = args.poly
            else:
                data = _read_input(args.input)
                if not isinstance(data, dict) or "polynomial" not in data:
                    raise ParseError(
                        'implicit input must be a JSON object with a '
                        '"polynomial" entry')
                text = data["polynomial"]
            F = parse_multipoly(text, _IMPLICIT_VARS)
            report = implicit_pipeline(ImplicitSurface(F))
        else:
            surface = surface_from_json(_read_input(args.input))
            report = build_report(surface, args.mode)
            if mesh_plan is not None:
                emit_mesh(surface, mesh_plan[0], mesh_plan[1],
                          mesh_plan[2], args.emit_mesh)
        rendered = report.to_json()
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(rendered)
        else:
            sys.stdout.write(rendered)
    except (ParseError, ZeroInput, ZeroDirection) as exc:
        _diagnostic(exc)
        return _PARSE_EXIT
    except SymmetryError as exc:
        _diagnostic(exc)
        return _PRECONDITION_EXIT
    except OSError as exc:
        sys.stderr.write("ruledsym: %s\n" % exc)
        return _PARSE_EXIT
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
