"""Command-line front end.

All structured output is JSON written by a canonical serializer (17
significant digits, fixed key order) so identical inputs produce
byte-identical bytes; `emit-plot` writes CSV for plotting tools. Exit
codes: 0 success, 1 verification failure, 2 input error.
"""

import argparse
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _json_string

from .energy import _arctan_cdf, solve_equilibrium
from .errors import ExtremalPolyError, InputError, check_height
from .lemniscate import (
    largest_disk,
    log_radius_upper_bound,
    radius_lower_bound_at_log,
    vertical_halfwidth,
)
from .poly_core import log_disc_from_roots, poly_from_roots
from .solvers import solve_max_disc, solve_min_abs

_VALUE_CUTOFF = math.log(1e300)
# a value that starts like a negative number
_NEGATIVE_NUMBER = re.compile(r"-[0-9.]")


def canonical_json(obj) -> str:
    """Serialize to JSON with 17-significant-digit floats and insertion
    key order. json.loads followed by canonical_json is the identity on
    canonical text, which is what makes CLI output reproducible."""
    write = _WRITERS.get(type(obj))
    if write is not None:
        return write(obj)
    # a subclass (numpy.float64 among them): its first type in _ORDER
    for kind, write in _ORDER:
        if isinstance(obj, kind):
            return write(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def _float_text(x) -> str:
    if math.isfinite(x):
        # adding +0.0 folds -0.0 into 0.0, whose text round-trips
        return "%.17g" % (x + 0.0)
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    return '"inf"' if x > 0 else '"-inf"'


def _list_text(items) -> str:
    # a list of finite floats, as roots and coefficient rows are, in one
    # % with the bytes of the per-element path
    floats = [x + 0.0 for x in items if type(x) is float]
    if floats and len(floats) == len(items) and math.isfinite(sum(floats)):
        return ("[" + "%.17g," * (len(items) - 1) + "%.17g]") % tuple(floats)
    return "[" + ",".join([canonical_json(x) for x in items]) + "]"


# Each type and its writer, in the order that decides an object of several
# (a bool is an int); _WRITERS holds the writer of each exact type.
_ORDER = (
    (float, _float_text),
    (type(None), lambda obj: "null"),
    (bool, lambda obj: "true" if obj else "false"),
    (int, str),
    # the bytes json.dumps gives a str with its default arguments
    (str, _json_string),
    (list, _list_text),
    (tuple, _list_text),
    (dict, lambda obj: "{" + ",".join(
        [_json_string(str(k)) + ":" + canonical_json(v) for k, v in obj.items()]
    ) + "}"),
)
_WRITERS = dict(_ORDER)


def _exp_or_null(log_x: float) -> float | None:
    # e^log_x, or null where it is not a float: past 1e300 it nears
    # overflow, and below 1e-300 it loses digits to subnormals or to 0
    if abs(log_x) < _VALUE_CUTOFF:
        return math.exp(log_x)
    return None


def log_disc_to_dict(ld) -> dict:
    value = _exp_or_null(ld.log_abs) if ld.sign != 0 else None
    if value is not None:
        value *= ld.sign
    return {"sign": ld.sign, "log_abs": ld.log_abs, "value": value}


def solution_to_dict(sol) -> dict:
    # a coefficient row with an entry past float range prints as null;
    # the roots alone still define the polynomial
    rows = [list(row) if all(map(math.isfinite, row)) else None for row in sol.coeffs]
    mirror = None
    if len(sol.polys) > 1:
        mirror = {"roots": list(sol.polys[1].roots), "coeffs": rows[1]}
    return {
        "problem": sol.problem,
        "regime": sol.regime,
        "roots": list(sol.polys[0].roots),
        "coeffs": rows[0],
        "achieved_m": sol.achieved_m,
        "log_disc": log_disc_to_dict(sol.achieved_disc),
        "lambda_or_B": sol.lambda_or_b,
        "mirror": mirror,
    }


def disk_to_dict(disk, bounds: dict | None) -> dict:
    return {
        "center_x": disk.center_x,
        "radius": disk.radius,
        "boundary_point": {
            "re": disk.boundary_point.real,
            "im": disk.boundary_point.imag,
        },
        "has_interior": True,
        "bounds": bounds,
    }


def config_to_dict(config) -> dict:
    return {
        "points": list(config.points),
        "a": config.a,
        "potential_v": config.potential_v,
        "energy_I": config.energy_I,
    }


def _parse_roots(text: str) -> list[float]:
    try:
        roots = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError("could not parse --roots: %s" % exc) from None
    if len(roots) < 2:
        raise InputError("--roots needs at least two comma-separated reals")
    if not all(math.isfinite(r) for r in roots):
        raise InputError("roots must be finite")
    return roots


def _build_parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser, and the option strings of its subcommands that take a
    value."""
    parser = argparse.ArgumentParser(
        prog="extremal-poly",
        description="Extremal real-rooted polynomials: discriminant vs "
        "modulus at a point off the real line, with lemniscate and "
        "charge-configuration applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand's handler is its `run` default: args -> exit code
    p = sub.add_parser("solve-min", help="minimise |f(ai)| at fixed discriminant")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--disc", type=float, required=True)
    p.set_defaults(run=lambda args: _emit(
        solution_to_dict(solve_min_abs(args.a, args.d, args.disc))
    ))

    p = sub.add_parser("solve-disc", help="maximise discriminant at fixed |f(ai)|")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=float, required=True)
    p.set_defaults(run=lambda args: _emit(
        solution_to_dict(solve_max_disc(args.a, args.d, args.m))
    ))

    p = sub.add_parser("lemniscate", help="largest inscribed disk of |f| <= 1")
    p.add_argument("--roots", type=str, required=True)
    p.add_argument(
        "--bounds", action="store_true",
        help="include the closed-form radius bounds for this degree and "
        "discriminant",
    )
    p.set_defaults(run=_cmd_lemniscate)

    p = sub.add_parser("energy", help="minimum-energy charge configuration")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--v", type=float, required=True)
    p.set_defaults(run=lambda args: _emit(
        config_to_dict(solve_equilibrium(args.a, args.d, args.v))
    ))

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--deep", action="store_true")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("emit-plot", help="plot-ready CSV on stdout")
    p.add_argument("--what", choices=("lemniscate", "cdf"), required=True)
    p.add_argument("--roots", type=str, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(run=_cmd_emit_plot)
    valued = {
        name
        for command in sub.choices.values()
        for action in command._actions
        if action.nargs != 0
        for name in action.option_strings
    }
    return parser, valued


def _emit(obj) -> int:
    print(canonical_json(obj))
    return 0


def _cmd_lemniscate(args) -> int:
    poly = poly_from_roots(_parse_roots(args.roots))
    disk = largest_disk(poly)
    bounds = None
    if args.bounds:
        ld = log_disc_from_roots(poly)
        if ld.sign != 1:
            bounds = {"disc": 0.0, "upper": None, "lower": None}
        else:
            d = poly.degree
            bounds = {
                "disc": _exp_or_null(ld.log_abs),
                "upper": _exp_or_null(log_radius_upper_bound(d, ld.log_abs)),
                "lower": radius_lower_bound_at_log(d, ld.log_abs),
            }
    return _emit(disk_to_dict(disk, bounds))


def _cmd_emit_plot(args) -> int:
    roots = _parse_roots(args.roots)
    if args.what == "lemniscate":
        poly = poly_from_roots(roots)
        n = 64 * poly.degree + 1 if args.samples is None else args.samples
        if n < 2:
            raise InputError("--samples must be at least 2")
        lo = poly.roots[0] - 1.0
        hi = poly.roots[-1] + 1.0
        xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        # every width is computed before the first row is written, so a
        # refused root set leaves stdout empty
        widths = vertical_halfwidth(poly, xs).tolist()
        rows = ["%.17g,%.17g\n" % (x, w) for x, w in zip(xs, widths)]
        sys.stdout.write("x,halfwidth\n" + "".join(rows))
        return 0
    check_height(args.a)
    pts = sorted(roots)
    d = len(pts)
    sys.stdout.write("x,f_emp,f_arctan\n")
    for k, x in enumerate(pts, start=1):
        sys.stdout.write("%.17g,%.17g,%.17g\n" % (x, k / d, _arctan_cdf(x, args.a)))
    return 0


def _cmd_verify(args) -> int:
    # imported here so that the solve subcommands never load the checks
    from .verification import format_report, run_suite

    results = run_suite(deep=args.deep)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _glue_negative_values(tokens: list[str], valued: set[str]) -> list[str]:
    # argparse reads a value with a leading "-" as an option name unless
    # it is a plain negative integer or decimal, which breaks `--roots -1,1`
    # and `--v -1e-3`; rewrite such a pair into `--v=-1e-3`. No option here
    # starts with "-" and then a digit or ".", so after an option that
    # takes a value (one in valued) a token that does is its value; after
    # --roots every token with a leading "-" is.
    glued = []
    for token in tokens:
        name = glued[-1] if glued else ""
        if (
            token[:1] == "-"
            and name in valued
            and (name == "--roots" or _NEGATIVE_NUMBER.match(token))
        ):
            glued[-1] = name + "=" + token
        else:
            glued.append(token)
    return glued


def main(argv=None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    parser, valued = _build_parser()
    args = parser.parse_args(_glue_negative_values(tokens, valued))
    try:
        return args.run(args)
    except ExtremalPolyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
