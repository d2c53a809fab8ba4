"""Command-line front end.

Subcommands map one-to-one onto the library pipelines and exchange JSON files
throughout.  Output is deterministic: fixed key order, floats
rendered with 17 significant digits so every value round-trips exactly.

main parses a job with its subcommand's own parser when argv starts with a
subcommand name and that parser consumes every argument; any other argv goes
through the whole argparse tree, so usage, help and error texts are
argparse's own.  Each subcommand returns its report text and whether its
checks passed; a JSON report is written as string pieces into one list and
joined once (render_json).  A list of like dicts, such as the moment values,
polynomial terms and error rows, is filled from one row text by one %;
every other list (non-finite floats, numpy scalars, bool or str columns,
ragged or nested ones) is written item by item, to the same bytes.  main
alone writes the text and sets the exit code: 0 when all requested checks
pass, 2 when a check fails, 1 for usage errors, I/O or parse errors and for
numeric flags that are not numbers, not finite or out of range.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain, cycle
from json.encoder import encode_basestring_ascii
from operator import is_, itemgetter

from . import __version__
from .approx import box_sos_approx, coefficientwise_report
from .measures import (
    box_from_weight,
    measure_from_dict,
    measure_to_dict,
    moments_of_measure,
    recover_measure,
)
from .moments import (
    check_quadratic_module,
    dual_norm_profile,
    increments_growing,
    moment_matrix,
    moments_from_dict,
    moments_to_dict,
    psd_verdict,
)
from .norms import WeightSpec, as_exponent, eval_sequence_norm, weighted_norm
from .polyring import poly_from_dict, poly_to_dict


_SPECIAL_FLOATS = {"inf": '"+inf"', "-inf": '"-inf"', "nan": '"nan"'}


def _render_float(value: float) -> str:
    text = "%.17g" % value
    return _SPECIAL_FLOATS.get(text, text)


def _render_scalar(value) -> str:
    if isinstance(value, float):
        return _render_float(value)
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value)!r}")


# Renderers by exact type; any other type (a numpy scalar, a subclass) goes
# through _render_scalar, so it renders as it always has.
_SCALARS = {
    float: _render_float,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
    str: encode_basestring_ascii,
}


def _cell_format(values: list) -> str | None:
    # The % format of cells that are all exact ints (no bool, no numpy scalar),
    # as int.__repr__ prints them, or all finite floats, as _render_float
    # prints them; None for any other mix.
    kinds = {*map(type, values)}
    if kinds == {int}:
        return "%d"
    if kinds == {float} and all(map(math.isfinite, values)):
        return "%.17g"
    return None


def _table(rows, inner: str) -> str | None:
    """The items of a list of dicts as render_json writes them, at indent
    inner and joined by commas, when the dicts form a table; else None.  A
    table's rows hold the first row's str key objects in its order, and each
    key's column holds cells of one _cell_format or lists of them all of one
    nonzero length.  The row text is built once and filled for every row by
    one % over the cells in row order."""
    keys = tuple(rows[0])
    if (not keys or {*map(type, keys)} != {str} or {*map(type, rows)} != {dict}
            or {*map(len, rows)} != {len(keys)}
            or not all(map(is_, chain.from_iterable(rows), cycle(keys)))):
        return None
    at, item = inner + "  ", inner + "    "  # the keys' indent, a list cell's
    fields, columns = [], []  # columns: one per cell of a row, in row order
    for key in keys:
        column = list(map(itemgetter(key), rows))
        if type(column[0]) is list:
            width = len(column[0])
            if not width or {*map(type, column)} != {list} or {*map(len, column)} != {width}:
                return None
            cell = _cell_format([*chain.from_iterable(column)])
            text = cell and "[\n" + item + (",\n" + item).join([cell] * width) + "\n" + at + "]"
            columns += zip(*column)
        else:
            text = _cell_format(column)
            columns.append(column)
        if text is None:
            return None
        fields.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + text)
    row = "{\n" + at + (",\n" + at).join(fields) + "\n" + inner + "}"
    return (",\n" + inner).join([row] * len(rows)) % tuple(chain.from_iterable(zip(*columns)))


def render_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Infinite values become the strings "+inf"/"-inf" since JSON has no
    number for them.  The report is written as string pieces into one list
    and joined once; a list of scalars is one piece, rendered in one join.
    A list of dicts that form a table (_table: like keys, each column exact
    ints, finite floats or lists of one of these of one length, as the
    moment, term and error lists are) is one piece too, every row filled
    from one row text.
    Any other list of dicts, a nan or inf, a numpy scalar, a bool or str
    column, a ragged or empty list, or a nested container among them, is
    rendered item by item, so each byte and each error is the same either way.
    Keys and strings are quoted by the function json.dumps uses for a string.
    """
    out: list[str] = []
    append = out.append
    scalars = _SCALARS.get

    def emit(value, indent: str) -> None:
        if isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = indent + "  "
            sep, comma = "{\n" + inner, ",\n" + inner
            for k, v in value.items():
                render = scalars(type(v))
                if render is not None:
                    append(f"{sep}{encode_basestring_ascii(str(k))}: {render(v)}")
                else:
                    append(f"{sep}{encode_basestring_ascii(str(k))}: ")
                    emit(v, inner)
                sep = comma
            append("\n" + indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = indent + "  "
            comma = ",\n" + inner
            try:
                body = _table(value, inner) if type(value[0]) is dict else None
                if body is None:  # scalars, or a TypeError at the first container
                    body = comma.join(
                        [r(v) if (r := scalars(type(v))) else _render_scalar(v) for v in value]
                    )
            except TypeError:  # a nested container: render item by item
                sep = "[\n" + inner
                for v in value:
                    append(sep)
                    emit(v, inner)
                    sep = comma
            else:
                append("[\n" + inner + body)
            append("\n" + indent + "]")
        else:
            render = scalars(type(value))
            append(render(value) if render is not None else _render_scalar(value))

    emit(obj, "")
    append("\n")
    return "".join(out)


def format_norm(value: float) -> str:
    """Norm rendering for plain-text output: 12 significant digits, +inf."""
    if math.isinf(value):
        return "+inf"
    return format(value, ".12g")


def _tolerance(value: float | None) -> float | None:
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {value}")
    return value


def _flag_floats(text: str, flag: str) -> tuple[float, ...]:
    """The comma-separated numbers of a flag, or an error that names it."""
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _parse_weight(args) -> WeightSpec:
    try:
        p = as_exponent(args.p)
    except ValueError:
        raise ValueError(f"--p must be a number or inf, got {args.p!r}") from None
    return WeightSpec(p, _flag_floats(args.r, "--r"))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _psd_report(s, d: int | None, tol: float | None) -> dict:
    """The degree-d moment-matrix check shared by psd-check and pipeline."""
    d = d if d is not None else s.max_degree // 2
    eig, passed = psd_verdict(moment_matrix(s, d), tol)
    return {"d": d, "min_eigenvalue": eig, "pass": passed}


def _recovery_report(s, w: WeightSpec, grid: int, tol: float):
    """Recovery on the box of w, shared by recover-measure and pipeline: the
    result and its method ("flat" or "grid"), atoms, weights, residual and box."""
    box = box_from_weight(w)
    result = recover_measure(s, box, grid, tol=tol)
    return result, {
        "method": result.method,
        **measure_to_dict(result.measure),
        "residual": result.residual,
        "box": {"lower": list(box.lower), "upper": list(box.upper)},
    }


def _cmd_norm(args) -> tuple[str, bool]:
    w = _parse_weight(args)
    f = poly_from_dict(_load_json(args.f))
    return format_norm(weighted_norm(f, w)) + "\n", True


def _cmd_eval_cont(args) -> tuple[str, bool]:
    w = _parse_weight(args)
    x = _flag_floats(args.x, "--x")
    if not all(map(math.isfinite, x)):
        raise ValueError(f"--x must be finite, got {args.x!r}")
    value = eval_sequence_norm(x, w)
    continuous = math.isfinite(value)
    verdict = "continuous" if continuous else "not continuous"
    return f"{verdict}, dual_norm={format_norm(value)}\n", continuous


def _cmd_psd_check(args) -> tuple[str, bool]:
    tol = _tolerance(args.tol)
    s = moments_from_dict(_load_json(args.moments))
    report = {"n": s.n, "max_degree": s.max_degree, **_psd_report(s, args.d, tol)}
    return render_json(report), report["pass"]


def _cmd_qm_check(args) -> tuple[str, bool]:
    tol = _tolerance(args.tol)
    if not math.isfinite(args.N):
        raise ValueError(f"--N must be finite, got {args.N}")
    s = moments_from_dict(_load_json(args.moments))
    generators = [poly_from_dict(_load_json(path)) for path in args.g]
    result = check_quadratic_module(s, generators, args.N, args.d, tol)
    report = {
        "d": result.degree,
        "N": result.ball_bound,
        "generators": [
            {"label": c.label, "min_eigenvalue": c.min_eigenvalue, "pass": c.passed}
            for c in result.checks
        ],
        "pass": result.passed,
    }
    return render_json(report), result.passed


def _cmd_sqrt_approx(args) -> tuple[str, bool]:
    f = poly_from_dict(_load_json(args.f))
    if f.constant_term < 0.0:
        error = "f(0) < 0: not a coefficientwise limit of squares"
        return render_json({"pass": False, "error": error}), False
    h, errors = coefficientwise_report(f, args.i)
    report = {
        "i": args.i,
        "h": poly_to_dict(h),
        "errors": [{"i": i, "max_coefficient_error": e} for i, e in enumerate(errors, 1)],
        "pass": True,
    }
    return render_json(report), True


def _cmd_sos_approx(args) -> tuple[str, bool]:
    w = _parse_weight(args)
    tol = _tolerance(args.tol)
    f = poly_from_dict(_load_json(args.f))
    result = box_sos_approx(
        f,
        w,
        args.eps,
        args.dmax,
        tol=tol if tol is not None else 1e-8,
        max_iters=args.max_iters,
    )
    report = {
        "success": result.success,
        "reason": result.reason,
        "eps": result.eps,
        "D": result.depth,
        "factors": [poly_to_dict(h) for h in result.factors],
        "gram_mineig": result.certificate.gram_min_eig if result.certificate else None,
        "residual": result.certificate.residual if result.certificate else None,
        "distance": result.distance,
        "witness": list(result.witness) if result.witness is not None else None,
        "witness_value": result.witness_value,
    }
    return render_json(report), result.success


def _cmd_recover_measure(args) -> tuple[str, bool]:
    w = _parse_weight(args)
    tol = _tolerance(args.tol)
    s = moments_from_dict(_load_json(args.moments))
    result, recovered = _recovery_report(s, w, args.grid, tol)
    report = {
        "success": result.success,
        **recovered,
        "grid": args.grid,
        "iterations": result.iterations,
    }
    return render_json(report), result.success


def _cmd_pipeline(args) -> tuple[str, bool]:
    w = _parse_weight(args)
    tol = _tolerance(args.tol)
    s = moments_from_dict(_load_json(args.moments))

    profile = dual_norm_profile(s, w)
    growing = increments_growing(profile)
    hypothesis = {
        "dual_norm": profile[-1],
        "by_degree": profile,
        "truncation_degree": s.max_degree,
        "growing": growing,
        "pass": not growing,
    }
    psd = _psd_report(s, args.d, None)
    result, recovered = _recovery_report(s, w, args.grid, tol)
    recovery = {**recovered, "pass": result.success}

    overall = bool(hypothesis["pass"] and psd["pass"] and result.success)
    report = {
        "hypothesis": hypothesis,
        "psd": psd,
        "recovery": recovery,
        "pass": overall,
    }
    return render_json(report), overall


def _cmd_moments(args) -> tuple[str, bool]:
    mu = measure_from_dict(_load_json(args.measure))
    s = moments_of_measure(mu, args.degree)
    return render_json(moments_to_dict(s)), True


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, since 2 means a failed check;
    subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.  Its subcommand parsers are
    kept by name in its `commands` attribute for main's direct parse."""
    parser = _Parser(
        prog="momentcone",
        description="Weighted sequence norms, moment-matrix PSD certification, "
        "SOS approximation on boxes, and atomic measure recovery.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight(p):
        p.add_argument("--p", required=True, help="norm exponent in [1, inf] (decimal or 'inf')")
        p.add_argument("--r", required=True, help="comma-separated positive weights")

    def add_out(p):
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("norm", help="weighted norm of a polynomial coefficient sequence")
    p.add_argument("--f", required=True, help="polynomial JSON file")
    add_weight(p)
    add_out(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("eval-cont", help="continuity of evaluation at a point")
    p.add_argument("--x", required=True, help="comma-separated point coordinates")
    add_weight(p)
    add_out(p)
    p.set_defaults(func=_cmd_eval_cont)

    p = sub.add_parser("psd-check", help="moment-matrix PSD certification")
    p.add_argument("--moments", required=True, help="moment JSON file")
    p.add_argument("--d", type=int, default=None, help="matrix degree (default max_degree//2)")
    p.add_argument("--tol", type=float, default=None, help="PSD tolerance")
    add_out(p)
    p.set_defaults(func=_cmd_psd_check)

    p = sub.add_parser("qm-check", help="localized PSD checks for a quadratic module")
    p.add_argument("--moments", required=True, help="moment JSON file")
    p.add_argument(
        "--g", action="append", default=[], help="generator polynomial JSON (repeatable)"
    )
    p.add_argument("--N", type=float, required=True, help="ball bound N in N - sum X_i^2")
    p.add_argument("--d", type=int, required=True, help="localized matrix degree")
    p.add_argument("--tol", type=float, default=None, help="PSD tolerance")
    add_out(p)
    p.set_defaults(func=_cmd_qm_check)

    p = sub.add_parser("sqrt-approx", help="square-root square approximants and error table")
    p.add_argument("--f", required=True, help="polynomial JSON file")
    p.add_argument("--i", type=int, required=True, help="approximation index")
    add_out(p)
    p.set_defaults(func=_cmd_sqrt_approx)

    p = sub.add_parser("sos-approx", help="certified SOS approximation on the weight box")
    p.add_argument("--f", required=True, help="polynomial JSON file")
    add_weight(p)
    p.add_argument("--eps", type=float, required=True, help="perturbation size (>= 0)")
    p.add_argument("--dmax", type=int, required=True, help="largest perturbation depth")
    p.add_argument("--tol", type=float, default=None, help="certification tolerance")
    p.add_argument(
        "--max-iters", type=int, default=5000, help="Douglas-Rachford iteration cap per depth"
    )
    add_out(p)
    p.set_defaults(func=_cmd_sos_approx)

    p = sub.add_parser("recover-measure", help="atomic measure recovery on the weight box")
    p.add_argument("--moments", required=True, help="moment JSON file")
    add_weight(p)
    p.add_argument("--grid", type=int, default=101, help="grid points per axis")
    p.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    add_out(p)
    p.set_defaults(func=_cmd_recover_measure)

    p = sub.add_parser("pipeline", help="hypothesis check, PSD check, then measure recovery")
    p.add_argument("--moments", required=True, help="moment JSON file")
    add_weight(p)
    p.add_argument("--d", type=int, default=None, help="PSD matrix degree (default max_degree//2)")
    p.add_argument("--grid", type=int, default=101, help="recovery grid points per axis")
    p.add_argument("--tol", type=float, default=1e-6, help="recovery residual tolerance")
    add_out(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("moments", help="moments of an atomic measure file")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--degree", type=int, required=True, help="truncation degree")
    add_out(p)
    p.set_defaults(func=_cmd_moments)

    parser.commands = sub.choices
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace build_parser().parse_args(argv) gives, mostly without
    the top-level pass: a subcommand name followed by arguments that its own
    parser consumes fully is parsed by that parser alone.  Everything else
    (no argv, --version, --help, an unknown command, an unrecognized
    argument) goes through the whole tree, so every usage, help and error
    text is argparse's own.  An argument that starts with "--=" goes there
    too: the top level reports it as ambiguous (--help or --version) before
    any subcommand runs."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None and not any(a.startswith("--=") for a in argv):
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        text, passed = args.func(args)
        _emit(text, args.out)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError, OverflowError,
            MemoryError) as exc:  # MemoryError: an array too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
