"""Command-line front end.

Subcommands map one-to-one onto the library pipelines and exchange JSON files
throughout.  Output is deterministic: fixed seed, fixed key order, floats
rendered with 17 significant digits so every value round-trips exactly.

Exit codes: 0 when all requested checks pass, 2 when a check fails, 1 for
I/O or parse errors and for numeric flags that are not finite or out of range.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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
from .norms import WeightSpec, eval_sequence_norm, weighted_norm
from .polyring import poly_from_dict, poly_to_dict


def render_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Infinite values become the strings "+inf"/"-inf" since JSON has no
    number for them.
    """

    def emit(value, indent: int) -> str:
        pad = "  " * indent
        inner = "  " * (indent + 1)
        if isinstance(value, dict):
            if not value:
                return "{}"
            body = ",\n".join(
                f"{inner}{json.dumps(str(k))}: {emit(v, indent + 1)}" for k, v in value.items()
            )
            return "{\n" + body + "\n" + pad + "}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            body = ",\n".join(f"{inner}{emit(v, indent + 1)}" for v in value)
            return "[\n" + body + "\n" + pad + "]"
        if isinstance(value, bool) or value is None:
            return json.dumps(value)
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            if math.isinf(value):
                return '"+inf"' if value > 0 else '"-inf"'
            if math.isnan(value):
                return '"nan"'
            return format(value, ".17g")
        if isinstance(value, str):
            return json.dumps(value)
        raise TypeError(f"cannot render {type(value)!r}")

    return emit(obj, 0) + "\n"


def format_norm(value: float) -> str:
    """Norm rendering for plain-text output: 12 significant digits, +inf."""
    if math.isinf(value):
        return "+inf"
    return format(value, ".12g")


def _tolerance(value: float | None) -> float | None:
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {value}")
    return value


def _parse_weight(args) -> WeightSpec:
    r = tuple(float(v) for v in str(args.r).split(","))
    return WeightSpec(args.p, r)


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
    """Recovery on the box of w, shared by recover-measure and pipeline:
    the result and its atoms, weights, residual and box."""
    box = box_from_weight(w)
    result = recover_measure(s, box, grid, tol=tol)
    return result, {
        **measure_to_dict(result.measure),
        "residual": result.residual,
        "box": {"lower": list(box.lower), "upper": list(box.upper)},
    }


def _cmd_norm(args) -> int:
    w = _parse_weight(args)
    f = poly_from_dict(_load_json(args.f))
    _emit(format_norm(weighted_norm(f, w)) + "\n", args.out)
    return 0


def _cmd_eval_cont(args) -> int:
    w = _parse_weight(args)
    x = tuple(_finite_float(v) for v in str(args.x).split(","))
    value = eval_sequence_norm(x, w)
    continuous = math.isfinite(value)
    verdict = "continuous" if continuous else "not continuous"
    _emit(f"{verdict}, dual_norm={format_norm(value)}\n", args.out)
    return 0 if continuous else 2


def _cmd_psd_check(args) -> int:
    tol = _tolerance(args.tol)
    s = moments_from_dict(_load_json(args.moments))
    report = {"n": s.n, "max_degree": s.max_degree, **_psd_report(s, args.d, tol)}
    _emit(render_json(report), args.out)
    return 0 if report["pass"] else 2


def _cmd_qm_check(args) -> int:
    tol = _tolerance(args.tol)
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
    _emit(render_json(report), args.out)
    return 0 if result.passed else 2


def _cmd_sqrt_approx(args) -> int:
    f = poly_from_dict(_load_json(args.f))
    if f.constant_term < 0.0:
        _emit(
            render_json(
                {
                    "pass": False,
                    "error": "f(0) < 0: not a coefficientwise limit of squares",
                }
            ),
            args.out,
        )
        return 2
    rows = coefficientwise_report(f, args.i)
    report = {
        "i": args.i,
        "h": poly_to_dict(rows[-1][0]),
        "errors": [
            {"i": i, "max_coefficient_error": error} for i, (_, error) in enumerate(rows, 1)
        ],
        "pass": True,
    }
    _emit(render_json(report), args.out)
    return 0


def _cmd_sos_approx(args) -> int:
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
        seed=args.seed,
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
        "unit_distance": result.unit_distance,
        "witness": list(result.witness) if result.witness is not None else None,
        "witness_value": result.witness_value,
    }
    _emit(render_json(report), args.out)
    return 0 if result.success else 2


def _cmd_recover_measure(args) -> int:
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
    _emit(render_json(report), args.out)
    return 0 if result.success else 2


def _cmd_pipeline(args) -> int:
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
    _emit(render_json(report), args.out)
    return 0 if overall else 2


def _cmd_moments(args) -> int:
    mu = measure_from_dict(_load_json(args.measure))
    s = moments_of_measure(mu, args.degree)
    _emit(render_json(moments_to_dict(s)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--g", action="append", default=[], help="generator polynomial JSON (repeatable)")
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
    p.add_argument("--max-iters", type=int, default=5000, help="projection iteration cap")
    p.add_argument("--seed", type=int, default=0, help="seed for the screening multistart")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
