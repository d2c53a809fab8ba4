"""Command-line front end.

Subcommands map one-to-one onto the library pipelines and exchange JSON files
throughout.  Output is deterministic: fixed seed, fixed key order, floats
rendered with 17 significant digits so every value round-trips exactly.

Exit codes: 0 when all requested checks pass, 2 when a check fails, 1 for
I/O or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .approx import box_sos_approx, coefficientwise_report, sqrt_square_approx
from .measures import (
    box_from_weight,
    measure_from_dict,
    measure_to_dict,
    moments_of_measure,
    recover_measure,
)
from .moments import (
    check_quadratic_module,
    dual_norm_of_moments,
    dual_norm_profile,
    increments_growing,
    is_psd_functional,
    min_eigenvalue,
    moment_matrix,
    moments_from_dict,
    moments_to_dict,
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


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything a subcommand run depends on."""

    subcommand: str
    inputs: tuple[str, ...] = ()
    weight: WeightSpec | None = None
    degree: int | None = None
    i_max: int | None = None
    d_max: int | None = None
    tolerance: float | None = None
    eps: float | None = None
    ball_bound: float | None = None
    grid: int | None = None
    out: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tolerance is not None and self.tolerance <= 0.0:
            raise ValueError("tolerance must be > 0")
        if self.grid is not None and self.grid < 2:
            raise ValueError("grid must be >= 2")


def _parse_weight(args) -> WeightSpec:
    r = tuple(float(v) for v in str(args.r).split(","))
    return WeightSpec(args.p, r)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in JSON input")
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


def _cmd_norm(args) -> int:
    cfg = RunConfig("norm", inputs=(args.f,), weight=_parse_weight(args), out=args.out)
    f = poly_from_dict(_load_json(args.f))
    value = weighted_norm(f, cfg.weight)
    _emit(format_norm(value) + "\n", cfg.out)
    return 0


def _cmd_eval_cont(args) -> int:
    cfg = RunConfig("eval-cont", weight=_parse_weight(args), out=args.out)
    x = tuple(float(v) for v in str(args.x).split(","))
    value = eval_sequence_norm(x, cfg.weight)
    continuous = math.isfinite(value)
    verdict = "continuous" if continuous else "not continuous"
    _emit(f"{verdict}, dual_norm={format_norm(value)}\n", cfg.out)
    return 0 if continuous else 2


def _cmd_psd_check(args) -> int:
    cfg = RunConfig(
        "psd-check", inputs=(args.moments,), degree=args.d, tolerance=args.tol, out=args.out
    )
    s = moments_from_dict(_load_json(args.moments))
    d = cfg.degree if cfg.degree is not None else s.max_degree // 2
    mat = moment_matrix(s, d)
    eig = min_eigenvalue(mat)
    passed = is_psd_functional(s, d, cfg.tolerance)
    report = {
        "n": s.n,
        "max_degree": s.max_degree,
        "d": d,
        "min_eigenvalue": eig,
        "pass": passed,
    }
    _emit(render_json(report), cfg.out)
    return 0 if passed else 2


def _cmd_qm_check(args) -> int:
    cfg = RunConfig(
        "qm-check",
        inputs=tuple([args.moments] + (args.g or [])),
        degree=args.d,
        tolerance=args.tol,
        ball_bound=args.N,
        out=args.out,
    )
    s = moments_from_dict(_load_json(args.moments))
    generators = [poly_from_dict(_load_json(path)) for path in (args.g or [])]
    result = check_quadratic_module(s, generators, cfg.ball_bound, cfg.degree, cfg.tolerance)
    report = {
        "d": result.degree,
        "N": result.ball_bound,
        "generators": [
            {"label": c.label, "min_eigenvalue": c.min_eigenvalue, "pass": c.passed}
            for c in result.checks
        ],
        "pass": result.passed,
    }
    _emit(render_json(report), cfg.out)
    return 0 if result.passed else 2


def _cmd_sqrt_approx(args) -> int:
    cfg = RunConfig("sqrt-approx", inputs=(args.f,), i_max=args.i, out=args.out)
    f = poly_from_dict(_load_json(args.f))
    if f.constant_term < 0.0:
        _emit(
            render_json(
                {
                    "pass": False,
                    "error": "f(0) < 0: not a coefficientwise limit of squares",
                }
            ),
            cfg.out,
        )
        return 2
    h = sqrt_square_approx(f, cfg.i_max)
    report_obj = coefficientwise_report(f, cfg.i_max)
    report = {
        "i": cfg.i_max,
        "h": poly_to_dict(h),
        "errors": [
            {"i": rec.step, "max_coefficient_error": rec.distance}
            for rec in report_obj.records
        ],
        "pass": True,
    }
    _emit(render_json(report), cfg.out)
    return 0


def _cmd_sos_approx(args) -> int:
    cfg = RunConfig(
        "sos-approx",
        inputs=(args.f,),
        weight=_parse_weight(args),
        eps=args.eps,
        d_max=args.dmax,
        tolerance=args.tol,
        seed=args.seed,
        out=args.out,
    )
    f = poly_from_dict(_load_json(args.f))
    result = box_sos_approx(
        f,
        cfg.weight,
        cfg.eps,
        cfg.d_max,
        tol=cfg.tolerance if cfg.tolerance is not None else 1e-8,
        max_iters=args.max_iters,
        seed=cfg.seed,
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
    _emit(render_json(report), cfg.out)
    return 0 if result.success else 2


def _cmd_recover_measure(args) -> int:
    cfg = RunConfig(
        "recover-measure",
        inputs=(args.moments,),
        weight=_parse_weight(args),
        grid=args.grid,
        tolerance=args.tol,
        out=args.out,
    )
    s = moments_from_dict(_load_json(args.moments))
    box = box_from_weight(cfg.weight)
    result = recover_measure(s, box, cfg.grid, tol=cfg.tolerance)
    report = {
        "success": result.success,
        "atoms": [list(p) for p in result.measure.atoms],
        "weights": list(result.measure.weights),
        "residual": result.residual,
        "box": {"lower": list(box.lower), "upper": list(box.upper)},
        "grid": result.grid_per_axis,
        "iterations": result.iterations,
    }
    _emit(render_json(report), cfg.out)
    return 0 if result.success else 2


def _cmd_pipeline(args) -> int:
    cfg = RunConfig(
        "pipeline",
        inputs=(args.moments,),
        weight=_parse_weight(args),
        degree=args.d,
        grid=args.grid,
        tolerance=args.tol,
        out=args.out,
    )
    s = moments_from_dict(_load_json(args.moments))
    w = cfg.weight

    profile = dual_norm_profile(s, w)
    growing = increments_growing(profile)
    hypothesis = {
        "dual_norm": dual_norm_of_moments(s, w),
        "by_degree": profile,
        "truncation_degree": s.max_degree,
        "growing": growing,
        "pass": not growing,
    }

    d = cfg.degree if cfg.degree is not None else s.max_degree // 2
    mat = moment_matrix(s, d)
    psd_pass = is_psd_functional(s, d)
    psd = {"d": d, "min_eigenvalue": min_eigenvalue(mat), "pass": psd_pass}

    box = box_from_weight(w)
    grid = cfg.grid if cfg.grid is not None else 101
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-6
    rec = recover_measure(s, box, grid, tol=tol)
    recovery = {
        "atoms": [list(p) for p in rec.measure.atoms],
        "weights": list(rec.measure.weights),
        "residual": rec.residual,
        "box": {"lower": list(box.lower), "upper": list(box.upper)},
        "pass": rec.success,
    }

    overall = bool(hypothesis["pass"] and psd_pass and rec.success)
    report = {
        "hypothesis": hypothesis,
        "psd": psd,
        "recovery": recovery,
        "pass": overall,
    }
    _emit(render_json(report), cfg.out)
    return 0 if overall else 2


def _cmd_moments(args) -> int:
    cfg = RunConfig("moments", inputs=(args.measure,), degree=args.degree, out=args.out)
    mu = measure_from_dict(_load_json(args.measure))
    s = moments_of_measure(mu, cfg.degree)
    _emit(render_json(moments_to_dict(s)), cfg.out)
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
