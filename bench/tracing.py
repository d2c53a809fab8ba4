"""Span recording for the traced run.

``Tracer.install`` rebinds names in the ``momentcone.<module>`` namespaces to
wrappers that record a span per call: name, start, end, parent span, pass and
job id, plus counts read from the returned result (iterations, whether the
iteration cap was hit, matrix size, success).  A binding that no longer exists
is skipped, so its metrics read zero.  The untraced run imports nothing from
here and rebinds nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

SOS_ITERS, NNLS_ITERS = 5000, 20000  # default iteration caps of sos_certify and nnls_bb


def _arg(args, kwargs, pos: int, name: str, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def probe_size(args, kwargs, result):
    return {"m": len(args[0])}


def probe_sos(args, kwargs, result):
    cap = _arg(args, kwargs, 3, "max_iters", SOS_ITERS)
    return {"iterations": result.iterations, "capped": result.iterations >= cap,
            "success": bool(result.success), "m": len(result.basis)}


def probe_nnls(args, kwargs, result):
    cap = _arg(args, kwargs, 2, "max_iter", NNLS_ITERS)
    return {"iterations": result[2], "capped": result[2] >= cap}


def probe_success(args, kwargs, result):
    return {"success": bool(result.success)}


# span name -> (bindings as (momentcone module, attribute), probe)
SPANS = {
    "jacobi.jacobi_eigh": ([("approx", "jacobi_eigh")], probe_size),
    "jacobi.jacobi_eigvals": ([("moments", "jacobi_eigvals")], probe_size),
    "approx.box_sos_approx": ([("cli", "box_sos_approx")], None),
    "approx.sos_certify": ([("approx", "sos_certify")], probe_sos),
    "approx.screen_box_nonnegativity": ([("approx", "screen_box_nonnegativity")], None),
    "approx.sqrt_square_approx": ([("cli", "sqrt_square_approx"), ("approx", "sqrt_square_approx")], None),
    "approx.coefficientwise_report": ([("cli", "coefficientwise_report")], None),
    "polyring.poly_mul": ([("approx", "poly_mul"), ("polyring", "poly_mul")], None),
    "polyring.series_sqrt": ([("approx", "series_sqrt")], None),
    "nnls.nnls_bb": ([("measures", "nnls_bb")], probe_nnls),
    "measures.recover_measure": ([("cli", "recover_measure")], probe_success),
    "measures.moments_of_measure": ([("cli", "moments_of_measure")], None),
    "moments.moment_matrix": ([("cli", "moment_matrix"), ("moments", "moment_matrix")], None),
    "moments.localized_moment_matrix": ([("moments", "localized_moment_matrix")], None),
    "moments.dual_norm_profile": ([("cli", "dual_norm_profile")], None),
    "norms.weighted_norm": ([("cli", "weighted_norm"), ("approx", "weighted_norm")], None),
    "norms.eval_sequence_norm": ([("cli", "eval_sequence_norm")], None),
    "cli.parse": ([("cli", "_load_json"), ("cli", "poly_from_dict"), ("cli", "moments_from_dict"),
                   ("cli", "measure_from_dict")], None),
    "cli.render": ([("cli", "render_json"), ("cli", "format_norm"), ("cli", "_emit"),
                    ("cli", "poly_to_dict"), ("cli", "moments_to_dict")], None),
}


class Tracer:
    """Spans kept in memory as tuples (name, start, end, parent, pass, job, info)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.where = (0, "")

    def span(self, name, fn, args, kwargs, probe=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            info = None
            if probe is not None and result is not None:
                try:
                    info = probe(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    info = None  # the result changed shape; counts read zero
            self.spans[index] = (name, start, end, parent, *self.where, info)

    def wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, probe)

        return wrapper

    def install(self) -> list[str]:
        """Rebind every binding that exists; return the ones bound."""
        bound = []
        for name, (bindings, probe) in SPANS.items():
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(f"momentcone.{module_name}")
                except ImportError:
                    continue
                if not hasattr(module, attr):
                    continue
                setattr(module, attr, self.wrap(name, getattr(module, attr), probe))
                bound.append(f"{module_name}.{attr}")
        return bound

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
