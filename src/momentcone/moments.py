"""Truncated moment sequences, (localized) moment matrices, and PSD checks.

A linear functional on polynomials is stored through its monomial values
s(alpha) on the full simplex |alpha| <= max_degree: one read-only vector in
graded-lex order, s(alpha) at grlex_rank(alpha).  The moments of degree <= D
are therefore the first simplex_size(n, D) entries.
(Localized) moment matrices are read-only numpy arrays whose row and column i
stand for row i of simplex_index(n, d), each one gather through the cached
Hankel table H = shift_table(n, d, d): M_d = s[H], and the localized
matrix is (g.s)[H] for the shifted sequence (g.s)(a) = sum_c g_c s(a + c) over
the degree-2d simplex, whose term c reads row rank(c) of a cached shift_table.
No call ranks an exponent table of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .norms import WeightSpec, conjugate_exponent, lp_norms
from .polyring import (
    Polynomial,
    check_finite,
    exponent_array,
    grlex_rank,
    grlex_sort,
    integer_field,
    number_field,
    shift_table,
    simplex_index,
    simplex_size,
)


def _check_simplex_count(n: int, max_degree: int, count: int) -> None:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    expected = simplex_size(n, max_degree)
    if count != expected:
        raise ValueError(f"moments must cover the full simplex: got {count} of {expected}")


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Monomial values of a linear functional up to a truncation degree.

    ``vector[i]`` is s(alpha) for alpha = row i of simplex_index(n, max_degree).
    It must cover that whole simplex, so every matrix entry below the
    truncation exists.  The constructor stores a read-only float copy.
    """

    n: int
    max_degree: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        vector = np.array(self.vector, dtype=float)
        if vector.ndim != 1:
            raise ValueError(f"moment values must be a flat vector, got shape {vector.shape}")
        _check_simplex_count(self.n, self.max_degree, len(vector))
        check_finite(vector, self.n, self.max_degree, "moment value")
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)


def moments_to_dict(s: MomentSequence) -> dict:
    """JSON-ready form mirroring the moment file format, in graded-lex order."""
    basis = simplex_index(s.n, s.max_degree).tolist()
    return {
        "n": s.n,
        "max_degree": s.max_degree,
        "values": [{"exp": a, "s": v} for a, v in zip(basis, s.vector.tolist())],
    }


def moments_from_dict(data: dict) -> MomentSequence:
    """Parse the moment file format: the full simplex, any order, each exponent once.

    The entries are read as one exponent array and one value array.  An
    error names, in this order, an exponent that is not an integer, a value
    that is not a number, a count other than the simplex size, the first
    exponent outside the simplex, and the first that repeats an earlier one.
    """
    if not isinstance(data, dict) or not {"n", "max_degree", "values"} <= set(data):
        raise ValueError('moment JSON must be {"n": .., "max_degree": .., "values": [..]}')
    n = integer_field(data["n"], "n")
    max_degree = integer_field(data["max_degree"], "max_degree")
    entries = data["values"]
    exps, exponents = exponent_array([entry["exp"] for entry in entries], n)
    values = [number_field(entry["s"], "moment value") for entry in entries]
    _check_simplex_count(n, max_degree, len(exps))  # before the simplex index is built
    order, ranked, repeat = grlex_sort(exponents)
    if not np.array_equal(ranked, simplex_index(n, max_degree)):
        outside = ((exponents < 0) | (exponents > max_degree)).any(axis=1)
        outside |= exponents.sum(axis=1) > max_degree
        if outside.any():
            alpha = list(exps[int(np.argmax(outside))])
            raise ValueError(f"exponent {alpha} is outside the simplex |alpha| <= {max_degree}")
        # as many entries as the simplex, all in it: one repeats an earlier one
        raise ValueError(f"duplicate exponent {list(exps[int(order[1:][repeat].min())])}")
    return MomentSequence(n, max_degree, np.array(values)[order])


def apply_functional(s: MomentSequence, f: Polynomial) -> float:
    """The functional value sum_a f_a s(a)."""
    if f.n != s.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {s.n}")
    if f.degree > s.max_degree:
        raise ValueError(
            f"polynomial degree {f.degree} exceeds stored moments (max_degree={s.max_degree})"
        )
    return math.fsum((f.coefs * s.vector[grlex_rank(f.exponents)]).tolist())


def moment_matrix(s: MomentSequence, d: int) -> np.ndarray:
    """The read-only matrix M[a, b] = s(a + b) over the rows of simplex_index(n, d)."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if 2 * d > s.max_degree:
        raise ValueError(f"insufficient moments: need degree {2 * d}, have {s.max_degree}")
    entries = s.vector[shift_table(s.n, d, d)]
    entries.setflags(write=False)
    return entries


def localized_moment_matrix(s: MomentSequence, g: Polynomial, d: int) -> np.ndarray:
    """The read-only matrix M[a, b] = sum_c g_c s(a + b + c), realizing l(h^2 g):
    (g.s)[H] for the shifted sequence (g.s)(a) = sum_c g_c s(a + c), |a| <= 2d."""
    if g.n != s.n:
        raise ValueError(f"dimension mismatch: {g.n} vs {s.n}")
    if d < 0:
        raise ValueError("degree must be >= 0")
    need = 2 * d + max(g.degree, 0)
    if need > s.max_degree:
        raise ValueError(f"insufficient moments: need degree {need}, have {s.max_degree}")
    shifts = shift_table(s.n, 2 * d, max(g.degree, 0))
    shifted = np.zeros(simplex_size(s.n, 2 * d))  # (g.s)(a), summed in g's stored order
    for rank, coef in zip(grlex_rank(g.exponents).tolist(), g.coefs.tolist()):
        shifted += coef * s.vector[shifts[rank]]
    entries = shifted[shift_table(s.n, d, d)]
    entries.setflags(write=False)
    return entries


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (LAPACK, via numpy)."""
    return float(np.linalg.eigvalsh(mat)[0])


def psd_verdict(mat: np.ndarray, tol: float | None = None) -> tuple[float, bool]:
    """The smallest eigenvalue of mat and whether it is >= -tol.

    tol defaults to the scale-aware 1e-9 * trace/size, the rule of every PSD
    check in the package.
    """
    eig = min_eigenvalue(mat)
    if tol is None:
        tol = 1e-9 * max(float(np.trace(mat)) / len(mat), 0.0)
    return eig, eig >= -tol


def is_psd_functional(s: MomentSequence, d: int, tol: float | None = None) -> bool:
    """Whether the degree-d moment matrix is PSD up to tolerance (see psd_verdict)."""
    return psd_verdict(moment_matrix(s, d), tol)[1]


@dataclass(frozen=True)
class GeneratorCheck:
    label: str
    generator: Polynomial
    min_eigenvalue: float
    passed: bool


@dataclass(frozen=True)
class QuadraticModuleReport:
    degree: int
    ball_bound: float
    checks: tuple[GeneratorCheck, ...]
    passed: bool


def check_quadratic_module(
    s: MomentSequence,
    generators: Sequence[Polynomial],
    ball_bound: float,
    d: int,
    tol: float | None = None,
) -> QuadraticModuleReport:
    """Localized PSD conditions for the archimedean quadratic module.

    Tests l(h^2 g) >= 0 at level d for g in {1, g_1, ..., g_s, N - sum X_i^2},
    reporting the minimum eigenvalue per generator and an overall flag.
    """
    squares = np.vstack([np.zeros(s.n, dtype=np.int64), 2 * np.eye(s.n, dtype=np.int64)])
    ball = Polynomial(s.n, (squares, [float(ball_bound)] + [-1.0] * s.n))
    labelled: list[tuple[str, Polynomial]] = [("g0", Polynomial.constant(s.n, 1.0))]
    labelled += [(f"g{k + 1}", g) for k, g in enumerate(generators)]
    labelled.append((f"g{len(generators) + 1}", ball))
    checks = []
    for label, g in labelled:
        eig, passed = psd_verdict(localized_moment_matrix(s, g, d), tol)
        checks.append(GeneratorCheck(label, g, eig, passed))
    return QuadraticModuleReport(
        degree=d,
        ball_bound=float(ball_bound),
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
    )


def dual_norm_profile(s: MomentSequence, w: WeightSpec) -> list[float]:
    """Dual-space norm of the moments with |alpha| <= D, for D = 0..max_degree:
    the lq norm of (|s(a)| c^-a)_a, c = w.halfwidths and q the conjugate
    exponent of w.p.

    For w = (1, r) this is the sup of |s(a)| r^-a, for w = (inf, r) the sum of
    |s(a)| r^-a.  The by-degree profile lets callers monitor whether the
    underlying infinite sum or sup looks summable or keeps growing with the
    truncation.  In graded-lex order the entry for D is a prefix of the terms.
    """
    if s.n != w.n:
        raise ValueError(f"dimension mismatch: {s.n} vs {w.n}")
    scales = tuple(1.0 / c for c in w.halfwidths)
    ends = [simplex_size(s.n, degree) for degree in range(s.max_degree + 1)]
    exponents = simplex_index(s.n, s.max_degree)
    return lp_norms(exponents, s.vector, scales, conjugate_exponent(w.p), ends)


def dual_norm_of_moments(s: MomentSequence, w: WeightSpec) -> float:
    """Dual-space norm of the whole stored truncation (see dual_norm_profile).

    For divergent-type sums it is a lower bound that grows with max_degree.
    """
    return dual_norm_profile(s, w)[-1]


def increments_growing(profile: Sequence[float]) -> bool:
    """Whether the tail of a by-degree profile is still growing.

    True when the last increment is positive and at least as large as the one
    before it, up to a relative 1e-9; convergent partial sums have shrinking
    increments and flat sups have zero ones.
    """
    if len(profile) < 3:
        return False
    rel_tol = 1e-9
    last = profile[-1] - profile[-2]
    prev = profile[-2] - profile[-3]
    scale = max(abs(profile[-1]), 1e-300)
    return last > rel_tol * scale and last >= prev * (1.0 - rel_tol)
