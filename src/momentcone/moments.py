"""Truncated moment sequences, (localized) moment matrices, and PSD checks.

A linear functional on polynomials is stored through its monomial values
s(alpha) on the full simplex |alpha| <= max_degree, in graded-lex order: a
read-only map and, built once, a read-only vector indexed by grlex_rank.  The
moments of degree <= D are therefore the first simplex_size(n, D) entries.
(Localized) moment matrices are read-only numpy arrays gathered from that
vector, with rows and columns indexed by simplex_index(n, d).basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .norms import WeightSpec, dual_weight, term_magnitude
from .polyring import (
    MultiIndex,
    Polynomial,
    entries_by_exponent,
    integer_field,
    simplex_index,
    simplex_size,
)


@dataclass(frozen=True)
class MomentSequence:
    """Monomial values of a linear functional up to a truncation degree.

    The value map must cover the full simplex {alpha : |alpha| <= max_degree};
    holes are rejected so every matrix entry below the truncation exists.
    ``values`` is stored read-only in graded-lex order, and ``vector`` holds
    the same values as a read-only array indexed by grlex_rank.
    """

    n: int
    max_degree: int
    values: Mapping[MultiIndex, float]
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        cleaned: dict[MultiIndex, float] = {}
        for alpha, value in self.values.items():
            key = tuple(int(a) for a in alpha)
            if len(key) != self.n or any(a < 0 for a in key):
                raise ValueError(f"bad multi-index {key}")
            if sum(key) > self.max_degree:
                raise ValueError(f"index {key} exceeds max_degree={self.max_degree}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"moment value {value} at {key} is not finite")
            cleaned[key] = value
        expected = simplex_size(self.n, self.max_degree)
        if len(cleaned) != expected:
            raise ValueError(
                f"moment values must cover the full simplex: got {len(cleaned)} "
                f"of {expected} indices"
            )
        ordered = {a: cleaned[a] for a in simplex_index(self.n, self.max_degree).basis}
        vector = np.array(list(ordered.values()))
        vector.setflags(write=False)
        object.__setattr__(self, "values", MappingProxyType(ordered))
        object.__setattr__(self, "vector", vector)

    def value(self, alpha: MultiIndex) -> float:
        return self.values[tuple(alpha)]


def moments_to_dict(s: MomentSequence) -> dict:
    """JSON-ready form mirroring the moment file format."""
    return {
        "n": s.n,
        "max_degree": s.max_degree,
        "values": [{"exp": list(a), "s": v} for a, v in s.values.items()],
    }


def moments_from_dict(data: dict) -> MomentSequence:
    """Parse the moment file format; the full simplex is required."""
    if not isinstance(data, dict) or not {"n", "max_degree", "values"} <= set(data):
        raise ValueError('moment JSON must be {"n": .., "max_degree": .., "values": [..]}')
    values = entries_by_exponent(data["values"], "s")
    n = integer_field(data["n"], "n")
    return MomentSequence(n, integer_field(data["max_degree"], "max_degree"), values)


def apply_functional(s: MomentSequence, f: Polynomial) -> float:
    """The functional value sum_a f_a s(a)."""
    if f.n != s.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {s.n}")
    if f.degree > s.max_degree:
        raise ValueError(
            f"polynomial degree {f.degree} exceeds stored moments (max_degree={s.max_degree})"
        )
    return math.fsum(coef * s.values[alpha] for alpha, coef in f.terms.items())


def moment_matrix(s: MomentSequence, d: int) -> np.ndarray:
    """The read-only matrix M[a, b] = s(a + b) over simplex_index(n, d).basis."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if 2 * d > s.max_degree:
        raise ValueError(f"insufficient moments: need degree {2 * d}, have {s.max_degree}")
    entries = s.vector[simplex_index(s.n, d).hankel()]
    entries.setflags(write=False)
    return entries


def localized_moment_matrix(s: MomentSequence, g: Polynomial, d: int) -> np.ndarray:
    """The read-only matrix M[a, b] = sum_c g_c s(a + b + c), realizing l(h^2 g)."""
    if g.n != s.n:
        raise ValueError(f"dimension mismatch: {g.n} vs {s.n}")
    if d < 0:
        raise ValueError("degree must be >= 0")
    need = 2 * d + max(g.degree, 0)
    if need > s.max_degree:
        raise ValueError(f"insufficient moments: need degree {need}, have {s.max_degree}")
    idx = simplex_index(s.n, d)
    entries = np.zeros((len(idx.basis),) * 2)
    for gamma, coef in g.terms.items():
        entries += coef * s.vector[idx.hankel(gamma)]
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
    ball = Polynomial.constant(s.n, float(ball_bound))
    for i in range(s.n):
        ball = ball - Polynomial.monomial(tuple(2 if j == i else 0 for j in range(s.n)))
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
    """Dual-space norm of the moments with |alpha| <= D against dual_weight(w),
    for D = 0..max_degree.

    For w = (1, r) this is the sup of |s(a)| r^-a, for w = (inf, r) the sum of
    |s(a)| r^-a, and for 1 < p < inf the lq sum against r^(-q/p).  The
    by-degree profile lets callers monitor whether the underlying infinite
    sum or sup looks summable or keeps growing with the truncation.  In
    graded-lex order the entry for D is a prefix of the terms.
    """
    if s.n != w.n:
        raise ValueError(f"dimension mismatch: {s.n} vs {w.n}")
    dual = dual_weight(w)
    sup = dual.q == math.inf
    power = 1.0 if sup else float(dual.q)
    terms = [
        term_magnitude(abs(v), power, dual.r_prime, alpha) if v != 0.0 else 0.0
        for alpha, v in s.values.items()
    ]
    profile = []
    for degree in range(s.max_degree + 1):
        seen = terms[: simplex_size(s.n, degree)]
        profile.append(max(seen) if sup else math.fsum(seen) ** (1.0 / power))
    return profile


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
