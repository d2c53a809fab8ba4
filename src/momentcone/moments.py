"""Truncated moment sequences, (localized) moment matrices, and PSD checks.

A linear functional on polynomials is stored through its monomial values
s(alpha) on the full simplex |alpha| <= max_degree.  Moment matrices index
rows and columns by the graded-lex simplex basis, so serialized output is
stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .norms import WeightSpec, dual_weight, weight_power
from .polyring import (
    MultiIndex,
    Polynomial,
    entries_by_exponent,
    grlex_key,
    integer_field,
    simplex_index,
    simplex_size,
)


@dataclass(frozen=True)
class MomentSequence:
    """Monomial values of a linear functional up to a truncation degree.

    The value map must cover the full simplex {alpha : |alpha| <= max_degree};
    holes are rejected so every matrix entry below the truncation exists.
    """

    n: int
    max_degree: int
    values: Mapping[MultiIndex, float]

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
        object.__setattr__(self, "values", cleaned)

    def value(self, alpha: MultiIndex) -> float:
        return self.values[tuple(alpha)]

    def sorted_values(self) -> list[tuple[MultiIndex, float]]:
        return sorted(self.values.items(), key=lambda item: grlex_key(item[0]))

    def vector(self) -> np.ndarray:
        """The values in graded-lex order, i.e. indexed by grlex_rank."""
        return np.array([v for _, v in self.sorted_values()])


@dataclass(frozen=True)
class MomentMatrix:
    """Symmetric matrix s(alpha+beta) (optionally localized by a generator)
    over the graded-lex simplex basis of degree d."""

    degree: int
    basis: tuple[MultiIndex, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.basis)


def moments_to_dict(s: MomentSequence) -> dict:
    """JSON-ready form mirroring the moment file format."""
    return {
        "n": s.n,
        "max_degree": s.max_degree,
        "values": [{"exp": list(a), "s": v} for a, v in s.sorted_values()],
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
    return math.fsum(coef * s.values[alpha] for alpha, coef in f.sorted_terms())


def moment_matrix(s: MomentSequence, d: int) -> MomentMatrix:
    """The matrix M[a, b] = s(a + b) over the degree-d simplex basis."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if 2 * d > s.max_degree:
        raise ValueError(f"insufficient moments: need degree {2 * d}, have {s.max_degree}")
    idx = simplex_index(s.n, d)
    return MomentMatrix(d, idx.basis, s.vector()[idx.hankel()])


def localized_moment_matrix(s: MomentSequence, g: Polynomial, d: int) -> MomentMatrix:
    """The matrix M[a, b] = sum_c g_c s(a + b + c), realizing l(h^2 g)."""
    if g.n != s.n:
        raise ValueError(f"dimension mismatch: {g.n} vs {s.n}")
    if d < 0:
        raise ValueError("degree must be >= 0")
    need = 2 * d + max(g.degree, 0)
    if need > s.max_degree:
        raise ValueError(f"insufficient moments: need degree {need}, have {s.max_degree}")
    idx = simplex_index(s.n, d)
    values = s.vector()
    entries = np.zeros((len(idx.basis),) * 2)
    for gamma, coef in g.sorted_terms():
        entries += coef * values[idx.hankel(gamma)]
    return MomentMatrix(d, idx.basis, entries)


def min_eigenvalue(mat: MomentMatrix) -> float:
    """Smallest eigenvalue (LAPACK, via numpy)."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(mat.entries)[0])


def default_psd_tol(mat: MomentMatrix) -> float:
    """Scale-aware tolerance 1e-9 * trace/size used by the PSD checks."""
    if mat.size == 0:
        return 0.0
    return 1e-9 * max(float(np.trace(mat.entries)) / mat.size, 0.0)


def is_psd_functional(s: MomentSequence, d: int, tol: float | None = None) -> bool:
    """Whether the degree-d moment matrix is PSD up to tolerance."""
    mat = moment_matrix(s, d)
    if tol is None:
        tol = default_psd_tol(mat)
    return min_eigenvalue(mat) >= -tol


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
        mat = localized_moment_matrix(s, g, d)
        bound = default_psd_tol(mat) if tol is None else tol
        eig = min_eigenvalue(mat)
        checks.append(GeneratorCheck(label, g, eig, eig >= -bound))
    return QuadraticModuleReport(
        degree=d,
        ball_bound=float(ball_bound),
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
    )


def dual_norm_of_moments(s: MomentSequence, w: WeightSpec) -> float:
    """Dual-space norm of the truncated moment sequence against dual_weight(w).

    For w = (1, r) this is the sup of |s(a)| r^-a, for w = (inf, r) the sum of
    |s(a)| r^-a, and for 1 < p < inf the lq sum against r^(-q/p).  Computed on
    the stored truncation only, so for divergent-type sums it is a lower bound
    that grows with max_degree.
    """
    if s.n != w.n:
        raise ValueError(f"dimension mismatch: {s.n} vs {w.n}")
    dual = dual_weight(w)
    pairs = [(a, v) for a, v in s.sorted_values() if v != 0.0]
    if dual.q == math.inf:
        return max(
            (abs(v) * weight_power(dual.r_prime, a) for a, v in pairs), default=0.0
        )
    qf = float(dual.q)
    total = math.fsum(abs(v) ** qf * weight_power(dual.r_prime, a) for a, v in pairs)
    return total ** (1.0 / qf)


def dual_norm_profile(s: MomentSequence, w: WeightSpec) -> list[float]:
    """dual_norm_of_moments restricted to |alpha| <= D, for D = 0..max_degree.

    The by-degree profile lets callers monitor whether the underlying infinite
    sum or sup looks summable or keeps growing with the truncation.
    """
    if s.n != w.n:
        raise ValueError(f"dimension mismatch: {s.n} vs {w.n}")
    dual = dual_weight(w)
    by_degree: dict[int, list[float]] = {}
    for alpha, v in s.sorted_values():
        if v == 0.0:
            continue
        by_degree.setdefault(sum(alpha), []).append(
            abs(v) * weight_power(dual.r_prime, alpha)
            if dual.q == math.inf
            else abs(v) ** float(dual.q) * weight_power(dual.r_prime, alpha)
        )
    profile = []
    if dual.q == math.inf:
        running = 0.0
        for deg in range(s.max_degree + 1):
            running = max(running, max(by_degree.get(deg, [0.0])))
            profile.append(running)
        return profile
    qf = float(dual.q)
    running = 0.0
    for deg in range(s.max_degree + 1):
        running += math.fsum(by_degree.get(deg, []))
        profile.append(running ** (1.0 / qf))
    return profile


def increments_growing(profile: Sequence[float], rel_tol: float = 1e-9) -> bool:
    """Whether the tail of a by-degree profile is still growing.

    True when the last increment is positive and at least as large as the one
    before it; convergent partial sums have shrinking increments and flat
    sups have zero ones.
    """
    if len(profile) < 3:
        return False
    last = profile[-1] - profile[-2]
    prev = profile[-2] - profile[-3]
    scale = max(abs(profile[-1]), 1e-300)
    return last > rel_tol * scale and last >= prev * (1.0 - rel_tol)
