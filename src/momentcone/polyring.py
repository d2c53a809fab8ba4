"""Sparse multivariate polynomial arithmetic.

A polynomial is a finite map from exponent tuples to float coefficients, so
the same object doubles as a finite-support coefficient sequence.  Canonical
form drops exact-zero coefficients, and a fixed graded-lexicographic term
order makes every iteration, summation and serialization reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

MultiIndex = tuple[int, ...]


def grlex_key(alpha: MultiIndex) -> tuple[int, MultiIndex]:
    """Sort key for the graded-lexicographic order: total degree, then lex."""
    return (sum(alpha), alpha)


def _compositions(total: int, slots: int) -> Iterator[MultiIndex]:
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, slots - 1):
            yield (head,) + tail


def iter_simplex(n: int, max_degree: int) -> Iterator[MultiIndex]:
    """All exponent tuples in n variables with |alpha| <= max_degree, graded-lex."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    for d in range(max_degree + 1):
        yield from _compositions(d, n)


def simplex_size(n: int, max_degree: int) -> int:
    """Number of exponent tuples with |alpha| <= max_degree."""
    return math.comb(n + max_degree, n)


def _binom(x: np.ndarray, k: int) -> np.ndarray:
    # C(x, k) elementwise in exact integer steps: after step j it is C(x, j + 1).
    out = np.ones_like(x)
    for j in range(k):
        out = out * (x - j) // (j + 1)
    return out


def grlex_rank(alpha) -> np.ndarray:
    """Position of each exponent (last axis) in the graded-lex simplex order.

    The rank counts the exponents of lower total degree, then the lex-smaller
    ones of the same degree, so it does not depend on any truncation degree.
    """
    alpha = np.asarray(alpha, dtype=np.int64)
    n = alpha.shape[-1]
    rest = alpha.sum(axis=-1)
    rank = _binom(rest + n - 1, n)
    for i in range(n - 1):
        t = n - 1 - i
        rank = rank + _binom(rest + t, t) - _binom(rest - alpha[..., i] + t, t)
        rest = rest - alpha[..., i]
    return rank


class SimplexIndex:
    """The graded-lex basis |alpha| <= degree in n variables, as arrays.

    ``exponents[i]`` is ``basis[i]``, and ``hankel(shift)[i, j]`` is the rank
    of ``basis[i] + basis[j] + shift``, so a vector of values indexed by rank
    becomes a (localized) moment matrix by one gather.
    """

    def __init__(self, n: int, degree: int) -> None:
        self.basis: tuple[MultiIndex, ...] = tuple(iter_simplex(n, degree))
        self.exponents = np.array(self.basis, dtype=np.int64).reshape(-1, n)
        self.exponents.setflags(write=False)

    def hankel(self, shift: MultiIndex | int = 0) -> np.ndarray:
        return grlex_rank(self.exponents[:, None, :] + self.exponents[None, :, :] + shift)


@functools.lru_cache(maxsize=64)
def simplex_index(n: int, degree: int) -> SimplexIndex:
    """The shared SimplexIndex of (n, degree)."""
    return SimplexIndex(n, degree)


def monomial_values(points, exponents) -> np.ndarray:
    """The Vandermonde V[k, i] = prod_j points[k, j] ** exponents[i, j]."""
    points = np.asarray(points, dtype=float)
    return np.prod(points[:, None, :] ** np.asarray(exponents), axis=2)


def _canonical(n: int, terms: Mapping[MultiIndex, float]) -> dict[MultiIndex, float]:
    # Exact zeros are dropped, nothing else: square-root approximants mix unit
    # coefficients with astronomically large ones and stay meaningful, so any
    # relative-magnitude cleanup would corrupt them.
    staged: dict[MultiIndex, float] = {}
    for alpha, coef in terms.items():
        key = tuple(int(a) for a in alpha)
        if len(key) != n:
            raise ValueError(f"exponent {key} has length {len(key)}, expected {n}")
        if any(a < 0 for a in key):
            raise ValueError(f"negative exponent in {key}")
        value = float(coef)
        if value != 0.0:
            staged[key] = value
    return staged


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial (equivalently a finite-support sequence)."""

    n: int
    terms: Mapping[MultiIndex, float]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "terms", MappingProxyType(_canonical(self.n, self.terms)))

    @classmethod
    def zero(cls, n: int) -> Polynomial:
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value: float) -> Polynomial:
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, index: int) -> Polynomial:
        if not 0 <= index < n:
            raise ValueError(f"variable index {index} out of range for n={n}")
        exp = [0] * n
        exp[index] = 1
        return cls(n, {tuple(exp): 1.0})

    @classmethod
    def monomial(cls, alpha: MultiIndex, coef: float = 1.0) -> Polynomial:
        return cls(len(alpha), {tuple(alpha): coef})

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=-1)

    @property
    def constant_term(self) -> float:
        return self.terms.get((0,) * self.n, 0.0)

    def coefficient(self, alpha: MultiIndex) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def sorted_terms(self) -> list[tuple[MultiIndex, float]]:
        """Terms in graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __add__(self, other: Polynomial) -> Polynomial:
        return poly_add(self, other)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return poly_sub(self, other)

    def __neg__(self) -> Polynomial:
        return poly_scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return poly_mul(self, other)
        return poly_scale(self, float(other))

    def __rmul__(self, other) -> Polynomial:
        return poly_scale(self, float(other))

    def __call__(self, x) -> float:
        return poly_eval(self, x)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha, coef in self.sorted_terms():
            mono = "*".join(f"X{i + 1}^{a}" for i, a in enumerate(alpha) if a)
            parts.append(f"{coef:g}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _check_same_dimension(f: Polynomial, g: Polynomial) -> None:
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    """Coefficientwise sum."""
    _check_same_dimension(f, g)
    merged = dict(f.terms)
    for alpha, coef in g.terms.items():
        merged[alpha] = merged.get(alpha, 0.0) + coef
    return Polynomial(f.n, merged)


def poly_sub(f: Polynomial, g: Polynomial) -> Polynomial:
    """Coefficientwise difference."""
    _check_same_dimension(f, g)
    merged = dict(f.terms)
    for alpha, coef in g.terms.items():
        merged[alpha] = merged.get(alpha, 0.0) - coef
    return Polynomial(f.n, merged)


def poly_scale(f: Polynomial, c: float) -> Polynomial:
    """Scalar multiple c*f."""
    c = float(c)
    return Polynomial(f.n, {alpha: c * coef for alpha, coef in f.terms.items()})


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Product, i.e. convolution of the coefficient maps.

    Accumulation runs in graded-lex order on both factors so the rounding
    pattern is identical run to run.
    """
    _check_same_dimension(f, g)
    acc: dict[MultiIndex, float] = {}
    for alpha, ca in f.sorted_terms():
        for beta, cb in g.sorted_terms():
            key = tuple(a + b for a, b in zip(alpha, beta))
            acc[key] = acc.get(key, 0.0) + ca * cb
    return Polynomial(f.n, acc)


def poly_eval(f: Polynomial, x) -> float:
    """Evaluate f at a point, with compensated summation over the terms."""
    xs = tuple(float(v) for v in x)
    if len(xs) != f.n:
        raise ValueError(f"point has dimension {len(xs)}, expected {f.n}")
    contributions = []
    for alpha, coef in f.sorted_terms():
        mono = 1.0
        for xi, a in zip(xs, alpha):
            if a:
                mono *= xi ** a
        contributions.append(coef * mono)
    return math.fsum(contributions)


def axis_scale(f: Polynomial, scales) -> Polynomial:
    """Substitute X_i -> c_i * X_i, i.e. map each coefficient f_a to f_a * c**a."""
    cs = tuple(float(c) for c in scales)
    if len(cs) != f.n:
        raise ValueError(f"scale vector has dimension {len(cs)}, expected {f.n}")
    if any(c <= 0.0 for c in cs):
        raise ValueError("scale factors must be strictly positive")
    out: dict[MultiIndex, float] = {}
    for alpha, coef in f.terms.items():
        factor = 1.0
        for c, a in zip(cs, alpha):
            if a:
                factor *= c ** a
        out[alpha] = coef * factor
    return Polynomial(f.n, out)


def homogeneous_part(f: Polynomial, d: int) -> Polynomial:
    """Sum of the terms of total degree exactly d."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return Polynomial(f.n, {a: c for a, c in f.terms.items() if sum(a) == d})


def series_sqrt(f: Polynomial, max_degree: int) -> Polynomial:
    """Truncated formal power-series square root of f.

    Returns g = g_0 + ... + g_D (homogeneous components up to D = max_degree)
    with g**2 - f free of terms of total degree <= D.  The components obey
    g_0 = sqrt(f_0) and g_d = (f_d - sum_{0<j<d} g_j g_{d-j}) / (2 g_0), so a
    strictly positive constant term is required; the shifted variants that
    make f(0) = 0 admissible live one level up.
    """
    if max_degree < 0:
        raise ValueError("degree bound must be >= 0")
    c0 = f.constant_term
    if c0 <= 0.0:
        raise ValueError("series square root needs a strictly positive constant term")
    g0 = math.sqrt(c0)
    components = [Polynomial.constant(f.n, g0)]
    inv = 1.0 / (2.0 * g0)
    for d in range(1, max_degree + 1):
        acc = homogeneous_part(f, d)
        for j in range(1, d):
            acc = poly_sub(acc, poly_mul(components[j], components[d - j]))
        components.append(poly_scale(acc, inv))
    total = Polynomial.zero(f.n)
    for comp in components:
        total = poly_add(total, comp)
    return total


def poly_to_dict(f: Polynomial) -> dict:
    """JSON-ready form: {"n": ..., "terms": [{"exp": [...], "coef": ...}, ...]}."""
    return {
        "n": f.n,
        "terms": [{"exp": list(alpha), "coef": coef} for alpha, coef in f.sorted_terms()],
    }


def poly_from_dict(data: dict) -> Polynomial:
    """Parse the JSON polynomial format; duplicate exponents are an error."""
    if not isinstance(data, dict) or "n" not in data or "terms" not in data:
        raise ValueError('polynomial JSON must be {"n": int, "terms": [...]}')
    n = int(data["n"])
    terms: dict[MultiIndex, float] = {}
    for entry in data["terms"]:
        alpha = tuple(int(a) for a in entry["exp"])
        if alpha in terms:
            raise ValueError(f"duplicate exponent {list(alpha)} in polynomial file")
        terms[alpha] = float(entry["coef"])
    return Polynomial(n, terms)
