"""Sparse multivariate polynomial arithmetic, and a dense series square root.

A polynomial is a finite map from exponent tuples to float coefficients, so
the same object doubles as a finite-support coefficient sequence.  Canonical
form drops exact-zero coefficients and stores the terms in graded-lex order
(total degree, then lex; the order of iter_simplex and grlex_rank), so every
iteration, summation and serialization runs in that one order.

The truncated square root (sqrt_coefficients, behind series_sqrt) and the
square truncated to a degree (truncated_square) run on dense coefficient
vectors indexed by graded-lex rank instead.  Their products come from
np.bincount over pair tables cached per (n, degree), like simplex_index.
bincount adds in input order and the tables list each coefficient's pairs in
the order poly_mul visits them, so every coefficient is rounded exactly as
the sparse arithmetic rounds it.

poly_from_vector is the only way from such a vector back to a Polynomial:
it checks finiteness (check_finite, which names the first bad exponent),
drops zeros and keeps the graded-lex order as given.
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
    """The Vandermonde V[k, i] = prod_j points[k, j] ** exponents[i, j].

    No float power is taken: a power table holds x^0, x^1, ..., x^deg of every
    coordinate as running products (np.cumprod), and each column of V is a
    product of n gathers from it.  A power x^e is thus a chain of e - 1
    multiplications and carries at most e - 1 roundings.
    """
    points = np.asarray(points, dtype=float)
    exponents = np.asarray(exponents, dtype=np.int64)
    n = points.shape[1]
    powers = np.empty((n, int(exponents.max(initial=0)) + 1, len(points)))
    powers[:, 0] = 1.0
    powers[:, 1:] = points.T[:, None, :]
    np.cumprod(powers, axis=1, out=powers)  # powers[j, e, k] = points[k, j] ** e
    values = powers[0, exponents[:, 0]]
    for j in range(1, n):
        values = values * powers[j, exponents[:, j]]
    return values.T


def _canonical(n: int, terms: Mapping[MultiIndex, float]) -> dict[MultiIndex, float]:
    # Exact zeros are dropped, nothing else: square-root approximants mix unit
    # coefficients with astronomically large ones and stay meaningful, so any
    # relative-magnitude cleanup would corrupt them.  The map is graded-lex.
    staged: dict[MultiIndex, float] = {}
    for alpha, coef in terms.items():
        key = tuple(int(a) for a in alpha)
        if len(key) != n:
            raise ValueError(f"exponent {key} has length {len(key)}, expected {n}")
        if any(a < 0 for a in key):
            raise ValueError(f"negative exponent in {key}")
        value = float(coef)
        if not math.isfinite(value):
            raise ValueError(f"coefficient {value} at {key} is not finite")
        if value != 0.0:
            staged[key] = value
    return dict(sorted(staged.items(), key=lambda item: grlex_key(item[0])))


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial (equivalently a finite-support sequence);
    ``terms`` is a read-only map that iterates in graded-lex order."""

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
        for alpha, coef in self.terms.items():
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
    for alpha, ca in f.terms.items():
        for beta, cb in g.terms.items():
            key = tuple(a + b for a, b in zip(alpha, beta))
            acc[key] = acc.get(key, 0.0) + ca * cb
    return Polynomial(f.n, acc)


def poly_eval(f: Polynomial, x) -> float:
    """Evaluate f at a point, with compensated summation over the terms."""
    xs = tuple(float(v) for v in x)
    if len(xs) != f.n:
        raise ValueError(f"point has dimension {len(xs)}, expected {f.n}")
    contributions = []
    for alpha, coef in f.terms.items():
        mono = 1.0
        for xi, a in zip(xs, alpha):
            if a:
                mono *= xi ** a
        contributions.append(coef * mono)
    return math.fsum(contributions)


def axis_scale(f: Polynomial, scales) -> Polynomial:
    """Substitute X_i -> c_i * X_i, i.e. map each coefficient f_a to f_a * c**a.

    A term whose running product of c_i ** a_i overflows is formed again from
    logs, so an axis that another brings back into range does not make it inf."""
    cs = tuple(float(c) for c in scales)
    if len(cs) != f.n:
        raise ValueError(f"scale vector has dimension {len(cs)}, expected {f.n}")
    if any(c <= 0.0 for c in cs):
        raise ValueError("scale factors must be strictly positive")
    out: dict[MultiIndex, float] = {}
    for alpha, coef in f.terms.items():
        try:
            out[alpha] = coef * math.prod(c**a for c, a in zip(cs, alpha) if a)
        except OverflowError:
            out[alpha] = math.copysign(math.inf, coef)
        if not math.isfinite(out[alpha]):
            log = math.fsum([math.log(abs(coef))] + [a * math.log(c) for c, a in zip(cs, alpha)])
            try:
                out[alpha] = math.copysign(math.exp(log), coef)
            except OverflowError:  # out of range itself: the constructor rejects it
                pass
    return Polynomial(f.n, out)


def homogeneous_part(f: Polynomial, d: int) -> Polynomial:
    """Sum of the terms of total degree exactly d."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return Polynomial(f.n, {a: c for a, c in f.terms.items() if sum(a) == d})


def check_finite(vector: np.ndarray, n: int, degree: int, what: str = "coefficient") -> np.ndarray:
    """The graded-lex vector over simplex_index(n, degree).basis unchanged, or
    a ValueError naming its first entry that is not finite and that exponent."""
    finite = np.isfinite(vector)
    if not finite.all():
        k = int(np.argmin(finite))
        alpha = simplex_index(n, degree).basis[k]
        raise ValueError(f"{what} {float(vector[k])} at {alpha} is not finite")
    return vector


def poly_from_vector(n: int, degree: int, vector: np.ndarray) -> Polynomial:
    """The Polynomial whose coefficient at simplex_index(n, degree).basis[i] is
    vector[i], for a float vector over that whole basis: finiteness is
    checked, zeros are dropped, and the terms keep the graded-lex order of
    the vector, so no exponent is re-checked and nothing is re-sorted."""
    basis = simplex_index(n, degree).basis
    nonzero = np.flatnonzero(check_finite(vector, n, degree))
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "n", n)
    terms = dict(zip([basis[k] for k in nonzero.tolist()], vector[nonzero].tolist()))
    object.__setattr__(poly, "terms", MappingProxyType(terms))
    return poly


def dense_coefficients(f: Polynomial, degree: int) -> np.ndarray:
    """The coefficients of f with |alpha| <= degree as a graded-lex vector."""
    out = np.zeros(simplex_size(f.n, degree))
    if f.terms:
        exponents = np.array(list(f.terms), dtype=np.int64)
        keep = exponents.sum(axis=1) <= degree
        out[grlex_rank(exponents[keep])] = np.array(list(f.terms.values()))[keep]
    return out


@functools.lru_cache(maxsize=256)
def _sqrt_pairs(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The ranks (a, b) of the products g_j g_{d-j}, j = |a| = 1..d-1, of
    # series_sqrt's degree-d step, a ascending, and the bin of a + b: product
    # j fills row j of a (d, m) array, m the size of the degree-d block, and
    # row 0 is left for f_d.
    exponents = simplex_index(n, d).exponents
    total = exponents.sum(axis=1)
    inner = total > 0
    a, b = np.nonzero((total[:, None] + total[None, :] == d) & inner[:, None] & inner[None, :])
    lo = simplex_size(n, d - 1)
    bins = grlex_rank(exponents[a] + exponents[b]) - lo + total[a] * (len(total) - lo)
    return _read_only(a, b, bins)


@functools.lru_cache(maxsize=64)
def _square_pairs(n: int, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The ranks (a, b) of h * h with |a| + |b| <= degree, a ascending, and the
    # rank of a + b.
    exponents = simplex_index(n, degree).exponents
    total = exponents.sum(axis=1)
    a, b = np.nonzero(total[:, None] + total[None, :] <= degree)
    return _read_only(a, b, grlex_rank(exponents[a] + exponents[b]))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def sqrt_coefficients(f: np.ndarray, n: int, max_degree: int) -> np.ndarray:
    """The recurrence of series_sqrt on graded-lex vectors: f holds at least
    the coefficients of degree <= max_degree, f[0] > 0, and the result holds
    those of g.

    Degree d takes its d - 1 products g_j g_{d-j} from one np.bincount over a
    cached pair table, which lists each product's pairs by ascending rank of
    the left factor, as poly_mul visits them.  np.subtract.reduce down the
    rows then subtracts the products from f_d one at a time in j order, so
    every coefficient is rounded exactly as the sparse recurrence
    g_d = (f_d - g_1 g_{d-1} - ... - g_{d-1} g_1) * (1 / (2 g_0)) rounds it.
    An overflow is not raised here: it leaves an entry that is not finite.
    """
    g = np.zeros(simplex_size(n, max_degree))
    g[0] = math.sqrt(f[0])
    inv = 1.0 / (2.0 * g[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, max_degree + 1):
            lo, hi = simplex_size(n, d - 1), simplex_size(n, d)
            a, b, where = _sqrt_pairs(n, d)
            rows = np.bincount(where, g[a] * g[b], d * (hi - lo))
            rows = rows.astype(float, copy=False).reshape(d, hi - lo)  # d = 1: no pairs, ints
            rows[0] = f[lo:hi]
            g[lo:hi] = np.subtract.reduce(rows, axis=0) * inv
    return g


def truncated_square(h: np.ndarray, n: int, degree: int) -> np.ndarray:
    """The coefficients of degree <= degree of h * h, for a graded-lex vector h,
    rounded exactly as poly_mul rounds them."""
    size = simplex_size(n, degree)
    if len(h) < size:
        h = np.concatenate([h, np.zeros(size - len(h))])
    a, b, where = _square_pairs(n, degree)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.bincount(where, h[a] * h[b], size)


def series_sqrt(f: Polynomial, max_degree: int) -> Polynomial:
    """Truncated formal power-series square root of f.

    Returns g = g_0 + ... + g_D (homogeneous components up to D = max_degree)
    with g**2 - f free of terms of total degree <= D.  The components obey
    g_0 = sqrt(f_0) and g_d = (f_d - sum_{0<j<d} g_j g_{d-j}) / (2 g_0), so a
    strictly positive constant term is required; the shifted variants that
    make f(0) = 0 admissible live one level up.  The recurrence runs on dense
    graded-lex vectors (sqrt_coefficients); a coefficient that overflows is
    rejected as not finite.
    """
    if max_degree < 0:
        raise ValueError("degree bound must be >= 0")
    if f.constant_term <= 0.0:
        raise ValueError("series square root needs a strictly positive constant term")
    g = sqrt_coefficients(dense_coefficients(f, max_degree), f.n, max_degree)
    return poly_from_vector(f.n, max_degree, g)


def poly_to_dict(f: Polynomial) -> dict:
    """JSON-ready form: {"n": ..., "terms": [{"exp": [...], "coef": ...}, ...]}."""
    return {
        "n": f.n,
        "terms": [{"exp": list(alpha), "coef": coef} for alpha, coef in f.terms.items()],
    }


def integer_field(value, name: str) -> int:
    """A JSON number that must be an integer: 2.0 reads as 2; 1.9 is rejected,
    not truncated, and so is true."""
    out = int(value)
    if out != value or isinstance(value, bool):
        raise ValueError(f"{name} {value!r} is not an integer")
    return out


def entries_by_exponent(entries, value_key: str) -> dict[MultiIndex, float]:
    """Read JSON entries {"exp": [...], value_key: number} into a map.

    Exponents must be integers (see integer_field), and each may appear only
    once.
    """
    out: dict[MultiIndex, float] = {}
    for entry in entries:
        alpha = tuple(integer_field(a, "exponent") for a in entry["exp"])
        if alpha in out:
            raise ValueError(f"duplicate exponent {list(alpha)}")
        out[alpha] = float(entry[value_key])
    return out


def poly_from_dict(data: dict) -> Polynomial:
    """Parse the JSON polynomial format; duplicate exponents are an error."""
    if not isinstance(data, dict) or "n" not in data or "terms" not in data:
        raise ValueError('polynomial JSON must be {"n": int, "terms": [...]}')
    return Polynomial(integer_field(data["n"], "n"), entries_by_exponent(data["terms"], "coef"))
