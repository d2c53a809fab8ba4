"""Sparse multivariate polynomial arithmetic on arrays, and a dense series square root.

A Polynomial is a finite-support coefficient sequence: an int64 (k, n) array
of unique exponent rows in graded-lex order (total degree, then lex; the
order of iter_simplex and grlex_rank) and a float array of its k nonzero
coefficients.  One canonicalizer checks rows given in any order, sorts them
by np.lexsort and sums repeated rows in input order by np.bincount; sum,
difference and product pass through it, while the maps that keep the rows
only drop zeros.  ``terms`` is a read-only map derived from the two arrays.

The truncated square root (sqrt_stack, Miller's recurrence) and square
(truncated_square) run on dense graded-lex vectors, or on a stack of them
with one np.bincount for all rows (per degree for the root, once for the
square).  Both read their bins from the one cached rank table, shift_table:
the square from the Hankel table shift_table(n, d, d), in the order poly_mul
sums its products, and the root from shift_table(n, D - 1, deg f) for
degree D.  Every coefficient rounds as in a stack of one row.  The index
work that depends only on the shape is built once into read-only plans,
cached like shift_table and built on first use, never at import: the root's
sorted pairs, factors and per-degree bins per (n, D, deg f, rows), the
square's pairs and bins per (n, d, rows), and dense_coefficients' binomial
table per (n, degree kept).  Row 0 of a root stack runs to D; every other
row stops at deg f and is stored only that far, so a stack of r rows costs
r * simplex_size(n, deg f) + simplex_size(n, D) floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

MultiIndex = tuple[int, ...]


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
    """Position of each exponent (last axis) in the graded-lex simplex order: the
    count of exponents of lower total degree, then of the lex-smaller ones of
    the same degree, which depends on no truncation degree."""
    alpha = np.asarray(alpha, dtype=np.int64)
    n = alpha.shape[-1]
    rest = alpha.sum(axis=-1)
    rank = _binom(rest + n - 1, n)
    for i in range(n - 1):
        t = n - 1 - i
        rank = rank + _binom(rest + t, t) - _binom(rest - alpha[..., i] + t, t)
        rest = rest - alpha[..., i]
    return rank


@functools.lru_cache(maxsize=64)
def simplex_index(n: int, degree: int) -> np.ndarray:
    """The shared, read-only (m, n) int64 array of the graded-lex basis |alpha|
    <= degree in n variables: row i is the exponent of rank i."""
    exponents = np.array(list(iter_simplex(n, degree)), dtype=np.int64).reshape(-1, n)
    return _read_only(exponents)[0]


@functools.lru_cache(maxsize=128)
def shift_table(n: int, degree: int, shift_degree: int) -> np.ndarray:
    """The read-only rank table T[rank(c), rank(a)] = rank(a + c) for |a| <=
    degree and |c| <= shift_degree: row rank(c) of T gathers the sequence
    a -> s(a + c) over the degree simplex from a moment vector s."""
    shifts = simplex_index(n, shift_degree)
    table = grlex_rank(shifts[:, None, :] + simplex_index(n, degree)[None, :, :])
    return _read_only(table)[0]


def monomial_values(points, exponents) -> np.ndarray:
    """The Vandermonde V[k, i] = prod_j points[k, j] ** exponents[i, j], from a
    table of running products x^0, ..., x^deg per coordinate (np.cumprod): a
    power x^e is a chain of e - 1 multiplications, not a float power."""
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


_INT64_MAX = int(np.iinfo(np.int64).max)


def exponent_array(rows, n: int) -> tuple[Sequence, np.ndarray]:
    """The exponent rows as integer sequences and as a (len(rows), n) int64
    array, where a row of another length or with an entry beyond int64 is
    -1s.  When some entry is not a plain int, each is read by integer_field
    (2.0 reads as 2; 2.5 and true are errors)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.shape == (len(rows), n):
        return rows, rows
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        rows = [[integer_field(a, "exponent") for a in row] for row in rows]
    try:
        return rows, np.array(rows, dtype=np.int64).reshape(len(rows), n)
    except (ValueError, OverflowError):  # rows of another length, or beyond int64
        fits = [len(row) == n and -_INT64_MAX <= min(row) <= max(row) <= _INT64_MAX for row in rows]
        fitted = [row if ok else [-1] * n for row, ok in zip(rows, fits)]
        return rows, np.array(fitted, dtype=np.int64).reshape(len(rows), n)


def grlex_sort(exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ranked, repeat): the stable graded-lex order of exponent rows
    (np.lexsort on total degree, then the exponents: no grlex_rank, so no
    exponent is too large), the sorted rows, and which sorted rows after the
    first equal the one before."""
    order = np.lexsort([*exponents.T[::-1], exponents.sum(axis=1)])
    ranked = exponents[order]
    return order, ranked, (ranked[1:] == ranked[:-1]).all(axis=1)


# exponents and coefficients already in the stored order: unique rows, graded-lex
_Rows = NamedTuple("_Rows", [("exponents", np.ndarray), ("coefs", np.ndarray)])


def _checked(n: int, rows, values) -> tuple[np.ndarray, np.ndarray]:
    # The int64 exponents and float coefficients, or a ValueError naming the first
    # bad exponent: of another length, negative, or with entries or a total beyond int64.
    rows, exponents = exponent_array(rows, n)
    if exponents.view(np.uint64).max(initial=0) > _INT64_MAX // n:  # negatives read as >= 2**63
        bad = (exponents < 0).any(axis=1) | (exponents.astype(object).sum(axis=1) > _INT64_MAX)
        if bad.any():  # else large exponents whose total degrees all fit
            alpha = tuple(int(a) for a in rows[int(np.argmax(bad))])
            if len(alpha) != n:
                raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {n}")
            if min(alpha) < 0:
                raise ValueError(f"negative exponent in {alpha}")
            raise ValueError(f"exponent {alpha} does not fit in int64, nor may its total degree")
    coefs = np.asarray(values, dtype=float)
    if coefs.shape != (len(exponents),):
        raise ValueError(f"{len(exponents)} exponent rows, coefficients of shape {coefs.shape}")
    return exponents, coefs


def _canonical(exponents: np.ndarray, coefs: np.ndarray) -> _Rows:
    # The rows sorted graded-lex, repeats summed in input order (np.bincount adds from 0.0).
    order, ranked, repeat = grlex_sort(exponents)
    coefs = coefs[order]
    if np.count_nonzero(repeat):
        first = np.ones(len(ranked), dtype=bool)
        first[1:] = ~repeat
        ranked, coefs = ranked[first], np.bincount(np.cumsum(first) - 1, coefs)
    return _Rows(ranked, coefs)


@dataclass(frozen=True, init=False, eq=False)
class Polynomial:
    """Immutable sparse polynomial: read-only ``exponents`` (k, n), unique
    int64 rows in graded-lex order, and ``coefs`` (k,), finite and nonzero.

    ``terms`` is a map from exponent tuples to coefficients, or an
    (exponents, coefs) pair of rows in any order.  An error names the first
    bad exponent (see _checked), or else the first coefficient in graded-lex
    order that is not finite."""

    n: int
    exponents: np.ndarray
    coefs: np.ndarray

    def __init__(self, n: int, terms) -> None:
        if not isinstance(terms, _Rows):
            pair = terms if isinstance(terms, tuple) else (list(terms), list(terms.values()))
            terms = _canonical(*_checked(n, *pair))
        coefs = _check_finite_rows(np.asarray(terms.coefs, dtype=float), terms.exponents)
        nonzero = coefs != 0.0  # exact zeros only: approximants mix unit and huge coefficients
        exponents, coefs = _read_only(terms.exponents[nonzero], coefs[nonzero])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "coefs", coefs)

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
        return cls(n, {tuple(int(j == index) for j in range(n)): 1.0})

    @classmethod
    def monomial(cls, alpha: MultiIndex, coef: float = 1.0) -> Polynomial:
        return cls(len(alpha), {tuple(alpha): coef})

    @property
    def terms(self) -> Mapping[MultiIndex, float]:
        """A read-only map from exponent tuples to coefficients, in graded-lex
        order, formed from the two arrays on each access."""
        rows = map(tuple, self.exponents.tolist())
        return MappingProxyType(dict(zip(rows, self.coefs.tolist())))

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return int(self.exponents[-1].sum()) if len(self.coefs) else -1

    @property
    def constant_term(self) -> float:
        return float(self.coefs[0]) if len(self.coefs) and not self.exponents[0].any() else 0.0

    def coefficient(self, alpha: MultiIndex) -> float:
        """The coefficient of the row equal to alpha, or 0.0 when none is."""
        if len(alpha) != self.n:
            return 0.0
        hit = np.flatnonzero((self.exponents == tuple(alpha)).all(axis=1))
        return float(self.coefs[hit[0]]) if len(hit) else 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        rows = np.array_equal(self.exponents, other.exponents)
        return self.n == other.n and rows and np.array_equal(self.coefs, other.coefs)

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
        monos = ["*".join(f"X{i + 1}^{a}" for i, a in enumerate(e) if a) for e in self.terms]
        parts = [f"{c:g}" + (f"*{m}" if m else "") for m, c in zip(monos, self.coefs.tolist())]
        return " + ".join(parts) or "0"


def _check_same_dimension(f: Polynomial, g: Polynomial) -> None:
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    """Coefficientwise sum: f_a + g_a, rounded once."""
    _check_same_dimension(f, g)
    rows = np.concatenate([f.exponents, g.exponents])
    with np.errstate(over="ignore"):  # an overflow is rejected as not finite
        return Polynomial(f.n, _canonical(rows, np.concatenate([f.coefs, g.coefs])))


def poly_sub(f: Polynomial, g: Polynomial) -> Polynomial:
    """Coefficientwise difference: f_a + (-g_a), which rounds as f_a - g_a."""
    return poly_add(f, poly_scale(g, -1.0))


def poly_scale(f: Polynomial, c: float) -> Polynomial:
    """Scalar multiple c*f."""
    with np.errstate(over="ignore"):
        return Polynomial(f.n, _Rows(f.exponents, float(c) * f.coefs))


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """Product, i.e. convolution of the coefficient sequences: the products
    f_a g_b are summed into each coefficient in graded-lex order of a, then b."""
    _check_same_dimension(f, g)
    rows = (f.exponents[:, None, :] + g.exponents[None, :, :]).reshape(-1, f.n)
    if rows.min(initial=0) < 0:  # a sum of two int64 exponents wrapped around
        raise ValueError("an exponent of the product does not fit in int64")
    with np.errstate(over="ignore", invalid="ignore"):
        return Polynomial(f.n, (rows, np.outer(f.coefs, g.coefs).ravel()))


def _power_products(exponents: np.ndarray, xs: tuple[float, ...], power) -> np.ndarray:
    # prod_j power(xs[j], exponents[:, j]) per row, multiplied over the axes left
    # to right from one table per axis of power(x_j, k) (Python's float ** int)
    # for k = 0..top, or only the k that occur when top is far above their count.
    out = np.ones(len(exponents))
    for j, x in enumerate(xs):
        ks, at = range(int(exponents[:, j].max(initial=0)) + 1), exponents[:, j]
        if len(ks) > 4 * len(at) + 64:
            ks, at = np.unique(at, return_inverse=True)
        out = out * np.array([power(x, k) for k in map(int, ks)])[at]
    return out


def poly_eval(f: Polynomial, x) -> float:
    """Evaluate f at a point, with compensated summation over the terms; a
    power too large for a float raises OverflowError."""
    xs = tuple(float(v) for v in x)
    if len(xs) != f.n:
        raise ValueError(f"point has dimension {len(xs)}, expected {f.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        return math.fsum((f.coefs * _power_products(f.exponents, xs, pow)).tolist())


_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def _normal_power(c: float, k: int) -> float:
    # c ** k when it is a normal float or 1; else inf above the range, 0 below it
    try:
        power = c**k
    except OverflowError:
        return math.inf
    return power if power >= _TINY else 0.0


def scaled_coefficients(exponents: np.ndarray, coefs: np.ndarray, scales) -> np.ndarray:
    """coefs[k] * prod_i scales[i] ** exponents[k, i], for scales >= 0 (inf
    read as a scale too large for a float), from per-axis tables of Python
    float ** int.  An entry whose product of powers, or a power in it, is
    out of the normal float range is formed again from logs, so an axis that
    another brings back into range costs it neither its value nor its
    precision, and an exact zero times an overflowing power is 0; an entry
    too large for a float is inf."""
    cs = tuple(float(c) for c in scales)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # log 0 = -inf
        powers = _power_products(exponents, cs, _normal_power)
        out = coefs * powers
        redo = ~np.isfinite(out) | ~(powers >= _TINY)
        if np.count_nonzero(redo):
            rows, values = exponents[redo], coefs[redo]
            logs = np.where(rows > 0, rows * np.log(cs), 0.0).sum(axis=1)  # no 0 * log 0
            logs = logs + np.log(np.abs(values))
            logs[np.isnan(logs)] = -np.inf  # inf - inf: an exact zero wins
            out[redo] = np.copysign(np.exp(logs), values)
    return out


def axis_scale(f: Polynomial, scales) -> Polynomial:
    """Substitute X_i -> c_i * X_i, i.e. map each coefficient f_a to f_a * c**a
    (see scaled_coefficients)."""
    cs = tuple(float(c) for c in scales)
    if len(cs) != f.n:
        raise ValueError(f"scale vector has dimension {len(cs)}, expected {f.n}")
    if any(c <= 0.0 for c in cs):
        raise ValueError("scale factors must be strictly positive")
    return Polynomial(f.n, _Rows(f.exponents, scaled_coefficients(f.exponents, f.coefs, cs)))


def _check_finite_rows(values: np.ndarray, rows, what: str = "coefficient") -> np.ndarray:
    # values unchanged, or a ValueError naming the first that is not finite and its row
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < len(finite):
        k = int(np.argmin(finite))
        raise ValueError(f"{what} {float(values[k])} at {tuple(rows[k].tolist())} is not finite")
    return values


def check_finite(vector: np.ndarray, n: int, degree: int, what: str = "coefficient") -> np.ndarray:
    """The graded-lex vector over the rows of simplex_index(n, degree) unchanged,
    or a ValueError naming its first entry that is not finite and that exponent."""
    return _check_finite_rows(vector, simplex_index(n, degree), what)


def poly_from_vector(n: int, degree: int, vector: np.ndarray) -> Polynomial:
    """The Polynomial with coefficient vector[i] at row i of simplex_index(n, degree),
    for a float vector over that whole basis, kept in its order."""
    return Polynomial(n, _Rows(simplex_index(n, degree), vector))


@functools.lru_cache(maxsize=64)
def _binomials(n: int, degree: int) -> np.ndarray:
    # The read-only table C[x, k] = binomial(x, k) for x < degree + n and k <= n:
    # every binomial that grlex_rank forms for an exponent of degree <= degree.
    table = [[math.comb(x, k) for k in range(n + 1)] for x in range(degree + n)]
    return _read_only(np.array(table, dtype=np.int64))[0]


def dense_coefficients(f: Polynomial, degree: int) -> np.ndarray:
    """The coefficients of f with |alpha| <= degree as a graded-lex vector, at
    the ranks of grlex_rank read from a cached binomial table sized by the
    largest degree kept."""
    out = np.zeros(simplex_size(f.n, degree))
    totals = f.exponents.sum(axis=1)
    kept = int(np.searchsorted(totals, degree, side="right"))  # the rows are graded-lex
    alpha, rest = f.exponents[:kept], totals[:kept]
    n = f.n
    table = _binomials(n, int(rest[-1]) if kept else 0)
    rank = table[rest + n - 1, n]
    for i in range(n - 1):  # grlex_rank's steps, each binomial one lookup
        t = n - 1 - i
        rank = rank + table[rest + t, t] - table[rest - alpha[:, i] + t, t]
        rest = rest - alpha[:, i]
    out[rank] = f.coefs[:kept]
    return out


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


class _SqrtPlan(NamedTuple):
    # The shape-only part of sqrt_stack for (n, max_degree, deg f, rows): the
    # pairs (c, b) with 1 <= |c| <= deg f and |b + c| <= max_degree, sorted by
    # rank(b + c), then ascending rank of c, and their factors 3|c|/2 - |b + c|.
    # Degree d (from rank sizes[d]) has the pairs ends[d]:ends[d + 1], live[d - 1]
    # rows and, in bins[d - 1], the bin of each pair in each live row r: r *
    # (sizes[d + 1] - sizes[d]) + rank(b + c) - sizes[d].
    c: np.ndarray
    b: np.ndarray
    factor: np.ndarray
    ends: tuple[int, ...]
    sizes: tuple[int, ...]
    live: tuple[int, ...]
    bins: tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=64)
def _sqrt_plan(n: int, max_degree: int, deg_f: int, rows: int) -> _SqrtPlan:
    sizes = [simplex_size(n, d - 1) for d in range(max_degree + 2)]  # degree d from sizes[d]
    table = shift_table(n, max_degree - 1, deg_f)[1:]  # T[rank(c) - 1, rank(b)] = rank(b + c)
    order = table.argsort(axis=None, kind="stable")  # by bin, then ascending rank of c
    bins = table.take(order)
    ends = bins.searchsorted(sizes).tolist()  # degree d: the pairs ends[d]:ends[d + 1]
    c, b = np.divmod(order[: ends[-1]] + table.shape[1], table.shape[1])  # row 0 was cut
    degrees = np.repeat(np.arange(max_degree + 1), np.diff(ends))  # |a| = |b + c|
    factor = 1.5 * simplex_index(n, deg_f).sum(axis=1)[c] - degrees  # 3|c|/2 - |a|
    live = [min(rows, max_degree + 1 - d) if d <= deg_f else 1 for d in range(1, max_degree + 1)]
    scatter = [
        (bins[ends[d] : ends[d + 1]] - lo + (hi - lo) * np.arange(k)[:, None]).ravel()
        for d, k, lo, hi in zip(range(1, max_degree + 1), live, sizes[1:], sizes[2:])
    ]
    arrays = _read_only(c, b, factor, *scatter)
    return _SqrtPlan(*arrays[:3], tuple(ends), tuple(sizes), tuple(live), arrays[3:])


def sqrt_stack(f: np.ndarray, n: int, max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(top, rows): the square root h of each row of a stack f of graded-lex
    vectors (f[:, 0] > 0, zero above their width) by J. C. P. Miller's
    recurrence: E = sum X_i d/dX_i turns h^2 = f into f E(h) = h E(f) / 2, so
    d f_0 h_a = sum (3|c|/2 - d) f_c h_{a-c} over 1 <= |c| <= deg f, |a| = d,
    added by ascending rank of c in one np.bincount per degree.  deg f reads
    every entry of the stack and counts as max_degree above it.  Row 0 runs to
    max_degree and is top; row r >= 1 runs to min(max_degree - r, deg f), zeros
    above, and rows holds every row to min(max_degree, deg f), so the stack
    costs its rows times the simplex of deg f, not of max_degree.  A row with
    f_0 >= 2 runs on f / 4^m, f_0 / 4^m in [0.5, 2), then h = h' 2^m (exact):
    the terms stay near h in size.  Each row rounds and overflows as alone.

    Every index array comes from a read-only plan cached per (n, max_degree,
    deg f, rows) over a slice of shift_table(n, max_degree - 1, deg f)."""
    top = np.empty(simplex_size(n, max_degree))  # too large for memory: fails before any plan
    m = np.maximum(np.frexp(f[:, :1])[1] // 2, 0)  # f_0 / 4^m in [0.5, 2) if f_0 >= 2
    stack = np.ldexp(f, -2 * m)
    last = int(stack.any(axis=0).nonzero()[0][-1])
    deg_f = 0
    while deg_f < max_degree and simplex_size(n, deg_f) <= last:
        deg_f += 1
    plan = _sqrt_plan(n, max_degree, deg_f, len(stack))
    width, split = plan.sizes[deg_f + 1], plan.ends[deg_f + 1]  # rows' width, their pairs
    rows = top[None, :width] if len(stack) == 1 else np.zeros((len(stack), width))
    rows[:, 0] = np.sqrt(stack[:, 0])
    denominators = np.arange(deg_f + 1)[:, None] * stack[:, 0]  # d * f_0
    with np.errstate(over="ignore", invalid="ignore"):
        weights = plan.factor[:split] * stack.take(plan.c[:split], axis=1)
        for d in range(1, deg_f + 1):
            lo, hi, at = plan.sizes[d], plan.sizes[d + 1], slice(*plan.ends[d : d + 2])
            live = plan.live[d - 1]
            terms = weights[:live, at] * rows[:live].take(plan.b[at], axis=1)
            sums = np.bincount(plan.bins[d - 1], terms.ravel(), live * (hi - lo))
            rows[:live, lo:hi] = sums.reshape(live, hi - lo) / denominators[d, :live, None]
        top[:width] = rows[0]
        tail = plan.factor[split:] * stack[0].take(plan.c[split:])  # row 0's above deg f
        for d in range(deg_f + 1, max_degree + 1):
            lo, hi, at = plan.sizes[d], plan.sizes[d + 1], slice(*plan.ends[d : d + 2])
            terms = tail[at.start - split : at.stop - split] * top.take(plan.b[at])
            top[lo:hi] = np.bincount(plan.bins[d - 1], terms, hi - lo) / (d * stack[0, 0])
        return np.ldexp(top, m[0]), np.ldexp(rows, m)


def sqrt_coefficients(f: np.ndarray, n: int, max_degree: int) -> np.ndarray:
    """The square root h of a graded-lex vector f to max_degree, or of each row
    of a stack of them (sqrt_stack), every row to max_degree with zeros above
    where it stops."""
    top, rows = sqrt_stack(np.atleast_2d(f), n, max_degree)
    if np.ndim(f) == 1:
        return top
    out = np.zeros((len(rows), len(top)))
    out[:, : rows.shape[1]] = rows
    out[0] = top
    return out


@functools.lru_cache(maxsize=64)
def _square_plan(n: int, degree: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (a, b, bins): the pairs of ranks with |a| + |b| <= degree, a ascending,
    # then b (the order poly_mul sums in), from the Hankel table shift_table(n,
    # degree, degree), and the bins of row r's products, r * size + rank(a + b).
    size = simplex_size(n, degree)
    table = shift_table(n, degree, degree)
    a, b = np.nonzero(table < size)
    bins = (table[a, b] + size * np.arange(rows)[:, None]).ravel()
    return _read_only(a, b, bins)


def truncated_square(h: np.ndarray, n: int, degree: int) -> np.ndarray:
    """The coefficients of degree <= degree of h * h for a graded-lex vector h, or
    for each row of a stack of them, rounded as poly_mul rounds them: the Gram
    map of h h^T at the pairs |a| + |b| <= degree, one np.bincount in all, over
    a read-only plan cached per (n, degree, rows)."""
    size = simplex_size(n, degree)
    rows = np.atleast_2d(h)
    stack = np.zeros((len(rows), size))  # cut or zero-padded to the simplex
    stack[:, : rows.shape[1]] = rows[:, :size]
    a, b, bins = _square_plan(n, degree, len(stack))
    with np.errstate(over="ignore", invalid="ignore"):
        products = stack.take(a, axis=1) * stack.take(b, axis=1)
        squares = np.bincount(bins, products.ravel(), size * len(stack)).reshape(-1, size)
    return squares if h.ndim == 2 else squares[0]


def series_sqrt(f: Polynomial, max_degree: int) -> Polynomial:
    """Truncated formal power-series square root of f: g = g_0 + ... + g_D,
    D = max_degree, with g**2 - f free of terms of total degree <= D.  g_0 =
    sqrt(f_0) and g_1, ..., g_D by Miller's recurrence (sqrt_coefficients), so
    f_0 > 0 is required (sqrt_square_approx shifts f); an overflow is an error."""
    if max_degree < 0:
        raise ValueError("degree bound must be >= 0")
    if f.constant_term <= 0.0:
        raise ValueError("series square root needs a strictly positive constant term")
    g = sqrt_coefficients(dense_coefficients(f, min(f.degree, max_degree)), f.n, max_degree)
    return poly_from_vector(f.n, max_degree, g)


def poly_to_dict(f: Polynomial) -> dict:
    """JSON-ready form: {"n": ..., "terms": [{"exp": [...], "coef": ...}, ...]}."""
    rows = zip(f.exponents.tolist(), f.coefs.tolist())
    return {"n": f.n, "terms": [{"exp": alpha, "coef": coef} for alpha, coef in rows]}


def integer_field(value, name: str) -> int:
    """A JSON number that must be an integer: 2.0 reads as 2; 1.9 is rejected,
    not truncated, and so are true, null, a string and a list."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or int(value) != value:
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def number_field(value, name: str) -> float:
    """A JSON number read as a float: an int or a float, but not true or
    false, a string or null."""
    if type(value) is float:  # most fields, read at no cost
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} {value!r} is not a number")
    return float(value)


def entry_fields(entries, name: str, key: str) -> tuple[list, list]:
    """The "exp" lists and key fields of a JSON list of {"exp": [...], key: ...} entries."""
    try:
        rows, values = [entry["exp"] for entry in entries], [entry[key] for entry in entries]
    except (TypeError, KeyError):  # not a list, or an entry not an object or without a field
        rows = [None]  # fails the list check below
    if isinstance(entries, (list, tuple)) and set(map(type, rows)) <= {list, tuple}:
        return rows, values
    raise ValueError(f'{name} must be a list of {{"exp": [...], "{key}": number}}')


def poly_from_dict(data: dict) -> Polynomial:
    """Parse the JSON polynomial format, read as an exponent array and a
    coefficient array: entries in any order, each exponent once (the first
    repeat is named after any error that Polynomial names)."""
    if not isinstance(data, dict) or "n" not in data or "terms" not in data:
        raise ValueError('polynomial JSON must be {"n": int, "terms": [...]}')
    n = integer_field(data["n"], "n")
    rows, values = entry_fields(data["terms"], "terms", "coef")
    exponents, coefs = _checked(n, rows, [number_field(value, "coef") for value in values])
    order, ranked, repeat = grlex_sort(exponents)
    if np.count_nonzero(repeat):
        raise ValueError(f"duplicate exponent {exponents[order[1:][repeat].min()].tolist()}")
    return Polynomial(n, _Rows(ranked, coefs[order]))
