"""Constructive approximation by squares.

Two schemes: truncated power-series square roots, whose squares converge to
any polynomial with nonnegative constant term coefficient by coefficient, and
numerically certified sum-of-squares decompositions that approximate
box-nonnegative polynomials in a weighted lp norm after rescaling the box to
the unit cube.  Both keep h_i, the SOS factors and the sum of their squares
as dense graded-lex vectors, which poly_from_vector turns into Polynomials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import BoxSpec, box_from_weight
from .norms import WeightSpec, lp_norms
from .polyring import (
    MultiIndex,
    Polynomial,
    axis_scale,
    check_finite,
    dense_coefficients,
    monomial_values,
    poly_add,
    poly_eval,
    poly_from_vector,
    series_sqrt,
    shift_table,
    simplex_index,
    simplex_size,
    sqrt_stack,
    truncated_square,
)


def _check_index(f: Polynomial, i: int) -> None:
    if i < 1:
        raise ValueError("approximation index must be >= 1")
    if f.constant_term < 0.0:
        raise ValueError(
            "constant term is negative, so no sequence of squares converges "
            "to f coefficientwise"
        )


def sqrt_square_approx(f: Polynomial, i: int) -> Polynomial:
    """Degree-i truncation h_i of the formal square root of (1/i + f).

    The square of h_i reproduces every coefficient of f at multi-indices with
    0 < |alpha| <= i exactly, while the constant term carries the 1/i shift.
    Requires f(0) >= 0; polynomials with f(0) < 0 are not coefficientwise
    limits of squares at all.
    """
    _check_index(f, i)
    shifted = poly_add(f, Polynomial.constant(f.n, 1.0 / i))
    return series_sqrt(shifted, i)


def coefficientwise_report(f: Polynomial, i_max: int) -> tuple[Polynomial, list[float]]:
    """(h_{i_max}, errors), errors[i - 1] = max |coef(h_i^2, a) - f_a| over
    |a| <= deg f for i = 1..i_max.

    Once i >= deg f the only deviation left is the constant shift, so the
    error is exactly 1/i from then on.  h_{i_max}, ..., h_1 are the rows of
    one stacked recurrence on dense graded-lex vectors (sqrt_stack, Miller's
    recurrence, the same roundings as sqrt_square_approx): h_{i_max} runs to
    degree i_max, and h_i, i < i_max, is formed, stored and checked only to
    min(i, deg f), and h_i^2 only to deg f, all i in one np.bincount over
    the cached Hankel table (truncated_square): the report reads nothing
    above deg f, so a square that overflows only there still gets a row,
    and it holds i_max rows of the simplex of deg f besides h_{i_max}.  An
    h_i or a truncated square that is not finite is an error, the first in
    largest-i order (h_i before its square).
    """
    _check_index(f, i_max)
    region = max(f.degree, 0)
    coefficients = dense_coefficients(f, region)
    np.empty(simplex_size(f.n, i_max))  # h_{i_max} too large for memory fails before the tile
    shifted = np.tile(coefficients, (i_max, 1))  # to deg f, which sets where h_i stops
    shifted[:, 0] += 1.0 / np.arange(i_max, 0, -1)  # row k: 1/i + f, i = i_max - k
    top, rows = sqrt_stack(shifted, f.n, i_max)  # rows: every h_i to min(i_max, deg f)
    finite = np.isfinite(rows).all(axis=1)
    finite[0] = np.isfinite(top).all()
    live = int(np.argmin(np.append(finite, False)))  # rows before a non-finite
    squares = truncated_square(rows[:live], f.n, region)  # each h_i above the first not finite
    bad = ~np.isfinite(squares).all(axis=1)
    if bad.any():
        check_finite(squares[np.argmax(bad)], f.n, region)
    if live < i_max:  # row live holds h_i, i = i_max - live, and zeros above degree i
        row, degree = (top, i_max) if live == 0 else (rows[live], min(i_max, region))
        check_finite(row, f.n, degree)
    errors = np.max(np.abs(squares - coefficients), axis=1)[::-1].tolist()
    return poly_from_vector(f.n, i_max, top), errors


@dataclass(frozen=True)
class SosCertificate:
    """Outcome of a Gram-matrix search for f = sum h_k^2 over a pruned basis.

    basis is what is left of the degree-d monomials after diagonal facial
    reduction, and gram is the last PSD iterate on it.  stop, read off
    success and dual, says how the search ended:

    * "converged": the factors reproduce f to within residual, and the Gram
      matrix is PSD up to round-off;
    * "refuted": dual is a checked functional l on the monomials of degree
      <= 2d (graded-lex, read-only) with l(f) < 0 and a moment matrix
      l[hankel] over basis that is positive definite by a margin above
      round-off.  Every Gram matrix G of f on basis has <l[hankel], G> =
      l(f), so none is PSD, and since pruning drops only rows that a PSD
      G must have zero, f is not a sum of squares of degree-d polynomials;
    * "cap": the iteration budget ran out with neither.

    factors are sqrt(w_k) v_k for the eigenpairs of gram with w_k > 1e-14
    max w, formed as dense graded-lex rows; square_sum adds the Gram map of
    each h_k h_k^T over the Hankel table in factor order, rounding as sum_k
    poly_mul(h_k, h_k) does (both are empty when nothing is certified).
    """

    success: bool
    factors: tuple[Polynomial, ...]
    square_sum: Polynomial
    gram: np.ndarray
    basis: tuple[MultiIndex, ...]
    residual: float
    gram_min_eig: float
    iterations: int
    dual: np.ndarray | None

    def __post_init__(self) -> None:
        self.gram.setflags(write=False)
        if self.dual is not None:
            self.dual.setflags(write=False)

    @property
    def stop(self) -> str:
        if self.success:
            return "converged"
        return "refuted" if self.dual is not None else "cap"


def _psd_project(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    clipped = np.maximum(w, 0.0)
    out = (v * clipped) @ v.T
    return 0.5 * (out + out.T)


_WITNESS_EVERY = 10  # Douglas-Rachford iterations between two dual witness checks
_WITNESS_SHIFT = 1e-8  # weight of the uniform-measure moments added to a witness


def _prune_basis(hankel: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Diagonal facial reduction of the Gram basis, repeated until nothing changes.

    If 2a is not b + c for distinct basis monomials b, c, then G_aa = f_2a:
    a zero drops a (a PSD G has a zero row a), a negative value refutes f,
    and so does a nonzero coefficient that no pair of basis monomials
    reaches.  Returns the mask of the rows kept and the rank of the
    refuting coefficient, or None.
    """
    keep = np.ones(len(hankel), dtype=bool)
    while True:
        rows = np.flatnonzero(keep)
        counts = np.bincount(hankel[np.ix_(rows, rows)].ravel(), minlength=len(targets))
        unreached = np.flatnonzero((counts == 0) & (targets != 0.0))
        if len(unreached):
            return keep, int(unreached[0])
        diagonal = hankel[rows, rows]
        lonely = counts[diagonal] == 1  # 2a is reached by (a, a) alone
        negative = diagonal[lonely & (targets[diagonal] < 0.0)]
        if len(negative):
            return keep, int(negative[0])
        drop = lonely & (targets[diagonal] == 0.0)
        if not drop.any():
            return keep, None
        keep[rows[drop]] = False


def _checked_dual(ell: np.ndarray, hankel: np.ndarray, targets: np.ndarray,
                  uniform: np.ndarray) -> np.ndarray | None:
    """ell normalised and shifted into a refutation of f, or None if it is none.

    ell is scaled to l(1) = 1 (to a largest diagonal moment of 1 when the
    basis lacks the constant, which no Gram entry then ties to l(1)), and
    _WITNESS_SHIFT times the moments of the uniform measure on [-1, 1]^n is
    added, which makes a rank-deficient moment matrix definite.  The result
    is kept when l(f) < 0 beyond the round-off of the sum and the smallest
    eigenvalue of l[hankel] exceeds 10 m eps ||l[hankel]||_2.
    """
    if hankel.size and hankel[0, 0] == 0:
        scale = ell[0]
    else:
        scale = max(ell[np.diagonal(hankel)], default=1.0)
    if not scale > 0.0:
        return None
    ell = ell / scale + _WITNESS_SHIFT * uniform
    if not ell @ targets < -10.0 * np.finfo(float).eps * (np.abs(ell) @ np.abs(targets)):
        return None
    w = np.linalg.eigvalsh(ell[hankel])
    if len(w) and not w[0] > 10.0 * len(w) * np.finfo(float).eps * np.max(np.abs(w)):
        return None
    return ell


def _uniform_moments(n: int, degree: int) -> np.ndarray:
    """Moments of the uniform probability measure on [-1, 1]^n, graded-lex to degree."""
    e = simplex_index(n, degree)
    return np.prod(np.where(e % 2 == 0, 1.0 / (e + 1), 0.0), axis=1)


def sos_certify(
    f: Polynomial,
    d: int,
    tol: float = 1e-8,
    max_iters: int = 5000,
) -> SosCertificate:
    """Search for a PSD Gram matrix representing f over the degree-d basis.

    First the basis is pruned by diagonal facial reduction (_prune_basis),
    which may refute f outright.  Then Douglas-Rachford splitting runs on
    the affine set of moment-matched matrices (closed form: the entries that
    sum to one coefficient share a Hankel index, so the groups are disjoint)
    and the PSD cone (eigenvalue clipping): z <- z + P_A(2 P_C(z) - z) -
    P_C(z), with P_C(z) as the Gram iterate.  It stops when that iterate
    matches f to within a floor far below tol, or when the gap P_C(z) -
    P_A(2 P_C(z) - z), averaged over each Hankel group, gives a checked dual
    witness (_checked_dual, tried every _WITNESS_EVERY iterations), or at
    max_iters.  On an infeasible problem the gap tends to a moment matrix
    that separates the PSD cone from the affine set.
    """
    if d < 0:
        raise ValueError("basis degree must be >= 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if f.degree > 2 * d:
        raise ValueError(f"degree {f.degree} exceeds Gram capacity {2 * d}")
    targets = dense_coefficients(f, 2 * d)
    uniform = _uniform_moments(f.n, 2 * d)
    full = shift_table(f.n, d, d)
    keep, culprit = _prune_basis(full, targets)
    rows = np.flatnonzero(keep)
    basis = tuple(map(tuple, simplex_index(f.n, d)[rows].tolist()))
    m = len(basis)
    hankel = full[np.ix_(rows, rows)]
    flat = hankel.ravel()
    counts = np.maximum(np.bincount(flat, minlength=len(targets)), 1)

    def moment_sums(mat: np.ndarray) -> np.ndarray:
        return np.bincount(flat, weights=mat.ravel(), minlength=len(targets))

    floor = max(tol * 1e-6, 1e-15 * max(float(np.max(np.abs(targets))), 1.0))

    gram = np.zeros((m, m))
    residual = float(np.max(np.abs(targets)))
    iterations = 0
    dual = None
    try:
        # an overflow would otherwise reach the eigensolver as inf or nan
        with np.errstate(over="raise", invalid="raise"):
            if culprit is not None:
                # l = uniform moments plus a multiple t of the culprit's indicator:
                # its moment matrix gains at most a positive diagonal entry, and
                # l(f) = uniform(f) - t |f_c| <= -1
                ell = uniform.copy()
                t = (abs(uniform @ targets) + 1.0) / abs(targets[culprit])
                ell[culprit] -= math.copysign(t, targets[culprit])
                dual = _checked_dual(ell, hankel, targets, uniform)
            z = gram
            while dual is None and iterations < max_iters:
                iterations += 1
                gram = _psd_project(z)
                residual = float(np.max(np.abs(moment_sums(gram) - targets)))
                if residual <= floor:
                    break
                reflected = 2.0 * gram - z
                step = reflected + ((targets - moment_sums(reflected)) / counts)[hankel] - gram
                if iterations % _WITNESS_EVERY == 0:
                    dual = _checked_dual(-moment_sums(step) / counts, hankel, targets, uniform)
                z = z + step
    except FloatingPointError as exc:
        raise ValueError("coefficients too large for the Gram search") from exc

    success = dual is None and residual <= tol
    w, v = np.linalg.eigh(gram)
    gram_min_eig = float(w[0]) if m else 0.0
    kept = np.flatnonzero(w > 1e-14 * float(w.max(initial=1.0))) if success else []
    factors = np.zeros((len(kept), len(full)))
    factors[:, rows] = (v[:, kept] * np.sqrt(w[kept])).T
    square_sum = np.zeros(len(targets))
    for h in factors:  # the Gram map of h h^T, which rounds as poly_mul(h, h)
        square_sum += np.bincount(full.ravel(), np.outer(h, h).ravel(), len(targets))
    if success:
        residual = float(np.max(np.abs(square_sum - targets)))
    return SosCertificate(
        success=success,
        factors=tuple(poly_from_vector(f.n, d, h) for h in factors),
        square_sum=poly_from_vector(f.n, 2 * d, square_sum),
        gram=gram,
        basis=basis,
        residual=residual,
        gram_min_eig=gram_min_eig,
        iterations=iterations,
        dual=dual,
    )


def square_perturbation(n: int, depth: int) -> Polynomial:
    """The even perturbation 1 + sum_i sum_{k=1..depth} X_i^(2k) / k!.

    Adding a positive multiple pushes a box-nonnegative polynomial into the
    numerically certifiable SOS range; its norm controls the approximation
    distance.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    powers = 2 * np.arange(depth + 1)[:, None, None] * np.eye(n, dtype=np.int64)  # [k, i] = 2k e_i
    coefs = [1.0 / math.factorial(k) for k in range(depth + 1) for _ in range(n)]
    return Polynomial(n, (powers.reshape(-1, n)[n - 1:], coefs[n - 1:]))  # one constant row


@functools.lru_cache(maxsize=64)
def _perturbation_vector(n: int, depth: int, degree: int) -> np.ndarray:
    """The read-only graded-lex vector of square_perturbation(n, depth) up to degree."""
    vector = dense_coefficients(square_perturbation(n, depth), degree)
    vector.setflags(write=False)
    return vector


@dataclass(frozen=True)
class BoxApproxResult:
    reason: str  # "certified" | "negative-on-box" | "inconclusive"
    eps: float
    certificate: SosCertificate | None = None
    factors: tuple[Polynomial, ...] = ()  # rescaled back to the original axes
    # ||f - sum factors^2||_{p,r}, computed as the unweighted lp norm of the gap on the unit box
    distance: float = math.inf
    depth: int = 0
    witness: tuple[float, ...] | None = None
    witness_value: float | None = None

    @property
    def success(self) -> bool:
        return self.reason == "certified"


_SCREEN_TOL = 1e-9
_SCREEN_BUDGET = 1 << 16  # Bernstein coefficients one bracket may form in all


def _interval_minimizer(k: np.ndarray, coefs: np.ndarray, c: float) -> float:
    """The point of [-c, c] where sum_i coefs[i] x^k[i] (distinct k) is least.

    It is an end or a root of the derivative (np.roots, real parts clipped to
    the interval).  The roots are those of the derivative in u = x / c:
    leading coefficients below eps times the largest are dropped, since they
    move the roots in [-1, 1] by no more than np.roots' own error, while a
    subnormal one would overflow its companion matrix.  A derivative or a
    candidate value that is not finite is a ValueError."""
    rising = k > 0
    degree = int(k.max(initial=0))
    derivative = np.zeros(max(degree, 1))  # highest degree first
    with np.errstate(over="ignore", invalid="ignore"):  # checked below; inf/nan leave no roots
        derivative[degree - k[rising]] = k[rising] * coefs[rising] * c ** k[rising]
        kept = np.flatnonzero(np.abs(derivative) > np.finfo(float).eps * np.abs(derivative).max())
        roots = np.roots(derivative[kept[0]:]) if kept.size else np.empty(0)
        points = np.concatenate([[-c, c], np.clip(roots.real * c, -c, c)])
        values = monomial_values(points[:, None], k[:, None]) @ coefs
    if not (np.isfinite(derivative).all() and np.isfinite(values).all()):
        raise ValueError("coefficients too large for the box screen")
    return float(points[int(np.argmin(values))])


def _polish(f: Polynomial, point: np.ndarray, half: np.ndarray):
    """(point, poly_eval(f, point)) after sweeps of exact minimisation along
    each axis in turn, until a sweep gains at most 1e-12 max(1, |f|) or after
    20 sweeps.  No sweep raises f beyond the accuracy of the roots."""
    x = point.copy()
    value = poly_eval(f, tuple(x.tolist()))
    for _ in range(20):
        trial = x.copy()
        for i in range(f.n):
            trial[i] = 1.0  # the coefficients of f along axis i through trial
            powers = monomial_values(trial[None], f.exponents)[0]
            line = np.bincount(f.exponents[:, i], powers * f.coefs)
            k = np.flatnonzero(line)
            trial[i] = _interval_minimizer(k, line[k], half[i])
        trial_value = poly_eval(f, tuple(trial.tolist()))
        gain = value - trial_value
        if gain > 0:
            x, value = trial, trial_value
        if not gain > 1e-12 * max(1.0, abs(value)):
            break
    return tuple(x.tolist()), value


@functools.lru_cache(maxsize=64)
def _bernstein_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only float tables of an axis of degree d: to_bernstein.T,
    halving and at_greville.

    to_bernstein[j, k], the j-th Bernstein coefficient of u^k on [-1, 1], is
    the Krawtchouk value K_k(d - j) / C(d, k), with K_k in exact integers
    from the recurrence (k + 1) K_{k+1}(x) = (d - 2x) K_k(x) - (d - k + 1)
    K_{k-1}(x).  halving maps the coefficients on an interval to those on
    its left half, then its right half (de Casteljau at the midpoint,
    left[j, k] = C(j, k) / 2^j).  at_greville[j, k] is the k-th Bernstein
    polynomial of degree d at j / d.
    """
    x = np.arange(d, -1, -1, dtype=object)  # d - j for j = 0..d
    columns = [np.ones(d + 1, dtype=object), d - 2 * x]
    for k in range(1, d):
        columns.append(((d - 2 * x) * columns[k] - (d - k + 1) * columns[k - 1]) // (k + 1))
    to_bernstein = np.array([col / math.comb(d, k) for k, col in enumerate(columns[: d + 1])])
    left = np.array([[math.comb(j, k) / 2**j for k in range(d + 1)] for j in range(d + 1)])
    t, k = np.arange(d + 1)[:, None] / max(d, 1), np.arange(d + 1)
    binomials = np.array([math.comb(d, j) for j in range(d + 1)], dtype=float)
    at_greville = binomials * t**k * (1.0 - t) ** (d - k)
    tables = (to_bernstein.T.astype(float), np.vstack([left, left[::-1, ::-1]]), at_greville)
    for table in tables:
        table.setflags(write=False)
    return tables


def bracket_box_minimum(f: Polynomial, box: BoxSpec, threshold: float = math.inf):
    """(lower, upper, point, entries, stop) with lower <= min_K f <= upper =
    poly_eval(f, point), point in the box K, by tensor Bernstein subdivision.

    The Bernstein coefficients of f on a sub-box, with the degree of each
    axis, bound f from below there, and the corner ones are values of f
    (Garloff 1986).  Each level halves every sub-box left along the next
    axis that f depends on, in turn (de Casteljau), keeping a sub-box only
    while its least coefficient is below both threshold and the best corner
    value minus 1e-9; a level's sub-boxes are one stacked array, whose split
    axis is moved last and back by transposes fixed once per call.  The
    float tables of each axis are read from a cache keyed by its degree
    (_bernstein_tables).  lower is
    the least coefficient left (a Handelman certificate of f >= lower on K),
    and entries counts the coefficients formed.  stop is "closed" when no
    sub-box is left, and then upper - lower <= 1e-9 or lower >= threshold,
    or "budget" when the next level would pass _SCREEN_BUDGET entries.

    A budget stop leaves upper as evidence only.  f is then evaluated at the
    Greville points of the sub-boxes left (coefficient j of an axis of
    degree d sits at j/d of its width), where the coefficients approximate
    f, and the least point is polished by exact minimisation along each
    axis in turn.  When the coefficients on K and the per-axis maps alone
    would pass the budget, none is formed: lower is -inf, and the polish
    starts from the centre of K.
    """
    if f.n != box.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {box.n}")
    n, half = f.n, np.array(box.upper)  # a BoxSpec is symmetric about the origin
    degrees = f.exponents.max(axis=0, initial=0)
    sizes = (degrees + 1).tolist()
    if math.prod(sizes) + sum(size * size for size in sizes) > _SCREEN_BUDGET:
        point, upper = _polish(f, np.zeros(n), half)
        return -math.inf, upper, point, 0, "budget"
    coefs = np.zeros(degrees + 1)
    coefs[tuple(f.exponents.T)] = f.coefs
    to_bernstein_t, halving, at_greville = zip(*map(_bernstein_tables, degrees.tolist()))
    for i, table in enumerate(to_bernstein_t):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            scaled = table * half[i] ** np.arange(len(table))
            coefs = np.moveaxis(np.tensordot(scaled, coefs, axes=(1, i)), 0, i)
    if not np.isfinite(coefs).all():
        raise ValueError("coefficients too large for the box screen")
    # a stack's axis i + 1 moved last and back: the views np.moveaxis returns
    last = [(*range(i + 1), *range(i + 2, n + 1), i + 1) for i in range(n)]
    back = [(*range(i + 1), n, *range(i + 1, n)) for i in range(n)]
    bits = np.indices((2,) * n).reshape(n, -1).T  # corner offsets, in widths
    corner_at = np.ravel_multi_index(tuple((bits * degrees).T), coefs.shape)
    stack, lows, width = coefs[None], np.zeros((1, n)), np.ones(n)  # in t = (x/c + 1) / 2
    entries, best, best_t, lower = coefs.size, math.inf, None, math.inf
    axes, unit = itertools.cycle(np.flatnonzero(degrees).tolist()), np.eye(n)
    while True:
        flat = stack.reshape(len(stack), -1)
        bounds, corners = flat.min(axis=1), flat[:, corner_at]
        k = int(np.argmin(corners))
        if corners.flat[k] < best:
            best = float(corners.flat[k])
            best_t = lows[k // len(bits)] + bits[k % len(bits)] * width
        keep = bounds < min(threshold, best - _SCREEN_TOL)
        kept = int(np.count_nonzero(keep))
        if not kept or entries + 2 * kept * coefs.size > _SCREEN_BUDGET:
            lower = min(lower, float(bounds.min()))
            break
        lower = min(lower, float(bounds[~keep].min(initial=math.inf)))
        stack, lows = stack[keep], lows[keep]
        axis = next(axes)
        d = int(degrees[axis])
        halves = stack.transpose(last[axis]) @ halving[axis].T
        halves = np.concatenate([halves[..., : d + 1], halves[..., d + 1:]])  # left, then right
        stack = halves.transpose(back[axis])
        width[axis] /= 2.0
        lows = np.concatenate([lows, lows + unit[axis] * width[axis]])
        entries += stack.size
    if kept:  # a budget stop: evaluate the Bernstein form at the Greville points
        values = stack[keep]
        for i, table in enumerate(at_greville):
            values = (values.transpose(last[i]) @ table.T).transpose(back[i])
        k = int(np.argmin(values))
        if values.flat[k] < best:
            box_at, j = divmod(k, coefs.size)
            index = np.array(np.unravel_index(j, coefs.shape))
            best_t = lows[keep][box_at] + index / np.maximum(degrees, 1) * width
        point, upper = _polish(f, half * (2.0 * best_t - 1.0), half)
        return min(lower, upper), upper, point, entries, "budget"
    point = tuple(float(v) for v in half * (2.0 * best_t - 1.0))
    upper = poly_eval(f, point)
    return min(lower, upper), upper, point, entries, "closed"


def screen_box_nonnegativity(f: Polynomial, box: BoxSpec):
    """(point, poly_eval(f, point)) for a point of the box where f < -1e-9, or None.

    For n = 1 the minimum lies at an end of [-c, c] or at a root of f'
    (_interval_minimizer), which decides up to the accuracy of the roots.
    For n >= 2 bracket_box_minimum with threshold -1e-9 decides, unless it
    stops on its budget with no point below -1e-9 found.
    """
    if f.n != box.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {box.n}")
    if f.n >= 2:
        _, value, point, _, _ = bracket_box_minimum(f, box, threshold=-_SCREEN_TOL)
        return (point, value) if value < -_SCREEN_TOL else None
    point = (_interval_minimizer(f.exponents[:, 0], f.coefs, box.upper[0]),)
    value = poly_eval(f, point)
    return (point, value) if value < -_SCREEN_TOL else None


def box_sos_approx(
    f: Polynomial,
    w: WeightSpec,
    eps: float,
    d_max: int,
    tol: float = 1e-8,
    max_iters: int = 5000,
) -> BoxApproxResult:
    """Approximate a box-nonnegative f by a certified sum of squares.

    A point of the box where f < -1e-9 (screen_box_nonnegativity) ends the
    run as "negative-on-box".  Otherwise it rescales the box of w to the unit
    cube, perturbs by eps times the even series tail (depth D = 2..d_max),
    certifies the candidate, and maps the factors back.  The candidate
    f_unit + eps * theta_D is one dense graded-lex vector up to twice the
    Gram degree, theta_D's read from a cache per (n, D, degree), handed to
    sos_certify by poly_from_vector (which names an entry that is not
    finite as poly_add would).  The
    distance is the unweighted lp norm (lp_norms) of the dense gap f_unit -
    square_sum, whose zeros add nothing to it: the diagonal isometry from
    the box of w to the unit cube makes the ||.||_{p,r} norm of the gap
    mapped back to the box of w equal to it.

    Success needs f_unit + eps * theta_D to be a sum of squares on all of
    R^n, where theta_D = square_perturbation(n, D) <= exp(sum_i X_i^2).  If f
    is negative off the box, eps therefore has a floor at every depth: for
    1 - X^2 it is sqrt(5) - 2 at depth 2 (the discriminant of the candidate
    in X^2 is 1 - 4 eps - eps^2) and e^-2 over all depths
    (min_u 1 - u + eps e^u = 2 + ln eps).  Below the floor no certificate
    exists and "inconclusive" is the right answer; the last depth's
    certificate says whether its candidate was refuted or its search capped.
    """
    if f.n != w.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {w.n}")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    box = box_from_weight(w)
    violation = screen_box_nonnegativity(f, box)
    if violation is not None:
        point, value = violation
        return BoxApproxResult("negative-on-box", eps, witness=point, witness_value=value)

    halfwidths = box.upper
    f_unit = axis_scale(f, halfwidths)
    inverse = tuple(1.0 / c for c in halfwidths)
    last_certificate = None
    for depth in range(2, d_max + 1):
        gram_degree = max((max(f_unit.degree, 0) + 1) // 2, depth)
        degree = 2 * gram_degree
        unit = dense_coefficients(f_unit, degree)
        with np.errstate(over="ignore"):  # an overflow is rejected as not finite
            vector = unit + eps * _perturbation_vector(f.n, depth, degree)
        candidate = poly_from_vector(f.n, degree, vector)
        certificate = sos_certify(candidate, gram_degree, tol=tol, max_iters=max_iters)
        last_certificate = certificate
        if certificate.success:
            factors = tuple(axis_scale(h, inverse) for h in certificate.factors)
            gap = unit - dense_coefficients(certificate.square_sum, degree)
            ones, ends = (1.0,) * f.n, (len(gap),)
            distance = lp_norms(simplex_index(f.n, degree), gap, ones, w.p, ends)[0]
            return BoxApproxResult("certified", eps, certificate, factors, distance, depth)
    return BoxApproxResult("inconclusive", eps, certificate=last_certificate)


def convergence_sweep(
    f: Polynomial,
    w: WeightSpec,
    eps_schedule: Sequence[float],
    d_max: int,
) -> list[BoxApproxResult]:
    """Run box_sos_approx along a decreasing eps schedule.

    The box screen does not depend on eps, so if f is negative on the box
    the first run's result is the only one returned.
    """
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise ValueError("eps schedule must be nonempty")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    results = []
    for eps in schedule:
        results.append(box_sos_approx(f, w, eps, d_max))
        if results[-1].reason == "negative-on-box":
            break
    return results
