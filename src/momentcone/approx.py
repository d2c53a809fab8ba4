"""Constructive approximation by squares.

Two schemes: truncated power-series square roots, whose squares converge to
any polynomial with nonnegative constant term coefficient by coefficient, and
numerically certified sum-of-squares decompositions that approximate
box-nonnegative polynomials in a weighted lp norm after rescaling the box to
the unit cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measures import BoxSpec, _grid_points, box_from_weight
from .norms import WeightSpec, weighted_norm
from .polyring import (
    MultiIndex,
    Polynomial,
    axis_scale,
    monomial_values,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
    series_sqrt,
    simplex_index,
)


def sqrt_square_approx(f: Polynomial, i: int) -> Polynomial:
    """Degree-i truncation h_i of the formal square root of (1/i + f).

    The square of h_i reproduces every coefficient of f at multi-indices with
    0 < |alpha| <= i exactly, while the constant term carries the 1/i shift.
    Requires f(0) >= 0; polynomials with f(0) < 0 are not coefficientwise
    limits of squares at all.
    """
    if i < 1:
        raise ValueError("approximation index must be >= 1")
    if f.constant_term < 0.0:
        raise ValueError(
            "constant term is negative, so no sequence of squares converges "
            "to f coefficientwise"
        )
    shifted = poly_add(f, Polynomial.constant(f.n, 1.0 / i))
    return series_sqrt(shifted, i)


def coefficientwise_report(f: Polynomial, i_max: int) -> list[tuple[Polynomial, float]]:
    """The pairs (h_i, max |coef(h_i^2, a) - f_a| over |a| <= deg f) for i = 1..i_max.

    Once i >= deg f the only deviation left is the constant shift, so the
    error is exactly 1/i from then on.
    """
    if i_max < 1:
        raise ValueError("approximation index must be >= 1")
    region = simplex_index(f.n, max(f.degree, 0)).basis
    rows = []
    for i in range(i_max, 0, -1):  # largest i first: its coefficients overflow first
        h = sqrt_square_approx(f, i)
        square = poly_mul(h, h)
        rows.append((h, max(abs(square.coefficient(a) - f.coefficient(a)) for a in region)))
    return rows[::-1]


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

    square_sum is sum h_k^2 over the factors (the zero polynomial when
    nothing is certified).
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


def _sum_of_squares(n: int, factors: Sequence[Polynomial]) -> Polynomial:
    total = Polynomial.zero(n)
    for h in factors:
        total = poly_add(total, poly_mul(h, h))
    return total


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
    e = simplex_index(n, degree).exponents
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
    idx = simplex_index(f.n, d)
    monomials = simplex_index(f.n, 2 * d).basis
    targets = np.array([f.coefficient(g) for g in monomials])
    uniform = _uniform_moments(f.n, 2 * d)
    full = idx.hankel()
    keep, culprit = _prune_basis(full, targets)
    rows = np.flatnonzero(keep)
    basis = tuple(idx.basis[i] for i in rows)
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
    factors: list[Polynomial] = []
    square_sum = Polynomial.zero(f.n)
    if success:
        cutoff = 1e-14 * float(w.max(initial=1.0))
        for k in range(m):
            if w[k] > cutoff:
                root = math.sqrt(float(w[k]))
                coeffs = {basis[j]: root * float(v[j, k]) for j in range(m)}
                factors.append(Polynomial(f.n, coeffs))
        square_sum = _sum_of_squares(f.n, factors)
        residual = max(abs(square_sum.coefficient(a) - f.coefficient(a)) for a in monomials)
    return SosCertificate(
        success=success,
        factors=tuple(factors),
        square_sum=square_sum,
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
    terms: dict[MultiIndex, float] = {(0,) * n: 1.0}
    for i in range(n):
        for k in range(1, depth + 1):
            alpha = tuple(2 * k if j == i else 0 for j in range(n))
            terms[alpha] = terms.get(alpha, 0.0) + 1.0 / math.factorial(k)
    return Polynomial(n, terms)


@dataclass(frozen=True)
class BoxApproxResult:
    reason: str  # "certified" | "negative-on-box" | "inconclusive"
    eps: float
    certificate: SosCertificate | None = None
    factors: tuple[Polynomial, ...] = ()  # rescaled back to the original axes
    distance: float = math.inf  # ||f - sum factors^2||_{p,r}
    unit_distance: float = math.inf  # same gap in the unweighted lp norm on the unit box
    depth: int = 0
    witness: tuple[float, ...] | None = None
    witness_value: float | None = None

    @property
    def success(self) -> bool:
        return self.reason == "certified"


def _value_and_gradient(f: Polynomial):
    """A map from points (k, n) to [f, df/dx_1, ..., df/dx_n] as a (k, 1 + n) array.

    d/dx_j of c X^E is c E_j X^max(E - e_j, 0), so every column is a
    polynomial on f's exponents shifted by 0 or by a unit vector e_j: one
    Vandermonde over the union of the shifted exponents times a
    (terms x (1 + n)) coefficient matrix gives all 1 + n columns.
    """
    exponents = np.array(list(f.terms), dtype=np.int64).reshape(-1, f.n)
    coefs = np.array(list(f.terms.values()))
    shifts = np.vstack([np.zeros(f.n, dtype=np.int64), np.eye(f.n, dtype=np.int64)])
    stacked = np.maximum(exponents - shifts[:, None, :], 0).reshape(-1, f.n)
    factors = np.column_stack([np.ones(len(f.terms)), exponents]).T * coefs
    union, rows = np.unique(stacked, axis=0, return_inverse=True)
    matrix = np.zeros((len(union), 1 + f.n))
    np.add.at(matrix, (rows.ravel(), np.repeat(np.arange(1 + f.n), len(f.terms))), factors.ravel())
    return lambda points: monomial_values(points, union) @ matrix


_SCREEN_TOL = 1e-9
_SCREEN_GRID = 33
_SCREEN_STARTS = 100
_SCREEN_STEPS = 200
_SCREEN_CHECK = 10  # steps between stall checks of the descent
_SCREEN_STALL = 1e-12
_ARMIJO = 1e-4


def _critical_points(f: Polynomial, box: BoxSpec) -> np.ndarray:
    """The ends of a 1-D box and the real parts of the roots of f', clipped to it, as (k, 1).

    The roots are taken in u = x / c on [-1, 1], where c is the half-width, and
    leading coefficients of f'(c u) below eps times the largest are dropped:
    they move the roots inside the box by no more than np.roots' own error,
    while a subnormal one would overflow its companion matrix.
    """
    c = box.upper[0]
    k = np.array([alpha[0] for alpha in f.terms], dtype=np.int64)
    coefs = np.array(list(f.terms.values()))
    rising = k > 0
    derivative = np.zeros(max(f.degree, 1))  # f'(c u), highest degree first
    derivative[f.degree - k[rising]] = k[rising] * coefs[rising] * c ** k[rising]
    kept = np.flatnonzero(np.abs(derivative) > np.finfo(float).eps * np.abs(derivative).max())
    roots = np.roots(derivative[kept[0]:]) if kept.size else np.empty(0)
    ends = np.array([-c, c])
    return np.concatenate([ends, np.clip(roots.real * c, -c, c)])[:, None]


def _descend(evaluate, box: BoxSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched projected gradient descent from 100 seeded uniform starts.

    Each step clips x - t grad f(x) to the box under a per-start Armijo rule
    (t halves on rejection and doubles on acceptance).  Every 10 steps, a
    start whose value fell by at most 1e-12 max(1, |f|) since the last check
    stops; the loop ends when every start has stopped, or after 200 steps.
    Returns the final points and their values.
    """
    lows = np.array(box.lower)
    highs = np.array(box.upper)
    x = np.random.default_rng(seed).uniform(lows, highs, size=(_SCREEN_STARTS, box.n))
    vg = evaluate(x)
    step = np.ones(_SCREEN_STARTS)
    checked = vg[:, 0].copy()
    done = []  # (points, values) of the starts that stopped, batch by batch
    for k in range(1, _SCREEN_STEPS + 1):
        trial = np.clip(x - step[:, None] * vg[:, 1:], lows, highs)
        trial_vg = evaluate(trial)
        decrease = np.sum(vg[:, 1:] * (trial - x), axis=1)
        accept = trial_vg[:, 0] <= vg[:, 0] + _ARMIJO * decrease
        x[accept] = trial[accept]
        vg[accept] = trial_vg[accept]
        step = np.where(accept, 2.0 * step, 0.5 * step)
        if k % _SCREEN_CHECK == 0:
            value = vg[:, 0]
            moving = checked - value > _SCREEN_STALL * np.maximum(1.0, np.abs(value))
            done.append((x[~moving], value[~moving]))
            x, vg, step = x[moving], vg[moving], step[moving]
            checked = vg[:, 0].copy()
            if not len(x):
                break
    done.append((x, vg[:, 0]))
    return np.concatenate([p for p, _ in done]), np.concatenate([v for _, v in done])


def screen_box_nonnegativity(f: Polynomial, box: BoxSpec, seed: int = 0):
    """Look for a point of the box where f dips below -1e-9.

    The candidates are a grid of 33 points per axis plus local minimizers.
    For n = 1 these are exact: the minimum over an interval lies at an end or
    at a root of f', so the ends and the real parts of the roots of f'
    (np.roots), clipped to the box, are taken, and the answer is a decision
    up to the accuracy of the roots.  For n >= 2 they are the end points of
    a seeded multistart descent (`_descend`), and the absence of a violation
    is evidence, not proof.  Returns (point, value) for the lowest
    candidate, with the value evaluated by poly_eval, or None.
    """
    if f.n != box.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {box.n}")
    evaluate = _value_and_gradient(f)
    grid = _grid_points(box, _SCREEN_GRID)
    if f.n == 1:
        local = _critical_points(f, box)
        local_values = evaluate(local)[:, 0]
    else:
        local, local_values = _descend(evaluate, box, seed)
    points = np.concatenate([grid, local])
    values = np.concatenate([evaluate(grid)[:, 0], local_values])
    witness = tuple(float(v) for v in points[int(np.argmin(values))])
    value = poly_eval(f, witness)
    if value < -_SCREEN_TOL:
        return witness, value
    return None


def box_sos_approx(
    f: Polynomial,
    w: WeightSpec,
    eps: float,
    d_max: int,
    tol: float = 1e-8,
    max_iters: int = 5000,
    seed: int = 0,
    skip_screening: bool = False,
) -> BoxApproxResult:
    """Approximate a box-nonnegative f by a certified sum of squares.

    Rescales the box of w to the unit cube, perturbs by eps times the even
    series tail (depth D = 2..d_max), certifies the candidate, and maps the
    factors back.  The reported weighted distance equals the unit-box lp
    distance of the pre-image certificate up to roundoff.

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
    if not skip_screening:
        violation = screen_box_nonnegativity(f, box, seed=seed)
        if violation is not None:
            point, value = violation
            return BoxApproxResult("negative-on-box", eps, witness=point, witness_value=value)

    halfwidths = box.upper
    f_unit = axis_scale(f, halfwidths)
    inverse = tuple(1.0 / c for c in halfwidths)
    ones = (1.0,) * w.n
    last_certificate = None
    for depth in range(2, d_max + 1):
        candidate = poly_add(f_unit, poly_scale(square_perturbation(f.n, depth), eps))
        gram_degree = max((max(f_unit.degree, 0) + 1) // 2, depth)
        certificate = sos_certify(candidate, gram_degree, tol=tol, max_iters=max_iters)
        last_certificate = certificate
        if certificate.success:
            # squares of the rescaled factors, not the rescaled unit-box sum:
            # the two differ at round-off whenever the box is not [-1, 1]^n
            factors = tuple(axis_scale(h, inverse) for h in certificate.factors)
            distance = weighted_norm(poly_sub(f, _sum_of_squares(f.n, factors)), w)
            unit_gap = poly_sub(f_unit, certificate.square_sum)
            unit_distance = weighted_norm(unit_gap, WeightSpec(w.p, ones))
            return BoxApproxResult(
                "certified", eps, certificate, factors, distance, unit_distance, depth
            )
    return BoxApproxResult("inconclusive", eps, certificate=last_certificate)


def convergence_sweep(
    f: Polynomial,
    w: WeightSpec,
    eps_schedule: Sequence[float],
    d_max: int,
) -> list[BoxApproxResult]:
    """Run box_sos_approx along a decreasing eps schedule.

    The box precondition is screened once, by the run at the first eps; if f
    is negative on the box that run's result is the only one returned.
    """
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise ValueError("eps schedule must be nonempty")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")

    first = box_sos_approx(f, w, schedule[0], d_max)
    if first.reason == "negative-on-box":
        return [first]
    return [first] + [
        box_sos_approx(f, w, eps, d_max, skip_screening=True) for eps in schedule[1:]
    ]
