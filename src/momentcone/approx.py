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
    """Outcome of a Gram-matrix search for f = sum h_k^2.

    On success the factors reproduce the certified polynomial to within
    residual and the Gram matrix is PSD up to the solver tolerance.  Failure
    is a report, not a proof of non-membership.
    """

    success: bool
    factors: tuple[Polynomial, ...]
    gram: np.ndarray
    basis: tuple[MultiIndex, ...]
    residual: float
    gram_min_eig: float
    iterations: int

    def __post_init__(self) -> None:
        self.gram.setflags(write=False)


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


def sos_certify(
    f: Polynomial,
    d: int,
    tol: float = 1e-8,
    max_iters: int = 5000,
) -> SosCertificate:
    """Search for a PSD Gram matrix representing f over the degree-d basis.

    Alternating projections between the affine set of moment-matched matrices
    (closed form: the entries that sum to one coefficient share a Hankel index,
    so the groups are disjoint) and the PSD cone (eigenvalue clipping).
    Iteration continues below tol while it keeps paying off, so converged
    certificates are typically far tighter than tol; success just means the
    final residual is within tol.
    """
    if d < 0:
        raise ValueError("basis degree must be >= 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if f.degree > 2 * d:
        raise ValueError(f"degree {f.degree} exceeds Gram capacity {2 * d}")
    idx = simplex_index(f.n, d)
    basis = idx.basis
    m = len(basis)
    hankel = idx.hankel()
    flat = hankel.ravel()
    monomials = simplex_index(f.n, 2 * d).basis
    targets = np.array([f.coefficient(g) for g in monomials])
    counts = np.bincount(flat, minlength=len(targets))

    def moment_sums(mat: np.ndarray) -> np.ndarray:
        return np.bincount(flat, weights=mat.ravel(), minlength=len(targets))

    floor = max(tol * 1e-6, 1e-15 * max(float(np.max(np.abs(targets))), 1.0))

    gram = np.zeros((m, m))
    residual = math.inf
    previous = math.inf
    iterations = 0
    try:
        # an overflow would otherwise reach the eigensolver as inf or nan
        with np.errstate(over="raise", invalid="raise"):
            for iterations in range(1, max_iters + 1):
                # affine step: spread each coefficient's mismatch evenly over its group
                gram = _psd_project(gram + ((targets - moment_sums(gram)) / counts)[hankel])
                residual = float(np.max(np.abs(moment_sums(gram) - targets)))
                if residual <= floor:
                    break
                if residual <= tol and residual >= 0.999 * previous:
                    break  # at its numerical floor and already good enough
                previous = residual
    except FloatingPointError as exc:
        raise ValueError("coefficients too large for the Gram search") from exc

    success = residual <= tol
    w, v = np.linalg.eigh(gram)
    gram_min_eig = float(w[0])
    factors: list[Polynomial] = []
    if success:
        cutoff = 1e-14 * max(float(w[-1]), 1.0)
        for k in range(m):
            if w[k] > cutoff:
                root = math.sqrt(float(w[k]))
                coeffs = {basis[j]: root * float(v[j, k]) for j in range(m)}
                factors.append(Polynomial(f.n, coeffs))
        reproduced = _sum_of_squares(f.n, factors)
        residual = max(
            abs(reproduced.coefficient(a) - f.coefficient(a)) for a in monomials
        )
    return SosCertificate(
        success=success,
        factors=tuple(factors),
        gram=gram,
        basis=basis,
        residual=residual,
        gram_min_eig=gram_min_eig,
        iterations=iterations,
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
    terms = f.sorted_terms()
    exponents = np.array([alpha for alpha, _ in terms], dtype=np.int64).reshape(-1, f.n)
    coefs = np.array([coef for _, coef in terms])
    shifts = np.vstack([np.zeros(f.n, dtype=np.int64), np.eye(f.n, dtype=np.int64)])
    stacked = np.maximum(exponents - shifts[:, None, :], 0).reshape(-1, f.n)
    factors = np.column_stack([np.ones(len(terms)), exponents]).T * coefs
    union, rows = np.unique(stacked, axis=0, return_inverse=True)
    matrix = np.zeros((len(union), 1 + f.n))
    np.add.at(matrix, (rows.ravel(), np.repeat(np.arange(1 + f.n), len(terms))), factors.ravel())
    return lambda points: monomial_values(points, union) @ matrix


_SCREEN_TOL = 1e-9
_SCREEN_GRID = 33
_SCREEN_STARTS = 100
_SCREEN_STEPS = 200
_ARMIJO = 1e-4


def screen_box_nonnegativity(f: Polynomial, box: BoxSpec, seed: int = 0):
    """Look for a point of the box where f dips below -1e-9.

    A grid pass over 33 points per axis, then a batched projected
    gradient descent: 100 seeded uniform points move together for a fixed
    number of steps, each clipping x - t grad f(x) to the box under a
    per-start Armijo rule (t halves on rejection and doubles on acceptance).
    Returns (point, value) for the lowest point found, with the value
    evaluated by poly_eval, or None.  Absence of a violation is evidence, not
    proof.
    """
    if f.n != box.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {box.n}")
    evaluate = _value_and_gradient(f)
    grid = _grid_points(box, _SCREEN_GRID)
    lows = np.array(box.lower)
    highs = np.array(box.upper)

    x = np.random.default_rng(seed).uniform(lows, highs, size=(_SCREEN_STARTS, f.n))
    vg = evaluate(x)
    step = np.ones(_SCREEN_STARTS)
    for _ in range(_SCREEN_STEPS):
        trial = np.clip(x - step[:, None] * vg[:, 1:], lows, highs)
        trial_vg = evaluate(trial)
        decrease = np.sum(vg[:, 1:] * (trial - x), axis=1)
        accept = trial_vg[:, 0] <= vg[:, 0] + _ARMIJO * decrease
        x[accept] = trial[accept]
        vg[accept] = trial_vg[accept]
        step = np.where(accept, 2.0 * step, 0.5 * step)

    points = np.concatenate([grid, x])
    values = np.concatenate([evaluate(grid)[:, 0], vg[:, 0]])
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
    exists and "inconclusive" is the right answer.
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
            unit_distance = weighted_norm(
                poly_sub(f_unit, _sum_of_squares(f.n, certificate.factors)),
                WeightSpec(w.p, ones),
            )
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
