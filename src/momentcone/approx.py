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

from .measures import BoxSpec, box_from_weight
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


@dataclass(frozen=True)
class ApproxRecord:
    step: int
    parameter: float
    label: str
    distance: float


@dataclass(frozen=True)
class ApproxReport:
    """A log of approximation distances along a schedule."""

    records: tuple[ApproxRecord, ...]
    weight: WeightSpec | None

    def __post_init__(self) -> None:
        steps = [rec.step for rec in self.records]
        if steps != sorted(set(steps)):
            raise ValueError("record steps must be strictly increasing")
        if any(rec.distance < 0.0 for rec in self.records):
            raise ValueError("distances must be nonnegative")


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


def coefficientwise_report(f: Polynomial, i_max: int) -> ApproxReport:
    """Track max |coef(h_i^2, a) - f_a| over |a| <= deg f for i = 1..i_max.

    Once i >= deg f the only deviation left is the constant shift, so the
    recorded error is exactly 1/i from then on.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    cap = max(f.degree, 0)
    region = simplex_index(f.n, cap).basis
    records = []
    for i in range(1, i_max + 1):
        h = sqrt_square_approx(f, i)
        square = poly_mul(h, h)
        err = max(abs(square.coefficient(a) - f.coefficient(a)) for a in region)
        records.append(ApproxRecord(step=i, parameter=float(i), label=f"h{i}", distance=err))
    return ApproxReport(tuple(records), weight=None)


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
    for iterations in range(1, max_iters + 1):
        # affine step: spread each coefficient's mismatch evenly over its group
        gram = _psd_project(gram + ((targets - moment_sums(gram)) / counts)[hankel])
        residual = float(np.max(np.abs(moment_sums(gram) - targets)))
        if residual <= floor:
            break
        if residual <= tol and residual >= 0.999 * previous:
            break  # at its numerical floor and already good enough
        previous = residual

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
        reproduced = Polynomial.zero(f.n)
        for h in factors:
            reproduced = poly_add(reproduced, poly_mul(h, h))
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
    success: bool
    reason: str  # "certified" | "negative-on-box" | "inconclusive"
    certificate: SosCertificate | None
    factors: tuple[Polynomial, ...]  # rescaled back to the original axes
    distance: float  # ||f - sum factors^2||_{p,r}
    unit_distance: float  # same gap in the unweighted lp norm on the unit box
    depth: int
    eps: float
    witness: tuple[float, ...] | None
    witness_value: float | None


def _eval_on_points(f: Polynomial, points: np.ndarray) -> np.ndarray:
    terms = f.sorted_terms()
    exponents = np.array([alpha for alpha, _ in terms], dtype=np.int64).reshape(-1, f.n)
    return monomial_values(points, exponents) @ np.array([coef for _, coef in terms])


def screen_box_nonnegativity(
    f: Polynomial,
    box: BoxSpec,
    tol: float = 1e-9,
    grid_m: int = 33,
    starts: int = 100,
    seed: int = 0,
):
    """Look for a point of the box where f dips below -tol.

    Dense grid sampling followed by seeded multistart local minimization;
    returns (point, value) for the worst violation found, or None.  Absence of
    a violation is evidence, not proof.
    """
    from scipy import optimize  # imported here only: it dominates CLI start-up

    if f.n != box.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {box.n}")
    axes = [np.linspace(lo, hi, grid_m) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    values = _eval_on_points(f, points)
    worst = int(np.argmin(values))
    best_point = points[worst]
    best_value = float(values[worst])

    rng = np.random.default_rng(seed)
    bounds = list(zip(box.lower, box.upper))
    lows = np.array(box.lower)
    highs = np.array(box.upper)
    for _ in range(starts):
        x0 = rng.uniform(lows, highs)
        result = optimize.minimize(
            lambda z: poly_eval(f, z), x0, method="L-BFGS-B", bounds=bounds
        )
        if float(result.fun) < best_value:
            best_value = float(result.fun)
            best_point = np.asarray(result.x)
    if best_value < -tol:
        return tuple(float(v) for v in best_point), best_value
    return None


def box_sos_approx(
    f: Polynomial,
    w: WeightSpec,
    eps: float,
    d_max: int,
    tol: float = 1e-8,
    max_iters: int = 5000,
    screen_tol: float = 1e-9,
    screen_grid: int = 33,
    screen_starts: int = 100,
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
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    box = box_from_weight(w)
    if not skip_screening:
        violation = screen_box_nonnegativity(
            f, box, tol=screen_tol, grid_m=screen_grid, starts=screen_starts, seed=seed
        )
        if violation is not None:
            point, value = violation
            return BoxApproxResult(
                success=False,
                reason="negative-on-box",
                certificate=None,
                factors=(),
                distance=math.inf,
                unit_distance=math.inf,
                depth=0,
                eps=eps,
                witness=point,
                witness_value=value,
            )

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
            scaled = tuple(axis_scale(h, inverse) for h in certificate.factors)
            total_scaled = Polynomial.zero(f.n)
            for h in scaled:
                total_scaled = poly_add(total_scaled, poly_mul(h, h))
            total_unit = Polynomial.zero(f.n)
            for h in certificate.factors:
                total_unit = poly_add(total_unit, poly_mul(h, h))
            distance = weighted_norm(poly_sub(f, total_scaled), w)
            unit_distance = weighted_norm(
                poly_sub(f_unit, total_unit), WeightSpec(w.p, ones)
            )
            return BoxApproxResult(
                success=True,
                reason="certified",
                certificate=certificate,
                factors=scaled,
                distance=distance,
                unit_distance=unit_distance,
                depth=depth,
                eps=eps,
                witness=None,
                witness_value=None,
            )
    return BoxApproxResult(
        success=False,
        reason="inconclusive",
        certificate=last_certificate,
        factors=(),
        distance=math.inf,
        unit_distance=math.inf,
        depth=0,
        eps=eps,
        witness=None,
        witness_value=None,
    )


def convergence_sweep(
    f: Polynomial,
    w: WeightSpec,
    eps_schedule: Sequence[float],
    d_max: int,
    **kwargs,
) -> tuple[ApproxReport, list[BoxApproxResult]]:
    """Run box_sos_approx along a decreasing eps schedule.

    The box precondition is screened once up front; the per-eps runs follow
    in schedule order.
    """
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise ValueError("eps schedule must be nonempty")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")

    box = box_from_weight(w)
    violation = screen_box_nonnegativity(
        f,
        box,
        tol=kwargs.get("screen_tol", 1e-9),
        grid_m=kwargs.get("screen_grid", 33),
        starts=kwargs.get("screen_starts", 100),
        seed=kwargs.get("seed", 0),
    )
    if violation is not None:
        point, value = violation
        failure = BoxApproxResult(
            success=False,
            reason="negative-on-box",
            certificate=None,
            factors=(),
            distance=math.inf,
            unit_distance=math.inf,
            depth=0,
            eps=schedule[0],
            witness=point,
            witness_value=value,
        )
        return ApproxReport((), w), [failure]

    results = [
        box_sos_approx(f, w, eps, d_max, skip_screening=True, **kwargs) for eps in schedule
    ]

    records = tuple(
        ApproxRecord(
            step=k + 1,
            parameter=eps,
            label=f"D={res.depth}" if res.success else res.reason,
            distance=res.distance,
        )
        for k, (eps, res) in enumerate(zip(schedule, results))
    )
    return ApproxReport(records, w), results
