"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one '[acceptance] PASS/FAIL <criterion>' line (visible with
pytest -s).  Criterion 5 is split: the eps in {1, 0.5} part, the eps = 0
failure and the weighted scaling identity live in 5a; 5b checks where the
perturbation family eps * (1 + sum_k X^(2k) / k!) stops certifying 1 - X^2
at small eps.  At eps = 0.1 no depth helps, because the depth-D candidate
is at most 1 - u + 0.1 e^u in u = X^2, which is 2 - ln 10 < 0 at u = ln 10;
the floor on eps is sqrt(5) - 2 at depth 2 and e^-2 over all depths.
"""

import math
import time

import numpy as np

from momentcone import (
    AtomicMeasure,
    MomentSequence,
    Polynomial,
    WeightSpec,
    axis_scale,
    box_from_weight,
    box_sos_approx,
    dual_norm_of_moments,
    dual_norm_profile,
    eval_sequence_norm,
    eval_sequence_norm_partial,
    holder_product_norm,
    increments_growing,
    is_psd_functional,
    check_quadratic_module,
    iter_simplex,
    min_eigenvalue,
    moment_matrix,
    moments_of_measure,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
    recover_measure,
    scaling_isometry,
    sqrt_square_approx,
    square_perturbation,
    weighted_norm,
)
from conftest import random_sparse_poly


def announce(name: str):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] FAIL {name}", flush=True)
                raise
            print(f"[acceptance] PASS {name}", flush=True)

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


def ones(n):
    return (1.0,) * n


@announce("1 coefficientwise closure by squares")
def test_criterion_1_coefficientwise_closure():
    # Checked over the coefficient region of f itself (the region the error
    # report tracks): the components of the formal root reach ~1e22 by
    # degree 20, so the identity at |alpha| close to i is out of reach of
    # 64-bit floats even though it is exact in exact arithmetic.
    cases = [
        Polynomial.variable(1, 0),
        Polynomial(2, {(1, 1): 1.0, (3, 0): -5.0}),
    ]
    for f in cases:
        start = time.perf_counter()
        for i in (5, 10, 20):
            h = sqrt_square_approx(f, i)
            square = poly_mul(h, h)
            assert abs(square.constant_term - f.constant_term - 1.0 / i) <= 1e-12
            for alpha in iter_simplex(f.n, max(f.degree, 0)):
                if sum(alpha) == 0:
                    continue
                assert abs(square.coefficient(alpha) - f.coefficient(alpha)) <= 1e-10
        assert time.perf_counter() - start < 1.0


@announce("2 norm and duality suite, 1000 random sequences")
def test_criterion_2_norm_duality_suite():
    rng = np.random.default_rng(20240901)
    p_finite = ("1", "1.5", "2", "3")
    p_all = p_finite + ("inf",)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        s = random_sparse_poly(rng, n, 8)
        t = random_sparse_poly(rng, n, 8)
        r = tuple(rng.uniform(0.4, 2.5, size=n))

        for p in p_finite:
            w = WeightSpec(p, r)
            lhs = weighted_norm(scaling_isometry(s, w, "forward"), w)
            rhs = weighted_norm(s, WeightSpec(p, ones(n)))
            assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)

        p = p_all[int(rng.integers(0, len(p_all)))]
        lo, hi = holder_product_norm(s, t, p)
        assert hi - lo >= -1e-12

        values = [weighted_norm(s, WeightSpec(p, ones(n))) for p in p_all]
        for bigger, smaller in zip(values, values[1:]):
            assert smaller <= bigger + 1e-12 * max(bigger, 1.0)


@announce("3 evaluation continuity and divergence witness")
def test_criterion_3_evaluation_continuity():
    w = WeightSpec(2, (1.0,))
    closed = eval_sequence_norm((0.9,), w)
    assert abs(closed - math.sqrt(1.0 / (1.0 - 0.81))) <= 1e-12

    degree = 10
    while abs(eval_sequence_norm_partial((0.9,), w, degree) - closed) > 1e-6:
        degree += 10
    assert degree <= 300

    # at x = 1 the dual series is the count of indices and passes 10^3
    partial = eval_sequence_norm_partial((1.0,), w, 1000)
    assert partial ** 2 > 1e3

    for k in range(1, 51):
        f_k = Polynomial(1, {(j,): 1.0 / k for j in range(k + 1)})
        assert abs(weighted_norm(f_k, WeightSpec("inf", (1.0,))) - 1.0 / k) <= 1e-12
        assert abs(poly_eval(f_k, (1.0,)) - (k + 1) / k) <= 1e-12


@announce("4 PSD certification of box moments")
def test_criterion_4_psd_certification():
    # direct integration of x^k over [-1, 1]
    values = [1.0 / (k + 1) - (-1.0) ** (k + 1) / (k + 1) for k in range(11)]
    lebesgue = MomentSequence(1, 10, values)
    box_generator = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    for d in range(1, 5):
        assert is_psd_functional(lebesgue, d)
        assert min_eigenvalue(moment_matrix(lebesgue, d)) >= 1e-3
        report = check_quadratic_module(lebesgue, [box_generator], 1.0, d)
        assert report.passed
        for check in report.checks:
            assert check.min_eigenvalue >= 1e-3

    indefinite = MomentSequence(1, 2, [1.0, 0.0, -1.0])
    assert not is_psd_functional(indefinite, 1)
    assert abs(min_eigenvalue(moment_matrix(indefinite, 1)) - (-1.0)) <= 1e-10


@announce("5a box density: eps {1, 0.5}, eps 0 failure, weighted identity")
def test_criterion_5a_box_density():
    f = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    w = WeightSpec(1, (1.0,))
    for eps in (1.0, 0.5):
        result = box_sos_approx(f, w, eps, 2)
        assert result.success and result.depth == 2
        assert result.certificate.residual <= 1e-8
        assert abs(result.distance - eps * 2.5) <= 1e-9

    assert not box_sos_approx(f, w, 0.0, 2).success

    # weighted variant on the box [-2, 2] of (p=2, r=4)
    f_weighted = Polynomial(1, {(0,): 1.0, (2,): -0.25})
    w_weighted = WeightSpec(2, (4.0,))
    for eps in (1.0, 0.5):
        result = box_sos_approx(f_weighted, w_weighted, eps, 2)
        assert result.success
        # distance is the weighted norm of the unit-box gap mapped back to the box
        halfwidths = box_from_weight(w_weighted).upper
        unit_gap = poly_sub(axis_scale(f_weighted, halfwidths), result.certificate.square_sum)
        gap = axis_scale(unit_gap, tuple(1.0 / c for c in halfwidths))
        assert abs(result.distance - weighted_norm(gap, w_weighted)) <= 1e-9 * max(
            1.0, result.distance
        )


@announce("5b box density at small eps: the depth-2 and all-depth floors")
def test_criterion_5b_small_eps_depth_two():
    # The depth-D candidate is 1 - u + eps * theta_D(u) in u = X^2, with
    # theta_D(u) = sum_{k <= D} u^k / k! <= e^u.  At depth 2 it is a quadratic
    # in u with discriminant 1 - 4 eps - eps^2, so it is nonnegative (hence
    # SOS, being univariate) iff eps >= sqrt(5) - 2.  Over all depths
    # min_u (1 - u + eps e^u) = 2 + ln eps, so no depth certifies eps < e^-2.
    f = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    w = WeightSpec(1, (1.0,))

    def candidate(eps, depth):
        return poly_add(f, poly_scale(square_perturbation(1, depth), eps))

    # (a) eps = 0.1 at depth 2: f >= 0 on the box, but the candidate
    # 1.1 - 0.9 X^2 + 0.05 X^4 is -1.7 at X = 2, so no certificate exists.
    result = box_sos_approx(f, w, 0.1, 2)
    assert not result.success
    assert result.reason == "inconclusive"
    assert result.distance == math.inf
    assert abs(poly_eval(candidate(0.1, 2), (2.0,)) - (-1.7)) <= 1e-12

    # (b) no depth helps at eps = 0.1: at X^2 = ln 10 every candidate is
    # below 1 - ln 10 + 0.1 * 10 = 2 - ln 10 < 0.
    x = math.sqrt(math.log(10.0))
    bound = 2.0 - math.log(10.0)
    assert bound < 0.0
    for depth in range(2, 9):
        assert poly_eval(candidate(0.1, depth), (x,)) < bound

    # (c) the depth-2 floor sqrt(5) - 2 ~ 0.236: eps = 0.25 lies above it
    # and certifies at depth 2 with distance 0.25 * (1 + 1 + 1/2).
    floor_two = math.sqrt(5.0) - 2.0
    assert 0.1 < floor_two < 0.25
    result = box_sos_approx(f, w, 0.25, 2)
    assert result.success and result.depth == 2
    assert result.certificate.residual <= 1e-8
    assert abs(result.distance - 0.625) <= 1e-9

    # (d) the all-depth floor e^-2 ~ 0.135: eps = 0.15 lies above it but
    # below the depth-2 floor; the depth-3 candidate is -0.05 at X = sqrt(2),
    # so the first certificate is at depth exactly 4, with distance
    # 0.15 * (1 + 1 + 1/2 + 1/6 + 1/24) = 0.40625.
    assert math.exp(-2.0) < 0.15 < floor_two
    assert abs(poly_eval(candidate(0.15, 3), (math.sqrt(2.0),)) - (-0.05)) <= 1e-12
    result = box_sos_approx(f, w, 0.15, 4)
    assert result.success and result.depth == 4
    assert result.certificate.residual <= 1e-8
    assert abs(result.distance - 0.40625) <= 1e-9


@announce("6 measure recovery round trips and negative control")
def test_criterion_6_measure_recovery():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        p = ("1", "2", "inf")[int(rng.integers(0, 3))]
        r = tuple(float(v) for v in rng.uniform(0.5, 4.0, size=n))
        w = WeightSpec(p, r)
        box = box_from_weight(w)
        grid_m = 41 if n == 1 else 13
        axes = [np.linspace(lo, hi, grid_m) for lo, hi in zip(box.lower, box.upper)]
        count = int(rng.integers(1, 6))
        atoms = tuple(
            tuple(float(ax[rng.integers(0, grid_m)]) for ax in axes)
            for _ in range(count)
        )
        weights = tuple(float(v) for v in rng.uniform(0.1, 2.0, size=count))
        mu = AtomicMeasure(atoms, weights)
        s = moments_of_measure(mu, 6)
        start = time.perf_counter()
        result = recover_measure(s, box, grid_m)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert result.success and result.residual <= 1e-6
        assert all(wgt >= 0.0 for wgt in result.measure.weights)
        assert all(box.contains(pt) for pt in result.measure.atoms)

    indefinite = MomentSequence(1, 2, [1.0, 0.0, -1.0])
    control = recover_measure(indefinite, box_from_weight(WeightSpec(1, (1.0,))), 101)
    assert not control.success
    assert control.residual >= 0.1


@announce("7 weight hypothesis controls the recovery box")
def test_criterion_7_hypothesis_box_link():
    mu = AtomicMeasure(((2.0,),), (1.0,))
    s = moments_of_measure(mu, 6)

    matched = WeightSpec(1, (2.0,))
    profile = dual_norm_profile(s, matched)
    assert profile == [1.0] * 7
    assert dual_norm_of_moments(s, matched) == 1.0
    assert not increments_growing(profile)
    recovery = recover_measure(s, box_from_weight(matched), 81)
    assert recovery.success and recovery.residual <= 1e-6

    unmatched = WeightSpec(1, (1.0,))
    rising = dual_norm_profile(s, unmatched)
    assert rising == [2.0 ** k for k in range(7)]
    assert increments_growing(rising)
    failing = recover_measure(s, box_from_weight(unmatched), 101)
    assert not failing.success
