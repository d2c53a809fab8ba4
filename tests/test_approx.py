import math

import numpy as np
import pytest

from momentcone import (
    Polynomial,
    WeightSpec,
    box_sos_approx,
    coefficientwise_report,
    convergence_sweep,
    iter_simplex,
    poly_add,
    poly_eval,
    poly_mul,
    poly_sub,
    screen_box_nonnegativity,
    sos_certify,
    sqrt_square_approx,
    square_perturbation,
    weighted_norm,
)
from momentcone.measures import BoxSpec
from conftest import random_sparse_poly

X = Polynomial.variable(1, 0)
ONE_MINUS_XSQ = Polynomial(1, {(0,): 1.0, (2,): -1.0})
UNIT_BOX = BoxSpec((-1.0,), (1.0,))
SQUARE = BoxSpec((-1.0, -1.0), (1.0, 1.0))


class TestSqrtSquareApprox:
    def test_degree_two_hand_values(self):
        h = sqrt_square_approx(X, 2)
        root_half = math.sqrt(0.5)
        assert h.coefficient((0,)) == pytest.approx(root_half, rel=1e-14)
        assert h.coefficient((1,)) == pytest.approx(root_half, rel=1e-14)
        assert h.coefficient((2,)) == pytest.approx(-root_half / 2.0, rel=1e-14)
        square = poly_mul(h, h)
        assert square.coefficient((0,)) == pytest.approx(0.5, abs=1e-14)
        assert square.coefficient((1,)) == pytest.approx(1.0, abs=1e-14)
        assert square.coefficient((2,)) == pytest.approx(0.0, abs=1e-14)

    def test_zero_polynomial(self):
        for i in (1, 3, 7):
            h = sqrt_square_approx(Polynomial.zero(1), i)
            assert h.terms == {(0,): pytest.approx(math.sqrt(1.0 / i))}

    def test_negative_constant_term_rejected(self):
        with pytest.raises(ValueError):
            sqrt_square_approx(Polynomial.constant(1, -1.0), 3)

    def test_truncation_identity(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 3))
            f = random_sparse_poly(rng, n, 3, coef_range=2.0)
            shift = max(0.0, -f.constant_term)
            f = poly_add(f, Polynomial.constant(n, shift))  # ensure f(0) >= 0
            for i in (max(f.degree, 1), max(f.degree, 1) + 3):
                h = sqrt_square_approx(f, i)
                square = poly_mul(h, h)
                assert abs(square.constant_term - f.constant_term - 1.0 / i) <= 1e-10
                for alpha in iter_simplex(n, i):
                    if sum(alpha) == 0:
                        continue
                    assert abs(square.coefficient(alpha) - f.coefficient(alpha)) <= 1e-10


class TestCoefficientwiseReport:
    def test_single_variable(self):
        rows = coefficientwise_report(X, 10)
        assert rows[-1][1] == pytest.approx(0.1, abs=1e-12)

    def test_zero_polynomial_errors(self):
        rows = coefficientwise_report(Polynomial.zero(1), 5)
        expected = [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2]
        got = [error for _, error in rows]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_indefinite_polynomial(self):
        # f(0) = 0 but f is nowhere near a square; the squares still converge
        f = Polynomial(2, {(1, 1): 1.0, (3, 0): -5.0})
        rows = coefficientwise_report(f, 8)
        for i, (_, error) in enumerate(rows[2:], 3):  # from i = deg f onwards the error is 1/i
            assert error == pytest.approx(1.0 / i, abs=1e-10)

    def test_last_row_holds_sqrt_square_approx(self):
        f = Polynomial(2, {(0, 0): 0.5, (1, 1): 1.0, (3, 0): -5.0})
        assert coefficientwise_report(f, 6)[-1][0].terms == sqrt_square_approx(f, 6).terms


class TestSosCertify:
    def test_explicit_square(self):
        f = Polynomial(1, {(0,): 1.0, (1,): -2.0, (2,): 1.0})
        cert = sos_certify(f, 1)
        assert cert.success
        assert cert.residual <= 1e-8
        assert cert.gram_min_eig >= -1e-8

    def test_negative_constant_fails(self):
        cert = sos_certify(Polynomial.constant(1, -1.0), 0, max_iters=100)
        assert not cert.success
        assert cert.residual == pytest.approx(1.0, abs=1e-9)

    def test_explicit_gram_by_hand(self):
        f = Polynomial(1, {(0,): 2.0, (4,): 0.5})
        cert = sos_certify(f, 2)
        assert cert.success
        total = Polynomial.zero(1)
        for h in cert.factors:
            total = poly_add(total, poly_mul(h, h))
        assert abs(total.coefficient((0,)) - 2.0) <= 1e-10
        assert abs(total.coefficient((4,)) - 0.5) <= 1e-10

    def test_not_sos_fails(self):
        cert = sos_certify(ONE_MINUS_XSQ, 1, max_iters=400)
        assert not cert.success

    def test_degree_capacity_check(self):
        with pytest.raises(ValueError):
            sos_certify(Polynomial.monomial((4,)), 1)

    def test_factors_reproduce_certified_polynomial(self, rng):
        # strictly interior instances: a square plus a margin of basis squares
        # (projection methods converge slowly on boundary-of-cone inputs,
        # which is why failures are reported as inconclusive)
        margin = Polynomial(2, {(2 * a, 2 * b): 0.1 for a, b in iter_simplex(2, 2)})
        for _ in range(8):
            g = random_sparse_poly(rng, 2, 2, max_terms=4, coef_range=2.0)
            f = poly_add(poly_mul(g, g), margin)
            cert = sos_certify(f, 2)
            assert cert.success
            total = Polynomial.zero(2)
            for h in cert.factors:
                total = poly_add(total, poly_mul(h, h))
            gap = max(
                abs(total.coefficient(a) - f.coefficient(a)) for a in iter_simplex(2, 4)
            )
            assert gap <= 1e-8
            assert cert.gram_min_eig >= -1e-8


class TestSquarePerturbation:
    def test_depth_two_shape(self):
        theta = square_perturbation(1, 2)
        assert theta.terms == {
            (0,): 1.0,
            (2,): 1.0,
            (4,): pytest.approx(0.5),
        }
        assert weighted_norm(theta, WeightSpec(1, (1.0,))) == pytest.approx(2.5)

    def test_two_variables(self):
        theta = square_perturbation(2, 2)
        assert theta.coefficient((2, 0)) == 1.0
        assert theta.coefficient((0, 2)) == 1.0
        assert theta.coefficient((4, 0)) == pytest.approx(0.5)
        assert weighted_norm(theta, WeightSpec(1, (1.0, 1.0))) == pytest.approx(4.0)


class TestScreening:
    def test_accepts_nonnegative(self):
        assert screen_box_nonnegativity(ONE_MINUS_XSQ, BoxSpec((-1.0,), (1.0,))) is None

    def test_flags_negative(self):
        f = Polynomial(1, {(0,): 1.0, (2,): -1.0})
        hit = screen_box_nonnegativity(f, BoxSpec((-2.0,), (2.0,)))
        assert hit is not None
        point, value = hit
        assert value < -1e-9
        assert abs(point[0]) > 1.0

    @pytest.mark.parametrize(
        "f, box, minimum",
        [
            (ONE_MINUS_XSQ, BoxSpec((-2.0,), (2.0,)), -3.0),
            (Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}), SQUARE, -1.0),
            (Polynomial(2, {(2, 0): 1.0, (0, 2): -1.0}), SQUARE, -1.0),
            # the quartic of ROADMAP item 2: nonnegative on the square
            (
                Polynomial(
                    2,
                    {(0, 0): 1.0, (2, 0): -0.5, (0, 2): -0.5, (4, 0): 1.0, (0, 4): 1.0, (2, 2): 0.3},
                ),
                SQUARE,
                None,
            ),
        ],
        ids=["1-x^2 on [-2,2]", "1-x1^2-x2^2", "saddle", "quartic"],
    )
    def test_verdicts(self, f, box, minimum):
        hit = screen_box_nonnegativity(f, box)
        if minimum is None:
            assert hit is None
        else:
            assert hit is not None
            assert hit[1] == pytest.approx(minimum, abs=1e-9)

    def test_off_grid_dip_found_by_descent(self):
        # negative only on |x - 0.0157| < 0.00316, which no point of the
        # 33-point grid (spacing 0.0625) hits
        f = Polynomial(1, {(0,): 0.0157**2 - 1e-5, (1,): -2 * 0.0157, (2,): 1.0})
        grid = np.linspace(-1.0, 1.0, 33)
        assert min(poly_eval(f, (x,)) for x in grid) > 0.0
        hit = screen_box_nonnegativity(f, UNIT_BOX)
        assert hit is not None
        assert hit[0][0] == pytest.approx(0.0157, abs=1e-6)
        assert hit[1] == pytest.approx(-1e-5, rel=1e-6)

    def test_witness_in_box_with_exact_value(self):
        f = Polynomial(2, {(0, 0): 0.2, (1, 1): -3.0, (3, 0): 1.0, (0, 4): -0.5})
        box = BoxSpec((-0.5, -1.5), (0.5, 1.5))
        point, value = screen_box_nonnegativity(f, box)
        assert all(lo <= x <= hi for x, lo, hi in zip(point, box.lower, box.upper))
        assert value == poly_eval(f, point)

    def test_same_seed_same_result(self):
        f = Polynomial(2, {(0, 0): 0.1, (2, 0): -1.0, (1, 2): 0.7, (0, 3): 1.0})
        box = BoxSpec((-1.0, -0.5), (1.0, 0.5))
        first = screen_box_nonnegativity(f, box, seed=7)
        assert first is not None
        assert screen_box_nonnegativity(f, box, seed=7) == first

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            screen_box_nonnegativity(ONE_MINUS_XSQ, SQUARE)


class TestBoxSosApprox:
    def test_unit_box_eps_one(self):
        res = box_sos_approx(ONE_MINUS_XSQ, WeightSpec(1, (1.0,)), 1.0, 2)
        assert res.success and res.depth == 2
        assert res.certificate.residual <= 1e-8
        assert res.distance == pytest.approx(2.5, abs=1e-9)

    def test_unit_box_eps_half(self):
        res = box_sos_approx(ONE_MINUS_XSQ, WeightSpec(1, (1.0,)), 0.5, 2)
        assert res.success and res.depth == 2
        assert res.distance == pytest.approx(1.25, abs=1e-9)

    def test_eps_zero_fails(self):
        res = box_sos_approx(ONE_MINUS_XSQ, WeightSpec(1, (1.0,)), 0.0, 2)
        assert not res.success
        assert res.reason == "inconclusive"

    def test_sos_input_small_eps(self):
        res = box_sos_approx(Polynomial.monomial((2,)), WeightSpec(1, (1.0,)), 1e-3, 2)
        assert res.success
        assert res.distance == pytest.approx(2.5e-3, rel=1e-6)

    def test_negative_on_box_rejected(self):
        res = box_sos_approx(ONE_MINUS_XSQ, WeightSpec(1, (2.0,)), 1.0, 2)
        assert not res.success
        assert res.reason == "negative-on-box"
        assert res.witness is not None

    def test_weighted_scaling_identity(self):
        # nonnegative on [-2, 2], the box of (p=2, r=4)
        f = Polynomial(1, {(0,): 1.0, (2,): -0.25})
        w = WeightSpec(2, (4.0,))
        for eps in (1.0, 0.5):
            res = box_sos_approx(f, w, eps, 2)
            assert res.success
            assert abs(res.distance - res.unit_distance) <= 1e-9 * max(1.0, res.distance)
            # distance is the weighted gap recomputed from the returned factors
            total = Polynomial.zero(1)
            for h in res.factors:
                total = poly_add(total, poly_mul(h, h))
            direct = weighted_norm(poly_sub(f, total), w)
            assert res.distance == pytest.approx(direct, rel=1e-12)

    def test_monotone_norm_inclusion(self):
        # accepted at lp distance delta, the same certificate is within delta in lq, q >= p
        res = box_sos_approx(ONE_MINUS_XSQ, WeightSpec(1, (1.0,)), 1.0, 2)
        total = Polynomial.zero(1)
        for h in res.factors:
            total = poly_add(total, poly_mul(h, h))
        gap = poly_sub(ONE_MINUS_XSQ, total)
        previous = weighted_norm(gap, WeightSpec(1, (1.0,)))
        for q in ("1.5", "2", "3", "inf"):
            current = weighted_norm(gap, WeightSpec(q, (1.0,)))
            assert current <= previous + 1e-12
            previous = current


class TestConvergenceSweep:
    def test_distances_track_eps(self):
        results = convergence_sweep(ONE_MINUS_XSQ, WeightSpec(1, (1.0,)), [1.0, 0.5], 2)
        assert [res.distance for res in results] == pytest.approx([2.5, 1.25], abs=1e-9)
        assert all(res.success for res in results)
        distances = [res.distance for res in results]
        assert all(b <= a + 1e-9 for a, b in zip(distances, distances[1:]))

    def test_sos_fixed_point(self):
        results = convergence_sweep(
            Polynomial.monomial((2,)), WeightSpec(1, (1.0,)), [0.2, 0.1, 0.05], 2
        )
        distances = [res.distance for res in results]
        assert distances == pytest.approx([0.5, 0.25, 0.125], rel=1e-6)

    def test_negative_on_box_stops_sweep(self):
        results = convergence_sweep(ONE_MINUS_XSQ, WeightSpec(1, (2.0,)), [1.0, 0.5], 2)
        assert len(results) == 1
        (res,) = results
        assert res.reason == "negative-on-box"
        assert res.eps == 1.0
        assert res.witness_value == pytest.approx(poly_eval(ONE_MINUS_XSQ, res.witness))
        assert res.witness_value < -1e-9

    def test_rejects_non_decreasing_schedule(self):
        with pytest.raises(ValueError):
            convergence_sweep(ONE_MINUS_XSQ, WeightSpec(1, (1.0,)), [0.5, 1.0], 2)
