import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcone import (
    Polynomial,
    WeightSpec,
    axis_scale,
    conjugate_exponent,
    dual_weight,
    eval_sequence_norm,
    eval_sequence_norm_partial,
    holder_product_norm,
    is_evaluation_continuous,
    poly_eval,
    scaling_isometry,
    weighted_norm,
)
from conftest import assert_poly_close, random_sparse_poly

P_GRID = ("1", "1.5", "2", "3", "inf")


def ones(n):
    return (1.0,) * n


class TestConjugateExponent:
    def test_endpoints(self):
        assert conjugate_exponent(1) == math.inf
        assert conjugate_exponent("inf") == 1

    def test_self_conjugate(self):
        assert conjugate_exponent(2) == 2

    def test_four_thirds(self):
        q = conjugate_exponent(4)
        assert q == Fraction(4, 3)
        assert 1.0 / 4 + 1.0 / float(q) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            conjugate_exponent(0.5)


class TestWeightSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(2, ())
        with pytest.raises(ValueError):
            WeightSpec(2, (1.0, -1.0))
        with pytest.raises(ValueError):
            WeightSpec(0.3, (1.0,))

    def test_exponent_kept_exact(self):
        w = WeightSpec("1.5", (1.0,))
        assert w.p == Fraction(3, 2)


class TestWeightedNorm:
    def test_single_term(self):
        assert weighted_norm(Polynomial.monomial((2,)), WeightSpec(1, (4.0,))) == 16.0

    def test_sup_norm(self):
        f = Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
        assert weighted_norm(f, WeightSpec("inf", (1.0, 1.0))) == 1.0

    def test_two_term_sum(self):
        f = Polynomial(1, {(0,): 1.0, (1,): 2.0})
        assert weighted_norm(f, WeightSpec(2, (3.0,))) == pytest.approx(math.sqrt(13.0), rel=1e-15)

    def test_zero_polynomial(self):
        assert weighted_norm(Polynomial.zero(2), WeightSpec("inf", (2.0, 2.0))) == 0.0
        assert weighted_norm(Polynomial.zero(2), WeightSpec(2, (2.0, 2.0))) == 0.0

    def test_large_weights_no_overflow(self):
        f = Polynomial.monomial((400,), 1e-300)
        value = weighted_norm(f, WeightSpec(1, (10.0,)))
        # 1e-300 * 10^400 = 1e100, finite only if powers are combined in log space
        assert value == pytest.approx(1e100, rel=1e-9)


class TestDualWeight:
    def test_p1_gives_sup_dual(self):
        d = dual_weight(WeightSpec(1, (2.0, 3.0)))
        assert d.q == math.inf
        assert d.r_prime == pytest.approx((0.5, 1.0 / 3.0))

    def test_unweighted_l2_self_dual(self):
        d = dual_weight(WeightSpec(2, ones(3)))
        assert d.q == 2
        assert d.r_prime == ones(3)

    def test_p3_weight8(self):
        d = dual_weight(WeightSpec(3, (8.0,)))
        assert d.q == Fraction(3, 2)
        assert d.r_prime[0] == pytest.approx(8.0 ** -0.5, rel=1e-15)

    def test_sup_norm_dual(self):
        d = dual_weight(WeightSpec("inf", (2.0,)))
        assert d.q == 1
        assert d.r_prime == pytest.approx((0.5,))


class TestScalingIsometry:
    def test_forward_single_term(self):
        out = scaling_isometry(Polynomial.monomial((2,)), WeightSpec(1, (4.0,)), "forward")
        assert_poly_close(out, Polynomial(1, {(2,): 1.0 / 16.0}))

    def test_round_trip(self, rng):
        w = WeightSpec(2, (0.7, 1.9))
        for _ in range(20):
            s = random_sparse_poly(rng, 2, 6)
            back = scaling_isometry(scaling_isometry(s, w, "forward"), w, "inverse")
            assert_poly_close(back, s, tol=1e-10)

    def test_isometry_property(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            s = random_sparse_poly(rng, n, 8)
            r = tuple(rng.uniform(0.4, 3.0, size=n))
            for p in ("1", "1.5", "2", "3"):
                w = WeightSpec(p, r)
                lhs = weighted_norm(scaling_isometry(s, w, "forward"), w)
                rhs = weighted_norm(s, WeightSpec(p, ones(n)))
                assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)

    def test_rejects_sup_exponent(self):
        with pytest.raises(ValueError):
            scaling_isometry(Polynomial.variable(1, 0), WeightSpec("inf", (1.0,)))


class TestEvalSequenceNorm:
    def test_geometric_sup(self):
        assert eval_sequence_norm((0.5,), WeightSpec(1, (1.0,))) == 1.0

    def test_geometric_series_closed_form(self):
        value = eval_sequence_norm((0.9,), WeightSpec(2, (1.0,)))
        assert value == pytest.approx(math.sqrt(1.0 / (1.0 - 0.81)), rel=1e-14)

    def test_divergence_at_boundary(self):
        assert eval_sequence_norm((1.0,), WeightSpec(2, (1.0,))) == math.inf

    def test_partial_sums_approach_closed_form(self):
        w = WeightSpec(2, (1.0,))
        closed = eval_sequence_norm((0.9,), w)
        degree = 10
        while abs(eval_sequence_norm_partial((0.9,), w, degree) - closed) > 1e-6:
            degree += 10
            assert degree <= 2000
        assert abs(eval_sequence_norm_partial((0.9,), w, degree) - closed) <= 1e-6

    def test_partial_sup_case(self):
        w = WeightSpec(1, (4.0,))
        assert eval_sequence_norm_partial((2.0,), w, 50) == 1.0
        assert eval_sequence_norm((2.0,), w) == 1.0

    def test_overflowing_ratio_is_not_continuous(self):
        # |x|^q overflows a float: the ratio counts as >= 1, not as an error
        assert eval_sequence_norm((1e200,), WeightSpec(2, (1.0,))) == math.inf
        assert eval_sequence_norm((-1e200, 0.5), WeightSpec(Fraction(3, 2), (1.0, 1.0))) == math.inf
        assert eval_sequence_norm_partial((1e200,), WeightSpec(2, (1.0,)), 3) == math.inf

    def test_overflowing_partial_terms_are_infinite(self):
        # a power overflows beside a zero coordinate (inf * 0), for q finite and q = inf
        assert eval_sequence_norm_partial((1e150, 0.0), WeightSpec(2, (1.0, 1.0)), 3) == math.inf
        assert eval_sequence_norm_partial((1e200, 0.0), WeightSpec(1, (1.0, 1.0)), 3) == math.inf
        assert eval_sequence_norm_partial((1e200,), WeightSpec(2, (1.0,)), 0) == 1.0


class TestEvaluationContinuity:
    def test_interior_point(self):
        assert is_evaluation_continuous((0.5, 0.5), WeightSpec(2, ones(2)))

    def test_weighted_closed_box_for_p1(self):
        assert is_evaluation_continuous((2.0,), WeightSpec(1, (4.0,)))
        assert not is_evaluation_continuous((5.0,), WeightSpec(1, (4.0,)))
        # p=1 continuity extends to the closed box: |x| = r exactly
        assert is_evaluation_continuous((4.0,), WeightSpec(1, (4.0,)))

    def test_sup_norm_boundary_diverges(self):
        # dual of the sup norm is the l1 series, which diverges at |x_i| = r_i;
        # test_divergence_witness below exhibits the unbounded functionals
        assert not is_evaluation_continuous((1.0, 0.0), WeightSpec("inf", ones(2)))
        assert is_evaluation_continuous((0.99, 0.0), WeightSpec("inf", ones(2)))

    def test_divergence_witness(self):
        # f_k = (1/k)(1 + X + ... + X^k) has sup-norm 1/k -> 0 while the
        # values at x = 1 stay above 1, so evaluation there is unbounded.
        for k in range(1, 51):
            f_k = Polynomial(1, {(j,): 1.0 / k for j in range(k + 1)})
            assert abs(weighted_norm(f_k, WeightSpec("inf", (1.0,))) - 1.0 / k) <= 1e-12
            assert abs(poly_eval(f_k, (1.0,)) - (k + 1) / k) <= 1e-12

    def test_pairing_bound(self, rng):
        # |f(x)| <= ||f||_{p,r} * dual norm of (x^a) whenever the latter is finite
        for _ in range(50):
            n = int(rng.integers(1, 3))
            f = random_sparse_poly(rng, n, 6)
            r = tuple(rng.uniform(0.5, 2.0, size=n))
            p = P_GRID[int(rng.integers(0, len(P_GRID)))]
            w = WeightSpec(p, r)
            halfwidths = [v if w.p == math.inf else v ** (1.0 / float(w.p)) for v in r]
            x = tuple(float(rng.uniform(-0.9, 0.9)) * h for h in halfwidths)
            value = eval_sequence_norm(x, w)
            if math.isfinite(value):
                assert abs(poly_eval(f, x)) <= weighted_norm(f, w) * value + 1e-9


class TestHolder:
    def test_parallel_vectors(self):
        a = Polynomial(1, {(0,): 1.0, (1,): 1.0})
        lhs, rhs = holder_product_norm(a, a, 2)
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(2.0)

    def test_sign_flip(self):
        a = Polynomial(1, {(0,): 1.0, (1,): 1.0})
        b = Polynomial(1, {(0,): 1.0, (1,): -1.0})
        lhs, rhs = holder_product_norm(a, b, 2)
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(2.0)

    def test_random_inequality(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = random_sparse_poly(rng, n, 8)
            b = random_sparse_poly(rng, n, 8)
            p = P_GRID[int(rng.integers(0, len(P_GRID)))]
            lhs, rhs = holder_product_norm(a, b, p)
            assert rhs - lhs >= -1e-12


class TestNormMonotonicity:
    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
            min_size=0,
            max_size=6,
        )
    )
    def test_unweighted_norms_decrease_in_p(self, terms):
        s = Polynomial(2, terms)
        values = [weighted_norm(s, WeightSpec(p, ones(2))) for p in P_GRID]
        for smaller_p, larger_p in zip(values, values[1:]):
            assert larger_p <= smaller_p + 1e-12 * max(smaller_p, 1.0)


class TestScalingNormIdentity:
    def test_identity_random(self, rng):
        # || g - f(r^(1/p) X) ||_p^p == || g(r^(-1/p) X) - f ||_{p,r}^p
        for _ in range(40):
            n = int(rng.integers(1, 3))
            f = random_sparse_poly(rng, n, 5)
            g = random_sparse_poly(rng, n, 5)
            r = tuple(rng.uniform(0.5, 2.5, size=n))
            for p in ("1", "1.5", "2", "3"):
                w = WeightSpec(p, r)
                pf = float(w.p)
                scale = tuple(v ** (1.0 / pf) for v in r)
                lhs = weighted_norm(
                    g - axis_scale(f, scale), WeightSpec(p, ones(n))
                ) ** pf
                rhs = weighted_norm(
                    axis_scale(g, tuple(1.0 / c for c in scale)) - f, w
                ) ** pf
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
