import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcone import (
    MomentSequence,
    Polynomial,
    WeightSpec,
    axis_scale,
    conjugate_exponent,
    dual_norm_profile,
    dual_weight,
    eval_sequence_norm,
    eval_sequence_norm_partial,
    holder_product_norm,
    iter_simplex,
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

    def test_halfwidths(self):
        assert WeightSpec(2, (4.0, 9.0)).halfwidths == (2.0, 3.0)
        assert WeightSpec(1, (4.0,)).halfwidths == (4.0,)
        assert WeightSpec("inf", (4.0,)).halfwidths == (4.0,)


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

    @pytest.mark.parametrize("coef", [1e160, 1e-170])
    def test_term_whose_power_leaves_the_float_range(self, coef):
        # (1e160)^2 overflows and (1e-170)^2 underflows to 0, but the norm is coef
        assert weighted_norm(Polynomial.monomial((1,), coef), WeightSpec(2, (1.0,))) == coef

    @pytest.mark.parametrize("coef, r, expected", [
        (1e300, (1e-200, 1e200), 1e100), (1.0, (1e-160, 1e160), 1e-160)])
    def test_axis_power_brought_back_by_another(self, coef, r, expected):
        # (1e-200)^2 underflows to 0, and (1e-160)^2 = 1e-320 is subnormal (about
        # 5 digits), but the other axis brings the term back into range
        value = weighted_norm(Polynomial(2, {(2, 1): coef}), WeightSpec(1, r))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestDualNormProfile:
    def test_moment_whose_power_overflows(self):
        s = MomentSequence(1, 2, [1.0, 0.0, 1e200])
        assert dual_norm_profile(s, WeightSpec(2, (1.0,))) == [1.0, 1.0, 1e200]

    def test_zero_moments_against_an_infinite_scale(self):
        # 1 / 5e-324 is inf; a zero moment times its powers is still 0
        s = MomentSequence(1, 2, [1.0, 0.0, 0.0])
        assert dual_norm_profile(s, WeightSpec(1, (5e-324,))) == [1.0, 1.0, 1.0]


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

    def test_overflowing_term_with_a_finite_norm(self):
        # 1 + (1e200)^2 overflows a float, but its square root is 1e200
        w = WeightSpec(2, (1.0,))
        assert eval_sequence_norm_partial((1e200,), w, 1) == pytest.approx(1e200, rel=1e-12)
        assert eval_sequence_norm_partial((1e100,), w, 1) == 1e100
        pair = eval_sequence_norm_partial((1e150, 0.0), WeightSpec(2, (1.0, 1.0)), 2)
        assert pair == pytest.approx(1e300, rel=1e-12)
        three_halves = WeightSpec(Fraction(3, 2), (1.0, 1.0))
        value = eval_sequence_norm_partial((-1e200, 0.5), three_halves, 1)
        assert value == pytest.approx(1e200, rel=1e-12)
        # the terms 1, 1e308 and 1e308 are finite, but their sum is not
        both = eval_sequence_norm_partial((1e154, 1e154), WeightSpec(2, (1.0, 1.0)), 1)
        assert both == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-12)

    def test_overflowing_partial_terms_are_infinite(self):
        # a power overflows beside a zero coordinate (inf * 0), for q finite and q = inf
        assert eval_sequence_norm_partial((1e150, 0.0), WeightSpec(2, (1.0, 1.0)), 3) == math.inf
        assert eval_sequence_norm_partial((1e200, 0.0), WeightSpec(1, (1.0, 1.0)), 3) == math.inf
        assert eval_sequence_norm_partial((1e200,), WeightSpec(2, (1.0,)), 0) == 1.0
        # |x_1| / c_1 = 1e450 is inf, beside a zero coordinate
        assert eval_sequence_norm_partial((1e300, 0.0), WeightSpec(2, (1e-300, 1.0)), 2) == math.inf


class TestEvaluationContinuity:
    def test_interior_point(self):
        assert math.isfinite(eval_sequence_norm((0.5, 0.5), WeightSpec(2, ones(2))))

    def test_weighted_closed_box_for_p1(self):
        assert math.isfinite(eval_sequence_norm((2.0,), WeightSpec(1, (4.0,))))
        assert not math.isfinite(eval_sequence_norm((5.0,), WeightSpec(1, (4.0,))))
        # p=1 continuity extends to the closed box: |x| = r exactly
        assert math.isfinite(eval_sequence_norm((4.0,), WeightSpec(1, (4.0,))))

    def test_sup_norm_boundary_diverges(self):
        # dual of the sup norm is the l1 series, which diverges at |x_i| = r_i;
        # test_divergence_witness below exhibits the unbounded functionals
        assert not math.isfinite(eval_sequence_norm((1.0, 0.0), WeightSpec("inf", ones(2))))
        assert math.isfinite(eval_sequence_norm((0.99, 0.0), WeightSpec("inf", ones(2))))

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


# Both norms against a 50-digit mpmath reference, over magnitudes 1e-300..1e300
# and weights 1e-3..1e3: within 1e-12 relative, inf where the reference is
# beyond the float range, and within a few units of 2^-1074 where it is a
# subnormal float.
MAGNITUDES = st.builds(lambda u, sign: sign * 10.0**u, st.floats(-300, 300),
                       st.sampled_from((1.0, -1.0)))
WEIGHTS = st.lists(st.floats(-3, 3).map(lambda u: 10.0**u), min_size=3, max_size=3)


def mp_lp(mp, values, exponents, c, sign, e):
    """The l^e norm of (|v_a| c^(sign a))_a at the working precision."""
    mags = [abs(mp.mpf(v)) * mp.fprod(ci ** (sign * a) for ci, a in zip(c, alpha))
            for v, alpha in zip(values, exponents)]
    if e == math.inf:
        return max(mags, default=mp.mpf(0))
    e = mp.mpf(e.numerator) / e.denominator
    return mp.fsum(m**e for m in mags) ** (1 / e)


def mp_halfwidths(mp, r, p):
    if p == math.inf:
        return [mp.mpf(v) for v in r]
    return [mp.mpf(v) ** (mp.mpf(p.denominator) / p.numerator) for v in r]


def assert_matches_reference(got, ref, count):
    if ref > sys.float_info.max:
        assert got == math.inf
    else:
        assert abs(got - ref) <= 1e-12 * ref + (count + 1) * 5e-324, (got, ref)


class TestNormsAgainstMpmath:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.data(), WEIGHTS, st.sampled_from(P_GRID))
    def test_weighted_norm(self, n, data, r, p):
        mp = pytest.importorskip("mpmath")
        exponent = st.tuples(*[st.integers(0, 3)] * n)
        f = Polynomial(n, data.draw(st.dictionaries(exponent, MAGNITUDES, max_size=8)))
        w = WeightSpec(p, r[:n])
        with mp.workdps(50):
            c = mp_halfwidths(mp, w.r, w.p)
            ref = mp_lp(mp, f.coefs.tolist(), f.exponents.tolist(), c, 1, w.p)
            assert_matches_reference(weighted_norm(f, w), ref, len(f.coefs))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 4), st.data(), WEIGHTS, st.sampled_from(P_GRID))
    def test_dual_norm_profile(self, n, degree, data, r, p):
        mp = pytest.importorskip("mpmath")
        size = math.comb(n + degree, n)
        entries = st.one_of(st.just(0.0), MAGNITUDES)
        vector = data.draw(st.lists(entries, min_size=size, max_size=size))
        w = WeightSpec(p, r[:n])
        profile = dual_norm_profile(MomentSequence(n, degree, vector), w)
        basis = list(iter_simplex(n, degree))
        with mp.workdps(50):
            c = mp_halfwidths(mp, w.r, w.p)
            for d, got in enumerate(profile):
                count = math.comb(n + d, n)
                ref = mp_lp(mp, vector[:count], basis[:count], c, -1, conjugate_exponent(w.p))
                assert_matches_reference(got, ref, count)
