import decimal
import gc
import itertools
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momentcone import (
    Polynomial,
    WeightSpec,
    axis_scale,
    box_from_weight,
    bracket_box_minimum,
    box_sos_approx,
    coefficientwise_report,
    convergence_sweep,
    iter_simplex,
    poly_add,
    poly_scale,
    poly_eval,
    poly_mul,
    poly_sub,
    screen_box_nonnegativity,
    sos_certify,
    sqrt_square_approx,
    square_perturbation,
    weighted_norm,
)
import momentcone.approx as approx_module
from momentcone.measures import BoxSpec
from momentcone.polyring import (
    check_finite,
    dense_coefficients,
    monomial_values,
    poly_from_vector,
    simplex_size,
    truncated_square,
)
from conftest import miller_sqrt, random_sparse_poly

X = Polynomial.variable(1, 0)
ONE_MINUS_XSQ = Polynomial(1, {(0,): 1.0, (2,): -1.0})
UNIT_BOX = BoxSpec((-1.0,), (1.0,))
SQUARE = BoxSpec((-1.0, -1.0), (1.0, 1.0))


def sparse_square_sum(n, factors):
    """sum_k h_k * h_k by the sparse chain poly_add(total, poly_mul(h, h))."""
    total = Polynomial.zero(n)
    for h in factors:
        total = poly_add(total, poly_mul(h, h))
    return total


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


def reference_report(f, i_max):
    # coefficientwise_report as one term-by-term recurrence per i (conftest's
    # miller_sqrt), largest i first, h_i to degree i for i = i_max and to
    # min(i, deg f) below it: the reference for its values, its errors and
    # the order of its messages.
    approx_module._check_index(f, i_max)
    region = max(f.degree, 0)
    size = simplex_size(f.n, region)
    stack = np.zeros((i_max, size))
    for k, i in enumerate(range(i_max, 0, -1)):
        top = i if i == i_max else min(i, region)
        shifted = poly_add(f, Polynomial.constant(f.n, 1.0 / i))
        h = np.array(list(miller_sqrt(shifted, top).values()))
        if not np.isfinite(h).all():
            stack = stack[:k]
            break
        if i == i_max:
            h_max = poly_from_vector(f.n, i, h)
        stack[k, : len(h)] = h[:size]
    squares = truncated_square(stack, f.n, region)
    for square in squares:
        check_finite(square, f.n, region)
    check_finite(h, f.n, top)
    return h_max, np.max(np.abs(squares - dense_coefficients(f, region)), axis=1)[::-1].tolist()


def report_outcome(report, f, i_max):
    # (h's exponents and coefficients, the errors as reprs), or the ValueError text
    try:
        h, errors = report(f, i_max)
    except ValueError as exc:
        return str(exc)
    return h.exponents.tolist(), h.coefs.tolist(), list(map(repr, errors))


@st.composite
def report_polynomials(draw):
    # n 1-3, degree 0-6, f(0) >= 0; huge coefficients overflow some h_i or squares
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 6))
    scale = draw(st.sampled_from([1.0, 1e50, 1e150]))
    coef = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    exponents = list(iter_simplex(n, degree))[1:]
    terms = draw(st.dictionaries(st.sampled_from(exponents), coef, max_size=8)) if exponents else {}
    terms[(0,) * n] = draw(st.floats(0.0, 10.0))
    return Polynomial(n, terms)


class TestCoefficientwiseReport:
    def test_single_variable(self):
        _, errors = coefficientwise_report(X, 10)
        assert errors[-1] == pytest.approx(0.1, abs=1e-12)

    def test_zero_polynomial_errors(self):
        _, errors = coefficientwise_report(Polynomial.zero(1), 5)
        expected = [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2]
        assert errors == pytest.approx(expected, abs=1e-12)

    def test_indefinite_polynomial(self):
        # f(0) = 0 but f is nowhere near a square; the squares still converge
        f = Polynomial(2, {(1, 1): 1.0, (3, 0): -5.0})
        _, errors = coefficientwise_report(f, 8)
        for i, error in enumerate(errors[2:], 3):  # from i = deg f onwards the error is 1/i
            assert error == pytest.approx(1.0 / i, abs=1e-10)

    def test_square_overflowing_above_deg_f_reports(self):
        # h_130 is finite but h_130^2 overflows from some degree above 1,
        # which the report does not read; its error is 1/130 up to the
        # rounding of sqrt(1/130)^2
        h, errors = coefficientwise_report(X, 130)
        assert len(errors) == 130 and h.degree == 130
        assert errors[-1] == pytest.approx(1 / 130, rel=1e-15)

    def test_square_overflowing_up_to_deg_f_is_an_error(self):
        # h_1 = g_0 + g_1 X with g_1 near 3.5e199, so the X^2 coefficient of
        # h_1^2 overflows, and deg f = 2 puts it in the report
        f = Polynomial(1, {(0,): 1.0, (1,): 1e200, (2,): 1.0})
        with pytest.raises(ValueError, match=r"coefficient inf at \(2,\) is not finite"):
            coefficientwise_report(f, 1)

    def test_every_row_holds_sqrt_square_approx(self):
        f = Polynomial(2, {(0, 0): 0.5, (1, 1): 1.0, (3, 0): -5.0})
        h, errors = coefficientwise_report(f, 6)
        assert list(h.terms.items()) == list(sqrt_square_approx(f, 6).terms.items())
        region = list(iter_simplex(2, f.degree))
        for i, error in enumerate(errors, 1):
            h_i = sqrt_square_approx(f, i)
            square = poly_mul(h_i, h_i)
            assert error == max(abs(square.coefficient(a) - f.coefficient(a)) for a in region)

    @settings(max_examples=150, deadline=None)
    @given(report_polynomials(), st.integers(1, 12))
    @example(Polynomial(1, {(1,): 1.0, (4,): 1.0}), 3)  # deg f > i_max: every h_i runs to i
    def test_report_is_the_per_i_loop(self, f, i_max):
        got = report_outcome(coefficientwise_report, f, i_max)
        assert got == report_outcome(reference_report, f, i_max)

    @pytest.mark.parametrize("i_max", [130, 200])
    def test_report_of_x_is_the_per_i_loop(self, i_max):
        # i = 130: errors down to 1/130; i = 200: h_200 overflows, and the
        # message names the same coefficient
        got = report_outcome(coefficientwise_report, X, i_max)
        assert got == report_outcome(reference_report, X, i_max)
        assert isinstance(got, str) == (i_max == 200)

    def test_degree_100_report_is_small(self):
        # the stacked rows below h_100 stop at deg f = 4, so the report needs
        # a few MB (numpy reports its buffers to tracemalloc)
        terms = {(0, 0): 1.0, (1, 0): 0.5, (0, 1): -0.3, (2, 0): 1.2, (1, 1): -0.7,
                 (0, 2): 0.9, (3, 0): 0.2, (2, 2): 1.1, (1, 3): -0.4, (4, 0): 0.6}
        tracemalloc.start()
        try:
            h, errors = coefficientwise_report(Polynomial(2, terms), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert h.degree == 100 and len(errors) == 100
        for i, error in enumerate(errors[3:], 4):
            assert abs(error - 1.0 / i) <= 1e-10

    def test_large_reports_leave_no_plans_behind(self):
        # reports to i = 100 and then i = 200 of a bivariate quartic held 15.3 MB
        # afterwards in cached square-root plans and rank tables sized by i;
        # plans that large are built for their call alone
        terms = {(0, 0): 0.905, (0, 1): 0.909, (0, 2): -0.549, (0, 3): -0.231, (0, 4): 0.067,
                 (1, 0): -0.596, (1, 1): -0.573, (1, 2): 0.088, (1, 3): 0.38, (2, 0): -0.668,
                 (2, 1): -0.138, (2, 2): 0.601, (3, 0): 0.446, (3, 1): -0.456, (4, 0): 0.495}
        f = Polynomial(2, terms)
        gc.collect()
        tracemalloc.start()
        try:
            for i_max in (100, 200):
                coefficientwise_report(f, i_max)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 4e6

    def test_degree_5000_report_holds_rows_to_deg_f(self):
        # h_1, ..., h_4999 of a 1-D quadratic are stored only to degree 2, so
        # the report holds about 5000 * 3 floats besides h_5000 (the full
        # 5000 x 5001 stack took about 1.2 GB)
        f = Polynomial(1, {(0,): 1.0, (1,): 0.5, (2,): -0.3})
        tracemalloc.start()
        try:
            h, errors = coefficientwise_report(f, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert list(h.terms.items()) == list(sqrt_square_approx(f, 5000).terms.items())
        assert len(errors) == 5000
        assert errors[-1] == pytest.approx(1.0 / 5000, abs=1e-12)


def cauchy_sqrt(f, degree, number, sqrt):
    # The Cauchy square, the baseline for Miller's recurrence:
    # h_a = (f_a - s_1 - ... - s_{d-1}) * (1 / (2 h_0)), |a| = d, with s_j the
    # sum of h_c h_{a-c} over |c| = j, c <= a, from 0 in graded-lex order of c;
    # in float, or in Decimal under the caller's context.
    coef = {a: number(v) for a, v in f.terms.items()}
    h = {}
    for a in iter_simplex(f.n, degree):
        d = sum(a)
        if d == 0:
            h[a] = sqrt(coef.get(a, number(0)))
            inv = 1 / (2 * h[a])
            continue
        sums = [number(0)] * d
        for c in itertools.product(*(range(x + 1) for x in a)):  # lex: graded-lex per |c|
            if 0 < sum(c) < d:
                sums[sum(c)] += h[c] * h[tuple(y - x for x, y in zip(c, a))]
        value = coef.get(a, number(0))
        for part in sums[1:]:
            value -= part
        h[a] = value * inv
    return h


def exact_errors(f, i_max):
    # max |coef(h_i^2, a) - f_a| over |a| <= deg f for i = 1..i_max, in 50 digits
    region = list(iter_simplex(f.n, max(f.degree, 0)))
    out = []
    for i in range(1, i_max + 1):
        shifted = poly_add(f, Polynomial.constant(f.n, 1.0 / i))
        h = cauchy_sqrt(shifted, min(i, max(f.degree, 0)), decimal.Decimal, decimal.Decimal.sqrt)
        gaps = []
        for a in region:
            pairs = itertools.product(*(range(x + 1) for x in a))
            square = sum(h.get(b, 0) * h.get(tuple(y - x for x, y in zip(b, a)), 0) for b in pairs)
            gaps.append(abs(square - decimal.Decimal(f.coefficient(a))))
        out.append(max(gaps))
    return out


def cauchy_errors(f, i_max):
    # the report's error column from the float Cauchy square: the same truncated
    # square of each h_i, formed to min(i, deg f)
    region = max(f.degree, 0)
    size = simplex_size(f.n, region)
    stack = np.zeros((i_max, size))
    for i in range(1, i_max + 1):
        shifted = poly_add(f, Polynomial.constant(f.n, 1.0 / i))
        h = list(cauchy_sqrt(shifted, min(i, region), float, math.sqrt).values())
        stack[i - 1, : len(h)] = h
    squares = truncated_square(stack, f.n, region)
    return np.max(np.abs(squares - dense_coefficients(f, region)), axis=1).tolist()


def relative_errors(values, exact):
    return [float(abs(decimal.Decimal(x) - e) / abs(e)) for x, e in zip(values, exact) if e != 0]


class TestSqrtAccuracy:
    def test_miller_is_at_least_as_close_as_cauchy(self):
        # 30 seeded draws, 10 each of n = 1, 2, 3 with dense coefficients in
        # [-1, 1] and f(0) in [0.5, 1.5], against the Cauchy square in 50
        # digits.  h is h_{i_max}.  The error column differs only in rows i <
        # deg f and there at the rounding of the error itself (in six 30-draw
        # pools the median was lower in three and higher in three, by at most
        # 7%), so its median is held to 1.1 times the Cauchy one.
        h_new, h_old, e_new, e_old = [], [], [], []
        with decimal.localcontext() as context:
            context.prec = 50
            for seed in range(30):
                rng = np.random.default_rng(seed)
                n, degree, i_max = [(1, 6, 30), (2, 4, 20), (3, 3, 12)][seed % 3]
                terms = {a: float(rng.uniform(-1, 1)) for a in iter_simplex(n, degree)}
                terms[(0,) * n] = float(rng.uniform(0.5, 1.5))
                f = Polynomial(n, terms)
                shifted = poly_add(f, Polynomial.constant(n, 1.0 / i_max))
                exact = cauchy_sqrt(shifted, i_max, decimal.Decimal, decimal.Decimal.sqrt)
                old = cauchy_sqrt(shifted, i_max, float, math.sqrt)
                h, errors = coefficientwise_report(f, i_max)
                new = dense_coefficients(h, i_max).tolist()
                h_new += relative_errors(new, exact.values())
                h_old += relative_errors(old.values(), exact.values())
                exact_column = exact_errors(f, i_max)
                e_new += relative_errors(errors, exact_column)
                e_old += relative_errors(cauchy_errors(f, i_max), exact_column)
        assert statistics.median(h_new) <= statistics.median(h_old)
        assert max(h_new) <= max(h_old)
        assert statistics.median(e_new) <= 1.1 * statistics.median(e_old)
        assert max(e_new) <= max(e_old)


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

    def test_square_sum_zero_without_certificate(self):
        cert = sos_certify(ONE_MINUS_XSQ, 1, max_iters=400)
        assert not cert.success
        assert cert.square_sum == Polynomial.zero(1)

    def test_square_sum_is_sum_of_factor_squares(self):
        f = Polynomial(2, {(0, 0): 1.0, (2, 0): 1.0, (1, 1): 0.5, (0, 2): 1.0})
        cert = sos_certify(f, 1)
        assert cert.success
        assert dict(cert.square_sum.terms) == dict(sparse_square_sum(2, cert.factors).terms)

    def test_degree_capacity_check(self):
        with pytest.raises(ValueError):
            sos_certify(Polynomial.monomial((4,)), 1)

    def test_factors_reproduce_certified_polynomial(self, rng):
        # a square plus a margin of basis squares: an interior Gram matrix exists
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


def dual_refutes(f: Polynomial, d: int, cert) -> bool:
    """Check a refutation with numpy alone: the dual, indexed by the monomials
    of degree <= 2d, has a positive definite moment matrix over the basis and
    a negative value at f."""
    rank = {alpha: k for k, alpha in enumerate(iter_simplex(f.n, 2 * d))}
    ell = cert.dual
    moment = np.array(
        [[ell[rank[tuple(a + b for a, b in zip(u, v))]] for v in cert.basis] for u in cert.basis]
    ).reshape(len(cert.basis), len(cert.basis))
    value = math.fsum(c * ell[rank[alpha]] for alpha, c in f.terms.items())
    positive = len(cert.basis) == 0 or np.linalg.eigvalsh(moment)[0] > 0.0
    return bool(positive and value < 0.0)


C19 = Polynomial(2, {(6, 0): 1.0, (3, 1): -2.0, (0, 2): 1.0})  # (X1^3 - X2)^2
QUARTIC = Polynomial(
    2, {(0, 0): 1.0, (2, 0): -0.5, (0, 2): -0.5, (4, 0): 1.0, (0, 4): 1.0, (2, 2): 0.3}
)


class TestGramSearch:
    def test_empty_interior_square_pruned_to_its_factor(self):
        cert = sos_certify(C19, 3, max_iters=200)
        assert cert.success and cert.stop == "converged"
        assert cert.basis == ((0, 1), (3, 0))
        assert cert.residual <= 1e-12

    def test_quartic_certifies(self):
        cert = sos_certify(QUARTIC, 3)
        assert cert.success and cert.stop == "converged"
        assert cert.residual <= 1e-8
        assert cert.dual is None

    @pytest.mark.parametrize("depth", [2, 3, 4, 5, 6])
    def test_below_floor_candidate_refuted_with_checked_dual(self, depth):
        f = poly_add(ONE_MINUS_XSQ, poly_scale(square_perturbation(1, depth), 0.1))
        cert = sos_certify(f, depth)
        assert cert.stop == "refuted" and not cert.success
        assert cert.iterations <= 1000
        assert cert.factors == ()
        assert not cert.dual.flags.writeable
        assert dual_refutes(f, depth, cert)

    def test_pruning_refutes_negative_lonely_diagonal(self):
        # X pairs only with itself to make X^2, so G_XX = -1 < 0
        cert = sos_certify(ONE_MINUS_XSQ, 1)
        assert cert.stop == "refuted" and cert.iterations == 0
        assert dual_refutes(ONE_MINUS_XSQ, 1, cert)

    def test_pruning_refutes_unreachable_coefficient(self):
        # 1, X1 and X2 all drop (zero diagonal coefficients), and nothing is left for X1 X2
        f = Polynomial(2, {(1, 1): 1.0})
        cert = sos_certify(f, 1)
        assert cert.stop == "refuted" and cert.basis == ()
        assert dual_refutes(f, 1, cert)

    def test_zero_polynomial_is_the_empty_sum(self):
        cert = sos_certify(Polynomial.zero(2), 2)
        assert cert.success and cert.basis == () and cert.factors == ()
        assert cert.residual == 0.0

    def test_cap_without_answer(self):
        f = poly_add(ONE_MINUS_XSQ, poly_scale(square_perturbation(1, 6), 0.1))
        cert = sos_certify(f, 6, max_iters=5)
        assert cert.stop == "cap" and not cert.success
        assert cert.iterations == 5 and cert.dual is None


POLYS = st.integers(1, 2).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            st.sampled_from(list(iter_simplex(n, 2))),
            st.integers(-3, 3).map(float),
            min_size=1,
            max_size=5,
        ),
    )
)


class TestGramSearchProperties:
    @settings(max_examples=40, deadline=None)
    @given(POLYS, st.sampled_from(["square", "raw"]))
    def test_stop_matches_success_and_refutations_check(self, drawn, kind):
        n, terms = drawn
        g = Polynomial(n, terms)
        f = poly_mul(g, g) if kind == "square" else poly_mul(g, Polynomial.variable(n, 0))
        d = max((f.degree + 1) // 2, 0)
        cert = sos_certify(f, d, max_iters=300)
        assert (cert.stop == "converged") == cert.success
        assert cert.stop in ("converged", "refuted", "cap")
        if cert.stop == "refuted":
            assert dual_refutes(f, d, cert)
        else:
            assert cert.dual is None
        if kind == "square":
            assert cert.stop != "refuted"

    @settings(max_examples=40, deadline=None)
    @given(POLYS, st.integers(0, 2))
    def test_square_sum_is_the_sparse_sum_term_for_term(self, drawn, extra):
        # a square plus a margin of basis squares certifies; the dense sum of
        # truncated squares must round every coefficient as poly_mul/poly_add do
        n, terms = drawn
        g = Polynomial(n, terms)
        margin = Polynomial(n, {tuple(2 * a for a in alpha): 0.1 for alpha in terms})
        cert = sos_certify(poly_add(poly_mul(g, g), margin), 2 + extra, max_iters=300)
        assume(cert.success)
        expected = sparse_square_sum(n, cert.factors)
        assert list(cert.square_sum.terms.items()) == list(expected.terms.items())

    @settings(max_examples=40, deadline=None)
    @given(POLYS)
    def test_pruning_keeps_support_of_generating_factor(self, drawn):
        n, terms = drawn
        g = Polynomial(n, terms)
        margin = Polynomial(n, {tuple(2 * a for a in alpha): 0.1 for alpha in terms})
        cert = sos_certify(poly_add(poly_mul(g, g), margin), 2, max_iters=300)
        assert set(g.terms) <= set(cert.basis)


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
                    {
                        (0, 0): 1.0, (2, 0): -0.5, (0, 2): -0.5,
                        (4, 0): 1.0, (0, 4): 1.0, (2, 2): 0.3,
                    },
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

    def test_off_grid_dip_found_by_subdivision(self):
        # negative only within 0.00316 of (0.0157, 0), which no point of the
        # 33 x 33 grid (spacing 0.0625) hits.  The bracket closes to 1e-9, so
        # the witness lies within sqrt(1e-9) of the minimizer.
        f = Polynomial(
            2, {(0, 0): 0.0157**2 - 1e-5, (1, 0): -2 * 0.0157, (2, 0): 1.0, (0, 2): 1.0}
        )
        grid = np.linspace(-1.0, 1.0, 33)
        assert min(poly_eval(f, (x, y)) for x in grid for y in grid) > 0.0
        hit = screen_box_nonnegativity(f, SQUARE)
        assert hit is not None
        assert math.dist(hit[0], (0.0157, 0.0)) <= math.sqrt(1e-9) + 1e-12
        assert hit[1] == pytest.approx(-1e-5, abs=1e-9)

    # The 1-D screen takes the box ends and the roots of f'.  pytest turns
    # every warning into a failure, so these also check that np.roots stays
    # quiet on degenerate derivatives.
    def test_off_grid_dip_found_in_one_dimension(self):
        f = Polynomial(1, {(0,): 0.0157**2 - 1e-5, (1,): -2 * 0.0157, (2,): 1.0})
        assert min(poly_eval(f, (x,)) for x in np.linspace(-1.0, 1.0, 33)) > 0.0
        point, value = screen_box_nonnegativity(f, UNIT_BOX)
        assert point[0] == pytest.approx(0.0157, abs=1e-12)
        assert value == pytest.approx(-1e-5, rel=1e-9)

    @pytest.mark.parametrize(
        "terms, hit",
        [
            ({}, None),
            ({(0,): 1.0}, None),
            ({(0,): -1.0}, -1.0),
            ({(0,): 1.5, (1,): 2.0}, -0.5),
            ({(0,): 1.5, (1,): -2.0}, -0.5),
        ],
        ids=["zero", "positive constant", "negative constant", "rising line", "falling line"],
    )
    def test_derivative_without_roots(self, terms, hit):
        found = screen_box_nonnegativity(Polynomial(1, terms), UNIT_BOX)
        if hit is None:
            assert found is None
        else:
            point, value = found
            assert value == hit
            assert abs(point[0]) == 1.0

    def test_derivative_top_coefficient_underflows_to_zero(self):
        # on [-1e-3, 1e-3] the X^8 term of f'(c u) is 8e-310 * 1e-24 == 0.0
        assert 8 * 1e-310 * 1e-3**8 == 0.0
        f = Polynomial(1, {(0,): -1e-7, (2,): 1.0, (8,): 1e-310})
        point, value = screen_box_nonnegativity(f, BoxSpec((-1e-3,), (1e-3,)))
        assert point == (0.0,)
        assert value == -1e-7

    def test_derivative_top_coefficient_subnormal(self):
        # kept, 5e-324 would overflow the companion matrix of np.roots
        f = Polynomial(1, {(0,): -0.5, (1,): 0.25, (2,): 1.0, (8,): 5e-324})
        point, value = screen_box_nonnegativity(f, UNIT_BOX)
        assert point[0] == pytest.approx(-0.125, abs=1e-12)
        assert value == pytest.approx(-0.515625, abs=1e-15)

    def test_fourth_power_touches_zero(self):
        coefs = np.poly([0.2] * 4)[::-1]  # (x - 0.2)^4, lowest degree first
        f = Polynomial(1, {(k,): float(c) for k, c in enumerate(coefs)})
        assert screen_box_nonnegativity(f, UNIT_BOX) is None
        dipped = poly_add(f, Polynomial(1, {(0,): -1e-8}))
        point, value = screen_box_nonnegativity(dipped, UNIT_BOX)
        assert point[0] == pytest.approx(0.2, abs=1e-4)
        assert value == pytest.approx(-1e-8, rel=1e-6)

    def test_shallow_dip_at_double_root(self):
        f = Polynomial(1, {(0,): 0.09 - 2e-9, (1,): -0.6, (2,): 1.0})  # (x - 0.3)^2 - 2e-9
        point, value = screen_box_nonnegativity(f, UNIT_BOX)
        assert point[0] == pytest.approx(0.3, abs=1e-12)
        assert value == poly_eval(f, point)
        assert value == pytest.approx(-2e-9, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=9),
        st.floats(0.1, 3.0),
    )
    def test_one_dimension_matches_dense_minimum(self, coefs, c):
        f = Polynomial(1, {(k,): a for k, a in enumerate(coefs)})
        xs = np.linspace(-c, c, 20001)
        dense = float(np.min(np.polyval(coefs[::-1], xs)))
        scale = sum(abs(a) * c**k for k, a in enumerate(coefs))
        hit = screen_box_nonnegativity(f, BoxSpec((-c,), (c,)))
        if hit is None:
            assert dense >= -1e-9 - 1e-12 * scale
        else:
            assert -c <= hit[0][0] <= c
            assert hit[1] <= dense + 1e-12 * scale

    @pytest.mark.parametrize("pairing", [0, 1, 2])
    def test_separable_matches_sum_of_one_dimensional_minima(self, pairing):
        # x^2 - 0.3x has its minimum -0.0225 at 0.15 on [-1, 1], and y^4 - 2y^2
        # has -1 at +-1 on [-1.5, 1.5]; the bracket splits axis 0 first, so the
        # pairings put each factor on each axis
        parts = [((1, -0.3), (2, 1.0), 1.0), ((2, -2.0), (4, 1.0), 1.5)]
        first, second = [(0, 1), (1, 0), (1, 1)][pairing]
        minima = []
        for part in (parts[first], parts[second]):
            g = Polynomial(1, dict(((k,), c) for k, c in part[:2]))
            minima.append(screen_box_nonnegativity(g, BoxSpec((-part[2],), (part[2],)))[1])
        assert minima == pytest.approx([(-0.0225, -1.0)[i] for i in (first, second)], abs=1e-15)
        terms = {(k, 0): c for k, c in parts[first][:2]}
        terms.update({(0, k): c for k, c in parts[second][:2]})
        box = BoxSpec.from_halfwidths((parts[first][2], parts[second][2]))
        point, value = screen_box_nonnegativity(Polynomial(2, terms), box)
        assert box.contains(point)
        assert sum(minima) <= value <= sum(minima) + 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_quartic_and_bowl_in_higher_dimensions(self, n):
        box = BoxSpec((-1.0,) * n, (1.0,) * n)
        axes = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        quartic = Polynomial(n, {(0,) * n: 0.1, **{tuple(4 * a for a in e): 1.0 for e in axes}})
        assert screen_box_nonnegativity(quartic, box) is None
        bowl = Polynomial(n, {(0,) * n: 0.5, **{tuple(2 * a for a in e): -1.0 for e in axes}})
        point, value = screen_box_nonnegativity(bowl, box)
        assert value == pytest.approx(0.5 - n, abs=1e-9)
        assert all(abs(x) == 1.0 for x in point)

    def test_witness_in_box_with_exact_value(self):
        f = Polynomial(2, {(0, 0): 0.2, (1, 1): -3.0, (3, 0): 1.0, (0, 4): -0.5})
        box = BoxSpec((-0.5, -1.5), (0.5, 1.5))
        point, value = screen_box_nonnegativity(f, box)
        assert all(lo <= x <= hi for x, lo, hi in zip(point, box.lower, box.upper))
        assert value == poly_eval(f, point)

    def test_same_input_same_result(self):
        f = Polynomial(2, {(0, 0): 0.1, (2, 0): -1.0, (1, 2): 0.7, (0, 3): 1.0})
        box = BoxSpec((-1.0, -0.5), (1.0, 0.5))
        first = screen_box_nonnegativity(f, box)
        assert first is not None
        assert screen_box_nonnegativity(f, box) == first
        assert bracket_box_minimum(f, box) == bracket_box_minimum(f, box)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            screen_box_nonnegativity(ONE_MINUS_XSQ, SQUARE)


def small_polynomials(n: int):
    """Polynomials in n variables with up to 6 terms of degree <= 4 per axis."""
    exponent = st.tuples(*[st.integers(0, 4)] * n)
    return st.dictionaries(exponent, st.floats(-2.0, 2.0), max_size=6).map(
        lambda terms: Polynomial(n, terms)
    )


def reference_bracket(f, box, threshold=math.inf):
    # bracket_box_minimum with its per-axis tables formed on every call and
    # its axes moved by np.moveaxis: the reference for every output.
    n, half = f.n, np.array(box.upper)
    degrees = f.exponents.max(axis=0, initial=0)
    sizes = (degrees + 1).tolist()
    if math.prod(sizes) + sum(size * size for size in sizes) > approx_module._SCREEN_BUDGET:
        point, upper = approx_module._polish(f, np.zeros(n), half)
        return -math.inf, upper, point, 0, "budget"
    coefs = np.zeros(degrees + 1)
    coefs[tuple(f.exponents.T)] = f.coefs
    halving = []
    for i, d in enumerate(map(int, degrees)):
        x = np.arange(d, -1, -1, dtype=object)
        columns = [np.ones(d + 1, dtype=object), d - 2 * x]
        for k in range(1, d):
            columns.append(((d - 2 * x) * columns[k] - (d - k + 1) * columns[k - 1]) // (k + 1))
        to_bernstein = np.array([col / math.comb(d, k) for k, col in enumerate(columns[: d + 1])])
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = to_bernstein.T.astype(float) * half[i] ** np.arange(d + 1)
            coefs = np.moveaxis(np.tensordot(scaled, coefs, axes=(1, i)), 0, i)
        left = np.array([[math.comb(j, k) / 2**j for k in range(d + 1)] for j in range(d + 1)])
        halving.append(np.vstack([left, left[::-1, ::-1]]))
    if not np.isfinite(coefs).all():
        raise ValueError("coefficients too large for the box screen")
    bits = np.indices((2,) * n).reshape(n, -1).T
    corner_at = np.ravel_multi_index(tuple((bits * degrees).T), coefs.shape)
    stack, lows, width = coefs[None], np.zeros((1, n)), np.ones(n)
    entries, best, best_t, lower = coefs.size, math.inf, None, math.inf
    axes, unit = itertools.cycle(np.flatnonzero(degrees).tolist()), np.eye(n)
    while True:
        flat = stack.reshape(len(stack), -1)
        bounds, corners = flat.min(axis=1), flat[:, corner_at]
        k = int(np.argmin(corners))
        if corners.flat[k] < best:
            best = float(corners.flat[k])
            best_t = lows[k // len(bits)] + bits[k % len(bits)] * width
        keep = bounds < min(threshold, best - approx_module._SCREEN_TOL)
        kept = int(np.count_nonzero(keep))
        if not kept or entries + 2 * kept * coefs.size > approx_module._SCREEN_BUDGET:
            lower = min(lower, float(bounds.min()))
            break
        lower = min(lower, float(bounds[~keep].min(initial=math.inf)))
        stack, lows = stack[keep], lows[keep]
        axis = next(axes)
        d = int(degrees[axis])
        halves = np.moveaxis(stack, axis + 1, -1) @ halving[axis].T
        halves = np.concatenate([halves[..., : d + 1], halves[..., d + 1:]])
        stack = np.moveaxis(halves, -1, axis + 1)
        width[axis] /= 2.0
        lows = np.concatenate([lows, lows + unit[axis] * width[axis]])
        entries += stack.size
    if kept:
        values = stack[keep]
        for i, d in enumerate(map(int, degrees)):
            t, k = np.arange(d + 1)[:, None] / max(d, 1), np.arange(d + 1)
            binomials = np.array([math.comb(d, j) for j in range(d + 1)], dtype=float)
            at_greville = binomials * t**k * (1.0 - t) ** (d - k)
            values = np.moveaxis(np.moveaxis(values, i + 1, -1) @ at_greville.T, -1, i + 1)
        k = int(np.argmin(values))
        if values.flat[k] < best:
            box_at, j = divmod(k, coefs.size)
            index = np.array(np.unravel_index(j, coefs.shape))
            best_t = lows[keep][box_at] + index / np.maximum(degrees, 1) * width
        point, upper = approx_module._polish(f, half * (2.0 * best_t - 1.0), half)
        return min(lower, upper), upper, point, entries, "budget"
    point = tuple(float(v) for v in half * (2.0 * best_t - 1.0))
    upper = poly_eval(f, point)
    return min(lower, upper), upper, point, entries, "closed"


class TestBracketBoxMinimum:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        small_polynomials(n), st.lists(st.floats(0.25, 2.0), min_size=n, max_size=n))))
    def test_bracket_holds_the_box_minimum(self, case):
        f, halfwidths = case
        box = BoxSpec.from_halfwidths(halfwidths)
        lower, upper, point, entries, stop = bracket_box_minimum(f, box)
        axes = [np.linspace(-c, c, 41 if f.n < 3 else 13) for c in halfwidths]
        grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        grid_min = float((monomial_values(grid, f.exponents) @ f.coefs).min())
        scale = sum(abs(c) * math.prod(halfwidths) ** 4 for c in f.coefs.tolist())
        assert lower <= grid_min + 1e-13 * max(scale, 1.0)
        assert lower <= upper
        assert box.contains(point)
        assert upper == poly_eval(f, point)
        assert entries <= approx_module._SCREEN_BUDGET
        if stop != "budget":  # closed: 1e-9 wide, up to the round-off of upper's evaluation
            assert stop == "closed"
            assert upper - lower <= 1e-9 + 1e-13 * max(scale, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        small_polynomials(n), st.lists(st.floats(0.25, 2.0), min_size=n, max_size=n))),
        st.sampled_from([math.inf, -1e-9]))
    def test_bracket_is_the_reference_loop(self, case, threshold):
        f, halfwidths = case
        box = BoxSpec.from_halfwidths(halfwidths)
        got = bracket_box_minimum(f, box, threshold)
        assert got == reference_bracket(f, box, threshold)

    @pytest.mark.parametrize("threshold", [math.inf, -1e-9])
    @pytest.mark.parametrize("f", [
        # minimum -0.065 at (-0.256, -0.002), inside the box: some 1800 coefficients
        Polynomial(2, {(0, 0): 0.0333, (2, 0): 1.5, (0, 2): 0.9, (1, 0): 0.768, (1, 1): 0.3,
                       (0, 1): 0.08}),
        Polynomial(2, {(6, 0): 1.0, (3, 1): -2.0, (0, 2): 1.0}),  # a budget stop
    ])
    def test_bracket_is_the_reference_loop_on_fixed_cases(self, f, threshold):
        box = BoxSpec.from_halfwidths([1.1, 0.9])
        got = bracket_box_minimum(f, box, threshold)
        assert got == reference_bracket(f, box, threshold)
        assert got[-1] == ("budget" if f.degree == 6 else "closed")

    def test_tables_are_shared_and_read_only(self):
        # both axes of f have degree 3, so a call after the first builds nothing
        f = Polynomial(2, {(3, 0): 1.0, (0, 3): -1.0, (1, 2): 0.5})
        bracket_box_minimum(f, SQUARE)
        info = approx_module._bernstein_tables.cache_info()
        bracket_box_minimum(f, SQUARE)
        after = approx_module._bernstein_tables.cache_info()
        assert (after.hits, after.misses) == (info.hits + 2, info.misses)
        tables = approx_module._bernstein_tables(3)
        assert approx_module._bernstein_tables(3) is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0

    def test_threshold_stops_at_a_nonnegative_lower_bound(self):
        # the quartic of ROADMAP item 2 has minimum 1 - 0.25/2.3 on the square, at
        # x^2 = y^2 = 0.5/2.3: asked only whether f < -1e-9, the bracket closes
        # with lower >= -1e-9 and no width bound
        f = Polynomial(2, {(0, 0): 1.0, (2, 0): -0.5, (0, 2): -0.5,
                           (4, 0): 1.0, (0, 4): 1.0, (2, 2): 0.3})
        lower, upper, _, full_entries, stop = bracket_box_minimum(f, SQUARE)
        assert stop == "closed" and upper - lower <= 1e-9
        assert lower <= 1.0 - 0.25 / 2.3 <= upper
        lower, _, _, entries, stop = bracket_box_minimum(f, SQUARE, threshold=-1e-9)
        assert stop == "closed" and lower >= -1e-9
        assert entries < full_entries

    def test_curve_of_zeros_stops_on_the_budget(self):
        # (X1^3 - X2)^2 vanishes along y = x^3, where the coefficients of a box
        # astride the curve stay below -1e-9 until the box is very small
        f = Polynomial(2, {(6, 0): 1.0, (3, 1): -2.0, (0, 2): 1.0})
        lower, upper, _, entries, stop = bracket_box_minimum(f, SQUARE, threshold=-1e-9)
        assert stop == "budget"
        assert entries <= approx_module._SCREEN_BUDGET
        assert -1e-3 < lower < -1e-9 and upper == 0.0
        assert screen_box_nonnegativity(f, SQUARE) is None

    @pytest.mark.parametrize("n, degree", [(4, 6), (5, 4)])
    def test_budget_stop_still_finds_a_small_dip(self, n, degree):
        # sum X_i^degree - 0.01 is negative only near the origin; the budget ends
        # the subdivision while the sub-boxes left still reach the faces
        # x_{n-1} = +-1, so the dip is found at a Greville point of a sub-box
        axes = [tuple(degree * (j == i) for j in range(n)) for i in range(n)]
        f = Polynomial(n, {(0,) * n: -0.01, **{e: 1.0 for e in axes}})
        box = BoxSpec((-1.0,) * n, (1.0,) * n)
        lower, upper, point, entries, stop = bracket_box_minimum(f, box, threshold=-1e-9)
        assert stop == "budget" and entries <= approx_module._SCREEN_BUDGET
        assert lower <= -0.01 and upper == pytest.approx(-0.01, abs=1e-12)
        assert screen_box_nonnegativity(f, box) == (point, upper)

    def test_polish_finds_an_off_grid_dip_after_a_budget_stop(self):
        # the minimum -0.005 at (0.3, -0.1, 0.2, 0.05, -0.25) is on no Greville
        # point: exact minimisation along each axis in turn reaches it
        centre = (0.3, -0.1, 0.2, 0.05, -0.25)
        terms = {(0,) * 5: sum(a**2 for a in centre) - 0.005}
        for i, a in enumerate(centre):
            terms[tuple(2 * (j == i) for j in range(5))] = 1.0
            terms[tuple(int(j == i) for j in range(5))] = -2.0 * a
        f = Polynomial(5, terms)
        box = BoxSpec((-1.0,) * 5, (1.0,) * 5)
        _, upper, point, _, stop = bracket_box_minimum(f, box, threshold=-1e-9)
        assert stop == "budget"
        assert upper == pytest.approx(-0.005, abs=1e-12)
        assert point == pytest.approx(centre, abs=1e-6)

    def test_greville_start_for_a_coupled_quartic(self):
        # a 4-D quartic with coupled terms, min about -0.02496 near
        # (0.288, -0.603, 0.160, 0.672): the budget stops the subdivision with
        # every corner positive, and the polish from the best corner stalls at
        # a positive point, but the best Greville point lies in the dip
        f = Polynomial(4, {
            (0, 0, 0, 0): 0.15, (0, 0, 0, 1): 0.14, (0, 1, 0, 1): 0.94, (0, 1, 0, 2): 0.89,
            (0, 2, 1, 2): -0.59, (1, 2, 0, 1): -0.51, (1, 0, 2, 0): 0.85, (4, 0, 0, 0): 1.08,
            (0, 4, 0, 0): 1.37, (0, 0, 4, 0): 1.12, (0, 0, 0, 4): 1.03,
        })
        box = BoxSpec((-1.0,) * 4, (1.0,) * 4)
        _, upper, point, _, stop = bracket_box_minimum(f, box, threshold=-1e-9)
        assert stop == "budget"
        assert upper == pytest.approx(-0.024958843, abs=1e-8)
        assert point == pytest.approx((0.2876, -0.6032, 0.1603, 0.6715), abs=1e-3)

    def test_too_many_coefficients_form_none(self):
        # 11^8 coefficients would take 1.7 GB: none is formed, and the polish
        # starts from the centre
        n = 8
        axes = [tuple(10 * (j == i) for j in range(n)) for i in range(n)]
        box = BoxSpec((-1.0,) * n, (1.0,) * n)
        shifted = {(0,) * n: -0.01, **{e: 1.0 for e in axes}, (1,) + (0,) * (n - 1): 0.5}
        lower, upper, point, entries, stop = bracket_box_minimum(Polynomial(n, shifted), box)
        assert (lower, entries, stop) == (-math.inf, 0, "budget")
        assert box.contains(point) and upper < -0.01
        bowl = Polynomial(n, {(0,) * n: 1.0, **{e: 1.0 for e in axes}})
        assert screen_box_nonnegativity(bowl, box) is None

    def test_boxes_are_symmetric(self):
        # the bracket reads box.upper as the half-widths
        with pytest.raises(ValueError, match="symmetric"):
            BoxSpec((0.0, 0.0), (1.0, 1.0))

    def test_overflowing_coefficients_raise(self):
        f = Polynomial(2, {(0, 0): 1.0, (4, 0): -1.0, (0, 1): 1.0})
        with pytest.raises(ValueError, match="too large for the box screen"):
            bracket_box_minimum(f, BoxSpec.from_halfwidths((1e100, 1.0)))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            bracket_box_minimum(ONE_MINUS_XSQ, SQUARE)


class TestBoxSosApprox:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        small_polynomials(n), st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))),
        st.floats(0.0, 2.0))
    @example((Polynomial(2, {(0, 1): 2.2250738585e-313}), [1.0, 1.0]), 0.0)
    def test_candidate_is_the_sparse_sum(self, case, eps):
        # each depth's candidate is f_unit + eps * theta_D as poly_add forms it,
        # term for term and bit for bit, and so is the certified distance
        f, halfwidths = case
        w = WeightSpec(2, halfwidths)
        f_unit = axis_scale(f, box_from_weight(w).upper)
        seen = []

        def record(candidate, d, **kwargs):
            seen.append(candidate)
            return sos_certify(candidate, d, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(approx_module, "sos_certify", record)
            res = box_sos_approx(f, w, eps, 3, max_iters=200)
        for depth, candidate in enumerate(seen, 2):
            expected = poly_add(f_unit, poly_scale(square_perturbation(f.n, depth), eps))
            assert candidate == expected
        if res.success:
            gap = poly_sub(f_unit, res.certificate.square_sum)
            assert res.distance == weighted_norm(gap, WeightSpec(2, (1.0,) * f.n))

    def test_subnormal_unreached_coefficient_is_refuted(self):
        # no Gram entry reaches X2; the refutation runs on f scaled by a power
        # of two, so the multiple of the culprit's indicator stays finite
        f = Polynomial(2, {(0, 1): 2.2250738585e-313})
        res = box_sos_approx(f, WeightSpec(2, (1.0, 1.0)), 0.0, 3)
        assert res.reason == "inconclusive" and res.certificate.stop == "refuted"
        assert res.certificate.dual @ dense_coefficients(f, 6) < 0.0

    def test_candidate_overflow_names_its_coefficient(self):
        f = Polynomial(1, {(0,): 1e308, (2,): 1.0})
        with pytest.raises(ValueError, match=r"^coefficient inf at \(0,\) is not finite$"):
            box_sos_approx(f, WeightSpec(2, (1.0,)), 1e308, 3)

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
            # distance is the weighted norm of the unit-box gap mapped back to the box
            halfwidths = box_from_weight(w).upper
            unit_gap = poly_sub(axis_scale(f, halfwidths), res.certificate.square_sum)
            gap = axis_scale(unit_gap, tuple(1.0 / c for c in halfwidths))
            assert abs(res.distance - weighted_norm(gap, w)) <= 1e-9 * max(1.0, res.distance)
            # distance is the weighted gap recomputed from the returned factors
            total = Polynomial.zero(1)
            for h in res.factors:
                total = poly_add(total, poly_mul(h, h))
            direct = weighted_norm(poly_sub(f, total), w)
            assert res.distance == pytest.approx(direct, rel=1e-12)

    def test_distance_from_certificate_square_sum(self):
        f = Polynomial(1, {(0,): 1.0, (2,): -0.25})
        w = WeightSpec(2, (4.0,))
        res = box_sos_approx(f, w, 0.5, 2)
        assert res.success
        f_unit = axis_scale(f, box_from_weight(w).upper)
        gap = poly_sub(f_unit, res.certificate.square_sum)
        assert res.distance == weighted_norm(gap, WeightSpec(w.p, (1.0,)))

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
