import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentcone import (
    Polynomial,
    WeightSpec,
    axis_scale,
    box_from_weight,
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
from conftest import random_sparse_poly

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

    def test_square_overflowing_above_deg_f_reports(self):
        # h_130 is finite but h_130^2 overflows from some degree above 1,
        # which the report does not read; its error is 1/130 up to the
        # rounding of sqrt(1/130)^2
        rows = coefficientwise_report(X, 130)
        assert len(rows) == 130
        assert rows[-1][1] == pytest.approx(1 / 130, rel=1e-15)

    def test_square_overflowing_up_to_deg_f_is_an_error(self):
        # h_1 = g_0 + g_1 X with g_1 near 3.5e199, so the X^2 coefficient of
        # h_1^2 overflows, and deg f = 2 puts it in the report
        f = Polynomial(1, {(0,): 1.0, (1,): 1e200, (2,): 1.0})
        with pytest.raises(ValueError, match=r"coefficient inf at \(2,\) is not finite"):
            coefficientwise_report(f, 1)

    def test_every_row_holds_sqrt_square_approx(self):
        f = Polynomial(2, {(0, 0): 0.5, (1, 1): 1.0, (3, 0): -5.0})
        for i, (h, _) in enumerate(coefficientwise_report(f, 6), 1):
            assert list(h.terms.items()) == list(sqrt_square_approx(f, i).terms.items())


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

    def test_off_grid_dip_found_by_descent(self):
        # negative only within 0.00316 of (0.0157, 0), which no point of the
        # 33 x 33 grid (spacing 0.0625) hits
        f = Polynomial(
            2, {(0, 0): 0.0157**2 - 1e-5, (1, 0): -2 * 0.0157, (2, 0): 1.0, (0, 2): 1.0}
        )
        grid = np.linspace(-1.0, 1.0, 33)
        assert min(poly_eval(f, (x, y)) for x in grid for y in grid) > 0.0
        hit = screen_box_nonnegativity(f, SQUARE)
        assert hit is not None
        assert hit[0][0] == pytest.approx(0.0157, abs=1e-6)
        assert hit[0][1] == pytest.approx(0.0, abs=1e-6)
        assert hit[1] == pytest.approx(-1e-5, rel=1e-6)

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_separable_matches_sum_of_one_dimensional_minima(self, seed):
        # x^2 - 0.3x has its minimum -0.0225 at 0.15 and y^4 - 2y^2 has -1 at
        # +-1, none of them on the 33-point grids of [-1, 1] and [-1.5, 1.5]
        f1 = Polynomial(1, {(1,): -0.3, (2,): 1.0})
        f2 = Polynomial(1, {(2,): -2.0, (4,): 1.0})
        box1, box2 = BoxSpec((-1.0,), (1.0,)), BoxSpec((-1.5,), (1.5,))
        minima = [screen_box_nonnegativity(g, box)[1] for g, box in ((f1, box1), (f2, box2))]
        assert minima == pytest.approx([-0.0225, -1.0], abs=1e-15)
        f = Polynomial(2, {(1, 0): -0.3, (2, 0): 1.0, (0, 2): -2.0, (0, 4): 1.0})
        box = BoxSpec((-1.0, -1.5), (1.0, 1.5))
        point, value = screen_box_nonnegativity(f, box, seed=seed)
        assert value == pytest.approx(sum(minima), abs=1e-9)

    @pytest.mark.parametrize("n, per_axis", [(3, 33), (4, 13), (5, 8)])
    def test_grid_capped_at_33_cubed_points(self, n, per_axis, monkeypatch):
        # a 5-variable quartic: 33 points per axis would be 33^5 points and a
        # Vandermonde of tens of GB
        sizes, grid_points = [], approx_module.grid_points

        def recording(box, grid_m):
            sizes.append(grid_m)
            return grid_points(box, grid_m)

        monkeypatch.setattr(approx_module, "grid_points", recording)
        box = BoxSpec((-1.0,) * n, (1.0,) * n)
        axes = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        quartic = Polynomial(n, {(0,) * n: 0.1, **{tuple(4 * a for a in e): 1.0 for e in axes}})
        assert screen_box_nonnegativity(quartic, box) is None
        bowl = Polynomial(n, {(0,) * n: 0.5, **{tuple(2 * a for a in e): -1.0 for e in axes}})
        point, value = screen_box_nonnegativity(bowl, box)
        assert value == pytest.approx(0.5 - n, abs=1e-9)
        assert sizes == [per_axis, per_axis] and per_axis ** n <= 33 ** 3 < (per_axis + 1) ** n

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

    def test_unit_distance_from_certificate_square_sum(self):
        f = Polynomial(1, {(0,): 1.0, (2,): -0.25})
        w = WeightSpec(2, (4.0,))
        res = box_sos_approx(f, w, 0.5, 2)
        assert res.success
        f_unit = axis_scale(f, box_from_weight(w).upper)
        gap = poly_sub(f_unit, res.certificate.square_sum)
        assert res.unit_distance == weighted_norm(gap, WeightSpec(w.p, (1.0,)))

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
