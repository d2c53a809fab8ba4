import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcone import (
    Polynomial,
    axis_scale,
    coefficientwise_report,
    iter_simplex,
    poly_add,
    poly_eval,
    poly_from_dict,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_to_dict,
    series_sqrt,
    simplex_size,
    sqrt_square_approx,
)
from momentcone.polyring import (
    dense_coefficients,
    shift_table,
    simplex_index,
    truncated_square,
)
from conftest import (
    assert_poly_close,
    coefficient_gap,
    dense_convolution,
    dense_from_poly,
    horner_eval,
    random_sparse_poly,
)

X = Polynomial.variable(1, 0)
X1 = Polynomial.variable(2, 0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
X2 = Polynomial.variable(2, 1)


def exponents_strategy(n):
    return st.tuples(*([st.integers(0, 3)] * n))


def poly_strategy(n):
    coef = st.floats(min_value=-10, max_value=10, allow_nan=False, width=64)
    return st.dictionaries(exponents_strategy(n), coef, min_size=0, max_size=6).map(
        lambda terms: Polynomial(n, terms)
    )


def grlex_key(alpha):
    # the graded-lex order as a sort key: total degree, then lex
    return (sum(alpha), alpha)


class TestSimplexOrder:
    def test_graded_lex_two_vars(self):
        assert list(iter_simplex(2, 2)) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 2),
            (1, 1),
            (2, 0),
        ]

    def test_size_formula(self):
        for n in (1, 2, 3):
            for d in range(5):
                assert len(list(iter_simplex(n, d))) == simplex_size(n, d)

    def test_simplex_index_matches_enumeration(self):
        for n in (1, 2, 3):
            for d in range(5):
                exponents = simplex_index(n, d)
                assert exponents.shape == (simplex_size(n, d), n)
                basis = list(iter_simplex(n, d))
                assert list(map(tuple, exponents.tolist())) == basis
                shifts = shift_table(n, 2 * d, 2)
                for rank_c, c in enumerate(iter_simplex(n, 2)):
                    rank = {alpha: k for k, alpha in enumerate(iter_simplex(n, 2 * d + sum(c)))}
                    expected = [
                        [rank[tuple(x + y + z for x, y, z in zip(a, b, c))] for b in basis]
                        for a in basis
                    ]
                    assert shifts[rank_c][shift_table(n, d, d)].tolist() == expected


class TestRankTables:
    def test_hankel_built_once_and_shared(self):
        assert shift_table(2, 3, 3) is shift_table(2, 3, 3)
        assert simplex_index(2, 3) is simplex_index(2, 3)

    def test_tables_read_only(self):
        for table in (simplex_index(2, 2), shift_table(2, 2, 2), shift_table(3, 4, 2)):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1

    def test_nothing_built_at_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        # every H is a shift_table, so an empty shift_table cache means no H
        # exists; one moment matrix then fills it
        code = (
            "import momentcone.cli\n"
            "from momentcone.polyring import shift_table, simplex_index\n"
            "print(shift_table.cache_info().currsize, simplex_index.cache_info().currsize)\n"
            "momentcone.cli.moment_matrix(momentcone.MomentSequence(1, 2, [1.0, 0.0, 1.0]), 1)\n"
            "print(shift_table.cache_info().currsize)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.split() == ["0", "0", "1"]


class TestAdd:
    def test_additive_inverse(self):
        assert_poly_close(poly_add(X, -X), Polynomial.zero(1))

    def test_like_term_merge(self):
        f = Polynomial(1, {(0,): 1.0, (2,): 1.0})
        g = Polynomial(1, {(2,): 1.0})
        assert_poly_close(poly_add(f, g), Polynomial(1, {(0,): 1.0, (2,): 2.0}))

    def test_termwise_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            f = random_sparse_poly(rng, n, 5)
            g = random_sparse_poly(rng, n, 5)
            h = poly_add(f, g)
            for alpha in set(f.terms) | set(g.terms):
                assert h.coefficient(alpha) == pytest.approx(
                    f.coefficient(alpha) + g.coefficient(alpha), abs=1e-14
                )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poly_add(X, X1)


class TestMul:
    def test_difference_of_squares(self):
        f = Polynomial(1, {(1,): 1.0, (0,): -1.0})
        g = Polynomial(1, {(1,): 1.0, (0,): 1.0})
        assert_poly_close(poly_mul(f, g), Polynomial(1, {(2,): 1.0, (0,): -1.0}))

    def test_absorbing_zero(self, rng):
        f = random_sparse_poly(rng, 2, 4)
        assert poly_mul(f, Polynomial.zero(2)).terms == {}

    def test_degree_additivity(self, rng):
        for _ in range(20):
            f = random_sparse_poly(rng, 2, 4)
            g = random_sparse_poly(rng, 2, 4)
            product = poly_mul(f, g)
            if product.terms:  # cancellation of the top terms is possible but rare
                assert product.degree <= f.degree + g.degree

    def test_dense_convolution_oracle(self, rng):
        for _ in range(30):
            f = random_sparse_poly(rng, 2, 4)
            g = random_sparse_poly(rng, 2, 4)
            expected = dense_convolution(dense_from_poly(f), dense_from_poly(g))
            got = poly_mul(f, g)
            for idx in np.ndindex(expected.shape):
                assert got.coefficient(idx) == pytest.approx(expected[idx], abs=1e-10)


class TestEval:
    def test_constant_term_at_origin(self):
        f = Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
        assert poly_eval(f, (0.0, 0.0)) == 1.0

    def test_single_monomial(self):
        f = Polynomial.monomial((2, 1))
        assert poly_eval(f, (2.0, 3.0)) == 12.0

    def test_horner_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            f = random_sparse_poly(rng, n, 6)
            x = rng.uniform(-2, 2, size=n)
            expected = horner_eval(dense_from_poly(f), x)
            assert poly_eval(f, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestAxisScale:
    def test_single_term(self):
        assert_poly_close(
            axis_scale(Polynomial.monomial((2,)), (4.0,)),
            Polynomial(1, {(2,): 16.0}),
        )

    def test_inverse_round_trip(self, rng):
        for _ in range(20):
            f = random_sparse_poly(rng, 2, 5)
            c = tuple(rng.uniform(0.3, 3.0, size=2))
            back = axis_scale(axis_scale(f, c), tuple(1.0 / v for v in c))
            assert coefficient_gap(back, f) <= 1e-10

    def test_evaluation_oracle(self, rng):
        for _ in range(30):
            f = random_sparse_poly(rng, 2, 5)
            c = rng.uniform(0.3, 3.0, size=2)
            x = rng.uniform(-1.5, 1.5, size=2)
            lhs = poly_eval(axis_scale(f, tuple(c)), x)
            rhs = poly_eval(f, tuple(ci * xi for ci, xi in zip(c, x)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_overflowing_axis_brought_back_by_another(self):
        # the running product (1e200)^2 overflows, but 1e400 * 1e-400 is 1
        f = Polynomial(2, {(2, 2): 1.0, (1, 0): -3.0, (2, 3): -2.0})
        scaled = axis_scale(f, (1e200, 1e-200))
        assert scaled.coefficient((2, 2)) == pytest.approx(1.0, rel=1e-12)
        assert scaled.coefficient((2, 3)) == pytest.approx(-2e-200, rel=1e-12)
        assert scaled.coefficient((1, 0)) == -3e200
        with pytest.raises(ValueError, match=r"coefficient inf at \(2, 0\) is not finite"):
            axis_scale(Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0}), (1e200, 1e-200))

    def test_finite_running_products_unchanged(self, rng):
        # every coefficient the running product of c ** a_i keeps finite is that product
        for _ in range(20):
            f = random_sparse_poly(rng, 3, 6)
            c = tuple(10.0 ** rng.uniform(-40, 40, size=3))
            for alpha, coef in axis_scale(f, c).terms.items():
                assert coef == f.terms[alpha] * math.prod(v**a for v, a in zip(c, alpha) if a)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            axis_scale(X, (0.0,))
        with pytest.raises(ValueError):
            axis_scale(X, (-1.0,))


class TestSeriesSqrt:
    def test_binomial_series_oracle(self):
        # sqrt(1 + u) coefficients: c_0 = 1, c_k = c_{k-1} * (1/2 - k + 1) / k
        coeffs = [1.0]
        for k in range(1, 6):
            coeffs.append(coeffs[-1] * (0.5 - k + 1) / k)
        f = Polynomial(1, {(0,): 1.0, (1,): 1.0})
        g = series_sqrt(f, 5)
        for k in range(6):
            assert g.coefficient((k,)) == pytest.approx(coeffs[k], abs=1e-14)
        assert g.coefficient((2,)) == pytest.approx(-0.125)

    def test_constant_case(self):
        g = series_sqrt(Polynomial.constant(2, 9.0), 4)
        assert_poly_close(g, Polynomial.constant(2, 3.0))

    def test_rejects_nonpositive_constant_term(self):
        with pytest.raises(ValueError):
            series_sqrt(X, 3)
        with pytest.raises(ValueError):
            series_sqrt(Polynomial.constant(1, -2.0), 3)

    def test_square_consistency(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            f = random_sparse_poly(rng, n, 3, coef_range=1.0)
            f = poly_add(f, Polynomial.constant(n, float(rng.uniform(0.5, 2.0)) - f.constant_term))
            depth = int(rng.integers(1, 6))
            g = series_sqrt(f, depth)
            gap = poly_sub(poly_mul(g, g), f)
            for alpha in iter_simplex(n, depth):
                assert abs(gap.coefficient(alpha)) <= 1e-10


def sparse_series_sqrt(f, max_degree):
    # The sparse recurrence series_sqrt ran before its dense form: the
    # reference for the rounding of every coefficient.
    g0 = math.sqrt(f.constant_term)
    components = [Polynomial.constant(f.n, g0)]
    inv = 1.0 / (2.0 * g0)
    for d in range(1, max_degree + 1):
        acc = Polynomial(f.n, {a: v for a, v in f.terms.items() if sum(a) == d})
        for j in range(1, d):
            acc = poly_sub(acc, poly_mul(components[j], components[d - j]))
        components.append(poly_scale(acc, inv))
    total = Polynomial.zero(f.n)
    for comp in components:
        total = poly_add(total, comp)
    return total


@st.composite
def low_degree_poly(draw, constant):
    # n in {1, 2, 3}, degree <= 4, the constant term drawn from `constant`
    n = draw(st.integers(1, 3))
    coef = st.floats(min_value=-10, max_value=10, allow_nan=False)
    terms = draw(st.dictionaries(st.sampled_from(list(iter_simplex(n, 4))[1:]), coef, max_size=8))
    terms[(0,) * n] = draw(constant)
    return Polynomial(n, terms)


class TestDenseRounding:
    @settings(max_examples=150, deadline=None)
    @given(low_degree_poly(st.floats(min_value=0.0, max_value=10.0, exclude_min=True)),
           st.integers(0, 8))
    def test_series_sqrt_matches_sparse_recurrence(self, f, depth):
        try:
            expected = sparse_series_sqrt(f, depth)
        except ValueError:  # an overflow: the dense form rejects it too
            with pytest.raises(ValueError, match="not finite"):
                series_sqrt(f, depth)
            return
        assert list(series_sqrt(f, depth).terms.items()) == list(expected.terms.items())

    @settings(max_examples=100, deadline=None)
    @given(low_degree_poly(st.floats(min_value=0.0, max_value=10.0)), st.integers(1, 8))
    def test_report_error_is_the_sparse_square_gap(self, f, i_max):
        region = list(iter_simplex(f.n, max(f.degree, 0)))
        h, errors = coefficientwise_report(f, i_max)
        assert list(h.terms.items()) == list(sqrt_square_approx(f, i_max).terms.items())
        for i, error in enumerate(errors, 1):
            h_i = sqrt_square_approx(f, i)
            square = poly_mul(h_i, h_i)
            assert error == max(abs(square.coefficient(a) - f.coefficient(a)) for a in region)

    @settings(max_examples=100, deadline=None)
    @given(low_degree_poly(st.floats(min_value=-10, max_value=10)), st.integers(0, 8))
    def test_truncated_square_matches_poly_mul(self, h, degree):
        vector = dense_coefficients(h, 4)
        got = truncated_square(vector, h.n, degree)
        square = poly_mul(h, h)
        assert got.tolist() == [square.coefficient(a) for a in iter_simplex(h.n, degree)]
        # a stack is squared row by row, bit for bit
        stacked = truncated_square(np.stack([vector, -3.0 * vector]), h.n, degree)
        negated = truncated_square(-3.0 * vector, h.n, degree)
        assert stacked.tolist() == [got.tolist(), negated.tolist()]

    def test_overflow_names_a_coefficient(self):
        with pytest.raises(ValueError, match=r"at \(\d+,\) is not finite"):
            series_sqrt(Polynomial(1, {(0,): 1.0 / 200, (1,): 1.0}), 200)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
    def test_mul_associative_and_distributive(self, f, g, h):
        left = poly_mul(poly_mul(f, g), h)
        right = poly_mul(f, poly_mul(g, h))
        scale = max(
            (abs(c) for c in list(left.terms.values()) + list(right.terms.values())),
            default=1.0,
        )
        assert coefficient_gap(left, right) <= 1e-12 * max(scale, 1.0)

        dist_left = poly_mul(f, poly_add(g, h))
        dist_right = poly_add(poly_mul(f, g), poly_mul(f, h))
        scale2 = max((abs(c) for c in dist_right.terms.values()), default=1.0)
        assert coefficient_gap(dist_left, dist_right) <= 1e-12 * max(scale2, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(2), poly_strategy(2))
    def test_commutativity(self, f, g):
        assert coefficient_gap(poly_mul(f, g), poly_mul(g, f)) <= 1e-12
        assert coefficient_gap(poly_add(f, g), poly_add(g, f)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(2), poly_strategy(2))
    def test_axis_scale_is_ring_homomorphism(self, f, g):
        c = (1.7, 0.6)
        lhs = axis_scale(poly_mul(f, g), c)
        rhs = poly_mul(axis_scale(f, c), axis_scale(g, c))
        scale = max((abs(v) for v in lhs.terms.values()), default=1.0)
        assert coefficient_gap(lhs, rhs) <= 1e-12 * max(scale, 1.0)


class TestCanonicalForm:
    def test_no_stored_zeros(self):
        f = Polynomial(1, {(0,): 0.0, (1,): 2.0})
        assert (0,) not in f.terms

    def test_tiny_coefficients_survive_large_ones(self):
        f = Polynomial(1, {(0,): 1e-20, (1,): 1e20})
        assert f.coefficient((0,)) == 1e-20

    def test_zero_degree_convention(self):
        assert Polynomial.zero(3).degree == -1

    def test_terms_iterate_in_graded_lex_order(self):
        f = Polynomial(2, {(2, 0): 1, (0, 0): 1, (1, 1): 1, (0, 1): 1})
        assert list(f.terms) == [(0, 0), (0, 1), (1, 1), (2, 0)]

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(2), poly_strategy(2))
    def test_arithmetic_keeps_graded_lex_order(self, f, g):
        for h in (f, g, poly_add(f, g), poly_sub(f, g), poly_mul(f, g)):
            assert list(h.terms) == sorted(h.terms, key=grlex_key)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(exponents_strategy(2), FINITE, max_size=6))
    def test_finite_coefficients_accepted(self, terms):
        f = Polynomial(2, terms)
        assert dict(f.terms) == {a: c for a, c in terms.items() if c != 0.0}

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(exponents_strategy(2), FINITE, max_size=6),
        exponents_strategy(2),
        NON_FINITE,
    )
    def test_non_finite_coefficient_rejected(self, terms, alpha, bad):
        with pytest.raises(ValueError, match="not finite"):
            Polynomial(2, {**terms, alpha: bad})


class TestJsonFormat:
    def test_round_trip(self, rng):
        f = random_sparse_poly(rng, 2, 4)
        assert poly_from_dict(poly_to_dict(f)) == f

    def test_duplicate_exponent_rejected(self):
        data = {"n": 1, "terms": [{"exp": [1], "coef": 1.0}, {"exp": [1], "coef": 2.0}]}
        with pytest.raises(ValueError):
            poly_from_dict(data)

    def test_terms_serialized_in_graded_lex_order(self):
        f = Polynomial(2, {(2, 0): 1.0, (0, 0): 1.0, (0, 1): 1.0})
        exps = [tuple(t["exp"]) for t in poly_to_dict(f)["terms"]]
        assert exps == [(0, 0), (0, 1), (2, 0)]


# The dict loops the arithmetic ran before it moved to arrays: the reference
# for every coefficient's value and rounding, and for the order of the terms.
def dict_canonical(terms):
    kept = [(alpha, coef) for alpha, coef in terms.items() if coef != 0.0]
    return dict(sorted(kept, key=lambda item: grlex_key(item[0])))


def dict_combine(f, g, op):
    merged = dict(f)
    for alpha, coef in g.items():
        merged[alpha] = op(merged.get(alpha, 0.0), coef)
    return dict_canonical(merged)


def dict_mul(f, g):
    acc = {}
    for alpha, ca in f.items():
        for beta, cb in g.items():
            key = tuple(a + b for a, b in zip(alpha, beta))
            acc[key] = acc.get(key, 0.0) + ca * cb
    return dict_canonical(acc)


def dict_eval(f, xs):
    contributions = []
    for alpha, coef in f.items():
        mono = 1.0
        for xi, a in zip(xs, alpha):
            if a:
                mono *= xi**a
        contributions.append(coef * mono)
    return math.fsum(contributions)


def assert_ops_match_dict_loops(n, f_terms, g_terms, c, scales, x):
    # the constructor and every operation equal their dict loops term for term,
    # in order and bit for bit
    f, g = Polynomial(n, f_terms), Polynomial(n, g_terms)
    fd, gd = dict_canonical(f_terms), dict_canonical(g_terms)
    expected = [
        (f, fd),
        (g, gd),
        (poly_add(f, g), dict_combine(fd, gd, operator.add)),
        (poly_sub(f, g), dict_combine(fd, gd, operator.sub)),
        (poly_mul(f, g), dict_mul(fd, gd)),
        (poly_scale(f, c), dict_canonical({a: c * v for a, v in fd.items()})),
        (axis_scale(f, scales), dict_canonical(
            {a: v * math.prod(s**e for s, e in zip(scales, a) if e) for a, v in fd.items()})),
    ]
    for got, want in expected:
        assert list(got.terms.items()) == list(want.items())
    assert poly_eval(f, x) == dict_eval(fd, x)


@st.composite
def dict_pairs(draw):
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 4)] * n)
    coef = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    f, g = (draw(st.dictionaries(exponent, coef, max_size=12)) for _ in range(2))
    scales = tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    x = tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    return n, f, g, draw(coef), scales, x


class TestArraysMatchDictLoops:
    @settings(max_examples=300, deadline=None)
    @given(dict_pairs())
    def test_operations_match_dict_loops(self, case):
        assert_ops_match_dict_loops(*case)

    def test_exponent_beyond_the_grlex_rank_range(self):
        # grlex_rank wraps around in int64 at X1^(10**10); the rows are sorted without it
        big = 10**10
        f_terms = {(big, 0): 1.5, (0, 1): 2.0, (1, 0): -3.0}
        g_terms = {(0, big): 0.5, (big, 0): 0.25, (0, 0): 1.0}
        f, g = Polynomial(2, f_terms), Polynomial(2, g_terms)
        assert list(f.terms) == [(0, 1), (1, 0), (big, 0)]
        assert f.degree == big
        assert list(poly_mul(f, g).terms)[-3:] == [(big + 1, 0), (big, big), (2 * big, 0)]
        assert_ops_match_dict_loops(2, f_terms, g_terms, -0.75, (1.0, 0.5), (-1.0, 0.5))


class TestArrayForm:
    def test_arrays_are_read_only_and_graded_lex(self):
        f = Polynomial(2, {(2, 0): 1.0, (0, 0): 3.0, (0, 1): 0.0})
        assert f.exponents.tolist() == [[0, 0], [2, 0]] and f.coefs.tolist() == [3.0, 1.0]
        assert f.exponents.dtype == np.int64 and f.exponents.shape == (2, 2)
        assert not f.exponents.flags.writeable and not f.coefs.flags.writeable
        with pytest.raises(TypeError):
            f.terms[(0, 0)] = 2.0

    def test_pair_rows_are_summed_in_input_order_and_sorted(self):
        rows = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
        f = Polynomial(2, (rows, [0.1, 2.0, 0.2, -2.0]))
        assert f.terms == {(1, 0): 0.1 + 0.2}
        assert Polynomial(1, (np.zeros((0, 1), dtype=np.int64), [])) == Polynomial.zero(1)
        with pytest.raises(ValueError, match=r"2 exponent rows, coefficients of shape \(1,\)"):
            Polynomial(1, ([[1], [2]], [1.0]))

    def test_equality_compares_the_arrays_and_hash_is_unsupported(self):
        assert poly_sub(X, X) == Polynomial.zero(1)
        assert Polynomial(1, {(1,): 1.0}) == X != Polynomial(2, {(1, 0): 1.0})
        assert X != 2.0 * X and X != "X"
        with pytest.raises(TypeError):
            hash(X)

    def test_integral_float_exponent_reads_as_integer(self):
        assert Polynomial(1, {(2.0,): 1.0}) == Polynomial(1, {(2,): 1.0})

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ((2.5,), "exponent 2.5 is not an integer"),
            ((True,), "exponent True is not an integer"),
            ((10**30,), f"exponent ({10**30},) does not fit in int64"),
        ],
        ids=["fractional", "boolean", "beyond-int64"],
    )
    def test_exponent_that_is_no_int64_integer_rejected(self, alpha, message):
        with pytest.raises(ValueError) as info:
            Polynomial(1, {alpha: 1.0})
        assert str(info.value).startswith(message)

    def test_total_degree_beyond_int64_rejected(self):
        assert Polynomial(2, {(2**62, 0): 1.0}).degree == 2**62
        with pytest.raises(ValueError, match="does not fit in int64"):
            Polynomial(2, {(2**62, 2**62): 1.0})
        with pytest.raises(ValueError, match="product does not fit in int64"):
            poly_mul(Polynomial(1, {(2**62,): 1.0}), Polynomial(1, {(2**62,): 1.0}))


class TestJsonErrors:
    @pytest.mark.parametrize(
        "terms, message",
        [
            ([{"exp": [2.5], "coef": 1.0}], "exponent 2.5 is not an integer"),
            ([{"exp": [2], "coef": 1.0}, {"exp": [2.0], "coef": 1.0}], "duplicate exponent [2]"),
            ([{"exp": [1, 0], "coef": 1.0}, {"exp": [2], "coef": 1.0}],
             "exponent (2,) has length 1, expected 2"),
            ([{"exp": [-2], "coef": 1.0}], "negative exponent in (-2,)"),
            ([{"exp": [1], "coef": 1.0}, {"exp": [2], "coef": math.nan}],
             "coefficient nan at (2,) is not finite"),
        ],
        ids=["fractional", "duplicate", "wrong-length", "negative", "not-finite"],
    )
    def test_first_bad_entry_is_named(self, terms, message):
        n = len(terms[0]["exp"])
        with pytest.raises(ValueError) as info:
            poly_from_dict({"n": n, "terms": terms})
        assert str(info.value) == message

    def test_entries_in_any_order(self):
        data = {"n": 1, "terms": [{"exp": [3], "coef": 1.0}, {"exp": [0], "coef": 2.0}]}
        assert poly_from_dict(data) == Polynomial(1, {(0,): 2.0, (3,): 1.0})
