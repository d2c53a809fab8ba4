import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcone import (
    AtomicMeasure,
    MomentSequence,
    Polynomial,
    WeightSpec,
    apply_functional,
    check_quadratic_module,
    dual_norm_of_moments,
    dual_norm_profile,
    increments_growing,
    is_psd_functional,
    iter_simplex,
    localized_moment_matrix,
    min_eigenvalue,
    moment_matrix,
    moments_from_dict,
    moments_of_measure,
    moments_to_dict,
    poly_eval,
    poly_mul,
    simplex_size,
    weighted_norm,
)
from momentcone.polyring import grlex_rank, simplex_index
from momentcone.approx import _psd_project
from conftest import random_sparse_poly

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def lebesgue_moments(max_degree: int) -> MomentSequence:
    # integral of x^k over [-1, 1] via the antiderivative x^(k+1)/(k+1)
    values = []
    for k in range(max_degree + 1):
        upper = 1.0 ** (k + 1) / (k + 1)
        lower = (-1.0) ** (k + 1) / (k + 1)
        values.append(upper - lower)
    return MomentSequence(1, max_degree, values)


def delta_moments(point, max_degree: int) -> MomentSequence:
    return moments_of_measure(AtomicMeasure((tuple(point),), (1.0,)), max_degree)


INDEFINITE = MomentSequence(1, 2, [1.0, 0.0, -1.0])


class TestMomentSequence:
    def test_full_simplex_required(self):
        with pytest.raises(ValueError, match="got 2 of 3"):
            MomentSequence(1, 2, [1.0, 1.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match=r"at \(1,\) is not finite"):
            MomentSequence(1, 2, [1.0, value, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.data())
    def test_finite_values_accepted(self, n, d, data):
        size = simplex_size(n, d)
        values = data.draw(st.lists(FINITE, min_size=size, max_size=size))
        s = MomentSequence(n, d, values)
        assert s.vector.tolist() == values

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.data(), NON_FINITE)
    def test_one_non_finite_value_rejected(self, n, d, data, bad):
        size = simplex_size(n, d)
        values = data.draw(st.lists(FINITE, min_size=size, max_size=size))
        at = data.draw(st.integers(0, size - 1))
        values[at] = bad
        alpha = list(iter_simplex(n, d))[at]
        with pytest.raises(ValueError, match=re.escape(f"at {alpha} is not finite")):
            MomentSequence(n, d, values)

    def test_vector_built_once_and_read_only(self):
        s = MomentSequence(2, 1, [1.0, 2.0, 3.0])
        assert s.vector is s.vector
        assert s.vector.tolist() == [1.0, 2.0, 3.0]
        assert not s.vector.flags.writeable
        with pytest.raises(ValueError):
            s.vector[0] = 5.0

    def test_constructor_copies_its_input(self):
        values = [1.0, 2.0, 3.0]
        array = np.array(values)
        from_list = MomentSequence(2, 1, values)
        from_array = MomentSequence(2, 1, array)
        values[0] = 7.0
        array[0] = 7.0
        assert from_list.vector.tolist() == [1.0, 2.0, 3.0]
        assert from_array.vector.tolist() == [1.0, 2.0, 3.0]

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="flat vector"):
            MomentSequence(2, 1, [[1.0], [2.0], [3.0]])

    def test_out_of_range_index_rejected(self):
        data = {"n": 1, "max_degree": 1, "values": [{"exp": [0], "s": 1.0}, {"exp": [2], "s": 1.0}]}
        with pytest.raises(ValueError, match=r"exponent \[2\] is outside"):
            moments_from_dict(data)

    def test_size_checked_before_the_simplex_is_built(self):
        # C(80, 40), about 1.1e23 exponents: building that index would never return
        data = {"n": 40, "max_degree": 40, "values": [{"exp": [0] * 40, "s": 1.0}]}
        with pytest.raises(ValueError, match="got 1 of"):
            moments_from_dict(data)

    def test_json_round_trip(self):
        s = lebesgue_moments(4)
        again = moments_from_dict(moments_to_dict(s))
        assert (again.n, again.max_degree) == (s.n, s.max_degree)
        assert again.vector.tolist() == s.vector.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 4), st.data())
    def test_entries_in_any_order_read_in_graded_lex_order(self, n, d, data):
        basis = list(iter_simplex(n, d))
        values = data.draw(st.lists(FINITE, min_size=len(basis), max_size=len(basis)))
        entries = [{"exp": list(a), "s": v} for a, v in zip(basis, values)]
        shuffled = data.draw(st.permutations(entries))
        s = moments_from_dict({"n": n, "max_degree": d, "values": shuffled})
        assert s.vector.tolist() == values
        assert moments_to_dict(s) == {"n": n, "max_degree": d, "values": entries}

    @pytest.mark.parametrize(
        "exponents, message",
        [
            ([[0], [1], [1]], "duplicate exponent [1]"),
            ([[0], [2.0], [3]], "exponent [3] is outside the simplex |alpha| <= 2"),
            ([[0], [True], [2]], "exponent True is not an integer"),
            ([[0], [1], [-1]], "exponent [-1] is outside the simplex |alpha| <= 2"),
            ([[0], [1], [0, 2]], "exponent [0, 2] is outside the simplex |alpha| <= 2"),
            # too large for an int64 array, and named as the integer it is
            ([[0], [1e300], [2]], f"exponent [{int(1e300)}] is outside the simplex |alpha| <= 2"),
            ([[0], [3], [3]], "exponent [3] is outside the simplex |alpha| <= 2"),
        ],
        ids=["duplicate", "float-then-hole", "boolean", "negative", "wrong-length", "huge-float",
             "outside-before-duplicate"],
    )
    def test_bad_entries_name_the_first_bad_exponent(self, exponents, message):
        data = {"n": 1, "max_degree": 2, "values": [{"exp": e, "s": 1.0} for e in exponents]}
        with pytest.raises(ValueError) as info:
            moments_from_dict(data)
        assert str(info.value) == message

    def test_first_repeat_in_entry_order_is_named(self):
        # [1] repeats at the last entry, after [2] repeats at the third
        data = {"n": 1, "max_degree": 3, "values": [{"exp": [e], "s": 1.0} for e in (2, 1, 2, 1)]}
        with pytest.raises(ValueError) as info:
            moments_from_dict(data)
        assert str(info.value) == "duplicate exponent [2]"

    def test_integral_float_exponents_read_as_integers(self):
        entries = [{"exp": [2.0, 0], "s": 3.0}, {"exp": [0, 0], "s": 1.0},
                   {"exp": [1, 1.0], "s": 4.0}, {"exp": [0, 1], "s": 2.0},
                   {"exp": [1, 0], "s": 5.0}, {"exp": [0, 2], "s": 6.0}]
        s = moments_from_dict({"n": 2, "max_degree": 2, "values": entries})
        assert s.vector.tolist() == [1.0, 2.0, 5.0, 6.0, 4.0, 3.0]

    def test_duplicate_index_rejected(self):
        data = {
            "n": 1,
            "max_degree": 1,
            "values": [
                {"exp": [0], "s": 1.0},
                {"exp": [1], "s": 0.0},
                {"exp": [1], "s": 2.0},
            ],
        }
        with pytest.raises(ValueError):
            moments_from_dict(data)


class TestApplyFunctional:
    def test_point_mass_at_origin(self):
        s = delta_moments((0.0,), 2)
        f = Polynomial(1, {(0,): 3.0, (2,): 1.0})
        assert apply_functional(s, f) == 3.0

    def test_zero_polynomial(self):
        s = delta_moments((0.0,), 2)
        assert apply_functional(s, Polynomial.zero(1)) == 0.0

    def test_three_atom_oracle(self, rng):
        mu = AtomicMeasure(((0.3, -0.2), (-0.5, 0.1), (0.9, 0.7)), (0.5, 1.5, 0.25))
        s = moments_of_measure(mu, 6)
        for _ in range(20):
            f = random_sparse_poly(rng, 2, 6)
            direct = math.fsum(
                wgt * poly_eval(f, atom) for atom, wgt in zip(mu.atoms, mu.weights)
            )
            assert apply_functional(s, f) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_degree_overflow(self):
        s = delta_moments((0.0,), 2)
        with pytest.raises(ValueError):
            apply_functional(s, Polynomial.monomial((3,)))


class TestMomentMatrix:
    def test_hand_entries(self):
        s = MomentSequence(1, 2, [1.0, 0.0, 1.0])
        m = moment_matrix(s, 1)
        assert np.allclose(m, [[1.0, 0.0], [0.0, 1.0]])

    def test_point_mass_rank_one(self):
        m = moment_matrix(delta_moments((0.0,), 4), 2)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.allclose(m, expected)

    def test_lebesgue_entries(self):
        m = moment_matrix(lebesgue_moments(2), 1)
        assert np.allclose(m, [[2.0, 0.0], [0.0, 2.0 / 3.0]])

    def test_insufficient_moments(self):
        with pytest.raises(ValueError):
            moment_matrix(lebesgue_moments(2), 2)

    def test_entries_read_only(self):
        m = moment_matrix(lebesgue_moments(2), 1)
        assert isinstance(m, np.ndarray)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 5.0

    def test_serialization_stable(self):
        one = moment_matrix(lebesgue_moments(6), 3)
        two = moment_matrix(lebesgue_moments(6), 3)
        assert one.tobytes() == two.tobytes()


class TestLocalizedMomentMatrix:
    def test_unit_generator_reduces_to_moment_matrix(self):
        s = lebesgue_moments(4)
        base = moment_matrix(s, 2)
        local = localized_moment_matrix(s, Polynomial.constant(1, 1.0), 2)
        assert np.allclose(base, local)

    def test_lebesgue_hand_values(self):
        g = Polynomial(1, {(0,): 1.0, (2,): -1.0})
        local = localized_moment_matrix(lebesgue_moments(4), g, 1)
        assert np.allclose(local, [[4.0 / 3.0, 0.0], [0.0, 4.0 / 15.0]])

    def test_negated_generator(self):
        s = lebesgue_moments(4)
        base = moment_matrix(s, 1)
        local = localized_moment_matrix(s, Polynomial.constant(1, -1.0), 1)
        assert np.allclose(local, -base)

    def test_matches_direct_fsum_build(self, rng):
        mu = AtomicMeasure(((0.4, -0.2), (-0.7, 0.9), (0.1, 0.3)), (1.0, 0.5, 2.0))
        s = moments_of_measure(mu, 7)
        for _ in range(10):
            g = random_sparse_poly(rng, 2, 3)
            local = localized_moment_matrix(s, g, 2)
            basis = list(iter_simplex(2, 2))
            basis7 = list(iter_simplex(2, 7))
            direct = np.array(
                [
                    [
                        math.fsum(
                            c * s.vector[basis7.index(tuple(map(sum, zip(a, b, gamma))))]
                            for gamma, c in g.terms.items()
                        )
                        for b in basis
                    ]
                    for a in basis
                ]
            )
            scale = float(np.max(np.abs(direct)))
            assert np.max(np.abs(local - direct)) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_bit_equal_to_per_term_rank_loop(self, n, d, g_degree, seed):
        # the reference ranks the m x m x n exponent table of each term of g and
        # adds coef * s[table] term by term in g's stored order
        rng = np.random.default_rng(seed)
        g = random_sparse_poly(rng, n, g_degree)
        s = MomentSequence(n, 2 * d + g_degree, rng.normal(size=simplex_size(n, 2 * d + g_degree)))
        e = simplex_index(n, d)
        reference = np.zeros((len(e), len(e)))
        for gamma, coef in zip(g.exponents, g.coefs.tolist()):
            reference += coef * s.vector[grlex_rank(e[:, None] + e[None] + gamma)]
        assert np.array_equal(localized_moment_matrix(s, g, d), reference)
        one = Polynomial.constant(n, 1.0)
        assert np.array_equal(moment_matrix(s, d), localized_moment_matrix(s, one, d))

    def test_read_only_array(self):
        g = Polynomial(1, {(0,): 1.0, (2,): -1.0})
        local = localized_moment_matrix(lebesgue_moments(4), g, 1)
        assert isinstance(local, np.ndarray)
        assert not local.flags.writeable

    def test_insufficient_moments_for_generator(self):
        g = Polynomial(1, {(0,): 1.0, (2,): -1.0})
        with pytest.raises(ValueError):
            localized_moment_matrix(lebesgue_moments(4), g, 2)


class TestMinEigenvalue:
    def test_identity(self):
        s = MomentSequence(1, 2, [1.0, 0.0, 1.0])
        assert min_eigenvalue(moment_matrix(s, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_diagonal(self):
        assert min_eigenvalue(moment_matrix(INDEFINITE, 1)) == pytest.approx(-1.0, abs=1e-12)

    def test_gram_matrices_nonnegative(self, rng):
        # the PSD projection leaves a Gram matrix where it is
        for _ in range(30):
            size = int(rng.integers(1, 10))
            a = rng.standard_normal((size, size))
            gram = a.T @ a
            scale = max(1.0, float(np.linalg.norm(gram)))
            assert np.max(np.abs(_psd_project(gram) - gram)) <= 1e-10 * scale

    def test_psd_projection_is_psd(self, rng):
        for _ in range(30):
            size = int(rng.integers(1, 13))
            a = rng.standard_normal((size, size))
            sym = 0.5 * (a + a.T)
            out = _psd_project(sym)
            scale = max(1.0, float(np.linalg.norm(sym)))
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10 * scale


class TestPsdCertification:
    def test_atomic_measures_pass_every_level(self):
        mu = AtomicMeasure(((0.4,), (-0.8,), (0.1,)), (1.0, 0.5, 2.0))
        s = moments_of_measure(mu, 8)
        for d in range(5):
            assert is_psd_functional(s, d)

    def test_indefinite_sequence_fails(self):
        assert not is_psd_functional(INDEFINITE, 1)

    def test_point_mass_passes(self):
        assert is_psd_functional(delta_moments((0.0,), 4), 2)

    def test_quadratic_form_identity(self, rng):
        # l(h^2) equals v^T M v with v the coefficient vector of h
        mu = AtomicMeasure(((0.4, 0.2), (-0.3, 0.9)), (1.0, 0.7))
        s = moments_of_measure(mu, 8)
        mat = moment_matrix(s, 2)
        for _ in range(20):
            h = random_sparse_poly(rng, 2, 2)
            vec = np.array([h.coefficient(a) for a in iter_simplex(2, 2)])
            quad = float(vec @ mat @ vec)
            direct = apply_functional(s, poly_mul(h, h))
            assert quad == pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestQuadraticModule:
    def test_lebesgue_box_generators(self):
        g = Polynomial(1, {(0,): 1.0, (2,): -1.0})
        report = check_quadratic_module(lebesgue_moments(4), [g], 1.0, 1)
        assert report.passed
        eigs = [c.min_eigenvalue for c in report.checks]
        assert eigs == pytest.approx([2.0 / 3.0, 4.0 / 15.0, 4.0 / 15.0], rel=1e-12)

    def test_point_mass_no_generators(self):
        report = check_quadratic_module(delta_moments((0.0,), 4), [], 1.0, 1)
        assert report.passed

    def test_sign_constraint_fails_on_negative_point(self):
        s = delta_moments((-1.0,), 4)
        report = check_quadratic_module(s, [Polynomial.variable(1, 0)], 1.0, 1)
        assert not report.passed
        by_label = {c.label: c for c in report.checks}
        assert not by_label["g1"].passed
        assert by_label["g1"].min_eigenvalue < 0

    def test_atoms_respecting_generators_pass_localized(self, rng):
        g = Polynomial(1, {(0,): 1.0, (2,): -1.0})
        for _ in range(10):
            atoms = tuple((float(x),) for x in rng.uniform(-1, 1, size=3))
            wgt = tuple(float(v) for v in rng.uniform(0.1, 2.0, size=3))
            s = moments_of_measure(AtomicMeasure(atoms, wgt), 8)
            local = localized_moment_matrix(s, g, 3)
            assert min_eigenvalue(local) >= -1e-9


class TestDualNormOfMoments:
    def test_point_mass_at_origin(self):
        s = delta_moments((0.0,), 4)
        for p in ("1", "2", "inf"):
            assert dual_norm_of_moments(s, WeightSpec(p, (1.0,))) == 1.0

    def test_telescoping_weights(self):
        s = delta_moments((2.0,), 6)
        assert dual_norm_of_moments(s, WeightSpec(1, (2.0,))) == 1.0

    def test_unweighted_sup_grows(self):
        s = delta_moments((2.0,), 6)
        assert dual_norm_of_moments(s, WeightSpec(1, (1.0,))) == 2.0 ** 6

    def test_profile_flags_growth(self):
        s = delta_moments((2.0,), 6)
        flat = dual_norm_profile(s, WeightSpec(1, (2.0,)))
        rising = dual_norm_profile(s, WeightSpec(1, (1.0,)))
        assert flat == [1.0] * 7
        assert rising == [2.0 ** k for k in range(7)]
        assert not increments_growing(flat)
        assert increments_growing(rising)

    def test_underflowing_moment_against_overflowing_weight(self):
        # |1e-170|^2 underflows and (1e160)^2 overflows; the true term is 1e-20
        s = MomentSequence(1, 2, [1.0, 0.0, 1e-170])
        w = WeightSpec(2, (1e-160,))
        assert dual_norm_profile(s, w) == [1.0, 1.0, 1.0]
        assert dual_norm_of_moments(s, w) == 1.0

    def test_convergent_sum_not_flagged(self):
        s = delta_moments((0.5,), 6)
        profile = dual_norm_profile(s, WeightSpec(2, (1.0,)))
        assert not increments_growing(profile)

    def test_boundedness_pairing(self, rng):
        # |l(f)| <= ||f||_{p,r} * dual norm of the moments
        mu = AtomicMeasure(((0.5,), (-0.25,)), (1.0, 0.5))
        s = moments_of_measure(mu, 8)
        for _ in range(30):
            f = random_sparse_poly(rng, 1, 8)
            for p in ("1", "1.5", "2", "inf"):
                w = WeightSpec(p, (0.8,))
                bound = weighted_norm(f, w) * dual_norm_of_moments(s, w)
                assert abs(apply_functional(s, f)) <= bound * (1 + 1e-12) + 1e-12
