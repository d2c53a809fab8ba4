import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from momentcone import (
    AtomicMeasure,
    BoxSpec,
    MomentSequence,
    Polynomial,
    WeightSpec,
    apply_functional,
    box_from_weight,
    dual_norm_of_moments,
    dual_norm_profile,
    is_psd_functional,
    localized_moment_matrix,
    measure_from_dict,
    measure_to_dict,
    min_eigenvalue,
    moments_of_measure,
    poly_eval,
    recover_measure,
)
from momentcone.measures import _flat_measure, _nnls, grid_points
from conftest import random_sparse_poly

UNIT_BOX = BoxSpec((-1.0,), (1.0,))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _atoms(n):
    coordinate = st.floats(allow_nan=False, allow_infinity=False)
    weight = st.floats(min_value=0.0, max_value=1e300)
    return st.lists(st.tuples(st.tuples(*[coordinate] * n), weight), min_size=1, max_size=5)


# up to five finite (atom, weight) pairs in 1-3 variables; the weights stay far
# enough from the float limit that merging duplicates cannot overflow
ATOM_PAIRS = st.integers(1, 3).flatmap(_atoms)
INDEFINITE = MomentSequence(1, 2, [1.0, 0.0, -1.0])


class TestAtomicMeasure:
    def test_duplicate_atoms_merge(self):
        mu = AtomicMeasure(((0.5,), (0.5,), (-0.5,)), (1.0, 2.0, 0.5))
        assert mu.atoms == ((-0.5,), (0.5,))
        assert mu.weights == (0.5, 3.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure(((0.0,),), (-1.0,))

    @pytest.mark.parametrize(
        "atoms, weights",
        [
            (((math.nan,),), (1.0,)),
            (((0.5, math.inf),), (1.0,)),
            (((0.5,),), (math.nan,)),
            (((0.5,),), (math.inf,)),
            (((0.5,), (0.5,)), (1e308, 1e308)),  # merged weight overflows
        ],
    )
    def test_non_finite_rejected(self, atoms, weights):
        with pytest.raises(ValueError, match="not finite"):
            AtomicMeasure(atoms, weights)

    @settings(max_examples=60, deadline=None)
    @given(ATOM_PAIRS)
    def test_finite_input_accepted(self, pairs):
        mu = AtomicMeasure(*zip(*pairs))
        assert math.fsum(mu.weights) == pytest.approx(math.fsum(w for _, w in pairs))
        assert all(math.isfinite(v) for atom in mu.atoms for v in atom)

    @settings(max_examples=60, deadline=None)
    @given(ATOM_PAIRS, st.data(), NON_FINITE)
    def test_one_non_finite_entry_rejected(self, pairs, data, bad):
        entries = [[*atom, weight] for atom, weight in pairs]
        row = data.draw(st.integers(0, len(entries) - 1))
        col = data.draw(st.integers(0, len(entries[0]) - 1))
        entries[row][col] = bad
        with pytest.raises(ValueError, match="not finite"):
            AtomicMeasure([e[:-1] for e in entries], [e[-1] for e in entries])

    def test_json_round_trip(self):
        mu = AtomicMeasure(((0.25, -1.0), (0.5, 0.5)), (1.0, 2.0))
        assert measure_from_dict(measure_to_dict(mu)) == mu


class TestMomentsOfMeasure:
    def test_point_mass_at_origin(self):
        s = moments_of_measure(AtomicMeasure(((0.0,),), (1.0,)), 4)
        assert s.vector.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_symmetric_two_point(self):
        mu = AtomicMeasure(((-1.0,), (1.0,)), (0.5, 0.5))
        s = moments_of_measure(mu, 6)
        assert s.vector.tolist() == [1.0 if k % 2 == 0 else 0.0 for k in range(7)]

    def test_functional_matches_direct_sum(self, rng):
        mu = AtomicMeasure(((0.3, 0.1), (-0.7, 0.4), (0.2, -0.9)), (1.0, 0.3, 0.7))
        s = moments_of_measure(mu, 6)
        for _ in range(20):
            f = random_sparse_poly(rng, 2, 6)
            direct = math.fsum(w * poly_eval(f, a) for a, w in zip(mu.atoms, mu.weights))
            assert apply_functional(s, f) == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestBoxFromWeight:
    def test_p1_box(self):
        box = box_from_weight(WeightSpec(1, (2.0, 3.0)))
        assert box.lower == (-2.0, -3.0)
        assert box.upper == (2.0, 3.0)

    def test_p2_takes_square_root(self):
        box = box_from_weight(WeightSpec(2, (4.0,)))
        assert box.lower == (-2.0,)
        assert box.upper == (2.0,)

    def test_sup_norm_box(self):
        box = box_from_weight(WeightSpec("inf", (1.0, 1.0, 1.0)))
        assert box.upper == (1.0, 1.0, 1.0)

    def test_contains(self):
        box = BoxSpec((-1.0, -2.0), (1.0, 2.0))
        assert box.contains((0.5, -2.0))
        assert not box.contains((0.5, -2.1))


class TestNnlsSolver:
    def test_matches_reference_active_set(self, rng):
        for _ in range(25):
            m = int(rng.integers(3, 10))
            n = int(rng.integers(2, 12))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            x, _ = _nnls(a, b)
            x_ref, res_ref = optimize.nnls(a, b)
            assert x.min() >= 0.0
            assert np.linalg.norm(a @ x - b) == pytest.approx(res_ref, rel=1e-6, abs=1e-8)

    def test_zero_rhs(self):
        x, steps = _nnls(np.eye(3), np.zeros(3))
        assert steps == 0
        assert np.all(x == 0.0)

    def test_exact_nonnegative_solution(self, rng):
        a = rng.standard_normal((8, 4))
        truth = np.abs(rng.standard_normal(4))
        x, _ = _nnls(a, a @ truth)
        assert np.linalg.norm(a @ x - a @ truth) <= 1e-8
        assert x == pytest.approx(truth, rel=1e-6, abs=1e-8)


class TestRecoverMeasure:
    def test_single_on_grid_atom(self):
        s = moments_of_measure(AtomicMeasure(((0.5,),), (1.0,)), 6)
        result = recover_measure(s, UNIT_BOX, 101)
        assert result.success
        assert result.residual <= 1e-8
        top = max(zip(result.measure.weights, result.measure.atoms))
        assert top[1][0] == pytest.approx(0.5, abs=1e-12)
        assert top[0] == pytest.approx(1.0, abs=1e-6)

    def test_indefinite_sequence_fails(self):
        result = recover_measure(INDEFINITE, UNIT_BOX, 101)
        assert not result.success
        assert result.residual >= 0.1

    def test_lebesgue_needs_at_most_seven_atoms(self):
        # 7 moments live in R^7, so a vertex solution has at most 7 atoms
        # (Caratheodory).
        s = MomentSequence(1, 6, [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(7)])
        result = recover_measure(s, UNIT_BOX, 101)
        assert result.success
        assert result.residual <= 1e-6
        assert len(result.measure.atoms) <= 7

    def test_three_grid_atoms_recovered_exactly(self):
        # the fixed recovery slot of the benchmark's recover deck: its moments
        # are flat, so the atoms come back to round-off, not by grid index
        axis = np.linspace(-1.0, 1.0, 41)
        atoms = tuple((float(axis[k]),) for k in (25, 19, 38))
        mu = AtomicMeasure(atoms, (0.523, 1.602, 1.279))
        result = recover_measure(moments_of_measure(mu, 6), UNIT_BOX, 41)
        assert result.success
        assert result.method == "flat"
        assert result.iterations == 0
        assert np.abs(np.subtract(result.measure.atoms, mu.atoms)).max() <= 1e-12
        assert result.measure.weights == pytest.approx(mu.weights, rel=1e-12)
        assert result.residual <= 1e-12

    def test_lebesgue_atoms_are_grid_points(self):
        # Lebesgue moments are not flat (rank M_3 = 4 > rank M_2 = 3): the grid
        # solve answers, with atoms taken from the grid by index
        s = MomentSequence(1, 6, [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(7)])
        result = recover_measure(s, UNIT_BOX, 41)
        assert result.success
        assert result.method == "grid"
        assert result.iterations > 0
        grid = {tuple(row) for row in grid_points(UNIT_BOX, 41).tolist()}
        assert all(atom in grid for atom in result.measure.atoms)

    def test_round_trip_on_grid(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            grid_m = 31 if n == 1 else 11
            box = BoxSpec.from_halfwidths(tuple(rng.uniform(0.5, 2.0, size=n)))
            axes = [np.linspace(lo, hi, grid_m) for lo, hi in zip(box.lower, box.upper)]
            count = int(rng.integers(1, 6))
            atoms = tuple(
                tuple(float(ax[rng.integers(0, grid_m)]) for ax in axes)
                for _ in range(count)
            )
            weights = tuple(float(v) for v in rng.uniform(0.1, 2.0, size=count))
            mu = AtomicMeasure(atoms, weights)
            s = moments_of_measure(mu, 6)
            result = recover_measure(s, box, grid_m)
            assert result.success, (n, atoms, result.residual)
            assert result.residual <= 1e-6
            assert all(w >= 0.0 for w in result.measure.weights)
            assert all(box.contains(p) for p in result.measure.atoms)

    def test_recovered_weights_never_negative(self):
        result = recover_measure(INDEFINITE, UNIT_BOX, 51)
        assert all(w >= 0.0 for w in result.measure.weights)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            recover_measure(INDEFINITE, UNIT_BOX, 1)

    def test_residual_is_distance_to_moments_of_returned_measure(self):
        # an off-grid atom: the kept support cannot match s exactly
        s = moments_of_measure(AtomicMeasure(((0.503,), (-0.7,)), (1.0, 0.5)), 6)
        result = recover_measure(s, UNIT_BOX, 101)
        assert result.residual > 0.0
        recovered = moments_of_measure(result.measure, s.max_degree).vector
        assert result.residual == np.linalg.norm(recovered - s.vector)

    def test_residual_without_atoms_is_norm_of_moments(self):
        s = MomentSequence(1, 2, [-1.0, 0.0, -1.0])
        result = recover_measure(s, UNIT_BOX, 11)
        assert result.measure.atoms == ()
        assert result.residual == np.linalg.norm(s.vector)

    def test_result_without_atoms_checked_by_verify_representation(self):
        # moments_of_measure cannot take a measure without atoms; the residual
        # recover_measure reports is ||s||_2 and fails the tolerance
        s = MomentSequence(1, 2, [-1.0, 0.0, -1.0])
        result = recover_measure(s, UNIT_BOX, 41)
        assert result.measure.atoms == ()
        assert result.residual == math.sqrt(2.0)
        assert not result.success


@st.composite
def separated_measures(draw):
    """An r-atomic measure whose moments of degree 2d are flat: r <= d atoms
    in 1-D or 2-D (three atoms in 2-D at d = 2 can be collinear, and then
    rank M_1 = 2 < 3 = rank M_2), on distinct cells of a 0.2 lattice strictly
    inside the box, each moved by at most 0.05 (halfwidth units)."""
    n = draw(st.integers(1, 2))
    d = draw(st.integers(2, 3))
    r = draw(st.integers(1, d))
    cells = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=r, max_size=r,
                          unique=True))
    shifts = draw(st.lists(st.tuples(*[st.floats(-0.05, 0.05)] * n), min_size=r, max_size=r))
    halfwidths = draw(st.tuples(*[st.floats(0.5, 2.0)] * n))
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=r, max_size=r))
    atoms = tuple(
        tuple((0.2 * k + e) * c for k, e, c in zip(cell, shift, halfwidths))
        for cell, shift in zip(cells, shifts)
    )
    return AtomicMeasure(atoms, tuple(weights)), BoxSpec.from_halfwidths(halfwidths), 2 * d


class TestFlatRecovery:
    @settings(max_examples=150, deadline=None)
    @given(separated_measures())
    def test_separated_atoms_recovered(self, case):
        mu, box, degree = case
        s = moments_of_measure(mu, degree)
        result = recover_measure(s, box, 11)
        assert result.method == "flat" and result.success
        assert len(result.measure.atoms) == len(mu.atoms)
        for atom, weight in zip(mu.atoms, mu.weights):
            gaps = np.abs(np.subtract(result.measure.atoms, atom)).max(axis=1)
            k = int(np.argmin(gaps))
            assert gaps[k] <= 1e-9
            assert abs(result.measure.weights[k] - weight) <= 1e-9 * weight
        assert recover_measure(s, box, 11) == result

    @pytest.mark.parametrize(
        "halfwidths, atoms",
        [
            ((1.0,), ((-1.0,), (1.0,))),
            ((1.7,), ((-1.7,), (0.3,), (1.7,))),
            ((0.8, 1.3), ((-0.8, -1.3), (0.8, 1.3), (0.8, -1.3))),
            ((1.5, 0.6), ((1.5, 0.2), (-0.5, -0.6))),
        ],
    )
    def test_atoms_on_box_faces_stay_in_box(self, halfwidths, atoms):
        box = BoxSpec.from_halfwidths(halfwidths)
        mu = AtomicMeasure(atoms, tuple(0.5 + k for k in range(len(atoms))))
        result = recover_measure(moments_of_measure(mu, 6), box, 21)
        assert result.method == "flat" and result.success
        assert all(box.contains(p) for p in result.measure.atoms)
        gap = np.abs(np.subtract(result.measure.atoms, mu.atoms)) / np.array(halfwidths)
        assert gap.max() <= 1e-12

    def test_point_mass_outside_box_falls_through_to_grid(self):
        # flat with one atom at 2, outside [-1, 1]: the grid answers, and fails
        s = moments_of_measure(AtomicMeasure(((2.0,),), (0.8,)), 6)
        result = recover_measure(s, UNIT_BOX, 41)
        assert result.method == "grid"
        assert not result.success
        assert all(UNIT_BOX.contains(p) for p in result.measure.atoms)

    def test_off_grid_atoms_in_two_variables(self):
        # atoms off the grid of 21 points per axis, and on the faces of [-1.5, 1.5]^2
        atoms = ((0.5, -0.25), (1.0, 1.0), (-1.0, 0.5))
        mu = AtomicMeasure(atoms, (0.7, 1.3, 0.4))
        s = moments_of_measure(mu, 4)
        result = recover_measure(s, BoxSpec.from_halfwidths((1.5, 1.5)), 21)
        assert result.method == "flat" and result.success
        assert result.residual < 1e-12
        assert np.abs(np.subtract(result.measure.atoms, mu.atoms)).max() <= 1e-12

    def test_failed_eigensolve_takes_the_grid(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        s = moments_of_measure(AtomicMeasure(((0.5,),), (1.0,)), 6)
        result = recover_measure(s, UNIT_BOX, 101)
        assert result.method == "grid"
        assert result.success

    def test_non_psd_moments_take_the_grid(self):
        result = recover_measure(INDEFINITE, UNIT_BOX, 41)
        assert result.method == "grid"
        assert not result.success

    @pytest.mark.parametrize(
        "values",
        [[1.0, 0.5], [1.0, 0.5, 0.25, -100.0]],
        ids=["degree-below-two", "negative-weight"],
    )
    def test_unextractable_flat_moments_take_the_grid(self, values):
        # max_degree 1 leaves no M_{d-1} (d = 0); the cubic moment -100 makes
        # the least-squares weight of an extracted atom negative
        s = MomentSequence(1, len(values) - 1, values)
        assert _flat_measure(s) is None
        assert recover_measure(s, UNIT_BOX, 41).method == "grid"


class TestConsistencyWithPsdChecks:
    def test_measure_moments_pass_certification(self, rng):
        for _ in range(5):
            atoms = tuple((float(x),) for x in rng.uniform(-1, 1, size=4))
            weights = tuple(float(v) for v in rng.uniform(0.1, 1.0, size=4))
            s = moments_of_measure(AtomicMeasure(atoms, weights), 8)
            for d in range(5):
                assert is_psd_functional(s, d)

    def test_localized_check_for_nonnegative_generator(self, rng):
        g = Polynomial(1, {(0,): 1.0, (2,): -1.0})  # nonnegative on [-1, 1]
        for _ in range(5):
            atoms = tuple((float(x),) for x in rng.uniform(-1, 1, size=4))
            weights = tuple(float(v) for v in rng.uniform(0.1, 1.0, size=4))
            s = moments_of_measure(AtomicMeasure(atoms, weights), 8)
            assert min_eigenvalue(localized_moment_matrix(s, g, 3)) >= -1e-9

    def test_mass_bounds_dual_norm(self, rng):
        # measure inside the box of (p=1, r): the dual sup never exceeds the mass
        for _ in range(10):
            n = int(rng.integers(1, 3))
            r = tuple(rng.uniform(0.5, 3.0, size=n))
            atoms = tuple(
                tuple(float(rng.uniform(-v, v)) for v in r) for _ in range(3)
            )
            weights = tuple(float(v) for v in rng.uniform(0.1, 1.0, size=3))
            mu = AtomicMeasure(atoms, weights)
            s = moments_of_measure(mu, 6)
            w = WeightSpec(1, r)
            profile = dual_norm_profile(s, w)
            mass = math.fsum(mu.weights)
            assert all(v <= mass + 1e-12 for v in profile)
            assert dual_norm_of_moments(s, w) <= mass + 1e-12
