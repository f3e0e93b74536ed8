import numpy as np
import pytest

from ttcomplete import (
    BoundsError,
    DenseTensor,
    MissingMask,
    ShapeError,
    SparseObservations,
    TTRank,
    TensorShape,
    extract_observations,
    flatten_params,
    gradient,
    mask_random,
    objective,
    objective_and_gradient,
    random_init,
    reconstruct,
    tt_full,
    unflatten_params,
)
from oracles import central_difference_gradient, dense_weighted_objective
from test_ttmodel import two_mode_example


def random_instance(seed, order=None):
    """Small random model + observations for gradient checking."""
    rng = np.random.default_rng(seed)
    n = order or int(rng.integers(3, 6))
    sizes = tuple(int(v) for v in rng.integers(2, 6, n))
    ranks = (1,) + tuple(int(v) for v in rng.integers(1, 4, n - 1)) + (1,)
    shape = TensorShape(sizes)
    cores = random_init(shape, TTRank(ranks), seed=seed)
    m = 30
    lin = rng.choice(shape.element_count, size=min(m, shape.element_count), replace=False)
    coords = np.stack(np.unravel_index(lin, sizes, order="F"), axis=1) + 1
    values = rng.standard_normal(coords.shape[0])
    return cores, SparseObservations(shape, coords, values)


class TestObservations:
    def test_bounds_checked(self):
        shape = TensorShape((2, 2))
        with pytest.raises(BoundsError, match="mode 2"):
            SparseObservations(shape, np.array([[1, 3]]), np.array([1.0]))

    def test_at_least_one_entry(self):
        shape = TensorShape((2, 2))
        with pytest.raises(ShapeError):
            SparseObservations(shape, np.empty((0, 2), dtype=int), np.empty(0))

    def test_count(self):
        shape = TensorShape((3, 3))
        obs = SparseObservations(shape, np.array([[1, 1], [2, 3]]), np.array([1.0, 2.0]))
        assert obs.count == 2
        assert not obs.has_duplicates()


class TestObjective:
    def test_perfect_fit_is_zero(self):
        cores = two_mode_example()
        obs = _perfectly_fit_observations(cores)
        assert objective(cores, obs) == 0.0

    def test_single_observation_hand_value(self):
        cores = two_mode_example()
        obs = SparseObservations(cores.shape, np.array([[1, 1]]), np.array([20.0]))
        assert objective(cores, obs) == pytest.approx(4.5, abs=1e-15)

    def test_zero_cores(self):
        cores = two_mode_example()
        zeros = unflatten_params(cores, np.zeros(cores.param_count))
        rng = np.random.default_rng(0)
        obs = SparseObservations(
            cores.shape, np.array([[1, 1], [2, 1], [2, 2]]), rng.standard_normal(3)
        )
        assert objective(zeros, obs) == pytest.approx(
            0.5 * float(np.sum(obs.values**2)), rel=1e-15
        )

    def test_shape_mismatch(self):
        cores = two_mode_example()
        obs = SparseObservations(TensorShape((3, 3)), np.array([[1, 1]]), np.array([1.0]))
        with pytest.raises(ShapeError):
            objective(cores, obs)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_weighted_oracle(self, seed):
        cores, _ = random_instance(seed, order=3)
        truth = tt_full(cores).values + np.random.default_rng(seed + 100).standard_normal(
            cores.shape.element_count
        )
        mask = mask_random(cores.shape, 0.4, seed)
        obs = extract_observations(DenseTensor(cores.shape, truth), mask)
        sparse_val = objective(cores, obs)
        dense_val = dense_weighted_objective(cores, truth, mask.observed)
        assert sparse_val == pytest.approx(dense_val, rel=1e-12)


class TestGradient:
    def test_perfect_fit_gradient_zero(self):
        cores = two_mode_example()
        obs = _perfectly_fit_observations(cores)
        assert np.all(gradient(cores, obs) == 0.0)

    def test_single_observation_hand_gradient(self):
        # residual x - y = 17 - 20 = -3; slice gradients -3*[5 6] and -3*[1;2]
        cores = two_mode_example()
        obs = SparseObservations(cores.shape, np.array([[1, 1]]), np.array([20.0]))
        g = gradient(cores, obs)
        expected = np.zeros(8)
        expected[0], expected[2] = -15.0, -18.0  # core 1, slice 1 (column-major)
        expected[4], expected[5] = -3.0, -6.0  # core 2, slice 1
        assert np.array_equal(g, expected)

    def test_single_observation_matches_finite_differences(self):
        cores = two_mode_example()
        obs = SparseObservations(cores.shape, np.array([[1, 1]]), np.array([20.0]))

        def f(flat):
            return objective(unflatten_params(cores, flat), obs)

        fd = central_difference_gradient(f, flatten_params(cores))
        assert np.allclose(gradient(cores, obs), fd, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_agreement(self, seed):
        cores, obs = random_instance(seed)

        def f(flat):
            return objective(unflatten_params(cores, flat), obs)

        analytic = gradient(cores, obs)
        fd = central_difference_gradient(f, flatten_params(cores), eps=1e-5)
        denom = np.maximum(np.abs(analytic), 1e-8)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-6

    def test_zero_coverage_slices_exactly_zero(self):
        rng = np.random.default_rng(4)
        shape = TensorShape((4, 4, 4))
        cores = random_init(shape, TTRank((1, 2, 2, 1)), seed=4)
        # every observation keeps mode-2 index 1, so slices 2..4 of core 2 are untouched
        coords = np.stack(
            [rng.integers(1, 5, 12), np.ones(12, dtype=int), rng.integers(1, 5, 12)], axis=1
        )
        coords = np.unique(coords, axis=0)
        obs = SparseObservations(shape, coords, rng.standard_normal(coords.shape[0]))
        g = gradient(cores, obs)
        core2 = unflatten_params(cores, g).cores[1]
        assert np.all(core2[:, 1:, :] == 0.0)
        assert np.any(core2[:, 0, :] != 0.0)


class TestFusedEvaluation:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_separate_calls_bit_exact(self, seed):
        cores, obs = random_instance(seed)
        f, g = objective_and_gradient(cores, obs)
        assert f == objective(cores, obs)
        assert np.array_equal(g, gradient(cores, obs))

    def test_zero_residual_case(self):
        cores = two_mode_example()
        obs = _perfectly_fit_observations(cores)
        f, g = objective_and_gradient(cores, obs)
        assert f == 0.0
        assert np.all(g == 0.0)

    @pytest.mark.parametrize("seed", [6, 8, 9, 11, 123])
    def test_observation_order_invariance(self, seed):
        cores, obs = random_instance(seed)
        f0, g0 = objective_and_gradient(cores, obs)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(obs.count)
        shuffled = SparseObservations(obs.shape, obs.indices[perm], obs.values[perm])
        f1, g1 = objective_and_gradient(cores, shuffled)
        assert f0 == f1
        assert np.array_equal(g0, g1)


class TestReconstruct:
    def test_observed_values_of_perfect_fit(self):
        cores = two_mode_example()
        obs = _perfectly_fit_observations(cores)
        assert np.array_equal(reconstruct(cores, obs.indices), obs.values)

    def test_all_indices_matches_full(self):
        cores, _ = random_instance(3, order=3)
        full = tt_full(cores)
        count = cores.shape.element_count
        coords = (
            np.stack(
                np.unravel_index(np.arange(count), cores.shape.sizes, order="F"), axis=1
            )
            + 1
        )
        assert np.allclose(reconstruct(cores, coords), full.values, rtol=1e-12, atol=1e-14)

    def test_hand_values(self):
        cores = two_mode_example()
        assert np.array_equal(reconstruct(cores, [[1, 1], [2, 2]]), [17.0, 53.0])

    def test_bounds_error(self):
        cores = two_mode_example()
        with pytest.raises(BoundsError):
            reconstruct(cores, [[1, 3]])


def _full_mask(shape):
    return MissingMask(shape, np.ones(shape.element_count, dtype=bool))


def _perfectly_fit_observations(cores):
    """Observations whose values the model reproduces bit-exactly."""
    count = cores.shape.element_count
    coords = (
        np.stack(np.unravel_index(np.arange(count), cores.shape.sizes, order="F"), axis=1) + 1
    )
    return SparseObservations(cores.shape, coords, reconstruct(cores, coords))
