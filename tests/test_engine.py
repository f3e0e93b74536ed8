import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ttcomplete.engine as engine
from ttcomplete import (
    BoundsError,
    DenseTensor,
    MissingMask,
    NumericError,
    OptimizeConfig,
    ShapeError,
    SparseObservations,
    TTRank,
    TensorShape,
    cap_ranks,
    evaluate,
    extract_observations,
    fit_cores,
    flatten_params,
    gradient,
    initial_cores,
    mask_random,
    minimize,
    objective,
    objective_and_gradient,
    random_init,
    reconstruct,
    synthetic_scene,
    tensorize_image,
    tensorize_mask,
    tt_full,
    unflatten_params,
)
from oracles import central_difference_gradient, dense_weighted_objective, full_by_entries
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


def at_split(obs, s):
    """``obs`` with its two tries built at split ``s``."""
    with mock.patch.object(engine, "_best_split", return_value=s):
        assert obs._join.split == s
    return obs


@st.composite
def trie_instances(draw):
    """A random model, a random subset of observed cells split at a random s, and a permutation."""
    order = draw(st.integers(2, 5))
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=order, max_size=order)))
    inner = draw(st.lists(st.integers(1, 3), min_size=order - 1, max_size=order - 1))
    shape = TensorShape(sizes)
    cells = draw(
        st.lists(st.integers(0, shape.element_count - 1), min_size=1, max_size=40, unique=True)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cores = random_init(shape, TTRank((1, *inner, 1)), seed=seed)
    coords = np.stack(np.unravel_index(cells, sizes, order="F"), axis=1) + 1
    obs = SparseObservations(shape, coords, rng.standard_normal(len(cells)))
    split = draw(st.integers(1, order))
    join = at_split(obs, split)._join
    event("level kinds: " + " and ".join(sorted({*level_kinds(join.left), *level_kinds(join.right)})))
    return cores, obs, rng.permutation(len(cells))


def one_row_tiles():
    """While active, joins are built with one block row per tile."""
    return mock.patch.multiple(engine, _TILE_CELLS=1, _TILE_MIN_ROWS=1)


def tiled(obs, like=None):
    """``obs`` rebuilt with one-row tiles, at the split of ``like`` (default ``obs``)."""
    split = (like or obs)._join.split
    with one_row_tiles():
        fresh = at_split(SparseObservations(obs.shape, obs.indices, obs.values), split)
    join = fresh._join
    assert len(join.tiles) == join.left.leaves
    return fresh


def dense_oracle_f(cores, obs):
    """The objective of ``obs`` as the dense masked loss, entry by entry."""
    cells = np.ravel_multi_index(tuple((obs.indices - 1).T), obs.shape.sizes, order="F")
    truth = np.zeros(obs.shape.element_count)
    truth[cells] = obs.values
    observed = np.zeros(obs.shape.element_count, dtype=bool)
    observed[cells] = True
    return dense_weighted_objective(cores, truth, observed)


def assert_sorted_rows(indices, sizes):
    """``engine._sort_rows`` against ``np.lexsort`` and the prefix starts ``np.unique`` finds."""
    rows, fresh = engine._sort_rows(indices, sizes)
    assert np.array_equal(rows, np.lexsort(indices.T[::-1]))  # the rows of one cell in input order
    for n, flags in enumerate(fresh):
        starts = np.unique(indices[rows, : n + 1], axis=0, return_index=True)[1]
        assert np.array_equal(np.flatnonzero(flags), np.sort(starts))


def level_kinds(trie):
    """The kind of each depth of ``trie``, root side first."""
    return ["complete" if level is None else "segment" for level in trie.depths]


def _max_fd_error(cores, obs):
    """Largest relative gap between the analytic gradient and central differences.

    The objective is quadratic in each single parameter, so a central
    difference is exact but for rounding, whose relative size is about
    1e-16 * f / (eps * |g|); a step of 1e-3 keeps it 100 times below that of 1e-5.
    """

    def f(flat):
        return objective(unflatten_params(cores, flat), obs)

    analytic = gradient(cores, obs)
    fd = central_difference_gradient(f, flatten_params(cores), eps=1e-3)
    denom = np.maximum(np.abs(analytic), 1e-8)
    return np.max(np.abs(analytic - fd) / denom)


class TestObservations:
    def test_bounds_checked(self):
        shape = TensorShape((2, 2))
        with pytest.raises(BoundsError, match="mode 2"):
            SparseObservations(shape, np.array([[1, 3]]), np.array([1.0]))

    @pytest.mark.parametrize(
        "coords, row, message",
        [
            ([[1.7, 2.2]], 0, "observation 1: coordinate 1.7 is not an integer in mode 1"),
            ([[1, 1], [2, 2.5]], 1, "observation 2: coordinate 2.5 is not an integer in mode 2"),
            ([[1, 1], [np.nan, 1]], 1, "observation 2: coordinate nan is not an integer in mode 1"),
            # column-major: observation 3's mode 1 is first in memory, observation 2's mode 2 in row order
            (
                np.asfortranarray([[1, 1], [2, 2.5], [1.5, 1]]),
                1,
                "observation 2: coordinate 2.5 is not an integer in mode 2",
            ),
        ],
    )
    def test_non_integral_index_names_its_row(self, coords, row, message):
        shape = TensorShape((3, 3))
        with pytest.raises(BoundsError, match=message) as info:
            SparseObservations(shape, np.array(coords), np.ones(len(coords)))
        assert info.value.row == row

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_row(self, bad):
        shape = TensorShape((3, 3))
        values = np.array([1.0, 2.0, bad, bad])
        with pytest.raises(NumericError, match=f"observation 3: value {bad} is not finite"):
            SparseObservations(shape, np.array([[1, 1], [2, 2], [3, 3], [1, 3]]), values)

    @pytest.mark.parametrize(
        "coords",
        [
            np.array([[True, True]]),
            np.array([[1 + 0j, 2 + 1j]]),
            np.array([["1", "2"]]),
            np.array([[b"1", b"2"]]),
            np.array([["2020-01-01", "2020-01-02"]], dtype="datetime64[D]"),
            np.array([[1, 2]], dtype="timedelta64[s]"),
        ],
        ids=["bool", "complex", "str", "bytes", "datetime", "timedelta"],
    )
    def test_non_numeric_index_dtype_refused(self, coords):
        message = f"^index array of dtype {re.escape(str(coords.dtype))} does not hold integer coordinates$"
        with pytest.raises(BoundsError, match=message):
            SparseObservations(TensorShape((3, 3)), coords, np.ones(1))

    @pytest.mark.parametrize("big", [2**64, -(2**70)])
    def test_coordinate_past_int64_is_out_of_range(self, big):
        coords = np.asarray([[1, 1], [1, big]])
        assert coords.dtype == object
        message = rf"^observation 2: coordinate {big} out of range \[1, 3\] in mode 2$"
        with pytest.raises(BoundsError, match=message) as info:
            SparseObservations(TensorShape((3, 3)), coords, np.ones(2))
        assert info.value.row == 1

    @pytest.mark.parametrize(
        "coords, row, message",
        [
            ([[1.5, 2]], 0, "observation 1: coordinate 1.5 is not an integer in mode 1"),
            ([[1, 1], [2, math.nan]], 1, "observation 2: coordinate nan is not an integer in mode 2"),
            ([[1, 1], [None, 1]], 1, "observation 2: coordinate None is not an integer in mode 1"),
            ([[1, 1], [2, math.inf]], 1, "observation 2: coordinate inf is not an integer in mode 2"),
            ([[1, 1], [0, 1.5]], 1, r"observation 2: coordinate 0 out of range \[1, 3\] in mode 1"),
            ([[3, 2**64], [None, 1]], 0, rf"observation 1: coordinate {2**64} out of range \[1, 3\] in mode 2"),
            ([[1, 1], [2, 2.5], [1.5, 1]], 1, "observation 2: coordinate 2.5 is not an integer in mode 2"),
            # a string is quoted, so that it does not read as a number; bytes print as their repr already
            ([[1, "2"]], 0, "observation 1: coordinate '2' is not an integer in mode 2"),
            ([[1, 1], [b"2", 1]], 1, "observation 2: coordinate b'2' is not an integer in mode 1"),
        ],
    )
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_first_bad_object_coordinate_is_named(self, coords, row, message, layout):
        # numpy cannot round Python objects, and None does not compare
        coords = layout(np.array(coords, dtype=object))
        with pytest.raises(BoundsError, match=f"^{message}$") as info:
            SparseObservations(TensorShape((3, 3)), coords, np.ones(len(coords)))
        assert info.value.row == row

    def test_integral_object_coordinates_are_read_as_ints(self):
        coords = np.array([[1, 2.0], [np.int32(3), np.float64(1.0)]], dtype=object)
        obs = SparseObservations(TensorShape((3, 3)), coords, np.ones(2))
        assert obs.indices.dtype == np.int64 and obs.indices.tolist() == [[1, 2], [3, 1]]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_first_bad_integer_coordinate_is_named(self, dtype):
        # the range check runs on the minimum and the column maxima; the
        # message still names the first bad coordinate in (observation, mode) order
        coords = np.array([[1, 1], [2, 4], [0, 1], [3, 9]], dtype=dtype)
        message = r"^observation 2: coordinate 4 out of range \[1, 3\] in mode 2$"
        with pytest.raises(BoundsError, match=message) as info:
            SparseObservations(TensorShape((3, 3)), coords, np.ones(4))
        assert info.value.row == 1
        with pytest.raises(BoundsError, match=r"^observation 3: coordinate 0 out of range \[1, 3\] in mode 1$"):
            SparseObservations(TensorShape((3, 9)), coords, np.ones(4))

    def test_integral_float_indices_accepted(self):
        shape = TensorShape((3, 3))
        obs = SparseObservations(shape, np.array([[1.0, 3.0], [2.0, 2.0]]), np.array([1.0, 2.0]))
        assert obs.indices.dtype == np.int64
        assert obs.indices.tolist() == [[1, 3], [2, 2]]

    def test_index_and_value_counts_must_match(self):
        with pytest.raises(ShapeError, match="2 indices but 1 values"):
            SparseObservations(TensorShape((3, 3)), np.array([[1, 1], [2, 2]]), np.array([1.0]))

    def test_at_least_one_entry(self):
        shape = TensorShape((2, 2))
        with pytest.raises(ShapeError):
            SparseObservations(shape, np.empty((0, 2), dtype=int), np.empty(0))

    def test_count(self):
        shape = TensorShape((3, 3))
        obs = SparseObservations(shape, np.array([[1, 1], [2, 3]]), np.array([1.0, 2.0]))
        assert obs.count == 2
        assert obs.repeated_rows().size == 0


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
        assert _max_fd_error(*random_instance(seed)) < 1e-6

    def test_zero_coverage_slices_exactly_zero(self):
        rng = np.random.default_rng(4)
        shape = TensorShape((4, 4, 4))
        cores = random_init(shape, TTRank((1, 2, 2, 1)), seed=4)
        # every observation keeps mode-2 index 1, so slices 2..4 of core 2 are untouched
        coords = np.stack(
            [rng.integers(1, 5, 12), np.ones(12, dtype=int), rng.integers(1, 5, 12)], axis=1
        )
        coords = np.unique(coords, axis=0)
        values = rng.standard_normal(coords.shape[0])
        for s in (1, 2, 3):
            obs = at_split(SparseObservations(shape, coords, values), s)
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


class TestGradientOnDemand:
    @pytest.mark.parametrize("seed", range(5))
    def test_deferred_gradient_bit_equal(self, seed):
        cores, obs = random_instance(seed)
        other = random_init(cores.shape, cores.rank, seed=seed + 1)
        f, grad = evaluate(cores, obs)
        f_other, grad_other = evaluate(other, obs)
        f_eager, g_eager = objective_and_gradient(cores, obs)
        assert f == f_eager
        assert np.array_equal(grad(), g_eager)
        assert np.array_equal(grad_other(), objective_and_gradient(other, obs)[1])
        assert f_other != f

    def test_residual_in_place_leaves_predictions_alone(self):
        # evaluate subtracts the values from the forward pass's own predictions
        cores, obs = random_instance(4)
        before = reconstruct(cores, obs.indices)
        values = obs._join.values.copy()
        f, grad = evaluate(cores, obs)
        first = grad()
        assert grad().tobytes() == first.tobytes()
        assert evaluate(cores, obs)[0] == f
        assert obs._join.values.tobytes() == values.tobytes()
        assert reconstruct(cores, obs.indices).tobytes() == before.tobytes()
        cells = np.ravel_multi_index(tuple((obs.indices - 1).T), obs.shape.sizes, order="F")
        assert np.allclose(before, tt_full(cores).values[cells], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_fit_matches_eager_gradients(self, seed):
        # fit_cores defers each backward pass; a callback that computes every
        # gradient up front must reach the same cores through the same records
        cores, obs = random_instance(seed)
        cfg = OptimizeConfig(max_iters=40)
        fitted, report = fit_cores(obs, cores.rank, cfg, seed)

        template = initial_cores(obs, cores.rank, seed)

        def eager(flat):
            f, g = objective_and_gradient(unflatten_params(template, flat), obs)
            return f, lambda: g

        final, expected = minimize(eager, flatten_params(template), cfg)
        assert report.records == expected.records
        assert (report.reason, report.evals, report.gradients) == (
            expected.reason,
            expected.evals,
            expected.gradients,
        )
        assert report.gradients < report.evals
        for a, b in zip(fitted.cores, unflatten_params(template, final).cores):
            assert a.tobytes() == b.tobytes()


class TestPrefixTrie:
    def test_repeated_cell_sums_both_entries(self):
        # x(1,1) = 17 and x(2,2) = 53: residuals 3, -3 and -2
        cores = two_mode_example()
        obs = SparseObservations(cores.shape, [[2, 2], [1, 1], [2, 2]], [50.0, 20.0, 55.0])
        assert np.array_equal(obs.repeated_rows(), [2])
        assert objective(cores, obs) == 0.5 * (9.0 + 9.0 + 4.0)
        assert _max_fd_error(cores, obs) < 1e-6

    def test_sorted_offsets_are_row_major(self):
        _, obs = random_instance(8, order=5)
        rng = np.random.default_rng(8)
        for repeats in (0, 25):  # distinct cells, then 25 rows repeating one
            indices = np.concatenate([obs.indices, obs.indices[rng.integers(0, obs.count, repeats)]])
            indices = indices[rng.permutation(indices.shape[0])]
            order, fresh = engine._sort_rows(indices, obs.shape.sizes)
            # lexicographic by (i_1, ..., i_N), the rows of one cell in input order
            assert np.array_equal(order, np.lexsort(indices.T[::-1]))
            assert fresh.shape == indices.T.shape
            for n, row in enumerate(fresh):
                prefixes = indices[order, : n + 1]
                assert np.count_nonzero(row) == np.unique(prefixes, axis=0).shape[0]
                assert row[0] and np.array_equal(row[1:], np.any(prefixes[1:] != prefixes[:-1], axis=1))
            assert np.count_nonzero(fresh[-1]) == obs.count

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sort_matches_lexsort_and_unique(self, data):
        order = data.draw(st.integers(1, 5))
        sizes = tuple(data.draw(st.lists(st.integers(1, 6), min_size=order, max_size=order)))
        cells = data.draw(st.lists(st.integers(0, math.prod(sizes) - 1), min_size=1, max_size=60))
        cells = data.draw(st.permutations(cells + data.draw(st.lists(st.sampled_from(cells), max_size=30))))
        assert_sorted_rows(np.stack(np.unravel_index(cells, sizes), axis=1) + 1, sizes)

    def test_sort_past_packed_keys_falls_back(self):
        # 2^62 cells: with 200 rows an offset and a row number need 70 bits,
        # so the rows are argsorted, and again stably for the repeated cells
        sizes = (2**30, 2**30, 4)
        cells = np.array([[2**30, 1, 4], [5, 2**30, 1], [5, 2**30, 2], [1, 1, 1], [7, 7, 3]])
        indices = cells[np.random.default_rng(3).integers(0, len(cells), 200)]
        assert math.prod(sizes) << (len(indices) - 1).bit_length() > 2**63
        assert_sorted_rows(indices, sizes)
        obs = SparseObservations(TensorShape(sizes), indices, np.zeros(len(indices)))
        _, first = np.unique(indices, axis=0, return_index=True)
        assert np.array_equal(obs.repeated_rows(), np.setdiff1d(np.arange(len(indices)), first))

    def test_every_cell_repeated_in_shuffled_order(self):
        # each of 1,680 cells held by 6 to 9 rows: the unstable sort must give
        # way to the stable one, or repeated_rows names the wrong row of a cell
        shape = TensorShape((10, 12, 14))
        rng = np.random.default_rng(11)
        counts = rng.integers(6, 10, shape.element_count)
        cells = rng.permutation(np.repeat(np.arange(shape.element_count), counts))
        assert cells.size >= 10_000
        coords = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
        values = rng.standard_normal(cells.size)
        _, first = np.unique(cells, return_index=True)
        obs = SparseObservations(shape, coords, values)
        assert np.array_equal(obs.repeated_rows(), np.setdiff1d(np.arange(cells.size), first))
        cores = random_init(shape, TTRank((1, 3, 2, 1)), seed=11)
        f, g = objective_and_gradient(cores, obs)
        again = SparseObservations(shape, coords.copy(), values.copy())
        f_again, g_again = objective_and_gradient(cores, again)
        assert f == f_again and g.tobytes() == g_again.tobytes()

    def test_fully_observed_binary_tensor(self):
        shape = TensorShape((2,) * 5)
        cores = random_init(shape, TTRank((1, 2, 3, 2, 2, 1)), seed=5)
        truth = np.random.default_rng(5).standard_normal(shape.element_count)
        obs = extract_observations(DenseTensor(shape, truth), _full_mask(shape))
        observed = np.ones(shape.element_count, dtype=bool)
        dense_val = dense_weighted_objective(cores, truth, observed)
        assert objective(cores, obs) == pytest.approx(dense_val, rel=1e-12)
        assert _max_fd_error(cores, obs) < 1e-6

    def test_observations_differing_only_in_last_mode(self):
        shape = TensorShape((3, 4, 5))
        cores = random_init(shape, TTRank((1, 3, 2, 1)), seed=6)
        truth = np.random.default_rng(6).standard_normal(shape.element_count)
        coords = np.array([[2, 3, k] for k in range(1, 6)])
        observed = np.zeros(shape.element_count, dtype=bool)
        observed[np.ravel_multi_index(tuple((coords - 1).T), shape.sizes, order="F")] = True
        obs = extract_observations(DenseTensor(shape, truth), MissingMask(shape, observed))
        dense_val = dense_weighted_objective(cores, truth, observed)
        assert objective(cores, obs) == pytest.approx(dense_val, rel=1e-12)
        assert _max_fd_error(cores, obs) < 1e-6

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_layout_matches_unique_labelling(self, data):
        # Each depth's nodes against np.unique's labelling of the distinct
        # prefixes, laid out as _Trie's docstring states: child j of the parent
        # at position p at row p * I + j at a complete depth; by label, then in
        # lexicographic order, at a segment depth.
        order = data.draw(st.integers(1, 5))
        sizes = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
        total = math.prod(sizes)
        cells = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=60))
        if data.draw(st.booleans()):  # every cell too, so that every depth is complete
            cells += range(total)
        indices = np.stack(np.unravel_index(cells, sizes), axis=1) + 1
        rows, fresh = engine._sort_rows(indices, sizes)
        node = np.zeros(len(cells), dtype=np.int64)  # each input row's node at the previous depth
        previous = 1
        for depth, size in enumerate(sizes):
            trie = engine._Trie(indices, rows, fresh[: depth + 1], sizes)
            prefixes, inverse = np.unique(indices[:, : depth + 1], axis=0, return_inverse=True)
            inverse, label, k = inverse.ravel(), prefixes[:, -1] - 1, len(prefixes)
            parent = np.empty(k, dtype=np.int64)
            parent[inverse] = node
            level = trie.depths[depth]
            if k == previous * size:
                assert level is None
                place = parent * size + label
            else:
                segments, parents, count = level
                assert count == previous
                place = np.empty(k, dtype=np.int64)
                place[np.lexsort((np.arange(k), label))] = np.arange(k)
                stored = np.empty(k, dtype=np.int64)
                stored[place] = label
                assert [j for j, _ in segments] == np.unique(label).tolist()
                assert segments[0][1].start == 0 and segments[-1][1].stop == k
                for (j, seg), (_, after) in zip(segments, segments[1:] + [(None, slice(k, k))]):
                    assert seg.stop == after.start and np.all(stored[seg] == j)
                assert np.array_equal(parents[place], parent)
            node, previous = place[inverse], k
            assert trie.leaves == k
            assert np.array_equal(trie.leaf, node[rows])

    def test_reconstruct_unsorted_repeated_requests(self):
        cores = two_mode_example()
        assert np.array_equal(reconstruct(cores, [[2, 2], [1, 1], [2, 2]]), [53.0, 17.0, 53.0])


class TestProperties:
    # Central differences carry rounding error (see _max_fd_error), so a rare
    # draw has a gradient entry too small for the 1e-6 relative tolerance,
    # whatever computes the gradient. Fixed draws keep the check deterministic
    # without loosening it. They also depend on the numeric constants
    # Hypothesis collects from the source, so any source change can redraw them.
    @given(trie_instances())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_gradient_matches_finite_differences(self, instance):
        cores, obs, _ = instance
        assert _max_fd_error(cores, obs) < 1e-6

    @given(trie_instances())
    @settings(max_examples=40, deadline=None)
    def test_bit_exact_under_permutation(self, instance):
        cores, obs, perm = instance
        shuffled = SparseObservations(obs.shape, obs.indices[perm], obs.values[perm])
        at_split(shuffled, obs._join.split)
        f0, g0 = objective_and_gradient(cores, obs)
        f1, g1 = objective_and_gradient(cores, shuffled)
        assert f0 == f1 == objective(cores, shuffled)
        assert np.array_equal(g0, g1)


class TestTiles:
    # One-row tiles split every block with more than one row; the properties
    # above must hold tile by tile.
    @given(trie_instances())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_oracle_and_one_tile(self, instance):
        cores, obs, _ = instance
        f, g = objective_and_gradient(cores, tiled(obs))
        f_ref, g_ref = objective_and_gradient(cores, obs)
        assert f == pytest.approx(dense_oracle_f(cores, obs), rel=1e-12)
        assert f == pytest.approx(f_ref, rel=1e-12)
        assert np.allclose(g, g_ref, rtol=1e-12, atol=1e-14 * np.max(np.abs(g_ref)))

    @given(trie_instances())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_gradient_matches_finite_differences(self, instance):
        cores, obs, _ = instance
        assert _max_fd_error(cores, tiled(obs)) < 1e-6

    @given(trie_instances())
    @settings(max_examples=40, deadline=None)
    def test_bit_exact_under_permutation(self, instance):
        cores, obs, perm = instance
        shuffled = tiled(SparseObservations(obs.shape, obs.indices[perm], obs.values[perm]), obs)
        obs = tiled(obs)
        f0, g0 = objective_and_gradient(cores, obs)
        f1, g1 = objective_and_gradient(cores, shuffled)
        assert f0 == f1 == objective(cores, shuffled)
        assert np.array_equal(g0, g1)

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruct_at_every_split(self, seed):
        cores, obs = random_instance(seed)
        at = np.concatenate([obs.indices[::-1], obs.indices[:5]])
        full = full_by_entries(cores)[tuple((at - 1).T)]
        for s in range(1, obs.shape.order + 1):
            with one_row_tiles(), mock.patch.object(engine, "_best_split", return_value=s):
                assert np.allclose(reconstruct(cores, at), full, rtol=1e-12, atol=1e-14)

    def test_peak_memory_well_under_the_block(self):
        # a 1024 x 1024 block (8 MiB) for 100k observations at rank 8
        shape = TensorShape((1024, 1024))
        rng = np.random.default_rng(5)
        cells = rng.choice(shape.element_count, size=100_000, replace=False)
        coords = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
        obs = SparseObservations(shape, coords, rng.standard_normal(cells.size))
        cores = random_init(shape, cap_ranks(shape, (1, 8, 1)), seed=5)
        join = obs._join
        block_bytes = 8 * join.left.leaves * join.right.leaves
        assert block_bytes == 8 * 2**20
        tracemalloc.start()
        try:
            objective_and_gradient(cores, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes / 2


class TestSplit:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_split_matches_dense_oracle(self, seed):
        cores, obs = random_instance(seed)
        shape = obs.shape
        dense_val = dense_oracle_f(cores, obs)
        g_ref = gradient(cores, at_split(SparseObservations(shape, obs.indices, obs.values), shape.order))
        for s in range(1, shape.order + 1):
            split = at_split(SparseObservations(shape, obs.indices, obs.values), s)
            f, g = objective_and_gradient(cores, split)
            assert f == pytest.approx(dense_val, rel=1e-12)
            assert objective(cores, split) == f
            assert np.allclose(g, g_ref, rtol=1e-12, atol=1e-14 * np.max(np.abs(g_ref)))

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruct_at_every_split(self, seed):
        cores, obs = random_instance(seed)
        full = full_by_entries(cores)[tuple((obs.indices - 1).T)]
        for s in range(1, obs.shape.order + 1):
            with mock.patch.object(engine, "_best_split", return_value=s):
                assert np.allclose(reconstruct(cores, obs.indices), full, rtol=1e-12, atol=1e-14)

    def test_best_split_from_counts(self):
        # distinct prefixes and suffixes of a tensorized 256^2 image at 90% missing
        prefix = [4, 16, 64, 256, 1024, 4067, 11745, 17747, 19661]
        suffix = [19661, 16823, 9978, 3070, 768, 192, 48, 12, 3]
        assert engine._best_split(prefix, suffix, 19661) == 4
        # a block over the cap is never chosen: s = 4 needs 256 * 768 cells
        assert engine._best_split(prefix, suffix, 256 * 768 // 16 - 1) != 4
        assert engine._best_split([5, 25], [25, 5], 25) == 1
        assert engine._best_split([3], [3], 3) == 1

    def test_tensorized_image_splits_in_the_middle(self):
        img = synthetic_scene(256, seed=1)
        mask = mask_random(img.shape, 0.9, 1)
        obs = extract_observations(tensorize_image(img), tensorize_mask(mask))
        join = obs._join
        assert join.split == 4
        # every parent has all its children: both tries are one GEMM per depth
        assert level_kinds(join.left) == ["complete"] * 4
        assert level_kinds(join.right) == ["complete"] * 5

    def test_dense_sparse_cube_splits_early(self):
        shape = TensorShape((48, 48, 48))
        rng = np.random.default_rng(2)
        obs = extract_observations(
            DenseTensor(shape, rng.standard_normal(shape.element_count)), mask_random(shape, 0.6, 2)
        )
        assert obs._join.split < 3

    def test_block_over_cap_keeps_one_sided_trie(self):
        shape = TensorShape((1000, 1000, 1000))
        rng = np.random.default_rng(3)
        cells = rng.choice(shape.element_count, size=5000, replace=False)
        coords = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
        obs = SparseObservations(shape, coords, rng.standard_normal(5000))
        join = obs._join
        assert join.split == 3
        assert join.right.leaves == 1


class TestLevelKinds:
    def test_mixed_trie_matches_dense_oracle_at_every_split(self):
        # mode-1 label 3 never appears, (1, 1, 1) and every (i_1, 2, 4) are missing:
        # the prefix depths are segment, complete, segment and the suffix depths
        # (modes 3, 2, 1) complete, segment, segment
        shape = TensorShape((3, 2, 4))
        cells = [
            (i, j, k)
            for i in (1, 2)
            for j in (1, 2)
            for k in (1, 2, 3, 4)
            if (i, j, k) != (1, 1, 1) and (j, k) != (2, 4)
        ]
        rng = np.random.default_rng(11)
        cores = random_init(shape, TTRank((1, 2, 3, 1)), seed=11)
        coords = np.array(cells)
        values = rng.standard_normal(len(cells))
        lin = np.ravel_multi_index(tuple((coords - 1).T), shape.sizes, order="F")
        truth = np.zeros(shape.element_count)
        truth[lin] = values
        observed = np.zeros(shape.element_count, dtype=bool)
        observed[lin] = True

        def dense_f(flat):
            return dense_weighted_objective(unflatten_params(cores, flat), truth, observed)

        dense_g = central_difference_gradient(dense_f, flatten_params(cores), eps=1e-5)
        perm = rng.permutation(len(cells))
        kinds = {
            1: (["segment"], ["complete", "segment"]),
            2: (["segment", "complete"], ["complete"]),
            3: (["segment", "complete", "segment"], []),
        }
        for s, (left, right) in kinds.items():
            obs = at_split(SparseObservations(shape, coords, values), s)
            join = obs._join
            assert (level_kinds(join.left), level_kinds(join.right)) == (left, right)
            f, g = objective_and_gradient(cores, obs)
            assert f == pytest.approx(dense_f(flatten_params(cores)), rel=1e-12)
            assert np.max(np.abs(g - dense_g) / np.maximum(np.abs(g), 1e-8)) < 1e-6
            assert _max_fd_error(cores, obs) < 1e-6
            shuffled = at_split(SparseObservations(shape, coords[perm], values[perm]), s)
            f1, g1 = objective_and_gradient(cores, shuffled)
            assert f1 == f
            assert np.array_equal(g1, g)

    def test_sparse_instance_keeps_segment_levels(self):
        shape = TensorShape((20,) * 5)
        rng = np.random.default_rng(0)
        cells = rng.choice(shape.element_count, size=10_000, replace=False)
        coords = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
        obs = SparseObservations(shape, coords, rng.standard_normal(cells.size))
        join = obs._join
        kinds = level_kinds(join.left) + level_kinds(join.right)
        assert kinds[:2] == ["complete", "complete"]
        assert kinds.count("segment") >= 3


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
        with pytest.raises(BoundsError, match="observation 1: coordinate 3 out of range"):
            reconstruct(cores, [[1, 3]])

    def test_non_integral_index_refused(self):
        cores = two_mode_example()
        with pytest.raises(BoundsError, match="coordinate 1.9 is not an integer in mode 1"):
            reconstruct(cores, [[1.9, 1]])
        assert np.array_equal(reconstruct(cores, [[2.0, 2.0]]), [53.0])

    def test_width_mismatch_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            reconstruct(two_mode_example(), [[1, 1, 1]])

    def test_no_requested_cells(self):
        # a held-out check on a fully observed tensor asks for no cell
        cores = two_mode_example()
        out = reconstruct(cores, np.empty((0, 2), dtype=int))
        assert out.dtype == np.float64 and out.shape == (0,)
        for width in (1, 3):
            with pytest.raises(ShapeError):
                reconstruct(cores, np.empty((0, width), dtype=int))


def _full_mask(shape):
    return MissingMask(shape, np.ones(shape.element_count, dtype=bool))


def _perfectly_fit_observations(cores):
    """Observations whose values the model reproduces bit-exactly."""
    count = cores.shape.element_count
    coords = (
        np.stack(np.unravel_index(np.arange(count), cores.shape.sizes, order="F"), axis=1) + 1
    )
    return SparseObservations(cores.shape, coords, reconstruct(cores, coords))
