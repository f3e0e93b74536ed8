import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    BoundsError,
    DenseTensor,
    MissingMask,
    OptimizeConfig,
    ShapeError,
    SparseObservations,
    TTRank,
    TensorShape,
    cap_ranks,
    default_init_scale,
    extract_observations,
    fit_cores,
    gen_tt_random,
    initial_cores,
    mask_block,
    mask_random,
    mask_rows,
    objective,
    random_init,
    rse,
    synthetic_scene,
    tensorize_image,
    tensorize_mask,
    tt_full,
    uniform_ranks,
)
import ttcomplete.data as data_module
from oracles import gen_oscillating, outer_product, tt_svd_full


class TestOscillating:
    def test_first_cell(self):
        # x = 1/4 * 10 = 2.5
        t = gen_oscillating(TensorShape((4,)))
        assert t.values[0] == math.sin(0.625) * math.cos(6.25)
        assert t.values[0] == pytest.approx(0.5847751, abs=1e-7)
        assert t.values[3] == pytest.approx(math.sin(2.5) * math.cos(100.0), rel=1e-15)

    def test_range(self):
        t = gen_oscillating(TensorShape((26, 26, 26)))
        assert np.all(t.values >= -1.0)
        assert np.all(t.values <= 1.0)

    def test_matches_scalar_loop(self):
        shape = TensorShape((26, 26, 26))
        t = gen_oscillating(shape)
        assert t.shape.element_count == 17576
        expected = np.empty(17576)
        for k in range(17576):
            x = (k + 1) / 17576 * 10.0
            expected[k] = math.sin(x / 4.0) * math.cos(x * x)
        assert np.allclose(t.values, expected, rtol=1e-15, atol=1e-15)

    def test_recoverable_at_half_missing(self):
        shape = TensorShape((7, 7, 7, 7, 7))
        truth = gen_oscillating(shape)
        obs = extract_observations(truth, mask_random(shape, 0.5, seed=1))
        cores, _ = fit_cores(obs, uniform_ranks(shape, 8), OptimizeConfig(max_iters=200))
        assert rse(tt_full(cores), truth) < 0.05


class TestTTRandom:
    def test_deterministic(self):
        shape = TensorShape((4, 4, 4))
        rank = TTRank((1, 2, 2, 1))
        a = gen_tt_random(shape, rank, seed=5)
        b = gen_tt_random(shape, rank, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_rank_one_equals_outer_product(self):
        shape = TensorShape((3, 4, 2))
        rank = TTRank((1, 1, 1, 1))
        t = gen_tt_random(shape, rank, seed=2)
        cores = random_init(shape, rank, seed=2)
        vectors = [c[0, :, 0] for c in cores.cores]
        assert np.allclose(t.as_array(), outer_product(vectors), atol=1e-14)

    def test_shape(self):
        t = gen_tt_random(TensorShape((5, 6)), TTRank((1, 2, 1)), seed=0)
        assert t.shape.sizes == (5, 6)
        assert t.values.size == 30


def _meshgrid_scene(side: int, seed: int) -> np.ndarray:
    """synthetic_scene's column-major values as a full meshgrid computes them (its earlier form)."""
    rng = np.random.default_rng(seed)
    y, x = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    yf, xf = y / side, x / side
    red = 140 + 90 * np.sin(2 * np.pi * (xf * 1.5 + 0.2)) * np.cos(2 * np.pi * yf)
    green = 120 + 70 * np.cos(2 * np.pi * (xf + yf))
    blue = 110 + 80 * np.sin(4 * np.pi * yf)
    img = np.stack([red, green, blue], axis=2)

    def span(lo, hi):
        return slice(max(int(lo * side), 0), max(int(hi * side), 1))

    img[span(0.16, 0.35), span(0.23, 0.55), 0] += 60
    img[span(0.59, 0.86), span(0.12, 0.39), 2] -= 50
    cy, cx = side * 0.65, side * 0.7
    disk = (y - cy) ** 2 + (x - cx) ** 2 < (side * 0.18) ** 2
    img[disk, 1] += 55
    img += rng.uniform(-3, 3, img.shape)
    return np.clip(img, 0, 255).ravel(order="F")


class TestSyntheticScene:
    # compared with the meshgrid form, not with stored hashes: sin and cos bits differ across numpy builds
    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("side", [1, 2, 3, 16, 100, 256])
    def test_bits_match_the_meshgrid_form(self, side, seed):
        img = synthetic_scene(side, seed)
        assert img.shape.sizes == (side, side, 3)
        assert img.values.tobytes() == _meshgrid_scene(side, seed).tobytes()

    def test_range(self):
        values = synthetic_scene(64, seed=2).values
        assert values.min() >= 0.0 and values.max() <= 255.0

    def test_peak_memory_at_side_256(self):
        # the meshgrid form peaks at 8.07 MiB, the broadcast one at 5.58 MiB, and 4.08 MiB clipped in place (warm)
        tracemalloc.start()
        try:
            synthetic_scene(256, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestMissingMask:
    def test_flag_count_must_match_the_shape(self):
        with pytest.raises(ShapeError, match="mask has 3 flags, shape .* has 4 cells"):
            MissingMask(TensorShape((2, 2)), np.ones(3, dtype=bool))


class TestRandomMask:
    def test_rate_zero_all_observed(self):
        mask = mask_random(TensorShape((5, 5)), 0.0, seed=0)
        assert np.count_nonzero(mask.observed) == 25

    def test_exact_count(self):
        mask = mask_random(TensorShape((10, 10)), 0.9, seed=1)
        assert np.count_nonzero(mask.observed) == 10

    def test_determinism_and_seed_sensitivity(self):
        shape = TensorShape((8, 8))
        a = mask_random(shape, 0.5, seed=3)
        b = mask_random(shape, 0.5, seed=3)
        c = mask_random(shape, 0.5, seed=4)
        assert np.array_equal(a.observed, b.observed)
        assert not np.array_equal(a.observed, c.observed)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_bad_rate(self, rate):
        with pytest.raises(ValueError):
            mask_random(TensorShape((4, 4)), rate, seed=0)

    def test_rate_leaving_no_cells(self):
        with pytest.raises(ValueError):
            mask_random(TensorShape((2,)), 0.95, seed=0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
    @settings(max_examples=40)
    def test_count_formula(self, seed, rate):
        shape = TensorShape((6, 7))
        mask = mask_random(shape, rate, seed)
        assert np.count_nonzero(mask.observed) == int(round((1.0 - rate) * 42))


class TestStructuredMasks:
    def test_empty_row_list(self):
        mask = mask_rows(TensorShape((4, 4, 3)), [])
        assert np.count_nonzero(mask.observed) == 48

    def test_one_row_removes_width_times_channels(self):
        mask = mask_rows(TensorShape((256, 256, 3)), [10])
        assert np.count_nonzero(mask.observed) == 256 * 256 * 3 - 256 * 3

    def test_row_out_of_bounds(self):
        with pytest.raises(BoundsError):
            mask_rows(TensorShape((4, 4, 3)), [5])

    def test_non_integral_row_rejected(self):
        with pytest.raises(BoundsError, match="row 1.5 is not an integer"):
            mask_rows(TensorShape((4, 4, 3)), [1.5])

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_row_rejected(self, flag):
        # read as 1, a flag would withhold row 1
        with pytest.raises(BoundsError, match=f"^row {flag!r} is not an integer$"):
            mask_rows(TensorShape((4, 4, 3)), [flag])

    def test_integral_rows_accepted(self):
        mask = mask_rows(TensorShape((4, 5, 3)), [2.0, np.int64(4)])
        assert np.array_equal(mask.observed, mask_rows(TensorShape((4, 5, 3)), [2, 4]).observed)

    def test_block_counts(self):
        mask = mask_block(TensorShape((8, 8, 3)), 2, 3, 4, 2)
        assert np.count_nonzero(mask.observed) == 8 * 8 * 3 - 4 * 2 * 3

    def test_full_block_rejected(self):
        with pytest.raises(ValueError):
            mask_block(TensorShape((256, 256, 3)), 1, 1, 256, 256)

    def test_non_integral_block_rejected(self):
        with pytest.raises(BoundsError, match="top 1.5 is not an integer"):
            mask_block(TensorShape((8, 8, 3)), 1.5, 1, 2, 2)
        with pytest.raises(BoundsError, match="width 2.5 is not an integer"):
            mask_block(TensorShape((8, 8, 3)), 1, 1, 2, 2.5)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_block_rejected(self, flag):
        with pytest.raises(BoundsError, match=f"^top {flag!r} is not an integer$"):
            mask_block(TensorShape((8, 8, 3)), flag, flag, 2, 2)
        with pytest.raises(BoundsError, match=f"^height {flag!r} is not an integer$"):
            mask_block(TensorShape((8, 8, 3)), 1, 1, flag, 2)

    def test_integral_block_accepted(self):
        mask = mask_block(TensorShape((8, 8, 3)), 2.0, np.int64(1), 2, 2.0)
        assert np.array_equal(mask.observed, mask_block(TensorShape((8, 8, 3)), 2, 1, 2, 2).observed)

    def test_block_out_of_bounds(self):
        with pytest.raises(BoundsError):
            mask_block(TensorShape((8, 8, 3)), 6, 1, 4, 2)

    @pytest.mark.parametrize("height, width", [(0, 2), (2, -1)])
    def test_block_extent_must_be_positive(self, height, width):
        with pytest.raises(BoundsError, match=f"block extent {height}x{width} must be positive"):
            mask_block(TensorShape((8, 8, 3)), 1, 1, height, width)

    def test_block_columns_out_of_bounds(self):
        with pytest.raises(BoundsError, match=r"block columns 7..9 out of range \[1, 8\]"):
            mask_block(TensorShape((8, 8, 3)), 1, 7, 2, 3)

    def test_masked_cells_are_the_named_rows(self):
        mask = mask_rows(TensorShape((4, 5, 3)), [2, 4])
        arr = mask.observed.reshape(mask.shape.sizes, order="F")
        assert not arr[[1, 3], :, :].any()
        assert arr[[0, 2], :, :].all()


class TestExtractObservations:
    def test_full_mask_all_cells(self):
        shape = TensorShape((3, 2))
        t = gen_oscillating(shape)
        mask = MissingMask(shape, np.ones(6, dtype=bool))
        obs = extract_observations(t, mask)
        assert obs.count == 6
        assert np.array_equal(obs.values, t.values)

    def test_indices_match_unravel_index(self):
        shape = TensorShape((3, 5, 2, 7))
        mask = mask_random(shape, 0.4, seed=3)
        obs = extract_observations(gen_oscillating(shape), mask)
        coords = np.unravel_index(np.flatnonzero(mask.observed), shape.sizes, order="F")
        assert np.array_equal(obs.indices, np.stack(coords, axis=1) + 1)

    def test_single_cell(self):
        shape = TensorShape((3, 2))
        t = gen_oscillating(shape)
        observed = np.zeros(6, dtype=bool)
        observed[4] = True  # cell (2, 2) in column-major order
        obs = extract_observations(t, MissingMask(shape, observed))
        assert obs.count == 1
        assert tuple(obs.indices[0]) == (2, 2)
        assert obs.values[0] == t.values[4]

    def test_count_matches_mask(self):
        shape = TensorShape((7, 7))
        t = gen_oscillating(shape)
        mask = mask_random(shape, 0.3, seed=8)
        obs = extract_observations(t, mask)
        assert obs.count == np.count_nonzero(mask.observed)

    def test_shape_mismatch(self):
        t = gen_oscillating(TensorShape((3, 2)))
        mask = MissingMask(TensorShape((2, 3)), np.ones(6, dtype=bool))
        with pytest.raises(ShapeError):
            extract_observations(t, mask)

    def test_perfect_model_objective_zero(self):
        # cross-module consistency: extracting a TT tensor's cells and
        # scoring the same cores leaves only ULP-level residual (the full
        # materialization and the per-entry chains associate products
        # through different BLAS kernels)
        shape = TensorShape((4, 3, 4))
        cores = random_init(shape, TTRank((1, 2, 2, 1)), seed=6)
        t = tt_full(cores)
        mask = MissingMask(shape, np.ones(shape.element_count, dtype=bool))
        obs = extract_observations(t, mask)
        assert objective(cores, obs) < 1e-24


class TestInitScale:
    def test_rank_one_matches_std_root(self):
        shape = TensorShape((4, 4, 4))
        t = gen_oscillating(shape)
        mask = mask_random(shape, 0.25, seed=0)
        obs = extract_observations(t, mask)
        assert default_init_scale(obs, TTRank((1, 1, 1, 1))) == pytest.approx(
            float(np.std(obs.values)) ** (1.0 / 3.0)
        )

    def test_interior_ranks_shrink_scale(self):
        shape = TensorShape((4, 4, 4))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.25, seed=0))
        spread = float(np.std(obs.values))
        scale = default_init_scale(obs, TTRank((1, 3, 3, 1)))
        assert scale == pytest.approx((spread * spread / 9.0) ** (1.0 / 6.0))

    def test_initial_predictions_match_data_size(self):
        # the whole point of the formula: random starts predict at data scale
        shape = TensorShape((4,) * 6)
        rank = TTRank((1, 4, 4, 4, 4, 4, 1))
        truth = tt_full(random_init(shape, rank, seed=1, scale=2.0))
        obs = extract_observations(truth, mask_random(shape, 0.5, seed=1))
        scale = default_init_scale(obs, rank)
        start = random_init(shape, rank, seed=2, scale=scale)
        predicted_spread = float(np.std(tt_full(start).values))
        data_spread = float(np.std(obs.values))
        assert 0.1 * data_spread < predicted_spread < 10.0 * data_spread

    def test_constant_observations_fallback(self):
        shape = TensorShape((2, 2))
        from ttcomplete import SparseObservations

        obs = SparseObservations(shape, np.array([[1, 1], [2, 2]]), np.array([4.0, 4.0]))
        assert default_init_scale(obs, TTRank((1, 1, 1))) == pytest.approx(4.0 ** (1.0 / 2.0))

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 255.0, 1e5])
    def test_ordinary_scale_keeps_the_usual_form(self, magnitude):
        shape = TensorShape((5, 4, 6))
        rank = TTRank((1, 3, 2, 1))
        truth = DenseTensor(shape, gen_oscillating(shape).values * magnitude + magnitude / 3)
        obs = extract_observations(truth, mask_random(shape, 0.3, seed=2))
        spread = float(np.std(np.sort(obs.values)))
        assert default_init_scale(obs, rank) == spread ** (1 / 3) / 6 ** (0.5 / 3)

    def test_fit_ignores_observation_order(self):
        # the values' spread summed in these two orders differs in its last bit
        img = synthetic_scene(16, seed=10)
        mask = mask_random(img.shape, 0.5, seed=10)
        obs = extract_observations(tensorize_image(img), tensorize_mask(mask))
        perm = np.random.default_rng(10).permutation(obs.count)
        shuffled = SparseObservations(obs.shape, obs.indices[perm], obs.values[perm])
        assert np.std(obs.values) != np.std(shuffled.values)
        rank = uniform_ranks(obs.shape, 3)
        cfg = OptimizeConfig(max_iters=3)
        (a, report_a), (b, report_b) = (fit_cores(o, rank, cfg) for o in (obs, shuffled))
        assert report_a.records == report_b.records
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.cores, b.cores))

    @pytest.mark.parametrize("magnitude", [1e300, 1e-300, 1e-160, 1.5e308])
    def test_extreme_values_give_a_finite_start(self, magnitude):
        # std(y)^2 overflows above about 1e154 and is subnormal near 1e-160, so the
        # scale takes std(y)^(1/N) itself; 2^e of max|y| = m * 2^e overflows at 1.5e308.
        # abs=0: approx's default absolute tolerance would pass any tiny scale
        shape = TensorShape((4, 4, 4))
        rank = uniform_ranks(shape, 2)
        signs = np.where(np.random.default_rng(4).random(64) < 0.5, -1.0, 1.0)
        truth = DenseTensor(shape, signs * magnitude)
        obs = extract_observations(truth, MissingMask(shape, np.ones(64, dtype=bool)))
        scale = default_init_scale(obs, rank)
        assert 0.0 < scale < math.inf
        assert scale == pytest.approx((float(np.std(signs)) * magnitude) ** (1 / 3) / 4 ** (1 / 6), rel=1e-12, abs=0)
        if magnitude < 1e308:  # random predictions of about 1.5e308 overflow in tt_full
            start = tt_full(random_init(shape, rank, seed=0, scale=scale)).values
            assert np.all(np.isfinite(start))
            assert 0.1 < float(np.sqrt(np.mean((start / magnitude) ** 2))) < 10.0

    @pytest.mark.parametrize(
        "values",
        [
            np.tile([5e-324, -5e-324], 32),  # std(y) keeps one bit: check only the range
            np.full(64, 1.7e308),
            # np.std of these 76 values, over 2^1023, rounds up to 2.0
            np.tile([np.finfo(float).max, -np.finfo(float).max], 38),
        ],
        ids=["min-subnormal", "constant-1.7e308", "max-float-pairs"],
    )
    def test_edge_of_the_float_range_gives_a_finite_scale(self, values):
        shape = TensorShape((values.size,))
        obs = extract_observations(DenseTensor(shape, values), MissingMask(shape, np.ones(values.size, bool)))
        assert 0.0 < default_init_scale(obs, TTRank((1, 1))) < math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(1, 3),
        st.data(),
    )
    def test_any_finite_values_give_a_finite_positive_scale(self, sizes, interior, data):
        shape = TensorShape(tuple(sizes))
        extremes = st.sampled_from([np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324, 0.0])
        finite = st.one_of(extremes, st.floats(allow_nan=False, allow_infinity=False))
        values = np.array(data.draw(st.lists(finite, min_size=shape.element_count, max_size=shape.element_count)))
        obs = extract_observations(DenseTensor(shape, values), MissingMask(shape, np.ones(values.size, bool)))
        assert 0.0 < default_init_scale(obs, uniform_ranks(shape, interior)) < math.inf


def _observed(shape: TensorShape, values) -> SparseObservations:
    values = np.asarray(values, dtype=float)
    return extract_observations(DenseTensor(shape, values), MissingMask(shape, np.ones(values.size, bool)))


def _dense_target(obs: SparseObservations) -> np.ndarray:
    """T as an N-d array: each distinct cell's mean observed value times prod(I) / K, and 0 elsewhere."""
    sizes = obs.shape.sizes
    cells, inverse = np.unique(np.ravel_multi_index(tuple((obs.indices - 1).T), sizes), return_inverse=True)
    inverse = inverse.ravel()
    means = np.bincount(inverse, weights=obs.values) / np.bincount(inverse)
    t = np.zeros(sizes)
    t.ravel()[cells] = means * (obs.shape.element_count / cells.size)
    return t


class TestInitialCores:
    def test_caps_the_rank(self):
        shape = TensorShape((2, 3, 2))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.2, seed=0))
        assert initial_cores(obs, TTRank((1, 9, 9, 1))).rank.ranks == (1, 2, 2, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=6),
        st.lists(st.integers(1, 4), min_size=5, max_size=5),
        st.floats(0.05, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_dense_tt_svd(self, sizes, inner, share, seed):
        # random cells, some repeated, leave segment levels; ranks past the shape's are capped. With at most 4
        # labels a mode and inner ranks of at most 4, a level has at most 16 labels, so every D_n is formed
        shape = TensorShape(tuple(sizes))
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, shape.element_count, max(1, round(share * shape.element_count)))
        indices = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
        obs = SparseObservations(shape, indices, rng.standard_normal(cells.size))
        start = initial_cores(obs, cap_ranks(shape, (1, *inner[: shape.order - 1], 1)))
        want = tt_svd_full(_dense_target(obs), start.rank.ranks)
        got = tt_full(start).as_array()
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "sizes, ranks",
        [((7,), (1, 1)), ((4, 4, 4), (1, 2, 2, 1)), ((3, 4, 5, 2), (1, 3, 3, 2, 1)), ((4,) * 6, (1, 3, 3, 3, 3, 3, 1))],
    )
    def test_fully_observed_exact_rank_starts_at_the_fit(self, sizes, ranks):
        shape = TensorShape(sizes)
        obs = _observed(shape, gen_tt_random(shape, TTRank(ranks), seed=len(sizes)).values)
        start = initial_cores(obs, TTRank(ranks))
        assert objective(start, obs) <= 1e-20 * 0.5 * float(np.dot(obs.values, obs.values))

    @pytest.mark.parametrize(
        "d, count",
        [(np.zeros((4, 3)), 2), (np.zeros((2, 5)), 3), (np.outer([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 2.0]), 3),
         (np.outer([1.0, 2.0], [3.0, 0.0, 1.0, 2.0, 5.0]), 4), (np.arange(6.0).reshape(2, 3), 3)],
        ids=["zero-tall", "zero-wide", "rank-1-tall", "rank-1-wide", "count-past-rows"],
    )
    def test_singular_vectors_are_completed_to_orthonormal_columns(self, d, count):
        u = data_module._top_right_vectors(d, count)
        assert u.shape == (d.shape[1], count)
        np.testing.assert_allclose(u.T @ u, np.eye(count), atol=1e-14)
        top = np.linalg.svd(d)[2][0]  # the leading right singular vector, where d is not 0
        if d.any():
            assert abs(float(top @ u[:, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_cores_have_equal_norms(self):
        shape = TensorShape((4, 5, 3, 4))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.5, seed=3))
        norms = [np.linalg.norm(c) for c in initial_cores(obs, uniform_ranks(shape, 3)).cores]
        assert np.allclose(norms, norms[0], rtol=1e-12, atol=0)

    def test_order_one_start_is_the_rescaled_data(self):
        # the start is T itself: 4 of 6 cells observed, so T is 6/4 times their values
        shape = TensorShape((6,))
        obs = SparseObservations(shape, np.array([[2], [5], [1], [6]]), np.array([3.0, -1.0, 4.0, 0.5]))
        core = initial_cores(obs, TTRank((1, 1))).cores[0]
        np.testing.assert_allclose(core.ravel(), 1.5 * np.array([4.0, 3.0, 0.0, 0.0, -1.0, 0.5]), rtol=1e-15)

    def test_duplicated_records_leave_the_bits(self):
        # a repeated cell enters as its mean, and v + v = 2v exactly
        img = synthetic_scene(16, seed=11)
        obs = extract_observations(tensorize_image(img), tensorize_mask(mask_random(img.shape, 0.7, seed=11)))
        twice = SparseObservations(obs.shape, np.tile(obs.indices, (2, 1)), np.tile(obs.values, 2))
        rank = uniform_ranks(obs.shape, 4)
        a, b = (initial_cores(o, rank) for o in (obs, twice))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.cores, b.cores))

    @pytest.mark.parametrize(
        "sizes, count, limit",
        [((4,) * 16, 20_000, 16 * 2**20), ((1000,) * 3, 5_000, 16 * 2**20), ((10**4,) * 3, 5_000, 48 * 2**20)],
        ids=["4^16", "1000^3", "10^4^3"],
    )
    def test_memory_is_not_proportional_to_the_cell_count(self, sizes, count, limit):
        # a level holds its node rows and its core, and D_n with the smaller Gram matrix only where D_n has at
        # most 16 cells per entry of the rows, the sort included; a formed D_n at 10^4^3 would take 2.5 GB
        shape = TensorShape(sizes)
        rng = np.random.default_rng(count)
        cells = rng.choice(shape.element_count, count, replace=False)
        indices = np.stack(np.unravel_index(cells, sizes), axis=1) + 1
        obs = SparseObservations(shape, indices, rng.standard_normal(count))
        tracemalloc.start()
        try:
            initial_cores(obs, uniform_ranks(shape, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_peak_follows_the_observations(self):
        # sparse48-cli's 48^3 input: with the cell means' temporaries and each level's per-node arrays freed once
        # spent, the start, its reversed sort included, peaks at 52 bytes per observation over what the call
        # starts with; keeping them to the end of their level reaches 95
        shape = TensorShape((48,) * 3)
        obs = extract_observations(gen_tt_random(shape, TTRank((1, 2, 2, 1)), 0), mask_random(shape, 0.6, 1))
        assert obs.count == 44_237
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            initial_cores(obs, TTRank((1, 2, 2, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - held) / obs.count < 64

    @staticmethod
    def _block_sparse(seed):
        """Node rows of a random block-sparse D (1-3 labels a parent, 17-199 labels) and D itself."""
        rng = np.random.default_rng(seed)
        parents, size, r = int(rng.integers(1, 60)), int(rng.integers(17, 200)), int(rng.integers(1, 5))
        count = int(rng.integers(1, min(8, size * r - 1) + 1))
        children = [np.sort(rng.choice(size, int(rng.integers(1, 4)), replace=False)) for _ in range(parents)]
        parent = np.repeat(np.arange(parents), [c.size for c in children])
        label = np.concatenate(children)
        rows = rng.standard_normal((label.size, r))
        d = np.zeros((parents, size, r))
        d[parent, label] = rows
        return (rows, parent, label, parents, size, count), d.reshape(parents, size * r)

    def test_node_iteration_nears_the_leading_singular_vectors(self):
        # U is orthonormal, D U is returned exactly, and U keeps nearly all of the top singular values' energy
        ratios = []
        for seed in range(40):
            args, d = self._block_sparse(seed)
            u, du = data_module._top_right_vectors_of_nodes(*args)
            count = args[-1]
            np.testing.assert_allclose(u.T @ u, np.eye(count), atol=1e-12)
            np.testing.assert_allclose(du, d @ u, rtol=0, atol=1e-12 * np.linalg.norm(d))
            best = np.sum(np.linalg.svd(d, compute_uv=False)[:count] ** 2)
            ratios.append(np.linalg.norm(du) ** 2 / best)
        assert min(ratios) > 0.95 and np.median(ratios) > 0.9999

    def test_node_iteration_finds_well_separated_singular_vectors(self):
        # one node a parent, 4^-i apart: D's singular vectors are the nodes' columns, and the iteration gets them
        rows = 4.0 ** -np.arange(30.0)[[5, 0, 9, 2, 7, 1, 3]][:, None]
        label = np.array([40, 3, 17, 25, 0, 33, 8])
        u, _ = data_module._top_right_vectors_of_nodes(rows, np.arange(7), label, 7, 50, 2)
        np.testing.assert_allclose(np.abs(u), np.eye(50)[:, [3, 33]], atol=1e-12)

    def test_sparse_levels_ignore_order_and_repeats(self, monkeypatch):
        # at 200^3 with 2,000 cells the first two levels stay node rows; the start still depends on the cells alone
        calls = []
        iterate = data_module._top_right_vectors_of_nodes
        monkeypatch.setattr(data_module, "_top_right_vectors_of_nodes", lambda *a: calls.append(a) or iterate(*a))
        shape = TensorShape((200,) * 3)
        rng = np.random.default_rng(5)
        obs = SparseObservations(shape, rng.integers(1, 201, (2_000, 3)), rng.standard_normal(2_000))
        perm = rng.permutation(obs.count)
        shuffled = SparseObservations(shape, obs.indices[perm], obs.values[perm])
        twice = SparseObservations(shape, np.tile(obs.indices, (2, 1)), np.tile(obs.values, 2))
        rank = uniform_ranks(shape, 4)
        a, b, c = (initial_cores(o, rank) for o in (obs, shuffled, twice))
        assert len(calls) == 6
        assert all(x.tobytes() == y.tobytes() == z.tobytes() for x, y, z in zip(a.cores, b.cores, c.cores))

    @pytest.mark.parametrize(
        "values",
        [np.tile([np.finfo(float).max, -np.finfo(float).max], 250), np.full(500, 5e-324), np.zeros(500)],
        ids=["max-float-pairs", "min-subnormal", "zeros"],
    )
    def test_sparse_levels_give_a_finite_start(self, values):
        shape = TensorShape((300,) * 3)
        obs = SparseObservations(shape, np.random.default_rng(6).integers(1, 301, (500, 3)), values)
        start = initial_cores(obs, uniform_ranks(shape, 4))
        assert all(np.all(np.isfinite(c)) for c in start.cores)
        if values.any():
            assert all(np.any(c != 0) for c in start.cores)
        else:  # the zero tensor, the exact fit
            assert not np.any(start.cores[-1])

    def test_sparse_levels_start_a_recovering_fit(self):
        # a rank-2 100^3 truth, 2% observed: its start's first level stays node rows, and the fit recovers it
        shape = TensorShape((100,) * 3)
        truth = gen_tt_random(shape, TTRank((1, 2, 2, 1)), seed=1)
        cells = np.random.default_rng(1).permutation(shape.element_count)[:25_000]  # column-major offsets
        observed = np.zeros(shape.element_count, bool)
        observed[cells[:20_000]] = True
        obs = extract_observations(truth, MissingMask(shape, observed))
        cores, report = fit_cores(obs, TTRank((1, 2, 2, 1)), OptimizeConfig(max_iters=300, grad_tol=1e-8))
        assert report.reason == "grad-tol"
        held, want = tt_full(cores).values[cells[20_000:]], truth.values[cells[20_000:]]
        assert np.linalg.norm(held - want) < 1e-8 * np.linalg.norm(want)

    def test_ignores_observation_order(self):
        img = synthetic_scene(16, seed=10)
        obs = extract_observations(tensorize_image(img), tensorize_mask(mask_random(img.shape, 0.5, seed=10)))
        perm = np.random.default_rng(10).permutation(obs.count)
        shuffled = SparseObservations(obs.shape, obs.indices[perm], obs.values[perm])
        assert np.std(obs.values) != np.std(shuffled.values)
        rank = uniform_ranks(obs.shape, 3)
        a, b = (initial_cores(o, rank) for o in (obs, shuffled))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.cores, b.cores))

    @pytest.mark.parametrize(
        "values",
        [
            np.tile([np.finfo(float).max, -np.finfo(float).max], 4),
            np.tile([5e-324, -5e-324], 4),
            np.full(8, 2.5),
            np.zeros(8),
        ],
        ids=["max-float-pairs", "min-subnormal", "constant", "zeros"],
    )
    @pytest.mark.parametrize("sizes", [(8,), (2, 4), (2, 2, 2)], ids=["order-1", "order-2", "order-3"])
    def test_edge_of_the_float_range_gives_a_finite_start(self, values, sizes):
        shape = TensorShape(sizes)
        start = initial_cores(_observed(shape, values), uniform_ranks(shape, 2))
        assert all(np.all(np.isfinite(c)) for c in start.cores)
        if values.any():
            assert all(np.any(c != 0) for c in start.cores)
        else:  # the zero tensor, the exact fit
            assert not tt_full(start).values.any()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(1, 3),
        st.data(),
    )
    def test_any_finite_values_give_a_finite_nonzero_start(self, sizes, interior, data):
        shape = TensorShape(tuple(sizes))
        extremes = st.sampled_from([np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324, 0.0])
        finite = st.one_of(extremes, st.floats(allow_nan=False, allow_infinity=False))
        values = data.draw(st.lists(finite, min_size=shape.element_count, max_size=shape.element_count))
        obs = _observed(shape, values)
        start = initial_cores(obs, uniform_ranks(shape, interior))
        assert all(np.all(np.isfinite(c)) for c in start.cores)
        if obs.values.any():
            assert all(np.any(c != 0) for c in start.cores)
        else:  # the zero tensor, the exact fit
            assert not tt_full(start).values.any()
