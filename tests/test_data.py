import math

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
    default_init_scale,
    extract_observations,
    fit_cores,
    gen_oscillating,
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
from oracles import outer_product


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
        cores, _ = fit_cores(obs, uniform_ranks(shape, 8), OptimizeConfig(max_iters=200), seed=1)
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


class TestInitialCores:
    def test_same_seed_same_bits(self):
        shape = TensorShape((4, 5, 3, 4))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.5, seed=3))
        rank = uniform_ranks(shape, 3)
        a, b, c = (initial_cores(obs, rank, seed) for seed in (7, 7, 8))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.cores, b.cores))
        assert not all(np.array_equal(x, y) for x, y in zip(a.cores, c.cores))

    def test_follows_the_stated_rule(self):
        # middle slices eye + sigma/sqrt(r_{n-1}) N(0,1); boundary cores N(0, s^2),
        # s = (spread/sqrt(r_1))^(1/2); one generator draws core 1..N in turn
        shape = TensorShape((3, 4, 5, 2))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.3, seed=1))
        rank = TTRank((1, 3, 4, 2, 1))
        start = initial_cores(obs, rank, seed=5)
        rng = np.random.default_rng(5)
        noise = [rng.standard_normal(c.shape) for c in start.cores]
        s = math.sqrt(data_module._spread(obs.values)) / 3**0.25
        sigma = data_module._START_NOISE
        np.testing.assert_array_equal(start.cores[0], s * noise[0])
        np.testing.assert_array_equal(start.cores[3], s * noise[3])
        for n in (1, 2):
            r_in, _, r_out = start.cores[n].shape
            want = np.eye(r_in, r_out)[:, None, :] + sigma / math.sqrt(r_in) * noise[n]
            np.testing.assert_array_equal(start.cores[n], want)

    def test_caps_the_rank(self):
        shape = TensorShape((2, 3, 2))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.2, seed=0))
        assert initial_cores(obs, TTRank((1, 9, 9, 1)), 0).rank.ranks == (1, 2, 2, 1)

    def test_order_one_is_the_random_start_at_the_data_spread(self):
        shape = TensorShape((6,))
        obs = _observed(shape, [3.0, -1.0, 4.0, 1.0, -5.0, 9.0])
        scale = default_init_scale(obs, TTRank((1, 1)))
        assert scale == data_module._spread(obs.values)
        want = random_init(shape, TTRank((1, 1)), seed=2, scale=scale).cores[0]
        assert initial_cores(obs, TTRank((1, 1)), seed=2).cores[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("sizes", [(6,), (5, 4), (3, 4, 5), (4,) * 8 + (3,)])
    def test_start_is_the_random_init_draw_scaled(self, sizes):
        # boundary cores sqrt(spread) / r_1^(1/4) times random_init's draw, middle cores
        # eye + sigma / sqrt(r_{n-1}) times it, an order-1 train's core spread times it
        shape = TensorShape(sizes)
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.4, seed=2))
        start = initial_cores(obs, uniform_ranks(shape, 3), seed=4)
        ranks = start.rank.ranks
        spread = data_module._spread(obs.values)
        sigma = data_module._START_NOISE
        for n, draw in enumerate(random_init(shape, start.rank, seed=4).cores):
            if len(sizes) == 1:
                want = spread * draw
            elif n in (0, len(sizes) - 1):
                want = math.sqrt(spread) / ranks[1] ** 0.25 * draw
            else:
                want = np.eye(ranks[n], ranks[n + 1])[:, None, :] + sigma / math.sqrt(ranks[n]) * draw
            assert start.cores[n].tobytes() == want.tobytes()

    def test_ignores_observation_order(self):
        img = synthetic_scene(16, seed=10)
        obs = extract_observations(tensorize_image(img), tensorize_mask(mask_random(img.shape, 0.5, seed=10)))
        perm = np.random.default_rng(10).permutation(obs.count)
        shuffled = SparseObservations(obs.shape, obs.indices[perm], obs.values[perm])
        assert np.std(obs.values) != np.std(shuffled.values)
        rank = uniform_ranks(obs.shape, 3)
        a, b = (initial_cores(o, rank, 0) for o in (obs, shuffled))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.cores, b.cores))

    @pytest.mark.parametrize(
        "sizes, interior",
        [((16, 16), 4), ((8, 8, 8), 2), ((4,) * 8 + (3,), 8), ((4,) * 10, 3)],
        ids=["order-2", "order-3", "order-9", "order-10"],
    )
    def test_predictions_have_about_the_data_spread(self, sizes, interior):
        # each middle core's noise grows the spread by about (1 + sigma^2)^(1/2):
        # 3.4x at order 10 with sigma = 0.6, so the median stays within 4x
        shape = TensorShape(sizes)
        rng = np.random.default_rng(len(sizes))
        observed = np.zeros(shape.element_count, dtype=bool)
        observed[rng.choice(shape.element_count, min(2000, shape.element_count), replace=False)] = True
        truth = DenseTensor(shape, 37.0 * rng.standard_normal(shape.element_count) + 5.0)
        obs = extract_observations(truth, MissingMask(shape, observed))
        rank = uniform_ranks(shape, interior)
        spreads = [float(np.std(tt_full(initial_cores(obs, rank, seed)).values)) for seed in range(9)]
        ratio = float(np.median(spreads)) / float(np.std(obs.values))
        assert 0.25 < ratio < 4.0

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
        start = initial_cores(_observed(shape, values), uniform_ranks(shape, 2), seed=0)
        assert all(np.all(np.isfinite(c)) and np.any(c != 0) for c in start.cores)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_any_finite_values_give_a_finite_nonzero_start(self, sizes, interior, seed, data):
        shape = TensorShape(tuple(sizes))
        extremes = st.sampled_from([np.finfo(float).max, -np.finfo(float).max, 5e-324, -5e-324, 0.0])
        finite = st.one_of(extremes, st.floats(allow_nan=False, allow_infinity=False))
        values = data.draw(st.lists(finite, min_size=shape.element_count, max_size=shape.element_count))
        obs = _observed(shape, values)
        start = initial_cores(obs, uniform_ranks(shape, interior), seed)
        assert all(np.all(np.isfinite(c)) for c in start.cores)
        # an order-1 core is spread * N(0, 1), which rounds to 0 where the spread is subnormal
        if shape.order > 1 or data_module._spread(obs.values) >= np.finfo(float).tiny:
            assert all(np.any(c != 0) for c in start.cores)
