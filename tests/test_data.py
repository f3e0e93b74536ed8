import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    BoundsError,
    MissingMask,
    OptimizeConfig,
    ShapeError,
    TTRank,
    TensorShape,
    default_init_scale,
    extract_observations,
    fit_cores,
    gen_oscillating,
    gen_tt_random,
    mask_block,
    mask_random,
    mask_rows,
    objective,
    random_init,
    rse,
    tt_full,
    uniform_ranks,
)
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

    def test_block_counts(self):
        mask = mask_block(TensorShape((8, 8, 3)), 2, 3, 4, 2)
        assert np.count_nonzero(mask.observed) == 8 * 8 * 3 - 4 * 2 * 3

    def test_full_block_rejected(self):
        with pytest.raises(ValueError):
            mask_block(TensorShape((256, 256, 3)), 1, 1, 256, 256)

    def test_block_out_of_bounds(self):
        with pytest.raises(BoundsError):
            mask_block(TensorShape((8, 8, 3)), 6, 1, 4, 2)

    def test_masked_cells_are_the_named_rows(self):
        mask = mask_rows(TensorShape((4, 5, 3)), [2, 4])
        arr = mask.as_array()
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
        truth = gen_tt_random(shape, rank, seed=1, scale=2.0)
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
