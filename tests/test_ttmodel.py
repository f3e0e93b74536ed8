import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    CapacityError,
    OptimizeConfig,
    ShapeError,
    TTCores,
    TTRank,
    TensorShape,
    cap_ranks,
    extract_observations,
    fit_cores,
    flatten_params,
    mask_random,
    random_init,
    tt_full,
    unflatten_params,
    uniform_ranks,
)
import ttcomplete.complete as complete
import ttcomplete.engine as engine
import ttcomplete.ttmodel as ttmodel
from ttcomplete.optimize import minimize
from oracles import entry_by_matrix_chain, full_by_entries, full_by_sweep, gen_oscillating, outer_product


def two_mode_example():
    """Cores with slices G1: [1 2], [3 4] and G2: [5;6], [7;8]."""
    c1 = np.zeros((1, 2, 2))
    c1[0, 0, :] = [1.0, 2.0]
    c1[0, 1, :] = [3.0, 4.0]
    c2 = np.zeros((2, 2, 1))
    c2[:, 0, 0] = [5.0, 6.0]
    c2[:, 1, 0] = [7.0, 8.0]
    return TTCores((c1, c2), TensorShape((2, 2)), TTRank((1, 2, 1)))


class TestRankChains:
    def test_boundary_ranks_enforced(self):
        with pytest.raises(ShapeError):
            TTRank((2, 3, 1))
        with pytest.raises(ShapeError):
            TTRank((1, 3, 2))

    def test_chain_needs_two_entries(self):
        with pytest.raises(ShapeError, match="a rank chain needs at least two entries"):
            TTRank((1,))

    def test_non_positive_rank_rejected(self):
        with pytest.raises(ShapeError, match="contains non-positive rank 0"):
            TTRank((1, 0, 1))

    def test_core_count_must_match_the_order(self):
        shape = TensorShape((2, 2))
        with pytest.raises(ShapeError, match="needs 2 cores and a rank chain of length 3"):
            TTCores((np.zeros((1, 2, 1)),), shape, TTRank((1, 1, 1)))
        with pytest.raises(ShapeError, match="needs 2 cores and a rank chain of length 3"):
            TTCores((np.zeros((1, 2, 1)),) * 2, shape, TTRank((1, 1)))

    def test_core_shape_checked(self):
        shape = TensorShape((2, 2))
        rank = TTRank((1, 2, 1))
        bad = (np.zeros((1, 2, 2)), np.zeros((2, 3, 1)))
        with pytest.raises(ShapeError):
            TTCores(bad, shape, rank)

    def test_rank_chain_length_checked(self):
        with pytest.raises(ShapeError):
            random_init(TensorShape((3, 3, 3)), TTRank((1, 2, 1)), seed=0)

    def test_non_integral_ranks_rejected(self):
        shape = TensorShape((3, 3, 3))
        with pytest.raises(ShapeError, match="rank 2.7 is not an integer"):
            TTRank((1, 2.7, 1))
        with pytest.raises(ShapeError, match="rank 2.5 is not an integer"):
            uniform_ranks(shape, 2.5)
        with pytest.raises(ShapeError, match="rank 0.5 is not an integer"):
            cap_ranks(TensorShape((1, 3)), (1, 0.5, 1))  # capped to 1 if truncated

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_ranks_rejected(self, flag):
        with pytest.raises(ShapeError, match=f"^rank {flag!r} is not an integer$"):
            TTRank((1, flag, 1))

    def test_integral_ranks_accepted(self):
        shape = TensorShape((3, 3, 3))
        assert TTRank((1.0, np.int64(2), 1)).ranks == (1, 2, 1)
        assert uniform_ranks(shape, 2.0) == uniform_ranks(shape, np.int16(2)) == TTRank((1, 2, 2, 1))

    def test_cap_ranks(self):
        shape = TensorShape((4,) * 8 + (3,))
        capped = cap_ranks(shape, (1,) + (16,) * 8 + (1,))
        assert capped.ranks == (1, 4, 16, 16, 16, 16, 16, 12, 3, 1)
        assert uniform_ranks(shape, 16) == capped


class TestRandomInit:
    def test_deterministic_per_seed(self):
        shape = TensorShape((3, 3, 3))
        rank = TTRank((1, 2, 2, 1))
        a = random_init(shape, rank, seed=7)
        b = random_init(shape, rank, seed=7)
        for ca, cb in zip(a.cores, b.cores):
            assert np.array_equal(ca, cb)

    def test_param_count(self):
        cores = random_init(TensorShape((3, 3, 3)), TTRank((1, 2, 2, 1)), seed=0)
        assert cores.param_count == 1 * 3 * 2 + 2 * 3 * 2 + 2 * 3 * 1

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="scale must be finite and non-negative, got -1.0"):
            random_init(TensorShape((2, 2)), TTRank((1, 2, 1)), seed=3, scale=-1.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        # a NaN fails every comparison, so only "not 0 <= scale < inf" refuses it
        with pytest.raises(ValueError, match=f"scale must be finite and non-negative, got {scale}"):
            random_init(TensorShape((2, 2)), TTRank((1, 2, 1)), seed=3, scale=scale)

    def test_zero_scale_gives_zero_cores(self):
        cores = random_init(TensorShape((2, 2)), TTRank((1, 2, 1)), seed=3, scale=0.0)
        for c in cores.cores:
            assert np.all(c == 0.0)


def cell(cores, idx):
    """The 1-based entry ``idx`` of the materialized tensor."""
    return float(tt_full(cores).as_array()[tuple(i - 1 for i in idx)])


class TestEntryEvaluation:
    def test_all_ones_rank_one(self):
        shape = TensorShape((2, 3, 2))
        rank = TTRank((1, 1, 1, 1))
        cores = TTCores(
            tuple(np.ones((1, s, 1)) for s in shape.sizes), shape, rank
        )
        for idx in itertools.product(range(1, 3), range(1, 4), range(1, 3)):
            assert cell(cores, idx) == 1.0

    def test_two_mode_hand_values(self):
        cores = two_mode_example()
        assert cell(cores, (1, 1)) == 17.0
        assert cell(cores, (2, 2)) == 53.0
        for idx in itertools.product((1, 2), repeat=2):
            assert cell(cores, idx) == entry_by_matrix_chain(cores, idx)

    def test_single_mode(self):
        cores = TTCores(
            (np.array([[[2.0], [5.0], [7.0]]]),), TensorShape((3,)), TTRank((1, 1))
        )
        assert cell(cores, (2,)) == 5.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_linear_in_each_core(self, seed):
        rng = np.random.default_rng(seed)
        cores = random_init(TensorShape((3, 2, 3)), TTRank((1, 2, 2, 1)), seed=seed)
        idx = tuple(rng.integers(1, s + 1) for s in cores.shape.sizes)
        base = cell(cores, idx)
        which = int(rng.integers(0, 3))
        scaled_cores = list(cores.cores)
        scaled_cores[which] = 2.5 * scaled_cores[which]
        scaled = TTCores(tuple(scaled_cores), cores.shape, cores.rank)
        assert cell(scaled, idx) == pytest.approx(2.5 * base, rel=1e-14)


class TestFullReconstruction:
    def test_two_mode_matches_oracle(self):
        cores = two_mode_example()
        full = tt_full(cores)
        assert np.array_equal(full.as_array(), full_by_entries(cores))

    def test_rank_one_is_outer_product(self):
        rng = np.random.default_rng(11)
        shape = TensorShape((3, 4, 2))
        vectors = [rng.standard_normal(s) for s in shape.sizes]
        cores = TTCores(
            tuple(v.reshape(1, -1, 1) for v in vectors), shape, TTRank((1, 1, 1, 1))
        )
        assert np.allclose(tt_full(cores).as_array(), outer_product(vectors), atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entry_full_agreement_exhaustive(self, seed):
        shape = TensorShape((4, 3, 4, 2))
        cores = random_init(shape, TTRank((1, 3, 2, 3, 1)), seed=seed)
        full = tt_full(cores).as_array()
        for idx in itertools.product(*(range(1, s + 1) for s in shape.sizes)):
            expected = entry_by_matrix_chain(cores, idx)
            assert full[tuple(i - 1 for i in idx)] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    # tt_full meets in the middle at s = 1 for orders 1 and 2 (at order 1 the suffix
    # is empty); at s = 1, 2 for (9, 2, 2), (2, 2, 9); at s = 1, 2, 3 for (5, 2, 2, 2),
    # (2, 3, 2, 3), (2, 2, 2, 5); at s = 1..4 for the last four order-5 shapes.
    # Interior rank 1 is a rank-1 chain.
    @pytest.mark.parametrize("interior", [1, 3])
    @pytest.mark.parametrize(
        "sizes",
        [
            (4,), (1,), (3, 4), (1, 6), (6, 1), (9, 2, 2), (2, 2, 9), (1, 1, 1),
            (5, 2, 2, 2), (2, 3, 2, 3), (2, 2, 2, 5), (1, 2, 1, 4),
            (3, 1, 2, 1, 3), (2, 2, 3, 2, 2), (2, 2, 2, 2, 6), (2, 2, 2, 2, 20),
        ],
    )
    def test_every_split_matches_entries(self, sizes, interior):
        shape = TensorShape(sizes)
        cores = random_init(shape, uniform_ranks(shape, interior), seed=len(sizes) + interior)
        ref = full_by_entries(cores)
        assert np.allclose(tt_full(cores).as_array(), ref, rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))

    def test_image_shape_matches_sweep(self):
        shape = TensorShape((4,) * 8 + (3,))
        cores = random_init(shape, uniform_ranks(shape, 8), seed=3)
        ref = full_by_sweep(cores)
        assert np.max(np.abs(tt_full(cores).values - ref)) <= 1e-14 * np.max(np.abs(ref))

    @given(st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_memory_order_changes_no_bit(self, data):
        # random_init makes C-ordered cores; a fit hands tt_full column-major views of its flat vector
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=10), label="sizes")
        inner = data.draw(st.lists(st.integers(1, 6), min_size=len(sizes) - 1, max_size=len(sizes) - 1))
        shape = TensorShape(sizes)
        cores = random_init(shape, cap_ranks(shape, (1, *inner, 1)), seed=data.draw(st.integers(0, 2**32 - 1)))
        views = unflatten_params(cores, flatten_params(cores))
        assert all(c.flags.f_contiguous for c in views.cores)
        assert tt_full(views).values.tobytes() == tt_full(cores).values.tobytes()

    @pytest.mark.parametrize("sizes", [(7,), (48, 48), (3, 1, 2, 1, 3), (2, 2, 2, 2, 20), (4,) * 6 + (3,)])
    def test_prefix_rows_are_a_fully_observed_tries_leaf_rows(self, sizes, monkeypatch):
        shape = TensorShape(sizes)
        cores = random_init(shape, uniform_ranks(shape, 3), seed=len(sizes))
        grow, steps = ttmodel._grow, []

        def recorded(rows, core):
            steps.append((rows is ttmodel._ROOT, grow(rows, core)))
            return steps[-1][1]

        monkeypatch.setattr(ttmodel, "_grow", recorded)
        tt_full(cores)
        monkeypatch.undo()
        # the prefix sweep runs first; a suffix sweep, if any, starts again from the root
        roots = [k for k, (root, _) in enumerate(steps) if root]
        s = roots[1] if len(roots) > 1 else len(steps)
        cells = np.indices(sizes).reshape(len(sizes), -1).T + 1
        order, fresh = engine._sort_rows(cells, sizes)
        trie = engine._Trie(cells, order, fresh[:s], sizes)
        assert trie.depths == [None] * s  # every depth complete
        leaves, _ = trie.forward(cores.cores[:s])
        assert leaves.tobytes() == steps[s - 1][1].tobytes()

    def test_capacity_guard(self):
        # 4097 * 4096 = 16,781,312 cells, one row over the 2**24 limit; the cores stay tiny
        cores = random_init(TensorShape((4097, 4096)), TTRank((1, 1, 1)), seed=0)
        with pytest.raises(CapacityError, match="over the limit of 16777216"):
            tt_full(cores)


class TestParameterPacking:
    def test_round_trip_bit_exact(self):
        cores = random_init(TensorShape((3, 3, 3)), TTRank((1, 2, 2, 1)), seed=5)
        again = unflatten_params(cores, flatten_params(cores))
        for ca, cb in zip(cores.cores, again.cores):
            assert np.array_equal(ca, cb)

    def test_flat_length(self):
        cores = random_init(TensorShape((3, 3, 3)), TTRank((1, 2, 2, 1)), seed=0)
        assert flatten_params(cores).size == 24

    def test_zero_vector_gives_zero_cores(self):
        template = random_init(TensorShape((3, 3, 3)), TTRank((1, 2, 2, 1)), seed=0)
        zeros = unflatten_params(template, np.zeros(template.param_count))
        for c in zeros.cores:
            assert np.all(c == 0.0)

    def test_length_mismatch(self):
        template = random_init(TensorShape((3, 3)), TTRank((1, 2, 1)), seed=0)
        with pytest.raises(ShapeError):
            unflatten_params(template, np.zeros(template.param_count + 1))
        with pytest.raises(ShapeError, match="has 3 entries, expected 12"):
            unflatten_params(template, np.zeros(3))

    def test_views_of_the_vector_with_the_template_chain(self):
        template = random_init(TensorShape((3, 4, 2)), TTRank((1, 2, 3, 1)), seed=1)
        flat = np.arange(template.param_count, dtype=float)
        cores = unflatten_params(template, flat)
        assert cores.shape is template.shape and cores.rank is template.rank
        assert [c.shape for c in cores.cores] == [c.shape for c in template.cores]
        assert all(c.dtype == np.float64 and np.shares_memory(c, flat) for c in cores.cores)
        assert np.array_equal(flatten_params(cores), flat)

    def test_fit_validates_cores_a_fixed_number_of_times(self, monkeypatch):
        # fit_cores builds its core views once per fit, so TTCores's checks do not grow with the evaluations
        shape = TensorShape((4, 4, 4))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.5, seed=2))
        checks = []
        post_init = TTCores.__post_init__
        monkeypatch.setattr(TTCores, "__post_init__", lambda self: checks.append(1) or post_init(self))
        counts = []
        for iters in (2, 20):
            checks.clear()
            _, report = fit_cores(obs, TTRank((1, 2, 2, 1)), OptimizeConfig(max_iters=iters))
            counts.append((len(checks), report.evals))
        assert counts[0][0] == counts[1][0]
        assert counts[1][1] > counts[0][1]

    def test_fit_returns_views_of_the_optimizer_result(self, monkeypatch):
        # the callback overwrites one working vector in place; the fitted cores must not be views of it
        shape = TensorShape((4, 4, 4))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.5, seed=2))
        results = []
        monkeypatch.setattr(complete, "minimize", lambda *args: results.append(minimize(*args)) or results[-1])
        cores, _ = fit_cores(obs, TTRank((1, 2, 2, 1)), OptimizeConfig(max_iters=5))
        assert all(np.shares_memory(c, results[0][0]) for c in cores.cores)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_round_trip_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        order = int(rng.integers(1, 5))
        sizes = tuple(int(v) for v in rng.integers(1, 5, order))
        ranks = (1,) + tuple(int(v) for v in rng.integers(1, 4, order - 1)) + (1,)
        cores = random_init(TensorShape(sizes), TTRank(ranks), seed=seed)
        again = unflatten_params(cores, flatten_params(cores))
        for ca, cb in zip(cores.cores, again.cores):
            assert np.array_equal(ca, cb)
