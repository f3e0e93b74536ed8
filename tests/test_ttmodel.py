import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    CapacityError,
    ShapeError,
    TTCores,
    TTRank,
    TensorShape,
    cap_ranks,
    flatten_params,
    random_init,
    tt_full,
    unflatten_params,
    uniform_ranks,
)
from oracles import entry_by_matrix_chain, full_by_entries, outer_product


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

    def test_core_shape_checked(self):
        shape = TensorShape((2, 2))
        rank = TTRank((1, 2, 1))
        bad = (np.zeros((1, 2, 2)), np.zeros((2, 3, 1)))
        with pytest.raises(ShapeError):
            TTCores(bad, shape, rank)

    def test_rank_chain_length_checked(self):
        with pytest.raises(ShapeError):
            random_init(TensorShape((3, 3, 3)), TTRank((1, 2, 1)), seed=0)

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
