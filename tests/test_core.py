import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    BoundsError,
    DenseTensor,
    ShapeError,
    TensorShape,
    permute,
    reshape,
    tensor_from_array,
)
from oracles import lin_offset_by_enumeration


class TestTensorShape:
    def test_basic_properties(self):
        shape = TensorShape((3, 4, 5))
        assert shape.order == 3
        assert shape.element_count == 60
        assert str(shape) == "3x4x5"

    @pytest.mark.parametrize("bad", [(), (0,), (3, -1)])
    def test_invalid_sizes_rejected(self, bad):
        with pytest.raises(ShapeError):
            TensorShape(bad)

    def test_oversized_count_rejected(self):
        with pytest.raises(ShapeError):
            TensorShape((2**31, 2**31, 2**31))


class TestIndexing:
    """``DenseTensor.__getitem__`` reads the column-major offset of a 1-based index."""

    @staticmethod
    def offsets(sizes):
        shape = TensorShape(sizes)
        return DenseTensor(shape, np.arange(float(shape.element_count)))

    def test_origin_maps_to_zero(self):
        assert self.offsets((3, 4))[(1, 1)] == 0

    def test_hand_value(self):
        # (2-1) + (3-1)*3 = 7, cross-checked by enumerating all 12 cells
        t = self.offsets((3, 4))
        assert t[(2, 3)] == t.values[7] == 7
        assert lin_offset_by_enumeration((3, 4), (2, 3)) == 7

    def test_last_cell(self):
        t = self.offsets((2, 2, 2))
        assert t[(2, 2, 2)] == t.shape.element_count - 1

    def test_multi_index_hand_values(self):
        assert self.offsets((5,))[(1,)] == 0
        assert self.offsets((2, 3, 4))[(2, 3, 4)] == 23
        assert self.offsets((2, 3, 4))[(2, 1, 2)] == 7

    def test_out_of_bounds_names_mode(self):
        t = self.offsets((3, 4))
        with pytest.raises(BoundsError, match="mode 2"):
            t[(1, 5)]
        with pytest.raises(BoundsError):
            t[(1, 1, 1)]


class TestReshapePermute:
    def test_reshape_keeps_values(self):
        t = DenseTensor(TensorShape((4,)), np.array([1.0, 2.0, 3.0, 4.0]))
        r = reshape(t, TensorShape((2, 2)))
        assert np.array_equal(r.values, [1.0, 2.0, 3.0, 4.0])

    def test_reshape_round_trip(self):
        t = DenseTensor(TensorShape((2, 2)), np.arange(4.0))
        back = reshape(reshape(t, TensorShape((4,))), TensorShape((2, 2)))
        assert np.array_equal(back.values, t.values)
        assert back.shape == t.shape

    def test_reshape_count_mismatch(self):
        t = DenseTensor(TensorShape((4,)), np.arange(4.0))
        with pytest.raises(ShapeError):
            reshape(t, TensorShape((3,)))

    def test_image_to_seventeen_way(self):
        shape = TensorShape((256, 256, 3))
        t = DenseTensor(shape, np.zeros(shape.element_count))
        r = reshape(t, TensorShape((2,) * 16 + (3,)))
        assert r.shape.order == 17
        assert r.shape.element_count == shape.element_count

    def test_identity_permutation(self):
        rng = np.random.default_rng(0)
        t = tensor_from_array(rng.standard_normal((2, 3, 4)))
        p = permute(t, (1, 2, 3))
        assert np.array_equal(p.values, t.values)

    def test_transpose_case(self):
        rng = np.random.default_rng(1)
        t = tensor_from_array(rng.standard_normal((2, 3)))
        p = permute(t, (2, 1))
        assert p.shape.sizes == (3, 2)
        assert p[(3, 2)] == t[(2, 3)]

    def test_seventeen_way_interleave(self):
        rng = np.random.default_rng(2)
        t = tensor_from_array(rng.standard_normal((2,) * 16 + (3,)))
        order = (1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15, 8, 16, 17)
        p = permute(t, order)
        assert p.shape.sizes == (2,) * 16 + (3,)
        # spot-check one cell through the mode mapping
        src = (1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2, 1, 3)
        dst = tuple(src[o - 1] for o in order)
        assert p[dst] == t[src]

    def test_not_a_permutation(self):
        t = tensor_from_array(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            permute(t, (1, 1))

    @given(st.integers(0, 2**32 - 1), st.permutations([1, 2, 3]))
    @settings(max_examples=50)
    def test_permute_inverse_round_trip(self, seed, perm):
        rng = np.random.default_rng(seed)
        t = tensor_from_array(rng.standard_normal((2, 3, 4)))
        inverse = [0] * 3
        for out_mode, src in enumerate(perm, start=1):
            inverse[src - 1] = out_mode
        back = permute(permute(t, perm), inverse)
        assert np.array_equal(back.values, t.values)
