import numpy as np
import pytest

from ttcomplete import BoundsError, DenseTensor, ShapeError, TensorShape
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
