import numpy as np
import pytest

from ttcomplete import DenseTensor, ShapeError, TensorShape
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
    """``as_array()`` places 1-based cell (i_1, ..., i_N) at the column-major offset."""

    @staticmethod
    def offset(sizes, idx):
        """The buffer offset ``as_array()`` shows at ``idx``, checked by enumeration."""
        shape = TensorShape(sizes)
        t = DenseTensor(shape, np.arange(float(shape.element_count)))
        found = t.as_array()[tuple(i - 1 for i in idx)]
        assert found == lin_offset_by_enumeration(sizes, idx)
        return found

    def test_origin_maps_to_zero(self):
        assert self.offset((3, 4), (1, 1)) == 0

    def test_hand_value(self):
        # (2-1) + (3-1)*3 = 7
        assert self.offset((3, 4), (2, 3)) == 7

    def test_last_cell(self):
        assert self.offset((2, 2, 2), (2, 2, 2)) == 7

    def test_multi_index_hand_values(self):
        assert self.offset((5,), (1,)) == 0
        assert self.offset((2, 3, 4), (2, 3, 4)) == 23
        assert self.offset((2, 3, 4), (2, 1, 2)) == 7
