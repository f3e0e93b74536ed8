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

    @pytest.mark.parametrize("bad", [(2.5, 3), (3, float("nan")), (float("inf"),), ("3",)])
    def test_non_integral_sizes_rejected(self, bad):
        with pytest.raises(ShapeError, match="is not an integer"):
            TensorShape(bad)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_sizes_rejected(self, flag):
        # int(True) == 1, but a flag is no mode size
        with pytest.raises(ShapeError, match=f"^mode size {flag!r} is not an integer$"):
            TensorShape((flag, 3))

    def test_integral_floats_and_numpy_integers_accepted(self):
        shape = TensorShape((2.0, np.int32(3), np.uint8(4)))
        assert shape.sizes == (2, 3, 4)
        assert all(type(s) is int for s in shape.sizes)

    def test_oversized_count_rejected(self):
        with pytest.raises(ShapeError):
            TensorShape((2**31, 2**31, 2**31))


class TestDenseTensor:
    def test_buffer_size_must_match_the_shape(self):
        with pytest.raises(ShapeError, match="value buffer has 5 entries, shape .* needs 6"):
            DenseTensor(TensorShape((2, 3)), np.zeros(5))


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
