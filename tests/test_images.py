import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    DenseTensor,
    FormatError,
    MissingMask,
    ShapeError,
    TensorShape,
    detensorize_image,
    load_image,
    mask_random,
    save_image,
    tensor_from_array,
    tensorize_image,
    tensorize_mask,
)


def random_image(rng, side=16):
    return tensor_from_array(rng.integers(0, 256, (side, side, 3)).astype(float))


class TestPPM:
    def test_white_pixel_is_fifteen_bytes(self, tmp_path):
        img = DenseTensor(TensorShape((1, 1, 3)), np.array([255.0, 255.0, 255.0]))
        path = tmp_path / "white.ppm"
        save_image(path, img)
        assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = random_image(rng, side=8)
        path = tmp_path / "img.ppm"
        save_image(path, img)
        again = load_image(path)
        assert again.shape.sizes == img.shape.sizes
        assert np.array_equal(again.values, img.values)

    def test_clamping_and_rounding(self, tmp_path):
        img = DenseTensor(
            TensorShape((1, 2, 3)),
            np.array([-3.2, 260.0, 0.5, 1.49, 254.5, 127.0]),
        )
        path = tmp_path / "clamp.ppm"
        save_image(path, img)
        again = load_image(path)
        assert sorted(again.values.tolist()) == sorted([0.0, 255.0, 1.0, 1.0, 255.0, 127.0])

    def test_non_rgb_rejected(self, tmp_path):
        t = DenseTensor(TensorShape((2, 2)), np.zeros(4))
        with pytest.raises(ShapeError):
            save_image(tmp_path / "x.ppm", t)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            load_image(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(FormatError):
            load_image(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            load_image(p)

    def test_header_comment_tolerated(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# made by hand\n1 1\n255\nabc")
        img = load_image(p)
        assert img.values.tolist() == [float(ord("a")), float(ord("b")), float(ord("c"))]


class TestTensorize:
    def test_output_shape_and_count(self):
        rng = np.random.default_rng(1)
        img = random_image(rng, side=256)
        t = tensorize_image(img)
        assert t.shape.sizes == (4, 4, 4, 4, 4, 4, 4, 4, 3)
        assert t.shape.element_count == 196608

    @pytest.mark.parametrize("side", [16, 32, 64, 128, 256])
    def test_round_trip_bit_exact(self, side):
        rng = np.random.default_rng(side)
        img = random_image(rng, side=side)
        back = detensorize_image(tensorize_image(img))
        assert back.shape.sizes == img.shape.sizes
        assert np.array_equal(back.values, img.values)

    def test_closed_form_cell_map(self):
        # pixel (r, c, ch) lands at (((r >> n) & 1) + 2 * ((c >> n) & 1) for n < k, ch)
        side, k = 16, 4
        pixels = np.arange(side * side * 3, dtype=float).reshape(side, side, 3)
        t = tensorize_image(tensor_from_array(pixels)).as_array()
        for r, c, ch in np.ndindex(side, side, 3):
            idx = tuple(((r >> n) & 1) + 2 * ((c >> n) & 1) for n in range(k)) + (ch,)
            assert t[idx] == pixels[r, c, ch]

    def test_first_mode_holds_pixel_blocks(self):
        # an image constant on each 2x2 pixel block collapses mode 1
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 256, (8, 8, 3)).astype(float)
        img_arr = np.repeat(np.repeat(blocks, 2, axis=0), 2, axis=1)
        t = tensorize_image(tensor_from_array(img_arr)).as_array()
        flat = t.reshape(4, -1, order="F")
        assert np.all(flat == flat[0])

    def test_varying_image_not_block_constant(self):
        rng = np.random.default_rng(8)
        img = random_image(rng, side=16)
        t = tensorize_image(img).as_array()
        flat = t.reshape(4, -1, order="F")
        assert not np.all(flat == flat[0])

    def test_non_square_rejected(self):
        t = tensor_from_array(np.zeros((16, 32, 3)))
        with pytest.raises(ShapeError):
            tensorize_image(t)

    def test_non_power_of_two_rejected(self):
        t = tensor_from_array(np.zeros((12, 12, 3)))
        with pytest.raises(ShapeError):
            tensorize_image(t)

    def test_wrong_channel_count_rejected(self):
        t = tensor_from_array(np.zeros((16, 16, 4)))
        with pytest.raises(ShapeError):
            tensorize_image(t)

    def test_detensorize_checks_shape(self):
        t = tensor_from_array(np.zeros((4, 4, 4)))
        with pytest.raises(ShapeError):
            detensorize_image(t)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        img = random_image(rng, side=16)
        back = detensorize_image(tensorize_image(img))
        assert np.array_equal(back.values, img.values)


class TestTensorizeMask:
    def test_observed_count_preserved(self):
        shape = TensorShape((16, 16, 3))
        mask = mask_random(shape, 0.6, seed=2)
        lifted = tensorize_mask(mask)
        assert lifted.shape.sizes == (4, 4, 4, 4, 3)
        assert np.count_nonzero(lifted.observed) == np.count_nonzero(mask.observed)

    def test_cells_track_values(self):
        # masking then tensorizing agrees with tensorizing then masking
        rng = np.random.default_rng(3)
        img = random_image(rng, side=16)
        mask = mask_random(img.shape, 0.5, seed=3)
        lifted = tensorize_mask(mask)
        img_t = tensorize_image(img)
        kept_before = np.sort(img.values[mask.observed])
        kept_after = np.sort(img_t.values[lifted.observed])
        assert np.array_equal(kept_before, kept_after)
