import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    DenseTensor,
    FormatError,
    MissingMask,
    OptimizeConfig,
    ShapeError,
    TensorShape,
    complete_image,
    detensorize_image,
    extract_observations,
    fit_cores,
    load_image,
    mask_block,
    mask_random,
    mask_rows,
    save_image,
    tensor_from_array,
    tensorize_image,
    tensorize_mask,
    tt_full,
    uniform_ranks,
)
from oracles import next_ppm_token
from ttcomplete import images
from ttcomplete.images import _tensor_cells, _tensorized_observations


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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P6\n1 1", "unexpected end of PPM header"),
            (b"P6\n1 x\n255\n\x00\x00\x00", "non-integer height field b'x'"),
            (b"P6\n0 1\n255\n", "invalid dimensions 0x1"),
            (b"P6\n1 1\n255", "missing whitespace between header and pixel data"),
            (b"P6\n1 1\n255\n\x00\x00\x00\x00", "trailing bytes after pixel data: 1"),
        ],
    )
    def test_malformed_refused(self, tmp_path, data, message):
        p = tmp_path / "bad.ppm"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(message)):
            load_image(p)

    def test_header_comment_tolerated(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# made by hand\n1 1\n255\nabc")
        img = load_image(p)
        assert img.values.tolist() == [float(ord("a")), float(ord("b")), float(ord("c"))]


class TestHeaderTokens:
    @given(st.lists(st.sampled_from(list(b" \t\r\n#P6 0123456789\x0b\x0c\xff")), max_size=30), st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_byte_loop(self, chars, data):
        text = bytes(chars)
        pos = data.draw(st.integers(0, len(text) + 2), label="pos")
        outcomes = []
        for read in (images._next_token, next_ppm_token):
            try:
                outcomes.append(read(text, pos))
            except FormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


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


class TestCellMap:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_permutation_matching_the_closed_form(self, k):
        side = 2**k
        cells = _tensor_cells(k)
        assert np.array_equal(np.sort(cells), np.arange(3 * 4**k))
        r, c, ch = (a.ravel(order="F") for a in np.indices((side, side, 3)))
        want = 4**k * ch
        for n in range(k):
            want += (((r >> n) & 1) + 2 * ((c >> n) & 1)) * 4**n
        assert np.array_equal(cells, want)

    @staticmethod
    def masks(side):
        shape = TensorShape((side, side, 3))
        return [
            mask_random(shape, 0.7, seed=side),
            mask_rows(shape, range(2, side, 3)),
            mask_block(shape, side // 4, side // 3, side // 2, side // 4),
        ]

    @pytest.mark.parametrize("side", [16, 64])
    def test_observations_read_from_the_image(self, side):
        # the same (index, value) pairs; their order is free
        img = random_image(np.random.default_rng(side), side=side)
        for mask in self.masks(side):
            direct = _tensorized_observations(img, mask)[0]
            lifted = extract_observations(tensorize_image(img), tensorize_mask(mask))
            assert direct.shape == lifted.shape
            pairs = [
                sorted(zip(map(tuple, obs.indices.tolist()), obs.values.tolist())) for obs in (direct, lifted)
            ]
            assert pairs[0] == pairs[1]

    @given(st.integers(1, 6), st.sampled_from(["random", "full", "single"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_observations_in_image_cell_order(self, k, kind, seed):
        rng = np.random.default_rng(seed)
        img = random_image(rng, side=2**k)
        cells = img.shape.element_count
        observed = rng.random(cells) < {"random": rng.uniform(0.01, 0.99), "full": 1.0, "single": 0.0}[kind]
        observed[rng.integers(cells)] = True
        mask = MissingMask(img.shape, observed)
        direct = _tensorized_observations(img, mask)[0]
        lifted = extract_observations(tensorize_image(img), tensorize_mask(mask))
        # the same (index, value) pairs
        assert direct.shape == lifted.shape
        pairs = [sorted(zip(map(tuple, obs.indices.tolist()), obs.values.tolist())) for obs in (direct, lifted)]
        assert pairs[0] == pairs[1]
        # in the image's column-major cell order
        tensor_cells = np.ravel_multi_index(tuple(direct.indices.T - 1), direct.shape.sizes, order="F")
        image_cells = np.argsort(_tensor_cells(k))[tensor_cells]
        assert np.array_equal(image_cells, np.flatnonzero(observed))

    @pytest.mark.parametrize("side", [16, 64])
    def test_fits_on_both_observation_sets_agree(self, side):
        img = random_image(np.random.default_rng(side + 1), side=side)
        mask = self.masks(side)[0]
        direct = _tensorized_observations(img, mask)[0]
        lifted = extract_observations(tensorize_image(img), tensorize_mask(mask))
        rank = uniform_ranks(direct.shape, 3)
        cfg = OptimizeConfig(max_iters=3)
        (a, report_a), (b, report_b) = (fit_cores(obs, rank, cfg) for obs in (direct, lifted))
        assert report_a.records == report_b.records
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.cores, b.cores))

    def test_complete_image_builds_one_cell_map(self):
        img = random_image(np.random.default_rng(9), side=16)
        mask = mask_random(img.shape, 0.6, seed=9)
        rank = uniform_ranks(TensorShape((4, 4, 4, 4, 3)), 2)
        cfg = OptimizeConfig(max_iters=3)
        with mock.patch.object(images, "_tensor_cells", wraps=_tensor_cells) as built:
            recovered = complete_image(img, mask, rank, cfg, seed=4)[0]
        assert built.call_count == 1
        cores = fit_cores(_tensorized_observations(img, mask)[0], rank, cfg, seed=4)[0]
        steps = detensorize_image(tt_full(cores))
        assert recovered.shape == steps.shape
        assert recovered.values.tobytes() == steps.values.tobytes()

    def test_complete_image_checks_shapes(self):
        img = random_image(np.random.default_rng(5), side=16)
        rank = uniform_ranks(TensorShape((4, 4, 4, 4, 3)), 2)
        with pytest.raises(ShapeError, match="does not match mask shape"):
            complete_image(img, mask_random(TensorShape((8, 8, 3)), 0.5, seed=1), rank)
        wide = tensor_from_array(np.zeros((16, 32, 3)))
        with pytest.raises(ShapeError, match="square power-of-two"):
            complete_image(wide, mask_random(wide.shape, 0.5, seed=1), rank)
