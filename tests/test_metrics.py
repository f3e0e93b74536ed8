import math

import numpy as np
import pytest

from ttcomplete import DenseTensor, ShapeError, TensorShape, psnr, rse


def tensors(values_a, values_b):
    shape = TensorShape((len(values_a),))
    return DenseTensor(shape, np.asarray(values_a, float)), DenseTensor(
        shape, np.asarray(values_b, float)
    )


class TestRSE:
    def test_identical_is_zero(self):
        a, _ = tensors([1.0, 2.0, 3.0], [0, 0, 0])
        assert rse(a, a) == 0.0

    def test_zero_estimate_is_one(self):
        z, t = tensors([0.0, 0.0], [3.0, 4.0])
        assert rse(z, t) == 1.0

    def test_scaling(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(50)
        t = DenseTensor(TensorShape((50,)), vals)
        est = DenseTensor(TensorShape((50,)), 1.1 * vals)
        assert rse(est, t) == pytest.approx(0.1, abs=1e-12)

    def test_zero_norm_truth_rejected(self):
        z, _ = tensors([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            rse(z, z)

    def test_shape_mismatch(self):
        a = DenseTensor(TensorShape((2, 2)), np.ones(4))
        b = DenseTensor(TensorShape((4,)), np.ones(4))
        with pytest.raises(ShapeError):
            rse(a, b)


class TestPSNR:
    def test_unit_mse(self):
        est, truth = tensors([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert psnr(est, truth) == pytest.approx(48.1308036086791, abs=1e-10)

    def test_full_scale_mse_is_zero_db(self):
        est, truth = tensors([255.0, 255.0], [0.0, 0.0])
        assert psnr(est, truth) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_offset_ten(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(20, 200, 30)
        truth = DenseTensor(TensorShape((30,)), vals)
        est = DenseTensor(TensorShape((30,)), vals + 10.0)
        assert psnr(est, truth) == pytest.approx(28.130803608679106, abs=1e-10)

    def test_shape_mismatch(self):
        a, _ = tensors([5.0, 6.0], [0, 0])
        b = DenseTensor(TensorShape((1, 2)), np.array([5.0, 6.0]))
        with pytest.raises(ShapeError, match="shape mismatch"):
            psnr(a, b)

    def test_exact_match_is_infinite(self):
        a, _ = tensors([5.0, 6.0], [0, 0])
        assert psnr(a, a) == math.inf
