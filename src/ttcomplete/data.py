"""Synthetic data, missing-cell masks, and observation extraction."""

from __future__ import annotations

import math

import numpy as np

from .core import DenseTensor, TensorShape
from .engine import SparseObservations
from .errors import BoundsError, ShapeError
from .ttmodel import TTRank, random_init, tt_full


def gen_oscillating(shape: TensorShape) -> DenseTensor:
    """Fill a tensor with samples of f(x) = sin(x/4) * cos(x^2) on (0, 10].

    Cell k of the column-major buffer (0-based) holds f((k + 1) / N * 10),
    N the element count. On this fixed interval the signal is smooth along
    the linearization: on 26^3 and 7^5 every unfolding has numerical rank
    at most 8 (singular values above 1e-4 of the largest).
    """
    x = np.arange(1, shape.element_count + 1, dtype=np.float64) / shape.element_count * 10.0
    return DenseTensor(shape, np.sin(x / 4.0) * np.cos(x * x))


def gen_tt_random(shape: TensorShape, rank: TTRank, seed: int, scale: float = 1.0) -> DenseTensor:
    """Ground truth with known train rank: materialize randomly drawn cores."""
    return tt_full(random_init(shape, rank, seed, scale=scale))


class MissingMask:
    """Boolean observed/missing flag per cell, column-major.

    At least one cell must remain observed.
    """

    def __init__(self, shape: TensorShape, observed: np.ndarray):
        observed = np.asarray(observed, dtype=bool).ravel()
        if observed.size != shape.element_count:
            raise ShapeError(
                f"mask has {observed.size} flags, shape {shape} has {shape.element_count} cells"
            )
        if not observed.any():
            raise ValueError("degenerate mask: no observed cells")
        self.shape = shape
        self.observed = observed

    def as_array(self) -> np.ndarray:
        return self.observed.reshape(self.shape.sizes, order="F")


def mask_random(shape: TensorShape, missing_rate: float, seed: int) -> MissingMask:
    """Withhold a seeded uniform sample of cells.

    Exactly round((1 - missing_rate) * element_count) cells stay observed.
    """
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError(f"missing_rate must lie in [0, 1), got {missing_rate}")
    count = shape.element_count
    n_obs = int(round((1.0 - missing_rate) * count))
    if n_obs < 1:
        raise ValueError(f"missing_rate {missing_rate} leaves no observed cell in shape {shape}")
    rng = np.random.default_rng(seed)
    observed = np.zeros(count, dtype=bool)
    observed[rng.permutation(count)[:n_obs]] = True
    return MissingMask(shape, observed)


def _check_image_shape(shape: TensorShape):
    if shape.order != 3 or shape.sizes[2] != 3:
        raise ShapeError(f"expected an image shape (height, width, 3), got {shape}")


def mask_rows(image_shape: TensorShape, missing_row_indices) -> MissingMask:
    """Withhold whole image rows (every column, every channel); rows are 1-based."""
    _check_image_shape(image_shape)
    height = image_shape.sizes[0]
    rows = [int(r) for r in missing_row_indices]
    for r in rows:
        if not 1 <= r <= height:
            raise BoundsError(f"row {r} out of range [1, {height}]")
    observed = np.ones(image_shape.sizes, dtype=bool)
    if rows:
        observed[np.array(rows) - 1, :, :] = False
    return MissingMask(image_shape, observed.ravel(order="F"))


def mask_block(image_shape: TensorShape, top: int, left: int, height: int, width: int) -> MissingMask:
    """Withhold a pixel rectangle (all channels); ``top``/``left`` are 1-based."""
    _check_image_shape(image_shape)
    img_h, img_w = image_shape.sizes[0], image_shape.sizes[1]
    if height < 1 or width < 1:
        raise BoundsError(f"block extent {height}x{width} must be positive")
    if not (1 <= top and top + height - 1 <= img_h):
        raise BoundsError(f"block rows {top}..{top + height - 1} out of range [1, {img_h}]")
    if not (1 <= left and left + width - 1 <= img_w):
        raise BoundsError(f"block columns {left}..{left + width - 1} out of range [1, {img_w}]")
    observed = np.ones(image_shape.sizes, dtype=bool)
    observed[top - 1 : top - 1 + height, left - 1 : left - 1 + width, :] = False
    return MissingMask(image_shape, observed.ravel(order="F"))


def extract_observations(t: DenseTensor, mask: MissingMask) -> SparseObservations:
    """Collect the observed cells as (multi-index, value) records.

    Entries come out in column-major cell order.
    """
    if t.shape.sizes != mask.shape.sizes:
        raise ShapeError(f"tensor shape {t.shape} does not match mask shape {mask.shape}")
    lin = np.nonzero(mask.observed)[0]
    coords = np.unravel_index(lin, t.shape.sizes, order="F")
    indices = np.stack(coords, axis=1).astype(np.int64) + 1
    return SparseObservations(t.shape, indices, t.values[lin])


def synthetic_scene(side: int = 256, seed: int = 0) -> DenseTensor:
    """A structured RGB test image: smooth gradients, a few shapes, mild noise.

    Values lie in [0, 255]; the layout gives completion something real to
    exploit (large-scale structure) while mean-style baselines fare poorly.
    """
    rng = np.random.default_rng(seed)
    y, x = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    yf, xf = y / side, x / side
    red = 140 + 90 * np.sin(2 * np.pi * (xf * 1.5 + 0.2)) * np.cos(2 * np.pi * yf)
    green = 120 + 70 * np.cos(2 * np.pi * (xf + yf))
    blue = 110 + 80 * np.sin(4 * np.pi * yf)
    img = np.stack([red, green, blue], axis=2)

    def span(lo, hi):
        return slice(max(int(lo * side), 0), max(int(hi * side), 1))

    img[span(0.16, 0.35), span(0.23, 0.55), 0] += 60
    img[span(0.59, 0.86), span(0.12, 0.39), 2] -= 50
    cy, cx = side * 0.65, side * 0.7
    disk = (y - cy) ** 2 + (x - cx) ** 2 < (side * 0.18) ** 2
    img[disk, 1] += 55
    img += rng.uniform(-3, 3, img.shape)
    return DenseTensor(
        TensorShape((side, side, 3)), np.clip(img, 0, 255).ravel(order="F")
    )


def default_init_scale(obs: SparseObservations, rank: TTRank) -> float:
    """Core init scale whose chained product matches the observed magnitude.

    For cores with i.i.d. N(0, s^2) entries the entry variance is
    s^(2N) * prod(interior ranks), so s = (var(y) / prod(r))^(1/(2N)) makes
    the initial predictions the same size as the data (and reduces to
    std(y)^(1/N) for rank-1 chains). Constant observations fall back to
    their mean magnitude (or 1).
    """
    spread = float(np.std(obs.values))
    if spread == 0.0:
        spread = max(abs(float(np.mean(obs.values))), 1.0)
    interior = math.prod(rank.ranks[1:-1]) if len(rank.ranks) > 2 else 1
    order = obs.shape.order
    return (spread * spread / interior) ** (0.5 / order)
