"""Synthetic data, missing-cell masks, observation extraction, and the fit's start."""

from __future__ import annotations

import math

import numpy as np

from .core import DenseTensor, TensorShape, whole
from .engine import SparseObservations
from .errors import BoundsError, ShapeError
from .ttmodel import TTCores, TTRank, cap_ranks, random_init, tt_full

# sigma of initial_cores' middle slices. Of 0.3, 0.4, ..., 1.0 only 0.3 and 0.6 keep every tier-1
# recovery bound; 0.6 recovers more on img256 (held-out, seeds 0/7: 0.2253/0.2278 against 0.2477/0.2438)
_START_NOISE = 0.6


def gen_oscillating(shape: TensorShape) -> DenseTensor:
    """Fill a tensor with samples of f(x) = sin(x/4) * cos(x^2) on (0, 10].

    Cell k of the column-major buffer (0-based) holds f((k + 1) / N * 10),
    N the element count. On this fixed interval the signal is smooth along
    the linearization: on 26^3 and 7^5 every unfolding has numerical rank
    at most 8 (singular values above 1e-4 of the largest).
    """
    x = np.arange(1, shape.element_count + 1, dtype=np.float64) / shape.element_count * 10.0
    return DenseTensor(shape, np.sin(x / 4.0) * np.cos(x * x))


def gen_tt_random(shape: TensorShape, rank: TTRank, seed: int) -> DenseTensor:
    """Ground truth with known train rank: materialize randomly drawn cores."""
    return tt_full(random_init(shape, rank, seed))


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


def observed_count(shape: TensorShape, missing_rate: float) -> int:
    """Cells a random mask at ``missing_rate`` keeps: round((1 - missing_rate) * element_count).

    Raises ValueError unless the rate lies in [0, 1) and keeps at least one cell.
    """
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError(f"missing_rate must lie in [0, 1), got {missing_rate}")
    n_obs = int(round((1.0 - missing_rate) * shape.element_count))
    if n_obs < 1:
        raise ValueError(f"missing_rate {missing_rate} leaves no observed cell in shape {shape}")
    return n_obs


def mask_random(shape: TensorShape, missing_rate: float, seed: int) -> MissingMask:
    """Withhold a seeded uniform sample of cells; :func:`observed_count` cells stay observed."""
    count = shape.element_count
    n_obs = observed_count(shape, missing_rate)
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
    rows = [whole(r, BoundsError, "row") for r in missing_row_indices]
    for r in rows:
        if not 1 <= r <= height:
            raise BoundsError(f"row {r} out of range [1, {height}]")
    observed = np.ones(image_shape.sizes, dtype=bool)
    observed[np.array(rows, dtype=np.int64) - 1] = False
    return MissingMask(image_shape, observed.ravel(order="F"))


def mask_block(image_shape: TensorShape, top: int, left: int, height: int, width: int) -> MissingMask:
    """Withhold a pixel rectangle (all channels); ``top``/``left`` are 1-based."""
    _check_image_shape(image_shape)
    img_h, img_w = image_shape.sizes[0], image_shape.sizes[1]
    top, left, height, width = (
        whole(v, BoundsError, name)
        for v, name in zip((top, left, height, width), ("top", "left", "height", "width"))
    )
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
    lin = np.flatnonzero(mask.observed)
    return _observations(t.shape, lin, t.values[lin])


def _observations(shape: TensorShape, lin: np.ndarray, values: np.ndarray) -> SparseObservations:
    """Observations of ``values`` at the 0-based column-major cell offsets ``lin`` of ``shape``."""
    # One array with each mode's column contiguous. Division by a scalar runs
    # about 2.4x faster than np.unravel_index, which divides per element.
    columns = np.empty((shape.order, lin.size), dtype=np.int64)
    for column, size in zip(columns, shape.sizes):
        rest = lin // size
        np.subtract(lin, rest * size, out=column)
        lin = rest
    columns += 1
    return SparseObservations(shape, columns.T, values)


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


def _spread(values: np.ndarray) -> float:
    """std(y), independent of the values' order and finite for every finite y.

    std(y) is taken of the sorted values, over the unit 2^(e-1) where
    max|y| = m * 2^e: the unit cannot overflow, dividing by it keeps the
    values' bits, and np.std of the quotients (below 2) cannot overflow
    either. Where std(y) is 0 (constant observations) or underflows to 0,
    max|y| takes its place, at least 1, so the spread is always positive.
    """
    top = float(np.max(np.abs(values)))
    unit = math.ldexp(1.0, math.frexp(top)[1] - 1)
    # a standard deviation is at most top; min() keeps rounding from carrying it past max float
    spread = min(float(np.std(np.sort(values) / unit)) * unit, top)
    return spread if spread > 0.0 else max(top, 1.0)


def default_init_scale(obs: SparseObservations, rank: TTRank) -> float:
    """Scale of i.i.d. Gaussian cores whose chained product matches the observed magnitude.

    For cores with i.i.d. N(0, s^2) entries the entry variance is
    s^(2N) * prod(r), the product over the rank chain, so
    s = std(y)^(1/N) / prod(r)^(1/(2N)) makes the initial predictions the same
    size as the data, std(y) being :func:`_spread`'s. s is finite and
    positive for every finite y. :func:`fit_cores` no longer starts from
    such cores (see :func:`initial_cores`); this scales a random start for
    a comparison with it.
    """
    order = obs.shape.order
    return _spread(obs.values) ** (1.0 / order) / math.prod(rank.ranks) ** (0.5 / order)


def initial_cores(obs: SparseObservations, rank: TTRank, seed: int) -> TTCores:
    """The start of :func:`ttcomplete.fit_cores`: near-identity cores at the data's scale.

    An order-N train is a depth-N linear network whose layer the index
    picks, and such networks train fast from near-identity layers (Saxe et
    al., ICLR 2014; Hardt & Ma, ICLR 2017). So each slice of a middle core
    is eye(r_{n-1}, r_n) + sigma / sqrt(r_{n-1}) * N(0, 1), sigma being
    ``_START_NOISE``. The two boundary cores are N(0, s^2) with
    s = (spread / sqrt(r_1))^(1/2), so the start predicts about the data's
    spread (:func:`_spread`); an order-1 train's one core is N(0, spread^2),
    clipped at max float. The noise is ``random_init(shape, rank, seed)``.
    ``rank`` is capped by ``obs.shape`` (:func:`cap_ranks`).
    """
    shape = obs.shape
    rank = cap_ranks(shape, rank.ranks)
    ranks = rank.ranks
    spread = _spread(obs.values)
    cores = []
    for n, noise in enumerate(random_init(shape, rank, seed).cores):
        if shape.order == 1:
            with np.errstate(over="ignore"):  # a draw past max float becomes max float
                cores.append(np.nan_to_num(spread * noise))
        elif n in (0, shape.order - 1):
            cores.append(math.sqrt(spread) / ranks[1] ** 0.25 * noise)  # spread / sqrt(r_1) may underflow
        else:
            identity = np.eye(ranks[n], ranks[n + 1])[:, None, :]
            cores.append(identity + _START_NOISE / math.sqrt(ranks[n]) * noise)
    return TTCores(tuple(cores), shape, rank)
