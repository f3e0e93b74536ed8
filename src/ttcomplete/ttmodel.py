"""Tensor-train model: core storage, full reconstruction, and parameter packing.

An order-N tensor is represented by N three-way cores; core n has shape
(r_{n-1}, I_n, r_n) with boundary ranks r_0 = r_N = 1. The entry at
multi-index (i_1, ..., i_N) is the product of the N lateral slices
core_n[:, i_n, :], a chain of r_{n-1} x r_n matrices collapsing to a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DenseTensor, TensorShape, whole
from .errors import CapacityError, ShapeError

# Largest element count tt_full will materialize.
DEFAULT_FULL_LIMIT = 2**24


@dataclass(frozen=True)
class TTRank:
    """Rank chain r_0..r_N bounding the core slice dimensions."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(whole(r, ShapeError, "rank") for r in self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if len(ranks) < 2:
            raise ShapeError("a rank chain needs at least two entries")
        for r in ranks:
            if r < 1:
                raise ShapeError(f"rank chain {ranks} contains non-positive rank {r}")
        if ranks[0] != 1 or ranks[-1] != 1:
            raise ShapeError(f"boundary ranks must be 1, got r_0={ranks[0]}, r_N={ranks[-1]}")

    @property
    def order(self) -> int:
        return len(self.ranks) - 1


@dataclass(frozen=True)
class TTCores:
    """The optimization variable: one three-way core per tensor mode."""

    cores: tuple[np.ndarray, ...]
    shape: TensorShape
    rank: TTRank

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=np.float64) for c in self.cores)
        object.__setattr__(self, "cores", cores)
        if self.rank.order != self.shape.order or len(cores) != self.shape.order:
            raise ShapeError(
                f"shape {self.shape} (order {self.shape.order}) needs {self.shape.order} cores "
                f"and a rank chain of length {self.shape.order + 1}"
            )
        for n, core in enumerate(cores):
            want = (self.rank.ranks[n], self.shape.sizes[n], self.rank.ranks[n + 1])
            if core.shape != want:
                raise ShapeError(f"core {n + 1} has shape {core.shape}, expected {want}")

    @property
    def param_count(self) -> int:
        return sum(c.size for c in self.cores)


def cap_ranks(shape: TensorShape, ranks: Sequence[int]) -> TTRank:
    """Clip a requested rank chain to what the shape can support.

    Rank r_n can never usefully exceed min(I_1*...*I_n, I_{n+1}*...*I_N).
    """
    ranks = [whole(r, ShapeError, "rank") for r in ranks]
    if len(ranks) != shape.order + 1:
        raise ShapeError(f"rank chain length {len(ranks)} does not fit order-{shape.order} shape {shape}")
    sizes = shape.sizes
    return TTRank(tuple(min(r, math.prod(sizes[:n]), math.prod(sizes[n:])) for n, r in enumerate(ranks)))


def uniform_ranks(shape: TensorShape, interior: int) -> TTRank:
    """Rank chain (1, r, ..., r, 1) capped by the shape."""
    return cap_ranks(shape, (1,) + (interior,) * (shape.order - 1) + (1,))


def random_init(shape: TensorShape, rank: TTRank, seed: int, scale: float = 1.0) -> TTCores:
    """Draw cores with i.i.d. Gaussian entries of mean 0 and std ``scale``."""
    if not 0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and non-negative, got {scale}")
    if rank.order != shape.order:
        raise ShapeError(
            f"rank chain of length {len(rank.ranks)} does not fit order-{shape.order} shape {shape}"
        )
    rng = np.random.default_rng(seed)
    cores = []
    for n in range(shape.order):
        dims = (rank.ranks[n], shape.sizes[n], rank.ranks[n + 1])
        cores.append(scale * rng.standard_normal(dims))
    return TTCores(tuple(cores), shape, rank)


def check_full_capacity(shape: TensorShape) -> None:
    """Raise CapacityError if :func:`tt_full` would refuse ``shape``."""
    count = shape.element_count
    if count > DEFAULT_FULL_LIMIT:
        raise CapacityError(f"shape {shape} has {count} entries, over the limit of {DEFAULT_FULL_LIMIT}")


def tt_full(cores: TTCores) -> DenseTensor:
    """Materialize the full tensor represented by the cores.

    Meets in the middle: a left-to-right sweep over modes 1..s gives the
    (I_1 * ... * I_s) x r_s prefix rows, a right-to-left sweep over modes
    N..s+1 the r_s x (I_{s+1} * ... * I_N) suffix columns (one column of ones
    when s = N), both in column-major index order, and one GEMM joins them;
    their product raveled in F order is the tensor. s makes the larger of the
    two counts as small as it can be, about the square root of the element
    count. Refuses shapes with more than ``DEFAULT_FULL_LIMIT`` entries.
    """
    check_full_capacity(cores.shape)
    sizes = cores.shape.sizes
    s = min(range(1, len(sizes) + 1), key=lambda n: max(math.prod(sizes[:n]), math.prod(sizes[n:])))
    left = np.ones((1, 1))
    for size, core in zip(sizes[:s], cores.cores[:s]):
        grown = (left @ core.reshape(core.shape[0], -1)).reshape(left.shape[0], size, -1)
        left = grown.reshape((left.shape[0] * size, core.shape[2]), order="F")
    right = np.ones((1, 1))
    for size, core in zip(sizes[s:][::-1], cores.cores[s:][::-1]):
        grown = (core.reshape(-1, core.shape[2]) @ right).reshape(core.shape[0], size, -1)
        right = grown.reshape((core.shape[0], size * right.shape[1]), order="F")
    # the product's transpose in C order is the product in F order, without a strided copy
    return DenseTensor(cores.shape, (right.T @ left.T).ravel())


def _flat(cores: Sequence[np.ndarray]) -> np.ndarray:
    """The flat parameter layout: core 1..N, each column-major."""
    return np.concatenate([c.ravel(order="F") for c in cores])


def flatten_params(cores: TTCores) -> np.ndarray:
    """Pack all cores into one flat vector, laid out by :func:`_flat`."""
    return _flat(cores.cores)


def unflatten_params(template: TTCores, flat: np.ndarray) -> TTCores:
    """Cores shaped like ``template``, as views of the flat vector, whose length must match."""
    flat = np.asarray(flat, dtype=np.float64).ravel()
    if flat.size != template.param_count:
        raise ShapeError(f"parameter vector has {flat.size} entries, expected {template.param_count}")
    cores = []
    offset = 0
    for c in template.cores:
        block = flat[offset : offset + c.size]
        cores.append(block.reshape(c.shape, order="F"))
        offset += c.size
    return TTCores(tuple(cores), template.shape, template.rank)
