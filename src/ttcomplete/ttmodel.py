"""Tensor-train model: core storage, full reconstruction, and parameter packing.

An order-N tensor is represented by N three-way cores; core n has shape
(r_{n-1}, I_n, r_n) with boundary ranks r_0 = r_N = 1. The entry at
multi-index (i_1, ..., i_N) is the product of the N lateral slices
core_n[:, i_n, :], a chain of r_{n-1} x r_n matrices collapsing to a scalar.
"""

from __future__ import annotations

import functools
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


# The row of every sweep's root: the empty prefix's partial product.
_ROOT = np.ones((1, 1))
_ROOT.flags.writeable = False


def _grow(rows: np.ndarray, core: np.ndarray) -> np.ndarray:
    """A complete depth's step: rows[p] @ core[:, j, :] of all parents p and labels j as row p * I_n + j,
    in one GEMM; the root's children are the core's slices."""
    if rows is _ROOT:
        return core.reshape(-1, core.shape[2])
    return (rows @ core.reshape(core.shape[0], -1)).reshape(-1, core.shape[2])


def check_full_capacity(shape: TensorShape) -> None:
    """Raise CapacityError if :func:`tt_full` would refuse ``shape``."""
    count = shape.element_count
    if count > DEFAULT_FULL_LIMIT:
        raise CapacityError(f"shape {shape} has {count} entries, over the limit of {DEFAULT_FULL_LIMIT}")


def tt_full(cores: TTCores) -> DenseTensor:
    """Materialize the full tensor represented by the cores.

    Meets in the middle as the engine's join does when every depth is complete: :func:`_grow` sweeps the cores
    of modes 1..s into the (I_1 * ... * I_s) x r_s prefix rows, and the transposed cores of modes N..s+1 into
    the suffix rows (``_ROOT`` when s = N), which come in column-major index order. One reshape and transpose
    puts the prefix rows in that order too, and one GEMM joins them. The cores are swept in C order, so their
    memory order changes no bit. s makes the larger row count as small as it can be, about the square root of
    the element count. Refuses shapes with more than ``DEFAULT_FULL_LIMIT`` entries.
    """
    check_full_capacity(cores.shape)
    sizes = cores.shape.sizes
    s = min(range(1, len(sizes) + 1), key=lambda n: max(math.prod(sizes[:n]), math.prod(sizes[n:])))
    left = functools.reduce(_grow, map(np.ascontiguousarray, cores.cores[:s]), _ROOT)
    suffix = [np.ascontiguousarray(core.transpose(2, 1, 0)) for core in cores.cores[s:][::-1]]
    right = functools.reduce(_grow, suffix, _ROOT)
    left = left.reshape(*sizes[:s], -1).transpose(*range(s - 1, -1, -1), s).reshape(left.shape)
    return DenseTensor(cores.shape, (right @ left.T).ravel())


def _flat(cores: Sequence[np.ndarray]) -> np.ndarray:
    """The flat parameter layout: core 1..N, each column-major."""
    return np.concatenate([c.ravel(order="F") for c in cores])


def _flat_blocks(cores: Sequence[np.ndarray], size: int):
    """The values of ``_flat(cores)`` in order, without building the vector: each core in blocks of ``size``
    values and then the rest of it.

    A block is a view of a column-major core, else a copy: ``c.T.flat`` steps through a core of any memory
    order column-major, so its blocks are whole too.
    """
    for c in cores:
        flat = c.ravel(order="F") if c.flags.f_contiguous else c.T.flat
        yield from (flat[i : i + size] for i in range(0, c.size, size))


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
