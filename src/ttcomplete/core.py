"""Dense N-way arrays with column-major storage and 1-based multi-indices.

All tensors in this package are stored as a flat float64 buffer in
column-major linearization (first index varies fastest). Multi-indices are
1-based at every public boundary; linear offsets are 0-based. Instances are
treated as immutable after construction and are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundsError, ShapeError

# Largest element count we are willing to address with signed 64-bit offsets.
MAX_ELEMENT_COUNT = 2**62


@dataclass(frozen=True)
class TensorShape:
    """Mode sizes I_1..I_N of an N-way tensor."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 1:
            raise ShapeError("a tensor shape needs at least one mode")
        for n, s in enumerate(sizes, start=1):
            if s < 1:
                raise ShapeError(f"mode {n} has non-positive size {s}")
        if math.prod(sizes) > MAX_ELEMENT_COUNT:
            raise ShapeError(f"element count {math.prod(sizes)} exceeds the addressable range")

    @property
    def order(self) -> int:
        return len(self.sizes)

    @property
    def element_count(self) -> int:
        return math.prod(self.sizes)

    def __str__(self) -> str:
        return "x".join(str(s) for s in self.sizes)


@dataclass(frozen=True)
class DenseTensor:
    """A contiguous float64 value buffer plus its shape.

    ``values`` holds the column-major linearization; entry (i_1, ..., i_N)
    lives at offset (i_1-1) + (i_2-1)*I_1 + (i_3-1)*I_1*I_2 + ...
    """

    shape: TensorShape
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        object.__setattr__(self, "values", values)
        if values.size != self.shape.element_count:
            raise ShapeError(
                f"value buffer has {values.size} entries, shape {self.shape} needs "
                f"{self.shape.element_count}"
            )

    def as_array(self) -> np.ndarray:
        """View the buffer as an N-d numpy array (no copy)."""
        return self.values.reshape(self.shape.sizes, order="F")

    def __getitem__(self, idx: Sequence[int]) -> float:
        coords = check_multi_index(self.shape, idx)
        return float(self.as_array()[tuple(c - 1 for c in coords)])


def tensor_from_array(arr: np.ndarray) -> DenseTensor:
    """Wrap a numpy array as a DenseTensor (column-major copy if needed)."""
    arr = np.asarray(arr, dtype=np.float64)
    return DenseTensor(TensorShape(arr.shape), arr.ravel(order="F"))


def check_multi_index(shape: TensorShape, idx: Sequence[int]) -> tuple[int, ...]:
    """Validate a 1-based multi-index against ``shape`` and return it as a tuple."""
    coords = tuple(int(c) for c in idx)
    if len(coords) != shape.order:
        raise BoundsError(f"index has {len(coords)} coordinates, shape {shape} has {shape.order} modes")
    for n, (c, s) in enumerate(zip(coords, shape.sizes), start=1):
        if not 1 <= c <= s:
            raise BoundsError(f"coordinate {c} out of range [1, {s}] in mode {n}")
    return coords


def reshape(t: DenseTensor, new_shape: TensorShape) -> DenseTensor:
    """Reinterpret the flat buffer under a new shape of equal element count."""
    if new_shape.element_count != t.shape.element_count:
        raise ShapeError(
            f"cannot reshape {t.shape} ({t.shape.element_count} entries) to "
            f"{new_shape} ({new_shape.element_count} entries)"
        )
    return DenseTensor(new_shape, t.values)


def permute(t: DenseTensor, perm: Sequence[int]) -> DenseTensor:
    """Reorder tensor modes; ``perm`` lists 1-based source modes per output mode.

    Output mode k has size I_{perm[k]} and the data is physically rearranged
    into the column-major layout of the new shape.
    """
    order = t.shape.order
    axes = [int(p) - 1 for p in perm]
    if sorted(axes) != list(range(order)):
        raise ValueError(f"perm {tuple(perm)} is not a permutation of 1..{order}")
    out = t.as_array().transpose(axes)
    return DenseTensor(TensorShape(out.shape), out.ravel(order="F"))
