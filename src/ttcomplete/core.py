"""Dense N-way arrays with column-major storage and 1-based multi-indices.

All tensors in this package are stored as a flat float64 buffer in
column-major linearization (first index varies fastest). Multi-indices are
1-based at every public boundary; linear offsets are 0-based. Instances are
treated as immutable after construction and are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

# Largest element count we are willing to address with signed 64-bit offsets.
MAX_ELEMENT_COUNT = 2**62


def _integral(value) -> bool:
    """Whether ``value`` is an int, a numpy integer or an integral float; bools, NaN, inf and None are not."""
    try:  # not contextlib.suppress: about 3x slower, and this runs some 50 times per fit
        return not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def whole(value, error: type[Exception], what: str) -> int:
    """``value`` as an int; anything :func:`_integral` refuses raises ``error``."""
    if _integral(value):
        return int(value)
    raise error(f"{what} {value!r} is not an integer")


@dataclass(frozen=True)
class TensorShape:
    """Mode sizes I_1..I_N of an N-way tensor."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(whole(s, ShapeError, "mode size") for s in self.sizes)
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


def tensor_from_array(arr: np.ndarray) -> DenseTensor:
    """Wrap a numpy array as a DenseTensor (column-major copy if needed)."""
    arr = np.asarray(arr, dtype=np.float64)
    return DenseTensor(TensorShape(arr.shape), arr.ravel(order="F"))
