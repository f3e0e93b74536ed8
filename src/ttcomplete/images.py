"""RGB image handling: binary PPM files and the block tensorization.

Images are DenseTensors of shape (height, width, 3) with values in [0, 255].
The tensorization turns a 2^k x 2^k x 3 image into an order-(k+1) tensor of
shape (4, ..., 4, 3) whose first mode enumerates a 2x2 pixel block and whose
later modes cover progressively larger blocks (the ket augmentation of
Bengua et al., IEEE TIP 2017). It is a lossless cell permutation;
``detensorize_image`` inverts it exactly.
"""

from __future__ import annotations

import numpy as np

from .core import DenseTensor, TensorShape, tensor_from_array
from .data import MissingMask
from .errors import FormatError, ShapeError

_MAXVAL = 255


def _spatial_exponent(shape: TensorShape) -> int:
    """k for a (2^k, 2^k, 3) image shape, rejecting anything else."""
    if shape.order != 3 or shape.sizes[2] != 3:
        raise ShapeError(f"expected (height, width, 3), got {shape}")
    h, w = shape.sizes[0], shape.sizes[1]
    if h != w or h < 2 or h & (h - 1):
        raise ShapeError(f"tensorization needs a square power-of-two image, got {h}x{w}")
    return h.bit_length() - 1


def _interleave(values: np.ndarray, k: int, inverse: bool = False) -> np.ndarray:
    """Move the cells of a column-major (2^k, 2^k, 3) buffer to (4, ..., 4, 3) order.

    0-based pixel (r, c, ch) lands at tensor index
    (((r >> n) & 1) + 2 * ((c >> n) & 1) for n < k, ch): mode n pairs bit n of
    the row with bit n of the column. ``inverse`` maps tensor cells back.
    """
    axes = [a for n in range(k) for a in (n, k + n)] + [2 * k]
    if inverse:
        axes = np.argsort(axes)
    return values.reshape((2,) * (2 * k) + (3,), order="F").transpose(axes).ravel(order="F")


def tensorize_image(img: DenseTensor) -> DenseTensor:
    """Lift a 2^k x 2^k x 3 image to the (4, ..., 4, 3) block tensor."""
    k = _spatial_exponent(img.shape)
    return DenseTensor(TensorShape((4,) * k + (3,)), _interleave(img.values, k))


def detensorize_image(t: DenseTensor) -> DenseTensor:
    """Invert :func:`tensorize_image` back to (2^k, 2^k, 3)."""
    k = t.shape.order - 1
    if k < 1 or t.shape.sizes != (4,) * k + (3,):
        raise ShapeError(f"expected shape (4, ..., 4, 3), got {t.shape}")
    return DenseTensor(TensorShape((2**k, 2**k, 3)), _interleave(t.values, k, inverse=True))


def tensorize_mask(mask: MissingMask) -> MissingMask:
    """Carry an image-domain missing mask through the tensorization bijection."""
    k = _spatial_exponent(mask.shape)
    return MissingMask(TensorShape((4,) * k + (3,)), _interleave(mask.observed, k))


def save_image(path, img: DenseTensor) -> None:
    """Write a binary PPM (P6, maxval 255); values are clamped to [0, 255] and rounded half up."""
    if img.shape.order != 3 or img.shape.sizes[2] != 3:
        raise ShapeError(f"expected (height, width, 3), got {img.shape}")
    height, width = img.shape.sizes[0], img.shape.sizes[1]
    arr = np.clip(img.as_array(), 0.0, float(_MAXVAL))
    payload = np.floor(arr + 0.5).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n{_MAXVAL}\n".encode("ascii"))
        fh.write(payload)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Read one whitespace-delimited header token, skipping # comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise FormatError("unexpected end of PPM header")
    return data[start:pos], pos


def load_image(path) -> DenseTensor:
    """Read a binary PPM (P6, maxval 255) into a (height, width, 3) tensor."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_token(data, 0)
    if magic != b"P6":
        raise FormatError(f"not a binary PPM file: magic {magic!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"non-integer {name} field {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}")
    if maxval != _MAXVAL:
        raise FormatError(f"unsupported maxval {maxval}, only {_MAXVAL} is handled")
    if pos >= len(data) or data[pos : pos + 1] not in b" \t\r\n":
        raise FormatError("missing whitespace between header and pixel data")
    pos += 1  # exactly one whitespace byte separates header from payload
    payload = data[pos:]
    expected = width * height * 3
    if len(payload) < expected:
        raise FormatError(f"truncated pixel data: {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise FormatError(f"trailing bytes after pixel data: {len(payload) - expected}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return tensor_from_array(arr.astype(np.float64))
