"""RGB image handling: binary PPM files and the block tensorization.

Images are DenseTensors of shape (height, width, 3) with values in [0, 255].
The tensorization turns a 2^k x 2^k x 3 image into an order-(k+1) tensor of
shape (4, ..., 4, 3) whose first mode enumerates a 2x2 pixel block and whose
later modes cover progressively larger blocks (the ket augmentation of
Bengua et al., IEEE TIP 2017). It is a lossless cell permutation that
``detensorize_image`` inverts exactly. It interleaves row and column bits
within one channel, and the channel is the last mode of both shapes, so the
closed-form offsets of one channel's 4^k pixels (``_plane``) describe it.
``complete_image`` reads only the observed pixels' tensor offsets through
that plane (``_tensorized_observations``) and gathers the fitted tensor back
with ``detensorize_image``. A fit builds neither the tensorized image or mask
nor a map of the whole image's cells.
"""

from __future__ import annotations

import re

import numpy as np

from .core import DenseTensor, TensorShape, tensor_from_array
from .data import MissingMask, _check_image_shape, _observations
from .engine import SparseObservations
from .errors import FormatError, ShapeError

_MAXVAL = 255


def _spatial_exponent(shape: TensorShape) -> int:
    """k for a (2^k, 2^k, 3) image shape, rejecting anything else."""
    _check_image_shape(shape)
    h, w = shape.sizes[0], shape.sizes[1]
    if h != w or h < 2 or h & (h - 1):
        raise ShapeError(f"tensorization needs a square power-of-two image, got {h}x{w}")
    return h.bit_length() - 1


def _plane(k: int) -> np.ndarray:
    """Column-major offset in the (4, ..., 4, 3) tensor of each column-major pixel of one (2^k, 2^k) channel.

    0-based pixel (r, c, ch) lands at tensor index
    (((r >> n) & 1) + 2 * ((c >> n) & 1) for n < k, ch), that is at offset
    spread(r) + 2 * spread(c) + 4^k * ch, where spread(x) moves bit n of x
    to bit 2n. The channel is the last mode of both shapes, so a reshape to
    (3, 4^k) carries it and one channel's 4^k offsets describe the map.
    """
    x = np.arange(2**k, dtype=np.int64)
    spread = np.zeros_like(x)
    for n in range(k):
        spread |= ((x >> n) & 1) << (2 * n)
    return (2 * spread[:, None] + spread).ravel()


def _tensorized(values: np.ndarray, k: int) -> np.ndarray:
    """The column-major (2^k, 2^k, 3) cell ``values`` in (4, ..., 4, 3) tensor order."""
    out = np.empty_like(values)
    plane = _plane(k)
    for dst, src in zip(out.reshape(3, -1), values.reshape(3, -1)):  # 2-3x faster than one [:, plane] scatter
        dst[plane] = src
    return out


def tensorize_image(img: DenseTensor) -> DenseTensor:
    """Lift a 2^k x 2^k x 3 image to the (4, ..., 4, 3) block tensor."""
    k = _spatial_exponent(img.shape)
    return DenseTensor(TensorShape((4,) * k + (3,)), _tensorized(img.values, k))


def detensorize_image(t: DenseTensor) -> DenseTensor:
    """Invert :func:`tensorize_image` back to (2^k, 2^k, 3)."""
    k = t.shape.order - 1
    if k < 1 or t.shape.sizes != (4,) * k + (3,):
        raise ShapeError(f"expected shape (4, ..., 4, 3), got {t.shape}")
    return DenseTensor(TensorShape((2**k, 2**k, 3)), t.values.reshape(3, -1).take(_plane(k), axis=1).ravel())


def tensorize_mask(mask: MissingMask) -> MissingMask:
    """Carry an image-domain missing mask through the tensorization bijection."""
    k = _spatial_exponent(mask.shape)
    return MissingMask(TensorShape((4,) * k + (3,)), _tensorized(mask.observed, k))


def _tensorized_observations(img: DenseTensor, mask: MissingMask) -> SparseObservations:
    """The observations of ``extract_observations(tensorize_image(img), tensorize_mask(mask))``.

    Reads the observed cells from the image, in its column-major cell order;
    a fit depends only on the set of observations. Each observed pixel's
    tensor offset is read from the :func:`_plane` of its channel, so no map
    of the whole image is built.
    """
    if img.shape.sizes != mask.shape.sizes:
        raise ShapeError(f"image shape {img.shape} does not match mask shape {mask.shape}")
    k = _spatial_exponent(img.shape)
    observed = np.flatnonzero(mask.observed)
    pixel = observed & (4**k - 1)  # the low 2k bits; the rest, observed - pixel, is 4^k * channel
    cells = _plane(k)[pixel]
    cells += observed - pixel
    return _observations(TensorShape((4,) * k + (3,)), cells, img.values[observed])


def _quantized(img: DenseTensor) -> DenseTensor:
    """The image :func:`save_image` writes, as :func:`load_image` reads it: clamped to [0, 255], rounded half up."""
    _check_image_shape(img.shape)
    return DenseTensor(img.shape, np.floor(np.clip(img.values, 0.0, float(_MAXVAL)) + 0.5).astype(np.uint8))


def save_image(path, img: DenseTensor) -> None:
    """Write a binary PPM (P6, maxval 255); values are clamped to [0, 255] and rounded half up."""
    payload = _quantized(img).as_array().astype(np.uint8).tobytes()
    height, width = img.shape.sizes[0], img.shape.sizes[1]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n{_MAXVAL}\n".encode("ascii"))
        fh.write(payload)


_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\n]*)*([^ \t\r\n]*)")  # whitespace and # comments, then the token


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Read one whitespace-delimited header token, skipping # comments."""
    token = _TOKEN.match(data, pos)
    if not token[1]:
        raise FormatError("unexpected end of PPM header")
    return token[1], token.end()


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
    return tensor_from_array(arr)
