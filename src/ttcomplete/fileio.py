"""Text serialization for observations, dense tensors, and model parameters.

All formats are line-oriented ASCII. Floats are written with Python's
shortest round-trip representation, so load(save(x)) reproduces x bit-exact.

Every number in every format goes through ``_LineReader.table``, so all loaders
share one rule set: the file is ASCII; a block of n lines must be present before
anything is stored for it; each line holds exactly its block's fields; integers
parse as Python's ``int`` and fit in int64; floats parse as ``float`` and are
finite; only blank lines follow the last record. A violation raises a
FormatError naming the first bad line.

Reads and writes go in blocks of ``_CHUNK`` lines, which keeps the cost near the
per-value builtins (``int``, ``float``, ``repr``) and the peak memory at one
block's strings, not the whole body's. A block that fails to parse is re-read
line by line to name its first bad line.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice

import numpy as np

from .core import DenseTensor, TensorShape
from .engine import SparseObservations
from .errors import BoundsError, FormatError
from .ttmodel import TTCores, TTRank, flatten_params, unflatten_params

SPARSE_MAGIC = "stto-sparse v1"
DENSE_MAGIC = "stto-dense v1"
_CHUNK = 256  # lines per parsed or written block


def _write(path, head, body) -> None:
    """Write the head lines, then the body's str lines; items carry no newline.

    The body is joined ``_CHUNK`` lines per write: fewer calls than a write per
    line, and a peak memory of one block's strings, not of the whole body's.
    """
    with open(path, "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.writelines(f"{line}\n" for line in head)
        body = iter(body)
        while chunk := list(islice(body, _CHUNK)):
            fh.write("\n".join(chunk) + "\n")


def _fill(rows, ints: int, value: bool, int_out: array, float_out: array) -> bool:
    """Append split ``rows`` of ``ints`` ints (then a float if ``value``); False on a bad width or token."""
    width = ints + value
    if set(map(len, rows)) != {width}:
        return False
    tokens = list(chain.from_iterable(rows))
    try:
        if value:
            float_out.extend(map(float, tokens[ints::width]))
            del tokens[ints::width]
        int_out.extend(map(int, tokens))
    except (ValueError, OverflowError):
        return False
    return True


class _LineReader:
    """Sequential line access that reports 1-based line numbers in errors."""

    def __init__(self, path):
        try:
            with open(path, "r", encoding="ascii") as fh:
                self.lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            # exc.object is the whole file; count lines up to the bad byte as splitlines does
            line = len((exc.object[: exc.start] + b"?").decode("ascii").splitlines())
            raise FormatError(f"line {line}: non-ASCII byte {exc.object[exc.start]:#04x}") from None
        self.pos = 0

    def error(self, message: str) -> FormatError:
        return FormatError(f"line {self.pos}: {message}")

    def table(self, what: str, n: int, ints: int = 0, value: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Parse the next ``n`` lines of ``ints`` integers and then, if ``value``, one float.

        Returns an (n, ints) int64 array and the n floats (none without ``value``).
        """
        start, stop = self.pos, self.pos + n
        if stop > len(self.lines):
            found = len(self.lines) - start
            raise FormatError(f"line {len(self.lines) + 1}: missing {what} ({n} lines expected, {found} found)")
        width = ints + value
        int_out, float_out = array("q"), array("d")
        for lo in range(start, stop, _CHUNK):
            rows = [line.split() for line in self.lines[lo : min(lo + _CHUNK, stop)]]
            if not _fill(rows, ints, value, int_out, float_out):  # re-walk it for the first bad line
                for k, parts in enumerate(rows, lo + 1):
                    if len(parts) != width:
                        raise FormatError(f"line {k}: {what} has {len(parts)} fields, expected {width}")
                    if not _fill([parts], ints, value, array("q"), array("d")):
                        raise FormatError(f"line {k}: malformed {what} {self.lines[k - 1].strip()!r}")
        self.pos = stop
        values = np.frombuffer(float_out)
        finite = np.isfinite(values)
        if not finite.all():
            k = start + int(finite.argmin())
            raise FormatError(f"line {k + 1}: non-finite value in {what} {self.lines[k].strip()!r}")
        return np.frombuffer(int_out, dtype=np.int64).reshape(n, ints), values

    def header(self, magic: str | None) -> TensorShape:
        """Read the optional magic line, the mode count and the mode sizes."""
        if magic is not None:
            self.pos = 1
            line = self.lines[0].strip() if self.lines else ""
            if line != magic:
                raise self.error(f"bad magic {line!r}, expected {magic!r}")
        order = self.table("mode count", 1, 1)[0].item()
        if order < 1:
            raise self.error(f"mode count must be positive, got {order}")
        sizes = self.table("mode sizes", 1, order)[0][0].tolist()
        try:
            return TensorShape(tuple(sizes))
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def end(self, what: str) -> None:
        """Reject anything but blank lines after the last record."""
        for k in range(self.pos, len(self.lines)):
            if self.lines[k].strip():
                raise FormatError(f"line {k + 1}: trailing content after {what}")


def save_sparse(path, obs: SparseObservations) -> None:
    """Write observations: magic, N, sizes, M, then one `i_1 .. i_N value` line each.

    The format holds each cell once: repeated cells raise FormatError before the file is opened.
    """
    if (repeated := obs.repeated_rows()).size:
        cell = tuple(obs.indices[repeated[0]].tolist())
        raise FormatError(f"observation {repeated[0] + 1}: duplicate multi-index {cell} cannot be saved")
    head = (SPARSE_MAGIC, obs.shape.order, " ".join(map(str, obs.shape.sizes)), obs.count)
    record = " ".join(["{}"] * obs.shape.order + ["{!r}"]).format
    _write(path, head, map(record, *obs.indices.T.tolist(), obs.values.tolist()))


def load_sparse(path, check_shape=None) -> SparseObservations:
    """Parse a sparse observation file, rejecting malformed, non-finite or duplicate entries.

    ``check_shape``, if given, is called with the header's shape before any
    record is parsed; whatever it raises propagates.
    """
    rd = _LineReader(path)
    shape = rd.header(SPARSE_MAGIC)
    if check_shape is not None:
        check_shape(shape)
    m = rd.table("observation count", 1, 1)[0].item()
    if m < 1:
        raise rd.error(f"observation count must be positive, got {m}")
    indices, values = rd.table("observation", m, shape.order, value=True)
    rd.end(f"{m} observations")
    try:
        obs = SparseObservations(shape, indices, values)
    except BoundsError as exc:
        raise FormatError(f"line {exc.row + 5}: {exc}") from None
    repeated = obs.repeated_rows()
    if repeated.size:
        dup = int(repeated[0])
        raise FormatError(f"line {dup + 5}: duplicate multi-index {tuple(indices[dup].tolist())}")
    return obs


def save_dense(path, t: DenseTensor) -> None:
    """Write a dense tensor: magic, N, sizes, then one value per line (column-major)."""
    head = (DENSE_MAGIC, t.shape.order, " ".join(map(str, t.shape.sizes)))
    _write(path, head, map(float.__repr__, t.values.tolist()))


def load_dense(path) -> DenseTensor:
    rd = _LineReader(path)
    shape = rd.header(DENSE_MAGIC)
    _, values = rd.table("value", shape.element_count, value=True)
    rd.end(f"{shape.element_count} values")
    return DenseTensor(shape, values)


def save_model(path, cores: TTCores) -> None:
    """Write TT parameters: N, sizes, rank chain, then the flat vector one value per line."""
    head = (
        cores.shape.order,
        " ".join(map(str, cores.shape.sizes)),
        " ".join(map(str, cores.rank.ranks)),
    )
    _write(path, head, map(repr, flatten_params(cores).tolist()))


def load_model(path) -> TTCores:
    rd = _LineReader(path)
    shape = rd.header(None)
    ranks = rd.table("rank chain", 1, shape.order + 1)[0][0].tolist()
    try:
        rank = TTRank(tuple(ranks))
    except ValueError as exc:
        raise rd.error(str(exc)) from None
    count = sum(ranks[n] * size * ranks[n + 1] for n, size in enumerate(shape.sizes))
    _, flat = rd.table("parameter", count, value=True)
    rd.end(f"{count} parameters")
    zeros = tuple(np.zeros((ranks[n], size, ranks[n + 1])) for n, size in enumerate(shape.sizes))
    return unflatten_params(TTCores(zeros, shape, rank), flat)
