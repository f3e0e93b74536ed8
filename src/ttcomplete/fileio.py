"""Text serialization for observations, dense tensors, and model parameters.

All formats are line-oriented ASCII. Floats are written with Python's
shortest round-trip representation, so load(save(x)) reproduces x bit-exact.

Every number in every format goes through ``_LineReader.table``, so all loaders
share one rule set: the file is ASCII; each line holds exactly its block's
fields; integers parse as Python's ``int`` and fit in int64; floats parse as
``float`` and are finite; only blank lines follow the last record. A violation
raises a FormatError naming the first bad line. Faults rank in a fixed order: a
non-ASCII byte anywhere in the file comes first, then, within a block of n
lines, a file that ends before the block does, then the block's first
malformed line, then its first non-finite value.

Reads and writes stream: memory holds the parsed arrays plus one block, never
the whole file's text or the whole body as Python objects. A read block is
``_BLOCK`` characters plus the rest of its last line; a file whose only line
ends are ``\\x0b``, ``\\x0c`` or ``\\x1c``-``\\x1e``, which no writer here makes,
is read whole and loads the same. Lines are parsed, and values written,
``_CHUNK`` at a time, near the cost of the per-value builtins (``int``,
``float``, ``repr``). After a fault the reader reads on to the end of the file,
one block at a time and keeping none, only to rank it; a parse block that fails
is re-read line by line to name its first bad line.
"""

from __future__ import annotations

import io
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
_BLOCK = 1 << 16  # characters per block, which then runs on to the end of its last line


def _write(path, head, body) -> None:
    """Write the head lines, then the body's str lines; items carry no newline.

    The body is joined ``_CHUNK`` lines per write: fewer calls than a write per
    line, and a peak memory of one block's strings, not of the whole body's,
    when ``body`` is an iterator that makes its lines as they are taken, as
    ``_lines`` does.
    """
    with open(path, "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.writelines(f"{line}\n" for line in head)
        body = iter(body)
        while chunk := list(islice(body, _CHUNK)):
            fh.write("\n".join(chunk) + "\n")


def _lines(fmt, *columns):
    """``fmt`` of each row of the equal-length array ``columns``, as a lazy iterator.

    Only ``_CHUNK`` rows at a time are turned into Python numbers.
    """
    starts = range(0, len(columns[0]), _CHUNK)
    return chain.from_iterable(map(fmt, *(c[lo : lo + _CHUNK].tolist() for c in columns)) for lo in starts)


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
    """Sequential lines of a binary file opened for reading, decoded a block at a time.

    Lines end where ``str.splitlines`` ends them; a block ends at a line end, so
    no line spans two. ``pos`` counts the lines taken; errors name 1-based lines.
    """

    def __init__(self, fh):
        # newline="" ends lines at \n, \r and \r\n unchanged; byte b >= 0x80 decodes to chr(0xDC00 + b)
        self.fh = io.TextIOWrapper(fh, encoding="ascii", errors="surrogateescape", newline="")
        self.pos = 0  # lines taken, or at the end of ``rest`` all lines
        self.lines: list[str] = []  # decoded lines not yet taken

    def _more(self) -> bool:
        """Decode the next block's lines onto ``lines``; False at the end of the file."""
        text = self.fh.read(_BLOCK) + self.fh.readline()
        if not text.isascii():
            bad = next(i for i, ch in enumerate(text) if not ch.isascii())
            line = self.pos + len(self.lines) + len((text[:bad] + "?").splitlines())
            raise FormatError(f"line {line}: non-ASCII byte {ord(text[bad]) - 0xDC00:#04x}")
        self.lines += text.splitlines()
        return bool(text)

    def take(self, k: int) -> list[str]:
        """The next ``k`` lines; fewer only at the end of the file."""
        while len(self.lines) < k and self._more():
            pass
        lines = self.lines[:k]
        del self.lines[:k]
        self.pos += len(lines)
        return lines

    def rest(self) -> int:
        """Read to the end of the file, one block at a time, and return its line count.

        A non-ASCII byte anywhere in the file is the first fault, so every other
        fault calls this before it is raised.
        """
        while True:
            self.pos += len(self.lines)
            self.lines = []
            if not self._more():
                return self.pos

    def fault(self, line: int, message: str) -> FormatError:
        """The FormatError for a fault at 1-based ``line``, once ``rest`` finds no earlier-ranked one."""
        self.rest()
        return FormatError(f"line {line}: {message}")

    def error(self, message: str) -> FormatError:
        return self.fault(self.pos, message)

    def table(self, what: str, n: int, ints: int = 0, value: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Parse the next ``n`` lines of ``ints`` integers and then, if ``value``, one float.

        Returns an (n, ints) int64 array and the n floats (none without ``value``).
        """
        start, stop = self.pos, self.pos + n
        width = ints + value
        int_out, float_out = array("q"), array("d")
        nonfinite = None  # the first non-finite value's line and message
        while (lo := self.pos) < stop:
            lines = self.take(want := min(_CHUNK, stop - lo))
            rows = [line.split() for line in lines]
            if len(lines) < want or not _fill(rows, ints, value, int_out, float_out):
                if (total := self.rest()) < stop:  # a short table ranks before a malformed line
                    raise FormatError(f"line {total + 1}: missing {what} ({n} lines expected, {total - start} found)")
                for k, (parts, line) in enumerate(zip(rows, lines), lo + 1):  # re-walk it for the first bad line
                    if len(parts) != width:
                        raise FormatError(f"line {k}: {what} has {len(parts)} fields, expected {width}")
                    if not _fill([parts], ints, value, array("q"), array("d")):
                        raise FormatError(f"line {k}: malformed {what} {line.strip()!r}")
            if value and nonfinite is None:
                finite = np.isfinite(np.frombuffer(float_out[-len(rows) :]))
                if not finite.all():
                    k = int(finite.argmin())
                    nonfinite = lo + k + 1, f"non-finite value in {what} {lines[k].strip()!r}"
        if nonfinite:
            raise self.fault(*nonfinite)
        return np.frombuffer(int_out, dtype=np.int64).reshape(n, ints), np.frombuffer(float_out)

    def header(self, magic: str | None) -> TensorShape:
        """Read the optional magic line, the mode count and the mode sizes."""
        if magic is not None:
            line = "".join(self.take(1)).strip()
            if line != magic:
                raise self.fault(1, f"bad magic {line!r}, expected {magic!r}")
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
        while lines := self.take(_CHUNK):
            for k, line in enumerate(lines, self.pos - len(lines) + 1):
                if line.strip():
                    raise self.fault(k, f"trailing content after {what}")


def save_sparse(path, obs: SparseObservations) -> None:
    """Write observations: magic, N, sizes, M, then one `i_1 .. i_N value` line each.

    The format holds each cell once: repeated cells raise FormatError before the file is opened.
    """
    if (repeated := obs.repeated_rows()).size:
        cell = tuple(obs.indices[repeated[0]].tolist())
        raise FormatError(f"observation {repeated[0] + 1}: duplicate multi-index {cell} cannot be saved")
    head = (SPARSE_MAGIC, obs.shape.order, " ".join(map(str, obs.shape.sizes)), obs.count)
    record = " ".join(["{}"] * obs.shape.order + ["{!r}"]).format
    _write(path, head, _lines(record, *obs.indices.T, obs.values))


def load_sparse(path, check_shape=None) -> SparseObservations:
    """Parse a sparse observation file, rejecting malformed, non-finite or duplicate entries.

    ``check_shape``, if given, is called with the header's shape before any
    record is parsed; whatever it raises propagates.
    """
    with open(path, "rb") as fh:
        rd = _LineReader(fh)
        shape = rd.header(SPARSE_MAGIC)
        if check_shape is not None:
            try:
                check_shape(shape)
            except Exception:
                rd.rest()  # a non-ASCII byte anywhere in the file ranks first
                raise
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
    _write(path, head, _lines(float.__repr__, t.values))


def load_dense(path) -> DenseTensor:
    with open(path, "rb") as fh:
        rd = _LineReader(fh)
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
    _write(path, head, _lines(repr, flatten_params(cores)))


def load_model(path) -> TTCores:
    with open(path, "rb") as fh:
        rd = _LineReader(fh)
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
