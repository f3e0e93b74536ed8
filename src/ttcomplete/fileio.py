"""Text serialization for observations, dense tensors, and model parameters.

All formats are line-oriented ASCII. Floats are written as Python's shortest
round-trip ``repr``, byte for byte, so load(save(x)) reproduces x bit-exact.
The text is computed in numpy, ``_ROWS`` values at a time, not by a ``repr``
call per value: ``_shortest`` finds the digits by Schubfach and ``_format``
lays them out by repr's rules. The writers refuse a non-finite value, which no
loader reads back, with a FormatError before the file is opened.

Every number in every format goes through ``_LineReader.table``, so all loaders
share one rule set: the file is ASCII; each line holds exactly its table's
fields; integers parse as Python's ``int`` and fit in int64; floats parse as
``float`` and are finite; only blank lines follow the last record. A violation
raises a FormatError naming the first bad line. Faults rank in a fixed order: a
non-ASCII byte anywhere in the file comes first, then, within a table of n
lines, a file that ends before the table does, then the table's first
malformed line, then its first non-finite value.

Reads and writes stream: memory holds the parsed arrays plus one block, never
the whole file's text or the whole body as Python objects. A loader decodes and
parses one block at a time, ``_BLOCK`` characters plus the rest of its last
line; a file whose only line ends are ``\\x0b``, ``\\x0c`` or ``\\x1c``-``\\x1e``,
which no writer here makes, is read whole and loads the same. A writer formats
``_ROWS`` lines at a time. After a fault the reader reads on to the end of the
file, one block at a time and keeping none, only to rank it; a block that fails
to parse is re-walked line by line to name its first bad line.
"""

from __future__ import annotations

import io
from array import array
from itertools import chain

import numpy as np

from .core import DenseTensor, TensorShape
from .engine import SparseObservations
from .errors import BoundsError, FormatError
from .ttmodel import TTCores, TTRank, flatten_params, unflatten_params

SPARSE_MAGIC = "stto-sparse v1"
DENSE_MAGIC = "stto-dense v1"
_ROWS = 1024  # lines per formatted block of a written body
_BLOCK = 1 << 13  # characters per read and parsed block, which then runs on to the end of its last line


def _write(path, head, body) -> None:
    """Write each item of ``head`` and then of ``body``, each followed by a newline.

    An item may hold several lines, as the blocks of ``_text`` do; a peak
    memory of one item, not of the whole body, when ``body`` makes its items as
    they are taken.
    """
    with open(path, "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.writelines(f"{item}\n" for item in chain(head, body))


# Shortest round-trip digits by Schubfach (R. Giulietti, "The Schubfach way to render doubles"),
# the algorithm of OpenJDK's Double.toString, on uint64 arrays. A finite double c * 2^q
# (c < 2^53) has the digits f * 10^k with k = floor(log10(2^q)), or floor(log10(3/4 2^q)) for the
# narrower interval below a power of two. g(k) is 10^-k to 126 bits, 2^125 <= g < 2^126, rounded up;
# _G holds its high and low 63 bits for k in [-324, 292].
_K_MIN = (-1074 * 661_971_961_083) >> 41
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1


def _g_table() -> np.ndarray:
    halves = []
    for k in range(_K_MIN, ((971 * 661_971_961_083) >> 41) + 1):
        r = ((-k * 913_124_641_741) >> 38) - 125  # 10^-k = beta 2^r with 2^125 <= beta < 2^126
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        halves.append((g >> 63, g & _M63))
    return np.array(halves, dtype=np.uint64).T.copy()


_G = _g_table()
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
# 4 ASCII digits of each of 0..9999, built from small arrays: large temporaries at import raise peak RSS
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1).view(np.uint32).ravel()
# A line of a float: "-", "0", 17 integer digits, ".", "000", 17 fraction digits, "e", sign and 3 exponent
# digits, newline. Both digit fields hold the same 17 digits, so a mask of kept bytes lays out any repr.
_TEMPLATE = np.frombuffer(b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b"e+000\n", dtype=np.uint8)


def _interval(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k, c mod 2 and cp: the centre and the lower and upper ends of each |x|'s rounding interval.

    Those are 4 c, 4 c - 2 (4 c - 1 below a power of two) and 4 c + 2, times 2^h.
    """
    bits = x.view(np.uint64)
    t = bits & ((1 << 52) - 1)
    bq = (bits >> 52) & 0x7FF
    c = t | (np.minimum(bq, 1) << 52)
    q = np.maximum(bq, 1).view(np.int64) - 1075
    irregular = (t == 0) & (bq > 1)  # a power of two above the least normal: the interval below is half as wide
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).view(np.uint64)  # 2..5, so cp < 2^61
    cb = c << 2
    return k, c & 1, np.stack((cb, cb - 2 + irregular, cb + 2)) << h


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """rop(g cp 2^-127), rounded to odd, for g = (g1, g0) of shape (2, n) and each row of cp, as OpenJDK computes it.

    That takes the high 64 bits of g0 cp and all 128 of g1 cp, here from 32-bit
    limbs, where a1 b0 + a0 b1 < 2^63 + 2^61 cannot overflow.
    """
    a1, a0 = g >> 32, g & _M32
    b1, b0 = (cp >> 32)[:, None], (cp & _M32)[:, None]
    low = a0 * b0  # the dels keep at most three (3, 2, n) arrays alive, a written block's peak memory
    low >>= 32
    mid = a1 * b0
    del b0
    part = a0 * b1
    mid += part
    low += np.bitwise_and(mid, _M32, out=part)
    low >>= 32
    mid >>= 32
    mid += low
    del low
    mid += np.multiply(a1, b1, out=part)  # the high 64 bits of g1 cp and of g0 cp
    del part
    z = (g[0] * cp >> 1) + mid[:, 1]
    return (mid[:, 0] + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits ``f`` (uint64, maybe with trailing zeros) and exponents ``k``: |x| = f 10^k, as repr rounds it.

    ``x`` is finite float64; a zero gets meaningless digits. Names follow Giulietti's paper.
    """
    k, out, cp = _interval(x)
    vb, vbl, vbr = _rop(_G.take(k - _K_MIN, axis=1), cp)
    vbl += out  # an odd c excludes the interval's ends
    vbr -= out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    closer_t = vb + (s & 1) > (s << 2) + 2  # ties go to the even digit
    f = np.where(uin == win, closer_t, win) + s
    shorter = (upin != wpin) & (s >= 10)  # one of the two candidates one digit shorter lies in the interval
    return np.where(shorter, sp10 + np.uint64(10) * wpin, f), k


def _digits(v: np.ndarray, groups: int) -> np.ndarray:
    """ASCII digits of the non-negative ints ``v`` below 10^(4 groups), zero-padded, as uint8 of shape
    (*v.shape, 4 groups)."""
    parts = []
    for _ in range(groups - 1):
        high = v // 10_000
        parts.append(v - high * 10_000)
        v = high
    parts.append(v)
    return _DIGITS4.take(np.stack(parts[::-1], axis=-1)).view(np.uint8)


def _layouts() -> np.ndarray:
    """The kept bytes of ``_TEMPLATE``, in row ``36 cls + 2 n + negative``.

    A value of ``n`` significant digits, the first with place value 10^(p-1),
    has class p + 3 in fixed notation (-4 < p <= 16), else 20 for a 2-digit
    exponent and 21 for a 3-digit one.
    """
    cls, n, negative = np.ix_(np.arange(22), np.arange(18), np.arange(2))
    p = cls - 3
    fixed = p <= 16
    small = p <= 0  # 0.000ddd
    split = np.where(fixed, np.maximum(p, 0), 1)  # digits before the point
    end = np.where(fixed, np.maximum(n, p + 1), n)  # an integral value ends in ".0"
    j = np.arange(17)[:, None, None, None]
    exponent = ~fixed
    kept = [
        negative == 1,
        small,
        *(j < split),
        fixed | (n > 1),
        *(j[:3] < np.where(small, -p, 0)),
        *((j >= split) & (j < end)),
        exponent,
        exponent,
        cls == 21,
        exponent,
        exponent,
        np.True_,
    ]
    return np.stack(np.broadcast_arrays(*kept), axis=-1).reshape(-1, _TEMPLATE.size)


_LAYOUTS = _layouts()
# By p + 323, for the p of 5e-324 up to that of the largest double: the sign and 3 digits of the
# exponent p - 1, and the first row of p's class in _LAYOUTS.
_P = np.arange(-323, 310)
_EXPONENT = _DIGITS4.take(np.abs(_P - 1)).view(np.uint8).reshape(-1, 4).copy()
_EXPONENT[:, 0] = np.where(_P < 1, ord("-"), ord("+"))
_CLASS = 36 * np.where((_P > -4) & (_P <= 16), _P + 3, 20 + (np.abs(_P - 1) >= 100))


def _format(x: np.ndarray, coords: np.ndarray | None = None, groups: int = 0) -> np.ndarray:
    """The lines ``repr(v)`` of the finite float64 ``x`` as ASCII bytes (uint8), each led by its row of ``coords``.

    ``coords`` are positive int64 below 10^(4 groups), one row per value, each
    followed by a space.
    """
    f, k = _shortest(x)
    zero = x == 0
    f[zero] = 0
    length = np.searchsorted(_POW10, f, "right")
    digits = _digits((f * _POW10.take(17 - length)).view(np.int64), 5)[:, 3:]  # 17 digits, left-aligned
    n = np.minimum(17 - (digits[:, ::-1] != 48).argmax(axis=1), length)  # significant digits; 0 for a zero
    at = length + k + 323
    at[zero] = 324  # p = 1: "0.0"
    lead = 0 if coords is None else coords.shape[1] * (4 * groups + 1)
    canvas = np.empty((x.size, lead + _TEMPLATE.size), np.uint8)
    kept = np.empty(canvas.shape, bool)
    row, keep = canvas[:, lead:], kept[:, lead:]
    row[:] = _TEMPLATE
    row[:, 2:19] = digits
    row[:, 23:40] = digits
    row[:, 41:45] = _EXPONENT.take(at, axis=0)
    keep[:] = _LAYOUTS.take(_CLASS.take(at) + 2 * n + np.signbit(x), axis=0)
    if lead:
        fields = canvas[:, :lead].reshape(x.size, -1, 4 * groups + 1)  # a view: the last axis splits
        fields[:, :, :-1] = _digits(coords, groups)
        fields[:, :, -1] = ord(" ")
        keeps = kept[:, :lead].reshape(fields.shape)
        keeps[:, :, :-1] = np.arange(4 * groups) >= (fields[:, :, :-1] != 48).argmax(axis=2)[:, :, None]
        keeps[:, :, -1] = True
    return canvas[kept]


def _text(values: np.ndarray, coords: np.ndarray | None = None):
    """The lines of ``_format``, ``_ROWS`` at a time, as str blocks without their last newline."""
    groups = 0 if coords is None else -(-len(str(int(coords.max()))) // 4)
    for lo in range(0, values.size, _ROWS):
        rows = None if coords is None else coords[lo : lo + _ROWS]
        yield str(_format(values[lo : lo + _ROWS], rows, groups)[:-1], "ascii")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, once none is non-finite; else a FormatError naming the first."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise FormatError(f"{what} {i + 1}: non-finite value {float(values[i])!r} cannot be saved")
    return values


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
        """Decode the next block's lines into ``lines``, once all before are taken; False at the end of the file."""
        text = self.fh.read(_BLOCK) + self.fh.readline()
        if not text.isascii():
            bad = next(i for i, ch in enumerate(text) if not ch.isascii())
            line = self.pos + len((text[:bad] + "?").splitlines())
            raise FormatError(f"line {line}: non-ASCII byte {ord(text[bad]) - 0xDC00:#04x}")
        self.lines = text.splitlines()
        return bool(text)

    def take(self, k: int | None = None) -> list[str]:
        """The next ``k`` (or all) of the lines decoded, decoding the next block if none are left; [] at the end."""
        if not self.lines:
            self._more()
        lines = self.lines[:k]
        del self.lines[:k]
        self.pos += len(lines)
        return lines

    def rest(self) -> int:
        """Read to the end of the file, one block at a time, and return its line count.

        A non-ASCII byte anywhere in the file is the first fault, so every other
        fault calls this before it is raised.
        """
        self.pos += len(self.lines)
        while self._more():
            self.pos += len(self.lines)
        return self.pos

    def fault(self, line: int, message: str) -> FormatError:
        """The FormatError for a fault at 1-based ``line``, once ``rest`` finds no earlier-ranked one."""
        self.rest()
        return FormatError(f"line {line}: {message}")

    def error(self, message: str) -> FormatError:
        return self.fault(self.pos, message)

    def table(self, what: str, n: int, ints: int = 0, value: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Parse the next ``n`` lines of ``ints`` integers and then, if ``value``, one float.

        Each decoded block's lines, up to the table's last, are parsed at once.
        Returns an (n, ints) int64 array and the n floats (none without ``value``).
        """
        start, stop = self.pos, self.pos + n
        width = ints + value
        int_out, float_out = array("q"), array("d")
        nonfinite = None  # the first non-finite value's line and message
        while (lo := self.pos) < stop:
            lines = self.take(stop - lo)
            rows = [line.split() for line in lines]
            if not lines or not _fill(rows, ints, value, int_out, float_out):
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
        while lines := self.take():
            for k, line in enumerate(lines, self.pos - len(lines) + 1):
                if line.strip():
                    raise self.fault(k, f"trailing content after {what}")


def save_sparse(path, obs: SparseObservations) -> None:
    """Write observations: magic, N, sizes, M, then one `i_1 .. i_N value` line each.

    The format holds each cell once: repeated cells raise FormatError before the file is opened,
    as does a value made non-finite after ``obs`` checked it.
    """
    if (repeated := obs.repeated_rows()).size:
        cell = tuple(obs.indices[repeated[0]].tolist())
        raise FormatError(f"observation {repeated[0] + 1}: duplicate multi-index {cell} cannot be saved")
    head = (SPARSE_MAGIC, obs.shape.order, " ".join(map(str, obs.shape.sizes)), obs.count)
    _write(path, head, _text(_finite(obs.values, "observation"), obs.indices))


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
    """Write a dense tensor: magic, N, sizes, then one value per line (column-major).

    A non-finite value raises FormatError before the file is opened.
    """
    values = _finite(t.values, "value")
    head = (DENSE_MAGIC, t.shape.order, " ".join(map(str, t.shape.sizes)))
    _write(path, head, _text(values))


def load_dense(path) -> DenseTensor:
    with open(path, "rb") as fh:
        rd = _LineReader(fh)
        shape = rd.header(DENSE_MAGIC)
        _, values = rd.table("value", shape.element_count, value=True)
        rd.end(f"{shape.element_count} values")
    return DenseTensor(shape, values)


def save_model(path, cores: TTCores) -> None:
    """Write TT parameters: N, sizes, rank chain, then the flat vector one value per line.

    A non-finite parameter raises FormatError before the file is opened.
    """
    flat = _finite(flatten_params(cores), "parameter")
    head = (
        cores.shape.order,
        " ".join(map(str, cores.shape.sizes)),
        " ".join(map(str, cores.rank.ranks)),
    )
    _write(path, head, _text(flat))


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
