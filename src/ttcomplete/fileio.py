"""Text serialization for observations, dense tensors, and model parameters.

All formats are line-oriented ASCII. Floats are written as Python's shortest
round-trip ``repr``, byte for byte, so load(save(x)) reproduces x bit-exact.
The text is computed in numpy, ``_ROWS`` = 4,096 values at a time, not by a
``repr`` call per value: ``_shortest`` finds the digits by Schubfach and
``_format`` lays them out by repr's rules, and a block's bytes are written as
they are. A block takes about 100 bytes of scratch per value, so each writer's
traced peak is about 410-440 KiB; a scan of 1,024 to 8,192 rows chose the
block (see ``_ROWS``). Sparse records wider than ``_LINE`` bytes go in blocks
of fewer rows: with 44,237 records ``save_sparse`` peaks at 439, 250, 305 and
344 KiB for coordinates of 2, 4, 7 and 19 digits. The writers refuse a
non-finite value, which no loader reads back, with a FormatError before the
file is opened.

Every number in every format goes through ``_LineReader.table``, so all loaders
share one rule set: the file is ASCII; each line holds exactly its table's
fields; integers parse as Python's ``int`` and fit in int64; floats parse as
``float`` and are finite; only blank lines follow the last record. A violation
raises a FormatError naming the first bad line. Faults rank in a fixed order: a
non-ASCII byte anywhere in the file comes first, then, within a table of n
lines, a file that ends before the table does, then the table's first
malformed line, then its first non-finite value.

Reads and writes stream: memory holds the parsed arrays plus one block, never
the whole file's text or the whole body as Python objects, and a writer makes
no array as long as its body. A loader decodes and
parses one block at a time, ``_BLOCK`` characters plus the rest of its last
line; a file whose only line ends are ``\\x0b``, ``\\x0c`` or ``\\x1c``-``\\x1e``,
which no writer here makes, is read whole and loads the same. A writer formats
``_ROWS`` lines at a time. After a fault the reader reads on to the end of the
file, one block at a time and keeping none, only to rank it.

Every table, header tables included, follows one parse rule. numpy's C text
parser (``_parse``) reads each block. It reads no token that ``int`` or
``float`` reject, nor to other bits, so the rules above stay Python's: only in a
block that numpy refuses does ``_fill`` read each line by ``int`` and ``float``,
and the first line it refuses is the one named.
"""

from __future__ import annotations

import io
import warnings
from array import array
from itertools import chain

import numpy as np

from .core import DenseTensor, TensorShape
from .engine import SparseObservations
from .errors import BoundsError, FormatError
from .ttmodel import TTCores, TTRank, _flat_blocks, unflatten_params

SPARSE_MAGIC = "stto-sparse v1"
DENSE_MAGIC = "stto-dense v1"
# Lines per formatted block of a written body. A block takes about 100 bytes of scratch per value, most
# while Schubfach scales an interval end or a sparse block's lines are compressed. Traced peaks of
# save_dense / save_sparse / save_model on a 48^3 tensor, 44,237 records and 110,544 parameters: 116 /
# 131 / 108 KiB at 1,024 rows, 209 / 222 / 209 at 2,048, 411 / 433 / 411 at 4,096 and 815 / 856 / 815 at
# 8,192. 4,096 is the largest power of two under the writers' 512 KiB bound, and no slower than 8,192.
# A block's scratch grows with its line, so a block of lines wider than _LINE bytes (a float's is 30, a
# record of three 2-digit coordinates 39) takes the largest power-of-two share of _ROWS that holds no more
# bytes. With 44,237 records, save_sparse peaks at 439 / 250 / 305 / 344 KiB for 2- / 4- / 7- / 19-digit
# coordinates (3 / 3 / 3 / 1 modes); at 4,096 rows the wider three peak at 494 / 602 / 681 KiB.
_ROWS = 4096
_LINE = 40
_BLOCK = 1 << 13  # characters per read and parsed block, which then runs on to the end of its last line


def _write(path, head, body) -> None:
    """Write each item of ``head`` and then of ``body``: a uint8 array of whole lines, as ``_text`` makes,
    from its own memory; anything else as its ``str`` in ASCII, other characters backslash-escaped, and a
    newline. A peak memory of one item, not of the whole body, when ``body`` makes its items as taken.
    """
    with open(path, "wb") as fh:
        for item in chain(head, body):
            fh.write(item if isinstance(item, np.ndarray) else f"{item}\n".encode("ascii", "backslashreplace"))
            del item  # a block is freed before the next is made


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


def _mul(g: np.ndarray, b1: np.ndarray, b0: np.ndarray, low: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The high 64 bits of g cp, and its low 64 bits if ``low``, for g < 2^63 and cp = b1 2^32 + b0 < 2^61.

    From 32-bit limbs, where a1 b0 + a0 b1 < 2^63 + 2^61 cannot overflow. ``g`` is overwritten.
    """
    a1 = g >> 32
    a0 = np.bitwise_and(g, _M32, out=g)
    t = a0 * b0
    mid = a1 * b0
    mid += np.multiply(a0, b1, out=a0)
    y0 = None
    if low:
        y0 = mid << 32
        y0 += t
    t >>= 32
    t += np.bitwise_and(mid, _M32, out=a0)
    del a0, g
    t >>= 32
    mid >>= 32
    mid += t
    del t
    mid += np.multiply(a1, b1, out=a1)
    return mid, y0


def _rop(k: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """rop(g cp 2^-127), rounded to odd, for g = g(k) and ``k`` offset by -_K_MIN, as OpenJDK computes it.

    That takes the high 64 bits of g0 cp and all 128 of g1 cp, one (n,) row at a time.
    """
    b1, b0 = cp >> 32, cp & _M32
    x1, _ = _mul(_G[1].take(k), b1, b0)
    vb, z = _mul(_G[0].take(k), b1, b0, low=True)
    del b1, b0
    z >>= 1
    z += x1
    del x1
    vb += z >> 63
    z &= _M63
    z += _M63
    z >>= 63
    vb |= z
    return vb


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits ``f`` (uint64, maybe with trailing zeros) and exponents ``k``: |x| = f 10^k, as repr rounds it.

    ``x`` is finite float64; a zero gets meaningless digits. Names follow Giulietti's paper. The
    rounding interval's centre and ends are scaled one at a time, and each temporary is freed or
    overwritten once spent, so about 100 bytes of scratch per value are alive at most.
    """
    bits = x.view(np.uint64)
    c = bits & ((1 << 52) - 1)
    q = bits >> 52
    q &= 0x7FF
    irregular = (c == 0) & (q > 1)  # a power of two above the least normal: the interval below is half as wide
    c |= np.minimum(q, 1) << 52
    out = (c & 1).astype(bool)  # an odd c excludes the interval's ends
    q = np.maximum(q, 1, out=q).view(np.int64)
    q -= 1075
    k = q * 661_971_961_083
    k -= irregular * 274_743_187_321
    k >>= 41
    q += (-k * 913_124_641_741) >> 38
    q += 2  # h, 2..5, so every cp < 2^61
    h = q.view(np.uint64)
    c <<= h + 2  # cp = 4 c 2^h; the ends are cp + d and cp - d, or cp - d / 2 below a power of two
    d = np.left_shift(np.uint64(2), h, out=h)
    del q, h
    k -= _K_MIN
    vb = _rop(k, c)
    c += d
    vbr = _rop(k, c)
    c -= d
    d >>= irregular
    c -= d
    del d
    vbl = _rop(k, c)
    del c
    k += _K_MIN
    vbl += out
    vbr -= out
    s4 = vb & ~np.uint64(3)  # 4 s
    t4 = vb // 40 * 40  # 4 s rounded down to a multiple of 40
    upin = vbl <= t4
    wpin = t4 + 40 <= vbr
    # s + 1 when s is out of the interval, or both are in and v is closer to s + 1; ties go to the even digit
    closer = (np.right_shift(np.uint64(0xC8), vb & 7) & 1).astype(bool)
    up = (vbl > s4) | ((s4 + 4 <= vbr) & closer)
    s4 >>= 2
    s4 += up
    shorter = (upin != wpin) & (vb >= 40)  # one of the two candidates one digit shorter lies in the interval
    t4 >>= 2
    t4 += wpin * np.uint64(10)
    return np.where(shorter, t4, s4), k


def _digits(v: np.ndarray, groups: int) -> np.ndarray:
    """ASCII digits of the non-negative int64 ``v`` below 10^(4 groups), zero-padded, as uint8 of shape
    (*v.shape, 4 groups)."""
    parts = v[..., None]
    if groups > 1:
        parts = np.empty((*v.shape, groups), np.int64)
        for j in range(groups - 1, 0, -1):
            v, parts[..., j] = np.divmod(v, 10_000)
        parts[..., 0] = v
    return _DIGITS4.take(parts).view(np.uint8)


# A line of a float: "-", "0", ".", "000", 18 places X, then "e", sign and 2 or 3 exponent digits
# right-aligned in 5 places, and a newline. X holds the digits left-aligned in 17 places, with the
# point put in among them, or after them for 0.000ddd. A mask of kept bytes lays out any repr, and
# keeps most of a line in one run of bytes.
_TEMPLATE = np.frombuffer(b"-0.000", dtype=np.uint8)
_WIDTH = _TEMPLATE.size + 18 + 6


def _layouts() -> np.ndarray:
    """The kept bytes of a line, in row ``38 cls + 2 m + negative``.

    A value whose first significant digit has place value 10^(p-1) has class
    p + 3 in fixed notation (-4 < p <= 16), else 20 for a 2-digit exponent and
    21 for a 3-digit one. X ends at its last nonzero digit, m places in; fixed
    notation keeps a digit after the point.
    """
    cls, m, negative = np.ix_(np.arange(22), np.arange(19), np.arange(2))
    p = cls - 3
    small = p <= 0  # 0.000ddd
    exponent = cls >= 20
    end = np.where(small | exponent, m, np.maximum(m, p + 2))
    j = np.arange(18)[:, None, None, None]
    kept = [
        negative == 1,
        small,
        small,
        *(small & (j[:3] >= 3 + p)),  # the last -p of "000"
        *(j < end),
        cls == 21,
        *[exponent] * 4,
        np.True_,
    ]
    return np.stack(np.broadcast_arrays(*kept), axis=-1).reshape(-1, _WIDTH)


_LAYOUTS = _layouts()
# By p + 323, for the p of 5e-324 up to that of the largest double: the exponent p - 1 and a newline,
# and the first row of p's class in _LAYOUTS with the place of the point in X.
_P = np.arange(-323, 310)
_EXPONENT = np.frombuffer("".join(f"{f'e{p - 1:+03d}':>5}\n" for p in _P.tolist()).encode(), np.uint8).reshape(-1, 6)
_FIXED = (_P > -4) & (_P <= 16)
_CLASS = np.stack([38 * np.where(_FIXED, _P + 3, 20 + (np.abs(_P - 1) >= 100)), np.where(_FIXED, _P, 1)], axis=1)
_CLASS[_FIXED & (_P < 1), 1] = 17


def _format(x: np.ndarray, coords: np.ndarray | None = None, width: int = 0) -> np.ndarray:
    """The lines ``repr(v)`` of the finite float64 ``x`` as ASCII bytes (uint8), each led by its row of ``coords``.

    ``coords`` are positive int64 of at most ``width`` digits, one row per value,
    each followed by a space.
    """
    f, k = _shortest(x)
    zero = x == 0
    f[zero] = 0
    length = np.searchsorted(_POW10, f, "right")
    f *= _POW10.take(17 - length)  # 17 digits, left-aligned
    k += length
    del length
    k += 323  # p + 323
    k[zero] = 324  # p = 1: "0.0"
    layout, point = _CLASS.take(k, axis=0).T  # p's first row in _LAYOUTS, the point's place in X
    frac = f % _POW10.take(17 - point)
    f *= 10
    frac *= 9
    f -= frac  # 18 digits, with a 0 put in at the point
    del frac
    digits = _digits(f.view(np.int64), 5)[:, 2:]  # X, the 0 not yet a point
    del f
    m = 18 - (digits[:, ::-1] != 48).argmax(axis=1)  # X up to its last nonzero digit
    m[zero] = 0
    del zero
    m *= 2
    m += layout
    m += np.signbit(x)  # the line's row in _LAYOUTS
    lead = 0 if coords is None else coords.shape[1] * (width + 1)
    canvas = np.empty((x.size, lead + _WIDTH), np.uint8)
    row = canvas[:, lead:]
    row[:, :6] = _TEMPLATE
    row[:, 6:24] = digits
    del digits
    point += np.arange(lead + 6, canvas.size, canvas.shape[1])  # in the flat canvas
    canvas.reshape(-1)[point] = ord(".")
    del layout, point
    row[:, 24:] = _EXPONENT.take(k, axis=0)
    del k
    kept = np.empty(canvas.shape, bool)
    layouts = _LAYOUTS
    if lead:  # rows as wide as a line, the coordinates' bytes kept; freed before the lines are compressed
        layouts = np.ones((len(_LAYOUTS), canvas.shape[1]), bool)
        layouts[:, lead:] = _LAYOUTS
    np.take(layouts, m, axis=0, out=kept, mode="clip")  # into a C-contiguous ``out``: no copy
    del layouts, m
    if lead:
        fields = canvas[:, :lead].reshape(x.size, -1, width + 1)  # a view: the last axis splits
        keeps = kept[:, :lead].reshape(fields.shape)
        groups = -(-width // 4)
        for j, column in enumerate(coords.T):  # a column at a time: small temporaries in either memory order
            fields[:, j, :-1] = _digits(column, groups)[:, 4 * groups - width :]
            for d in range(width - len(str(int(column.min())))):  # places that may hold a leading zero
                keeps[:, j, d] = column >= 10 ** (width - 1 - d)  # a Python int bound: compared in int64
        fields[:, :, -1] = ord(" ")
    return canvas[kept]


def _text(parts, coords: np.ndarray | None = None):
    """The lines of ``_format`` for the values of the arrays ``parts`` in turn, as ``flatten_params`` lays
    out a model's cores, in blocks of whole lines: ``_ROWS``, or fewer where a line is wider than ``_LINE``."""
    width = 0 if coords is None else len(str(int(coords.max())))
    line = _WIDTH if coords is None else _WIDTH + coords.shape[1] * (width + 1)
    rows = _ROWS
    while rows > 1 and rows * line > _ROWS * _LINE:
        rows //= 2
    start = 0
    for block in _flat_blocks(parts, rows):
        yield _format(block, None if coords is None else coords[start : start + block.size], width)
        start += block.size


def _finite(parts, what: str) -> None:
    """Raise a FormatError naming the first non-finite value of the arrays ``parts``, read as ``_text`` reads
    them, if one is."""
    start = 0
    for block in _flat_blocks(parts, _ROWS):
        finite = np.isfinite(block)
        if not finite.all():
            i = int(finite.argmin())
            raise FormatError(f"{what} {start + i + 1}: non-finite value {float(block[i])!r} cannot be saved")
        start += block.size


def _parse(lines: list[str], ints: int, value: bool, int_out: array, float_out: array) -> bool:
    """Append ``lines`` of ``ints`` ints (then a float if ``value``), read by numpy's C parser; False if it refuses.

    numpy reads no token that ``int`` or ``float`` reject, nor to other bits, but
    refuses some that they accept (``1_0``) and skips blank lines; so a refusal,
    warning or lost line leaves the block to ``_fill``. An integer-only table is an
    int64 matrix as wide as its lines: no row is as wide as a declared mode count.
    """
    fields = [("i", np.int64, (ints,))] if ints else []
    dtype, shape = ([*fields, ("v", np.float64)], (len(lines),)) if value else (np.int64, (len(lines), ints))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 1.24-1.26 read the int field 1.0 as 1, with only a DeprecationWarning
        try:
            records = np.loadtxt(lines, dtype, comments=None, delimiter=None, ndmin=len(shape))
        except Exception:  # noqa: BLE001 - whatever numpy refuses, Python's parser reads or names
            return False
    if records.shape != shape:
        return False
    if value:
        float_out.frombytes(records["v"].tobytes())
    if ints:
        int_out.frombytes((records["i"] if value else records).tobytes())
    return True


def _fill(parts: list[str], ints: int, value: bool, int_out: array, float_out: array) -> bool:
    """Append one split line of ``ints`` ints (then a float if ``value``); False on a bad width or token."""
    if len(parts) != ints + value:
        return False
    try:
        int_out.extend(map(int, parts[:ints]))
        if value:
            float_out.append(float(parts[ints]))
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
            if not (lines and _parse(lines, ints, value, int_out, float_out)):
                rows = enumerate(map(str.split, lines))  # Python reads a refused block up to its first bad line
                bad = next((k for k, parts in rows if not _fill(parts, ints, value, int_out, float_out)), None)
                if not lines or bad is not None:
                    if (total := self.rest()) < stop:  # a short table ranks before a malformed line
                        found = f"{n} lines expected, {total - start} found"
                        raise FormatError(f"line {total + 1}: missing {what} ({found})")
                    if (fields := len(lines[bad].split())) != width:
                        raise FormatError(f"line {lo + bad + 1}: {what} has {fields} fields, expected {width}")
                    raise FormatError(f"line {lo + bad + 1}: malformed {what} {lines[bad].strip()!r}")
            if value and nonfinite is None:
                finite = np.isfinite(np.frombuffer(float_out[-len(lines) :]))
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
    _finite([obs.values], "observation")
    head = (SPARSE_MAGIC, obs.shape.order, " ".join(map(str, obs.shape.sizes)), obs.count)
    _write(path, head, _text([obs.values], obs.indices))


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
    _finite([t.values], "value")
    head = (DENSE_MAGIC, t.shape.order, " ".join(map(str, t.shape.sizes)))
    _write(path, head, _text([t.values]))


def load_dense(path) -> DenseTensor:
    with open(path, "rb") as fh:
        rd = _LineReader(fh)
        shape = rd.header(DENSE_MAGIC)
        _, values = rd.table("value", shape.element_count, value=True)
        rd.end(f"{shape.element_count} values")
    return DenseTensor(shape, values)


def save_model(path, cores: TTCores) -> None:
    """Write TT parameters: N, sizes, rank chain, then the flat vector one value per line.

    The flat vector is read from the cores as ``flatten_params`` lays them out,
    without building it. A non-finite parameter raises FormatError before the
    file is opened.
    """
    _finite(cores.cores, "parameter")
    head = (
        cores.shape.order,
        " ".join(map(str, cores.shape.sizes)),
        " ".join(map(str, cores.rank.ranks)),
    )
    _write(path, head, _text(cores.cores))


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
