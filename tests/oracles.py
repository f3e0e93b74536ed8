"""Independent reference computations the tests check the library against.

Everything here is deliberately naive: explicit per-entry matrix chains,
nested loops, dense weighted residuals, central finite differences, and a
text reader that decodes and splits the whole file at once. One smooth,
not low-rank test signal, :func:`gen_oscillating`, serves as test data.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ttcomplete import DenseTensor, FormatError, TensorShape


def gen_oscillating(shape: TensorShape) -> DenseTensor:
    """Fill a tensor with samples of f(x) = sin(x/4) * cos(x^2) on (0, 10].

    Cell k of the column-major buffer (0-based) holds f((k + 1) / N * 10),
    N the element count. On this fixed interval the signal is smooth along
    the linearization: on 26^3 and 7^5 every unfolding has numerical rank
    at most 8 (singular values above 1e-4 of the largest).
    """
    x = np.arange(1, shape.element_count + 1, dtype=np.float64) / shape.element_count * 10.0
    return DenseTensor(shape, np.sin(x / 4.0) * np.cos(x * x))


def entry_by_matrix_chain(cores, idx):
    """Tensor entry via explicit matrix multiplication of the selected slices."""
    mats = [np.asarray(core[:, i - 1, :]) for core, i in zip(cores.cores, idx)]
    prod = mats[0]
    for m in mats[1:]:
        prod = np.matmul(prod, m)
    assert prod.shape == (1, 1)
    return float(prod[0, 0])


def full_by_entries(cores):
    """Materialize every entry independently; returns an ndarray (N-d)."""
    sizes = cores.shape.sizes
    out = np.empty(sizes)
    for idx in itertools.product(*(range(1, s + 1) for s in sizes)):
        out[tuple(i - 1 for i in idx)] = entry_by_matrix_chain(cores, idx)
    return out


def full_by_sweep(cores):
    """Flat column-major tensor by one left-to-right sweep over all N modes.

    After mode n the rows of ``left`` enumerate the column-major prefix
    indices (i_1, ..., i_n) and its columns span r_n.
    """
    left = np.ones((1, 1))
    for size, core in zip(cores.shape.sizes, cores.cores):
        grown = np.tensordot(left, core, axes=(1, 0))
        left = grown.reshape((left.shape[0] * size, core.shape[2]), order="F")
    return left[:, 0]


def outer_product(vectors):
    """Rank-1 tensor from per-mode vectors."""
    out = np.array(1.0)
    for v in vectors:
        out = np.multiply.outer(out, np.asarray(v))
    return out.reshape([len(v) for v in vectors])


def dense_weighted_objective(cores, truth_values, observed_flags):
    """Dense masked loss 1/2 * ||W * (Y - X)||_F^2 with X built entry by entry.

    ``truth_values`` and ``observed_flags`` are flat column-major buffers.
    """
    x = full_by_entries(cores).ravel(order="F")
    w = observed_flags.astype(np.float64)
    resid = w * (np.asarray(truth_values) - x)
    return 0.5 * float(np.sum(resid * resid))


def central_difference_gradient(f, x, eps=1e-5):
    """Central finite differences of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.size)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = eps
        grad[j] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return grad


def lin_offset_by_enumeration(sizes, target_idx):
    """Position of a 1-based multi-index in column-major enumeration order."""
    for pos, idx in enumerate(
        itertools.product(*(range(1, s + 1) for s in reversed(sizes)))
    ):
        if tuple(reversed(idx)) == tuple(target_idx):
            return pos
    raise AssertionError(f"{target_idx} not reached in shape {sizes}")


def next_ppm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """A PPM header token read one byte at a time: skip whitespace and # comments, then take
    the run of bytes up to the next whitespace. The reference for ``images._next_token``.
    """
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


class WholeFileReader:
    """The text formats' line reader as one whole-file pass: decode it all, split it all,
    then parse one line at a time.

    A drop-in for ``fileio._LineReader`` (same constructor and methods), so
    that patched into ``fileio`` it turns the library's loaders into reference
    loaders. ``str.splitlines`` ends a line at ``\\r``, ``\\n`` and ``\\r\\n``
    alike, as universal newlines do, so no newline translation is needed.
    """

    def __init__(self, fh):
        data = fh.read()
        try:
            self.lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            line = len((data[: exc.start] + b"?").decode("ascii").splitlines())
            raise FormatError(f"line {line}: non-ASCII byte {data[exc.start]:#04x}") from None
        self.pos = 0

    def rest(self) -> None:
        """Nothing is left to read: the whole file was checked for non-ASCII bytes up front."""

    def error(self, message: str) -> FormatError:
        return FormatError(f"line {self.pos}: {message}")

    def table(self, what: str, n: int, ints: int = 0, value: bool = False):
        start, stop = self.pos, self.pos + n
        if stop > len(self.lines):
            found = len(self.lines) - start
            raise FormatError(f"line {len(self.lines) + 1}: missing {what} ({n} lines expected, {found} found)")
        width = ints + value
        rows, values = [], []
        for k in range(start, stop):
            line = self.lines[k]
            parts = line.split()
            if len(parts) != width:
                raise FormatError(f"line {k + 1}: {what} has {len(parts)} fields, expected {width}")
            try:
                row = [int(p) for p in parts[:ints]]
                values += [float(p) for p in parts[ints:]]
            except ValueError:
                row = None
            if row is None or not all(-(2**63) <= i < 2**63 for i in row):
                raise FormatError(f"line {k + 1}: malformed {what} {line.strip()!r}")
            rows.append(row)
        self.pos = stop
        for k, v in enumerate(values, start):
            if not math.isfinite(v):
                raise FormatError(f"line {k + 1}: non-finite value in {what} {self.lines[k].strip()!r}")
        return np.array(rows, dtype=np.int64).reshape(n, ints), np.array(values, dtype=np.float64)

    def header(self, magic):
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
        for k in range(self.pos, len(self.lines)):
            if self.lines[k].strip():
                raise FormatError(f"line {k + 1}: trailing content after {what}")


# The line search's step models as they were with one floating-point guard in
# each model, kept verbatim as the reference for ``optimize._interpolate``.


def _cubic_min(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa) with slope fpa, (b, fb), (c, fc)."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.array([[dc**2, -(db**2)], [-(dc**3), db**3]])
            aa, bb = np.dot(d1, np.array([fb - fa - fpa * db, fc - fa - fpa * dc])) / denom
            radical = bb * bb - 3.0 * aa * fpa
            xmin = a + (-bb + np.sqrt(radical)) / (3.0 * aa)
        except (ArithmeticError, FloatingPointError):
            return None
    return xmin if np.isfinite(xmin) else None


def _quad_min(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa) with slope fpa and (b, fb)."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a
            curv = (fb - fa - fpa * db) / (db * db)
            xmin = a - fpa / (2.0 * curv)
        except (ArithmeticError, FloatingPointError):
            return None
    return xmin if np.isfinite(xmin) else None


def _interpolate(lo, hi, rec):
    """A trial inside the bracket from ``lo`` = (a, f, slope) to ``hi`` = (a, f).

    The cubic through lo, hi and ``rec`` comes first, then the quadratic
    through lo and hi, then bisection, each rejected when it lands in the
    outer fifth (cubic) or tenth (quadratic) of the bracket.
    """
    (a_lo, f_lo, d_lo), (a_hi, f_hi) = lo, hi
    dalpha = a_hi - a_lo
    left, right = (a_lo, a_hi) if dalpha > 0 else (a_hi, a_lo)
    cchk, qchk = 0.2 * abs(dalpha), 0.1 * abs(dalpha)
    a_j = _cubic_min(a_lo, f_lo, d_lo, a_hi, f_hi, *rec)
    if a_j is None or a_j > right - cchk or a_j < left + cchk:
        a_j = _quad_min(a_lo, f_lo, d_lo, a_hi, f_hi)
        if a_j is None or a_j > right - qchk or a_j < left + qchk:
            a_j = a_lo + 0.5 * dalpha
    return a_j


# Reference text writers: one line at a time, each number through Python's
# ``str`` or ``repr``, which ``fileio``'s numpy formatting must match byte for byte.


def _text(head, body) -> bytes:
    return "".join(f"{line}\n" for line in itertools.chain(head, body)).encode("ascii")


def sparse_text(obs) -> bytes:
    """The bytes of ``save_sparse(obs)``."""
    head = ("stto-sparse v1", obs.shape.order, " ".join(map(str, obs.shape.sizes)), obs.count)
    record = " ".join(["{}"] * obs.shape.order + ["{!r}"]).format
    return _text(head, map(record, *obs.indices.T.tolist(), obs.values.tolist()))


def dense_text(t) -> bytes:
    """The bytes of ``save_dense(t)``."""
    head = ("stto-dense v1", t.shape.order, " ".join(map(str, t.shape.sizes)))
    return _text(head, map(repr, t.values.tolist()))


def model_text(cores) -> bytes:
    """The bytes of ``save_model(cores)``."""
    head = (cores.shape.order, " ".join(map(str, cores.shape.sizes)), " ".join(map(str, cores.rank.ranks)))
    flat = np.concatenate([core.ravel(order="F") for core in cores.cores])
    return _text(head, map(repr, flat.tolist()))


def tt_svd_full(t: np.ndarray, ranks) -> np.ndarray:
    """The sequentially truncated TT-SVD of the N-d array ``t`` at the rank chain ``ranks``, multiplied out.

    Unfold the remainder into (r_{n-1} * I_n) rows, keep its leading r_n left singular vectors (numpy's SVD) as
    core n, and carry their S V^T on to the next mode; the last remainder is the last core.
    """
    sizes = t.shape
    cores = []
    rest = t.reshape(1, -1)
    for n, size in enumerate(sizes[:-1]):
        u, s, vt = np.linalg.svd(rest.reshape(rest.shape[0] * size, -1), full_matrices=False)
        k = min(ranks[n + 1], s.size)
        cores.append(u[:, :k].reshape(-1, size, k))
        rest = s[:k, None] * vt[:k]
    full = rest.reshape(-1, sizes[-1])
    for core in cores[::-1]:
        full = np.tensordot(core, full, axes=(2, 0))
    return full.reshape(sizes)
