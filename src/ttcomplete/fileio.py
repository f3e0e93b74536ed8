"""Text serialization for observations, dense tensors, and model parameters.

All formats are line-oriented ASCII. Floats are written with Python's
shortest round-trip representation, so load(save(x)) reproduces x bit-exact.
Every loader reads its header and records through one line reader and rejects
any non-blank line after the last record with a line-numbered FormatError.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DenseTensor, TensorShape
from .engine import SparseObservations
from .errors import BoundsError, FormatError
from .ttmodel import TTCores, TTRank, flatten_params, unflatten_params

SPARSE_MAGIC = "stto-sparse v1"
DENSE_MAGIC = "stto-dense v1"


def _write(path, head, body) -> None:
    """Write the header lines, then stream the body lines; items carry no newline."""
    with open(path, "w", encoding="ascii") as fh:
        for lines in (head, body):
            fh.writelines(f"{line}\n" for line in lines)


class _LineReader:
    """Sequential line access that reports 1-based line numbers in errors."""

    def __init__(self, path):
        with open(path, "r", encoding="ascii") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise FormatError(f"line {self.pos + 1}: missing {what}")
        line = self.lines[self.pos].strip()
        self.pos += 1
        return line

    def error(self, message: str) -> FormatError:
        return FormatError(f"line {self.pos}: {message}")

    def next_int(self, what: str) -> int:
        line = self.next(what)
        try:
            return int(line)
        except ValueError:
            raise self.error(f"expected integer {what}, got {line!r}") from None

    def next_ints(self, what: str, n: int) -> list[int]:
        parts = self.next(what).split()
        if len(parts) != n:
            raise self.error(f"expected {n} integers for {what}, got {len(parts)}")
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise self.error(f"non-integer value in {what}") from None

    def next_floats(self, what: str, n: int) -> np.ndarray:
        """``n`` lines holding one number each."""
        out = np.empty(n)
        for i in range(n):
            line = self.next(f"{what} {i + 1}")
            try:
                out[i] = float(line)
            except ValueError:
                raise self.error(f"expected number for {what} {i + 1}, got {line!r}") from None
        return out

    def header(self, magic: str | None) -> TensorShape:
        """Read the optional magic line, the mode count and the mode sizes."""
        if magic is not None:
            line = self.next("format magic")
            if line != magic:
                raise self.error(f"bad magic {line!r}, expected {magic!r}")
        order = self.next_int("mode count")
        if order < 1:
            raise self.error(f"mode count must be positive, got {order}")
        sizes = self.next_ints("mode sizes", order)
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
    """Write observations: magic, N, sizes, M, then one `i_1 .. i_N value` line each."""
    head = (SPARSE_MAGIC, obs.shape.order, " ".join(map(str, obs.shape.sizes)), obs.count)
    rows = zip(obs.indices.tolist(), obs.values.tolist())
    _write(path, head, (f"{' '.join(map(str, idx))} {val!r}" for idx, val in rows))


def load_sparse(path) -> SparseObservations:
    """Parse a sparse observation file, rejecting malformed, non-finite or duplicate entries."""
    rd = _LineReader(path)
    shape = rd.header(SPARSE_MAGIC)
    order = shape.order
    m = rd.next_int("observation count")
    if m < 1:
        raise rd.error(f"observation count must be positive, got {m}")
    indices = np.empty((m, order), dtype=np.int64)
    values = np.empty(m)
    for i in range(m):
        parts = rd.next(f"observation {i + 1}").split()
        if len(parts) != order + 1:
            raise rd.error(f"expected {order + 1} fields, got {len(parts)}")
        try:
            coords = [int(p) for p in parts[:order]]
            value = float(parts[order])
        except ValueError:
            raise rd.error("malformed observation record") from None
        if not math.isfinite(value):
            raise rd.error(f"non-finite value {parts[order]!r}")
        indices[i] = coords
        values[i] = value
    rd.end(f"{m} observations")
    try:
        obs = SparseObservations(shape, indices, values)
    except BoundsError as exc:
        raise FormatError(f"line {exc.row + 5}: {exc}") from None
    repeated = obs.repeated_rows()
    if repeated.size:
        dup = int(repeated[0])
        raise FormatError(f"line {dup + 5}: duplicate multi-index {tuple(indices[dup])}")
    return obs


def save_dense(path, t: DenseTensor) -> None:
    """Write a dense tensor: magic, N, sizes, then one value per line (column-major)."""
    head = (DENSE_MAGIC, t.shape.order, " ".join(map(str, t.shape.sizes)))
    _write(path, head, map(float.__repr__, t.values.tolist()))


def load_dense(path) -> DenseTensor:
    rd = _LineReader(path)
    shape = rd.header(DENSE_MAGIC)
    values = rd.next_floats("value", shape.element_count)
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
    ranks = rd.next_ints("rank chain", shape.order + 1)
    try:
        rank = TTRank(tuple(ranks))
        zeros = tuple(np.zeros((ranks[n], shape.sizes[n], ranks[n + 1])) for n in range(shape.order))
        template = TTCores(zeros, shape, rank)
    except ValueError as exc:
        raise rd.error(str(exc)) from None
    flat = rd.next_floats("parameter", template.param_count)
    rd.end(f"{template.param_count} parameters")
    return unflatten_params(template, flat)
