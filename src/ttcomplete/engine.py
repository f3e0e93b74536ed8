"""Sparse completion objective and gradient over tensor-train cores.

Given M observed entries y_m at multi-indices (i_1^m, ..., i_N^m) and a TT
model with prediction x_m (the chained slice product at that index), the loss
is

    f(cores) = 1/2 * sum_m (y_m - x_m)^2

and the gradient of the slice core_n[:, j, :] collects contributions from
exactly the observations whose n-th index equals j:

    df/dslice(n, j) = sum_{m: i_n^m = j} (x_m - y_m) * P_n[m]^T S_n[m]^T

where P_n[m] is the left partial product of slices 1..n-1 (a 1 x r_{n-1} row)
and S_n[m] the right partial product of slices n+1..N (an r_n x 1 column).
One per-slice kernel, ``_apply``, advances every observation's row through one
core; one sweep chains it over the cores and yields P_1..P_N and the
predictions. The suffix sweep is the same sweep over the cores N..2 in
reverse order, each transposed to (r_n, I_n, r_{n-1}): its slice j is a view
of core_n[:, j, :]^T, so S_n is kept as a row as well. A fused
objective+gradient call thus costs O(M * sum r_{n-1} r_n).

Evaluation is deterministic: observations are reduced in a canonical order
(ascending column-major cell offset), so permuting the stored entries changes
no output bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import TensorShape
from .errors import BoundsError, ShapeError
from .ttmodel import TTCores


@dataclass(eq=False)
class SparseObservations:
    """M observed entries of a partially known tensor.

    ``indices`` is an (M, N) int array of 1-based multi-indices, ``values``
    the matching float array. Treated as immutable after construction;
    derived lookup structures are cached lazily.
    """

    shape: TensorShape
    indices: np.ndarray
    values: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, init=False)

    def __post_init__(self):
        indices = np.atleast_2d(np.asarray(self.indices, dtype=np.int64))
        values = np.asarray(self.values, dtype=np.float64).ravel()
        self.indices = indices
        self.values = values
        if indices.ndim != 2 or indices.shape[1] != self.shape.order:
            raise ShapeError(
                f"index array of shape {indices.shape} does not match order-{self.shape.order} "
                f"shape {self.shape}"
            )
        if indices.shape[0] != values.size:
            raise ShapeError(f"{indices.shape[0]} indices but {values.size} values")
        if values.size < 1:
            raise ShapeError("at least one observation is required")
        _check_bounds(indices, self.shape, "observation")

    @property
    def count(self) -> int:
        return self.values.size

    def linear_indices(self) -> np.ndarray:
        """0-based column-major cell offsets, one per observation."""
        if "lin" not in self._cache:
            self._cache["lin"] = np.ravel_multi_index(
                tuple((self.indices - 1).T), self.shape.sizes, order="F"
            )
        return self._cache["lin"]

    def has_duplicates(self) -> bool:
        lin = self.linear_indices()
        return np.unique(lin).size != lin.size

    def _canonical(self):
        """Observations reordered by ascending cell offset, plus mode groups."""
        if "canonical" not in self._cache:
            order = np.argsort(self.linear_indices(), kind="stable")
            idx0 = np.ascontiguousarray(self.indices[order] - 1)
            vals = self.values[order]
            groups = _groups(idx0)
            self._cache["canonical"] = (idx0, vals, groups)
        return self._cache["canonical"]


def _check_bounds(indices: np.ndarray, shape: TensorShape, noun: str):
    """Raise BoundsError naming the first row of 1-based ``indices`` outside ``shape``."""
    for n, size in enumerate(shape.sizes):
        col = indices[:, n]
        bad = np.nonzero((col < 1) | (col > size))[0]
        if bad.size:
            raise BoundsError(
                f"{noun} {bad[0] + 1}: coordinate {col[bad[0]]} out of range [1, {size}] "
                f"in mode {n + 1}"
            )


def _groups(idx0: np.ndarray) -> list:
    """One :func:`_group_by_mode` grouping per column of 0-based indices."""
    return [_group_by_mode(idx0[:, n]) for n in range(idx0.shape[1])]


def _group_by_mode(idx_col: np.ndarray):
    """Sort observation rows by one mode's index and mark the segments.

    Returns (perm, labels, bounds): applying ``perm`` groups equal indices
    into contiguous runs; run t spans bounds[t]:bounds[t+1] and carries the
    0-based slice index labels[t].
    """
    perm = np.argsort(idx_col, kind="stable")
    sorted_idx = idx_col[perm]
    labels, starts = np.unique(sorted_idx, return_index=True)
    bounds = np.append(starts, idx_col.size)
    return perm, labels, bounds


def _apply(rows: np.ndarray, core: np.ndarray, group) -> np.ndarray:
    """Advance per-observation rows through one core: row m becomes row m @ core[:, i_m, :]."""
    perm, labels, bounds = group
    gathered = rows[perm]
    out = np.empty((rows.shape[0], core.shape[2]))
    for t, j in enumerate(labels):
        s, e = bounds[t], bounds[t + 1]
        out[s:e] = gathered[s:e] @ core[:, j, :]
    result = np.empty_like(out)
    result[perm] = out
    return result


def _sweep(cores: Sequence[np.ndarray], groups, m: int):
    """Yield the running slice products through ``cores``, starting from all-ones rows."""
    rows = np.ones((m, 1))
    yield rows
    for core, group in zip(cores, groups):
        rows = _apply(rows, core, group)
        yield rows


def _predict(cores: Sequence[np.ndarray], groups, m: int) -> np.ndarray:
    """The model value at each observation: the last rows of the sweep."""
    for rows in _sweep(cores, groups, m):
        pass
    return rows[:, 0]


def _check_compatible(cores: TTCores, obs: SparseObservations):
    if cores.shape.sizes != obs.shape.sizes:
        raise ShapeError(f"cores describe shape {cores.shape}, observations shape {obs.shape}")


def objective(cores: TTCores, obs: SparseObservations) -> float:
    """Half the squared residual over the observed entries."""
    _check_compatible(cores, obs)
    _, vals, groups = obs._canonical()
    resid = _predict(cores.cores, groups, obs.count) - vals
    return 0.5 * float(np.dot(resid, resid))


def objective_and_gradient(cores: TTCores, obs: SparseObservations) -> tuple[float, np.ndarray]:
    """Fused evaluation: objective plus the flattened core gradients.

    The gradient layout matches :func:`ttcomplete.ttmodel.flatten_params`.
    Slices untouched by every observation keep an exactly zero gradient.
    """
    _check_compatible(cores, obs)
    _, vals, groups = obs._canonical()
    m = obs.count
    *prefixes, x = _sweep(cores.cores, groups, m)
    # The suffix sweep is the prefix sweep over the transposed cores N..2 in
    # reverse: core.transpose(2, 1, 0)[:, j, :] is the view core[:, j, :].T.
    flipped = [core.transpose(2, 1, 0) for core in cores.cores[:0:-1]]
    suffixes = list(_sweep(flipped, groups[:0:-1], m))[::-1]
    resid = x[:, 0] - vals
    f = 0.5 * float(np.dot(resid, resid))

    parts = []
    for n, core in enumerate(cores.cores):
        perm, labels, bounds = groups[n]
        grad = np.zeros_like(core)
        pg = prefixes[n][perm]
        sg = suffixes[n][perm]
        rg = resid[perm]
        for t, j in enumerate(labels):
            s, e = bounds[t], bounds[t + 1]
            grad[:, j, :] = (pg[s:e] * rg[s:e, None]).T @ sg[s:e]
        parts.append(grad.ravel(order="F"))
    return f, np.concatenate(parts)


def gradient(cores: TTCores, obs: SparseObservations) -> np.ndarray:
    """Flattened gradient of the objective with respect to every core entry."""
    return objective_and_gradient(cores, obs)[1]


def reconstruct(cores: TTCores, at) -> np.ndarray:
    """Model predictions at the requested multi-indices, in the given order."""
    at = np.atleast_2d(np.asarray(at, dtype=np.int64))
    if at.shape[1] != cores.shape.order:
        raise BoundsError(
            f"indices of width {at.shape[1]} do not match order-{cores.shape.order} shape"
        )
    _check_bounds(at, cores.shape, "request")
    return _predict(cores.cores, _groups(at - 1), at.shape[0])
