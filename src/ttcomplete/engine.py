"""Sparse completion objective and gradient over tensor-train cores.

Given M observed entries y_m at multi-indices (i_1^m, ..., i_N^m) and a TT
model with prediction x_m (the chained slice product at that index), the loss
and the gradient of slice core_n[:, j, :] are

    f(cores) = 1/2 * sum_m (y_m - x_m)^2
    df/dslice(n, j) = sum_{m: i_n^m = j} (x_m - y_m) * P_n[m]^T S_n[m]^T

where P_n[m] is the left partial product of slices 1..n-1 (a 1 x r_{n-1} row)
and S_n[m] the right partial product of slices n+1..N (an r_n x 1 column).

Observations that agree in (i_1, ..., i_n) share their left products, so the
engine works on a trie of distinct prefixes. Depth n holds the K_n distinct
prefixes of length n, K_n <= min(M, I_1 * ... * I_n), each with its parent at
depth n-1 and its slice label i_n. The forward pass sets
P[node] = P[parent] @ core_n[:, label, :]; the leaves give x. The backward pass
is reverse mode over the same trie: a leaf's adjoint is the sum of its
residuals x_m - y_m (repeated cells included), slice j's gradient sums
P[parent]^T @ adjoint[node] over the nodes labelled j, and a parent's adjoint
sums adjoint[child] @ core_n[:, label, :]^T over its children. ``objective``
runs only the forward pass, as does ``reconstruct`` over a trie of the
requested cells. A fused objective+gradient call costs
O(sum_n K_n * r_{n-1} * r_n).

Evaluation is deterministic: observations are sorted stably and
lexicographically by (i_1, ..., i_N) and reduced in that order, so permuting
distinct stored entries changes no output bit.
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

    def repeated_rows(self) -> np.ndarray:
        """Ascending rows whose multi-index an earlier row already holds."""
        trie, _ = self._trie()
        return np.sort(trie.order[1:][trie.leaf[1:] == trie.leaf[:-1]])

    def _trie(self):
        """The prefix trie of the observations and their values in its row order."""
        if "trie" not in self._cache:
            trie = _Trie(self.indices, self.shape)
            self._cache["trie"] = (trie, self.values[trie.order])
        return self._cache["trie"]


def _check_bounds(indices: np.ndarray, shape: TensorShape, noun: str):
    """Raise BoundsError naming the first row of 1-based ``indices`` outside ``shape``."""
    sizes = np.array(shape.sizes)
    bad = np.flatnonzero(((indices < 1) | (indices > sizes)).ravel())
    if bad.size:
        m, n = divmod(int(bad[0]), shape.order)
        raise BoundsError(
            f"{noun} {m + 1}: coordinate {indices[m, n]} out of range [1, {sizes[n]}] "
            f"in mode {n + 1}",
            row=m,
        )


class _Trie:
    """Shared-prefix trie over the rows of 1-based ``indices`` into ``shape``.

    ``order`` sorts the rows stably and lexicographically by (i_1, ..., i_N);
    ``leaf[m]`` is the leaf of sorted row m. ``depths[n]`` is a pair
    (segments, parents) for the distinct prefixes of length n + 1, stored
    grouped by slice label: segments lists (label, node slice) in ascending
    label order, and parents[k] is the position of node k's parent at the
    previous depth. Within one segment the parents are distinct.
    """

    def __init__(self, indices: np.ndarray, shape: TensorShape):
        # Row-major offsets order cells lexicographically; TensorShape keeps them in int64.
        lin = np.ravel_multi_index(tuple((indices - 1).T), shape.sizes)
        self.order = np.argsort(lin, kind="stable")
        lin = lin[self.order]
        fresh = np.ones(lin.size, dtype=bool)  # sorted row starts a new prefix
        node = np.zeros(lin.size, dtype=np.int64)  # each row's node at the previous depth
        stride = shape.element_count
        self.depths = []
        self._targets = {}
        for size in shape.sizes:
            stride //= size
            prefix = lin // stride
            np.not_equal(prefix[1:], prefix[:-1], out=fresh[1:])
            starts = np.flatnonzero(fresh)
            # narrow labels let the stable sort use radix sort
            label = (prefix[starts] % size).astype(np.min_scalar_type(size))
            perm = np.argsort(label, kind="stable")
            labels, first = np.unique(label[perm], return_index=True)
            bounds = np.append(first, perm.size)
            segments = [(j, slice(bounds[t], bounds[t + 1])) for t, j in enumerate(labels)]
            self.depths.append((segments, node[starts[perm]]))
            place = np.empty_like(perm)
            place[perm] = np.arange(perm.size)
            node = place[np.cumsum(fresh) - 1]
        self.leaf = node

    def forward(self, cores: Sequence[np.ndarray], keep: bool = False):
        """Leaf values, plus each depth's gathered parent rows when ``keep``."""
        rows = np.ones((1, 1))
        gathered = []
        for core, (segments, parents) in zip(cores, self.depths):
            g = np.take(rows, parents, axis=0)
            rows = np.empty((g.shape[0], core.shape[2]))
            for j, seg in segments:
                np.matmul(g[seg], core[:, j, :], out=rows[seg])
            if keep:
                gathered.append(g)
        return rows[:, 0], gathered

    def backward(self, cores: Sequence[np.ndarray], gathered, resid: np.ndarray) -> np.ndarray:
        """Flattened core gradients given the residual of each sorted row."""
        # a leaf's adjoint sums the residuals of its rows, repeated cells included
        adj = np.bincount(self.leaf, weights=resid, minlength=gathered[-1].shape[0])[:, None]
        parts = []
        for n in range(len(cores) - 1, -1, -1):
            core, g = cores[n], gathered[n]
            grad = np.zeros_like(core)
            up = np.empty(g.shape)
            for j, seg in self.depths[n][0]:
                grad[:, j, :] = g[seg].T @ adj[seg]
                if n:
                    np.matmul(adj[seg], core[:, j, :].T, out=up[seg])
            if n:
                adj = self._sum_into_parents(n, up, gathered[n - 1].shape[0])
            parts.append(grad.ravel(order="F"))
        return np.concatenate(parts[::-1])

    def _sum_into_parents(self, n: int, rows: np.ndarray, count: int) -> np.ndarray:
        """Sum depth-n node rows into their ``count`` parents' rows, adding in storage order."""
        width = rows.shape[1]
        if (n, width) not in self._targets:  # flat element offsets, cached per depth and width
            parents = self.depths[n][1]
            self._targets[n, width] = (parents[:, None] * width + np.arange(width)).ravel()
        flat = np.bincount(self._targets[n, width], weights=rows.ravel(), minlength=count * width)
        return flat.reshape(count, width)


def _residuals(cores: TTCores, obs: SparseObservations, keep: bool = False):
    """The trie, x_m - y_m in its row order, and the forward pass's kept rows."""
    if cores.shape.sizes != obs.shape.sizes:
        raise ShapeError(f"cores describe shape {cores.shape}, observations shape {obs.shape}")
    trie, vals = obs._trie()
    x, gathered = trie.forward(cores.cores, keep)
    return trie, x[trie.leaf] - vals, gathered


def objective(cores: TTCores, obs: SparseObservations) -> float:
    """Half the squared residual over the observed entries."""
    _, resid, _ = _residuals(cores, obs)
    return 0.5 * float(np.dot(resid, resid))


def objective_and_gradient(cores: TTCores, obs: SparseObservations) -> tuple[float, np.ndarray]:
    """Fused evaluation: objective plus the flattened core gradients.

    The gradient layout matches :func:`ttcomplete.ttmodel.flatten_params`.
    Slices untouched by every observation keep an exactly zero gradient.
    """
    trie, resid, gathered = _residuals(cores, obs, keep=True)
    return 0.5 * float(np.dot(resid, resid)), trie.backward(cores.cores, gathered, resid)


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
    trie = _Trie(at, cores.shape)
    x, _ = trie.forward(cores.cores)
    out = np.empty(at.shape[0])
    out[trie.order] = x[trie.leaf]
    return out
