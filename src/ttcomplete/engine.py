"""Sparse completion objective and gradient over tensor-train cores.

Given M observed entries y_m at multi-indices (i_1^m, ..., i_N^m) and a TT
model with prediction x_m (the chained slice product at that index), the loss
and the gradient of slice core_n[:, j, :] are

    f(cores) = 1/2 * sum_m (y_m - x_m)^2
    df/dslice(n, j) = sum_{m: i_n^m = j} (x_m - y_m) * P_n[m]^T S_n[m]^T

where P_n[m] is the left partial product of slices 1..n-1 (a 1 x r_{n-1} row)
and S_n[m] the right partial product of slices n+1..N (an r_n x 1 column).

The engine meets in the middle. It splits the modes at s and stores the
observations as two tries. The prefix trie over modes 1..s holds at depth n
the K_n distinct prefixes (i_1, ..., i_n), K_n <= min(M, I_1 * ... * I_n),
each with its parent at depth n-1 and its slice label i_n. The suffix trie is
the same structure over the reversed modes N, ..., s+1 and the transposed
cores core_n.transpose(2, 1, 0); it holds the K'_n distinct suffixes
(i_n, ..., i_N). The forward pass sets P[node] = P[parent] @ core_n[:, label, :]
in each trie. The prefix leaves give the K_s x r_s rows L, the suffix leaves
the K'_{s+1} x r_s rows R, and one dense block X = L @ R^T joins them:
observation m, with prefix leaf a_m and suffix leaf b_m, predicts X[a_m, b_m].
The block is never whole in memory. Its rows are cut into equal tiles of
about ``_TILE_CELLS`` cells (512 KiB, inside a core's L2) and at least
``_TILE_MIN_ROWS`` rows; a block of at most ``_TILE_CELLS`` cells, or of
fewer than 2 * ``_TILE_MIN_ROWS`` rows, is one tile. The observations are
kept in block-row order, so tile t owns one contiguous run of them, and the
forward pass forms X_t = L_t @ R^T (one GEMM) and gathers that run's cells.
R^T is copied to C order once per pass, so each tile runs on OpenBLAS's NN
kernel, not the slower NT one (an 85 x 768 img256 tile: 30-33 vs 47-57 us).

A trie depth is one of two kinds, read from the observed cells. It is
complete when every parent has all I_n children (K_n = K_{n-1} * I_n), as on
a tensorized image at 90% missing. Its K_{n-1} x r_{n-1} parent rows then
meet the r_{n-1} x (I_n * r_n) reshaped core in one GEMM: the step
``ttmodel._grow``, which ``tt_full`` takes at every mode. Any other depth is
a segment depth: its nodes gather their parents' rows and run one matmul per
slice label.

The backward pass is reverse mode. Tile by tile, the residuals x_m - y_m of
its run are summed into its rows E_t of the block E at (a_m, b_m) (one
``bincount``, repeated cells included); E_t @ R is written into the tile's
rows of the prefix leaves' adjoint, and R's adjoint E^T @ L gains
E_t^T @ L_t (the first tile's product is taken as is, so a one-tile block
computes E @ R and L^T @ E exactly as one GEMM each). Each trie then runs its
backward pass: slice j's gradient sums P[parent]^T @ adjoint[node] over the
nodes labelled j, and a parent's adjoint sums adjoint[child] @
core_n[:, label, :]^T over its children (one GEMM each at a complete depth;
per label and a ``bincount`` into the parents at a segment depth). The
forward pass always keeps each depth's parent rows; ``evaluate`` runs the
backward pass on them only when its caller asks for the gradient, and
``reconstruct`` never does.

Cost rule. A fused call costs O(sum_{n<=s} K_n r_{n-1} r_n
+ sum_{n>s} K'_n r_{n-1} r_n + K_s K'_{s+1} r_s + M) flops, in one GEMM per
complete depth and pass (two backward), one matmul per slice label at a
segment depth, and three GEMMs per block tile; each tile after the first adds
K'_{s+1} r_s flops to R's adjoint. The block's working memory is one tile,
not K_s K'_{s+1} cells. The split s minimises the trie nodes
sum_{n<=s} K_n + sum_{n>s} K'_n among the splits whose block holds at most
``_BLOCK_CELLS_PER_OBS`` * M cells. s = N, where the suffix trie is empty and
R is the 1 x 1 matrix of ones, always qualifies; there every product is exact
and the engine is a one-sided prefix trie. K_n, K'_n and each trie depth's
node starts come from one prefix-start table per sort of the observations'
linear offsets (two sorts), so s depends only on the observed cells. A
node's parent holds the node's first sorted row, and each of the previous
depth's starts also starts a node, so counting the previous depth's flags at
a depth's starts numbers every node's parent: no depth expands its nodes
over the rows, and each trie's one per-row array, the leaf of every sorted
row, is expanded once, at its last depth. The join frees each per-row array
once it is spent. The observations cache the first sort, whose table alone
answers the duplicate check, and the join built on it, which serves the
objective and the gradient. They cache the second, the suffix sort, until
the join is built: a fit's start (``data.initial_cores``) sweeps up the
suffix trie it describes first, so a fit sorts its observations twice, and
the join then frees it. A later start on the same observations sorts them
once more and keeps nothing.

Determinism: rows are sorted stably and lexicographically by (i_1, ..., i_N),
as their row-major offsets, so the rows of one cell keep their input order.
One sort of int64 keys that pack each offset above its row number does it.
When the keys would pass int64, the offsets are argsorted; distinct offsets
have one sorted order, so that sort is redone stably only when a cell
repeats. The prefix-start table reads only the sorted offsets. The rows are
then grouped stably by prefix leaf; when every prefix depth is complete that
is the lexicographic order itself. The suffix trie is built
from the order of (i_N, ..., i_1), sorted the same way. A complete depth
stores its nodes parent-major (child j of the parent at position p at row
p * I_n + j); a segment depth stores them by label and then in sorted order.
Both layouts, which one a depth takes, and the tiles depend only on the set
of distinct cells, and each block cell belongs to one distinct cell, so every
reduction sees the same operands in the same order and permuting distinct
stored entries changes no output bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import TensorShape, _integral
from .errors import BoundsError, NumericError, ShapeError
from .ttmodel import _ROOT, TTCores, _flat, _grow


@dataclass(eq=False)
class SparseObservations:
    """M observed entries of a partially known tensor.

    ``indices`` is an (M, N) int array of 1-based multi-indices, ``values``
    the matching finite floats. Treated as immutable after construction;
    their sort and the join built from them are cached lazily.
    """

    shape: TensorShape
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = np.atleast_2d(np.asarray(self.indices))
        self.values = values = np.asarray(self.values, dtype=np.float64).ravel()
        if indices.ndim != 2 or indices.shape[1] != self.shape.order:
            raise ShapeError(
                f"index array of shape {indices.shape} does not match order-{self.shape.order} "
                f"shape {self.shape}"
            )
        if indices.shape[0] != values.size:
            raise ShapeError(f"{indices.shape[0]} indices but {values.size} values")
        if values.size < 1:
            raise ShapeError("at least one observation is required")
        kind = indices.dtype.kind
        if kind in "bcSUMm":  # numpy would read these as 0/1, drop an imaginary part, or fail to compare
            raise BoundsError(f"index array of dtype {indices.dtype} does not hold integer coordinates")
        sizes = self.shape.sizes
        # one reduction per mode runs fast in either memory order, unlike max(axis=0) on C order
        if not (kind in "iu" and indices.min() >= 1 and all(c.max() <= i for c, i in zip(indices.T, sizes))):
            if kind == "O":  # Python objects, as ints past int64: numpy cannot round them
                integral = np.fromiter(map(_integral, indices.flat), bool, indices.size).reshape(indices.shape)
            else:
                integral = np.isfinite(indices) & (indices == np.round(indices))
            integers = np.where(integral, indices, 0)  # 0 is out of range, and compares where None cannot
            bad = (integers < 1) | (integers > np.array(sizes))
            if bad.any():  # locate the first bad coordinate, in (observation, mode) order
                m, n = divmod(int(np.flatnonzero(bad.ravel())[0]), self.shape.order)
                v = indices[m, n]
                v = repr(v) if isinstance(v, str) else v  # quoted, so a string never reads as a number
                problem = f"out of range [1, {sizes[n]}]" if integral[m, n] else "is not an integer"
                raise BoundsError(f"observation {m + 1}: coordinate {v} {problem} in mode {n + 1}", row=m)
        finite = np.isfinite(values)
        if not finite.all():
            m = int(finite.argmin())
            raise NumericError(f"observation {m + 1}: value {values[m]} is not finite")
        self.indices = indices.astype(np.int64, copy=False)

    @property
    def count(self) -> int:
        return self.values.size

    def repeated_rows(self) -> np.ndarray:
        """Ascending rows whose multi-index an earlier row already holds."""
        order, fresh = self._sorted
        fresh = fresh[-1, 1:]
        if fresh.all():  # no repeat: answered without a temporary as long as the rows
            return order[:0]
        return np.sort(order[1:][~fresh])

    @functools.cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_sort_rows` of the indices, shared by the duplicate check and the join."""
        return _sort_rows(self.indices, self.shape.sizes)

    @functools.cached_property
    def _rsorted(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_sort_rows` of the reversed indices, shared by the first fit's start and the join."""
        return _sort_rows(self.indices[:, ::-1], self.shape.sizes[::-1])

    def _suffix_sort(self) -> tuple[np.ndarray, np.ndarray]:
        """The reversed sort for a fit's start: the cached one, or a fresh, uncached one once the join has freed it."""
        if "_join" in vars(self):
            return _sort_rows(self.indices[:, ::-1], self.shape.sizes[::-1])
        return self._rsorted

    @functools.cached_property
    def _join(self) -> _Join:
        """The observations' two tries and their join, which frees the reversed sort once built."""
        join = _Join(self.indices, self.values, self.shape, self._sorted, self._rsorted)
        del self._rsorted
        return join


# The join block holds at most this many cells per observation. On img256 at
# r = 8 (1 BLAS thread, 2 vCPU, three tiles) a block cell costs about 2.7 ns
# per f+g (a gather, a bincount and three r_s-wide matrix products: 0.54 of
# the 0.67 ms f+g for 196,608 cells; 3.0 ns with a transposed forward R^T,
# 4.1 ns as one untiled block) and a node at a segment depth about 45 ns
# (2.43 ms for the one-sided trie's 54,604 nodes, 53,240 of them at segment
# depths; scene and mask seed 1, medians of 400 calls). A complete depth
# costs about 7 us per pass: at s = 4 all nine depths are complete, and the
# tries' 1,363 nodes (95 ns each) take about 0.13 ms. The cap prices every
# node at the segment rate, so a block at the cap costs about one segment
# node per observation, which the one-sided trie's last level alone spends.
# img256 needs 10 for s = 4; a 1000^3 tensor with 5,000 cells would need
# about 1,000 and keeps s = N.
_BLOCK_CELLS_PER_OBS = 16

# The join block is computed in row tiles of about this many cells: 512 KiB of
# float64, inside a 2 MiB L2. A 1024 x 1024 block at r = 8 runs f+g in 1.7 ms
# in 64-row tiles, 2.3 ms in 128-row tiles and 3.2 ms whole.
_TILE_CELLS = 2**16
# A tile keeps at least this many rows: thinner tiles re-accumulate R's
# K'_{s+1} x r_s adjoint too often for too little work (img256 at missing
# 0.95, a 16 x 6,912 block, ran f+g 11% slower in two 9-row tiles).
_TILE_MIN_ROWS = 32


def _sort_rows(indices: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of 1-based ``indices``, and its prefix-start table.

    ``fresh[n, m]`` is true when sorted row m starts a new length-(n + 1) prefix: K_{n+1} flags.
    With bits = (M - 1).bit_length(), row m's int64 key is its row-major offset
    shifted left by bits, or'ed with m. One ``np.sort`` of the keys is then a
    stable sort: the low bits give the order, the high bits the sorted offsets.
    When the keys would pass int64, I_1 * ... * I_N > 2^(63 - bits), the
    offsets are argsorted instead, and again stably only when a cell repeats.
    """
    # Row-major offsets order cells lexicographically; TensorShape keeps them in
    # int64. Horner's rule on the checked indices runs about 2.4x faster than
    # np.ravel_multi_index, which checks every index again.
    lin = indices[:, 0] - 1
    for n in range(1, len(sizes)):
        lin *= sizes[n]
        lin += indices[:, n] - 1
    bits = (lin.size - 1).bit_length()
    packed = math.prod(sizes) <= 1 << (63 - bits)
    if packed:  # one sort of the keys offset << bits | row, stable by construction
        lin <<= bits
        lin |= np.arange(lin.size)
        lin.sort()
        order, prefix = lin & ((1 << bits) - 1), lin >> bits
    else:
        order = np.argsort(lin)
        prefix = lin[order]
    # prefix holds the sorted offsets, then those of ever shorter prefixes
    fresh = np.ones((len(sizes), lin.size), dtype=bool)
    for n in range(len(sizes) - 1, -1, -1):
        np.not_equal(prefix[1:], prefix[:-1], out=fresh[n, 1:])
        if n:
            prefix //= sizes[n]
    # Unpacked, distinct offsets have one sorted order, which introsort finds fastest;
    # only a repeated cell needs the stable sort to keep its rows in row order.
    if not packed and not fresh[-1].all():
        order = np.argsort(lin, kind="stable")
    return order, fresh


def _best_split(prefix: Sequence[int], suffix: Sequence[int], m: int) -> int:
    """The split s in 1..N for K_n = ``prefix[n-1]`` and K'_n = ``suffix[n-1]``.

    Minimises the trie nodes sum_{n<=s} K_n + sum_{n>s} K'_n over the splits
    whose join block K_s x K'_{s+1} (K'_{N+1} = 1) holds at most
    ``_BLOCK_CELLS_PER_OBS`` * ``m`` cells; a tie goes to the larger s. s = N
    always qualifies, since K_N <= m.
    """
    order = len(prefix)
    best, fewest = order, sum(prefix)
    for s in range(order - 1, 0, -1):
        nodes = sum(prefix[:s]) + sum(suffix[s:])
        if nodes < fewest and prefix[s - 1] * suffix[s] <= _BLOCK_CELLS_PER_OBS * m:
            best, fewest = s, nodes
    return best


class _Trie:
    """Shared-prefix trie over the first ``len(fresh)`` modes, from :func:`_sort_rows`'s ``order``, ``fresh``.

    ``leaf[m]`` is the last-depth node of sorted row m, and ``leaves`` counts
    those nodes (a trie of depth 0 is one root, node 0, whose row is
    ``_ROOT``). ``depths[n]`` describes the distinct prefixes of length n + 1,
    in one of two kinds. A complete depth, where every parent has all I_{n+1}
    children, is ``None``: child j of the parent at position p is stored at
    row p * I_{n+1} + j. Any other depth is a triple (segments, parents,
    count), stored grouped by slice label: segments lists (label, node slice)
    in ascending label order, parents[k] is the position of node k's parent
    among the ``count`` nodes of the previous depth, and within one segment
    the parents are distinct. A complete depth grows its rows by
    ``ttmodel._grow``, so at the first depth they are the core's slices, and
    the gradient there is their adjoint, both exact.

    A node's parent is the previous depth's node that holds the node's first
    sorted row, and every such node starts there too, so the parent's
    sorted position is the count of the previous depth's flags at the
    node's start, minus 1. The build thus keeps only per-node arrays, and
    ``leaf``, the one per-row array, is expanded once from the last depth.
    """

    def __init__(self, indices: np.ndarray, order: np.ndarray, fresh: np.ndarray, sizes):
        starts = place = np.zeros(1, dtype=np.int64)  # the root, node 0, whose rows start at sorted row 0
        self.depths = []
        self.leaves = 1
        self._targets = {}
        for n, (column, size, new) in enumerate(zip(indices.T, sizes, fresh)):
            starts = np.flatnonzero(new)
            # the previous depth's flags counted at the starts: each node's parent (see the docstring)
            parents = place[np.cumsum(fresh[n - 1][starts]) - 1] if n else np.zeros_like(starts)
            # narrow labels let the stable sort use radix sort
            label = (column[order[starts]] - 1).astype(np.min_scalar_type(size))
            if starts.size == self.leaves * size:
                self.depths.append(None)
                place = parents * size + label
            else:
                perm = np.argsort(label, kind="stable")
                labels, first = np.unique(label[perm], return_index=True)
                bounds = np.append(first, perm.size)
                segments = [(j, slice(bounds[t], bounds[t + 1])) for t, j in enumerate(labels)]
                self.depths.append((segments, parents[perm], self.leaves))
                place = np.empty_like(perm)
                place[perm] = np.arange(perm.size)
            self.leaves = starts.size
        self.leaf = np.repeat(place, np.diff(starts, append=order.size))  # over each leaf's run of rows

    def forward(self, cores: Sequence[np.ndarray]):
        """Leaf rows, and each depth's parent rows (per node at a segment depth) for ``backward``."""
        rows = _ROOT
        kept = []
        for core, level in zip(cores, self.depths):
            if level is None:
                g, rows = rows, _grow(rows, core)
            else:
                segments, parents, _ = level
                g = np.take(rows, parents, axis=0)
                rows = np.empty((g.shape[0], core.shape[2]))
                for j, seg in segments:
                    np.matmul(g[seg], core[:, j, :], out=rows[seg])
            kept.append(g)
        return rows, kept

    def backward(self, cores: Sequence[np.ndarray], kept, adj: np.ndarray) -> list:
        """Core gradients in depth order, given the adjoint of each leaf row."""
        grads = []
        for n in range(len(cores) - 1, -1, -1):
            core, g, level = cores[n], kept[n], self.depths[n]
            if level is None:
                # one GEMM each; the second also sums every parent's children
                wide = adj.reshape(g.shape[0], -1)
                grad = wide.reshape(core.shape) if g is _ROOT else (g.T @ wide).reshape(core.shape)
                if n:
                    adj = wide @ core.reshape(core.shape[0], -1).T
            else:
                segments, _, count = level
                grad = np.zeros_like(core)
                up = np.empty(g.shape)
                for j, seg in segments:
                    grad[:, j, :] = g[seg].T @ adj[seg]
                    if n:
                        np.matmul(adj[seg], core[:, j, :].T, out=up[seg])
                if n:
                    adj = self._sum_into_parents(n, up, count)
            grads.append(grad)
        return grads[::-1]

    def _sum_into_parents(self, n: int, rows: np.ndarray, count: int) -> np.ndarray:
        """Sum depth-n node rows into their ``count`` parents' rows, adding in storage order."""
        width = rows.shape[1]
        if (n, width) not in self._targets:  # flat element offsets, cached per depth and width
            parents = self.depths[n][1]
            self._targets[n, width] = (parents[:, None] * width + np.arange(width)).ravel()
        flat = np.bincount(self._targets[n, width], weights=rows.ravel(), minlength=count * width)
        return flat.reshape(count, width)


class _Join:
    """Rows of 1-based ``indices`` as a prefix trie and a suffix trie joined by one block.

    ``order`` sorts the rows stably by block row (prefix leaf) and within one
    lexicographically by (i_1, ..., i_N); every per-row array, ``values``
    among them, is kept in that order. ``split`` is s; ``left`` is the trie
    over modes 1..s and ``right`` the trie over modes N, ..., s+1. ``tiles``
    lists, per row tile of the ``left.leaves`` x ``right.leaves`` join block,
    the slice of its block rows and the slice of sorted rows that fall in it;
    sorted row m sits at ``cell[m]`` of its flattened tile, formed in place
    on the rows' block rows. Each per-row array goes once spent: the tries'
    ``leaf`` arrays as ``order`` and ``cell`` take them up. When every prefix
    depth is complete the sort is already by block row, and ``order`` is the
    sort's own array. ``sort`` and ``rsort`` come in as :func:`_sort_rows` of
    ``indices`` and of their reversed columns.
    """

    def __init__(self, indices: np.ndarray, values: np.ndarray, shape: TensorShape, sort: tuple, rsort: tuple):
        (order, fresh), (rorder, rfresh) = sort, rsort
        sizes, rsizes = shape.sizes, shape.sizes[::-1]
        prefix, suffix = ([np.count_nonzero(new) for new in flags] for flags in (fresh, rfresh))
        self.split = _best_split(prefix, suffix[::-1], values.size)
        self.left = _Trie(indices, order, fresh[: self.split], sizes)
        self.right = _Trie(indices[:, ::-1], rorder, rfresh[: len(sizes) - self.split], rsizes)
        right_leaf = np.empty_like(rorder)
        right_leaf[rorder] = self.right.leaf
        del self.right.leaf
        row = self.left.leaf
        del self.left.leaf
        if any(level is not None for level in self.left.depths):  # rows by block row; a complete trie has them so
            by_row = np.argsort(row, kind="stable")
            order, row = order[by_row], row[by_row]
            del by_row
        self.order = order
        height, width = self.left.leaves, self.right.leaves
        count = max(1, min(-(-height * width // _TILE_CELLS), height // _TILE_MIN_ROWS))
        rows = -(-height // count)
        starts = range(0, height, rows)
        bounds = np.searchsorted(row, [*starts, height])
        self.tiles = [(slice(r, r + rows), slice(a, b)) for r, a, b in zip(starts, bounds[:-1], bounds[1:])]
        row -= row // rows * rows  # 3x faster than row % rows
        row *= width
        row += right_leaf[self.order]
        self.cell = row
        self.values = values[self.order]

    def forward(self, cores: Sequence[np.ndarray]):
        """Predictions of the sorted rows, and what ``backward`` needs."""
        s = self.split
        right_cores = [core.transpose(2, 1, 0) for core in cores[s:][::-1]]
        left, left_kept = self.left.forward(cores[:s])
        right, right_kept = self.right.forward(right_cores)
        right_t = np.ascontiguousarray(right.T)  # once per call, not per tile
        x = np.empty(self.cell.size)
        for rows, obs in self.tiles:
            np.take((left[rows] @ right_t).ravel(), self.cell[obs], out=x[obs], mode="clip")
        return x, (left, right, left_kept, right_kept, right_cores)

    def backward(self, cores: Sequence[np.ndarray], kept, resid: np.ndarray) -> np.ndarray:
        """Flattened core gradients given the residual of each sorted row."""
        left, right, left_kept, right_kept, right_cores = kept
        left_adj = np.empty_like(left)
        for rows, obs in self.tiles:
            tile = left[rows]
            block = np.bincount(self.cell[obs], weights=resid[obs], minlength=tile.shape[0] * right.shape[0])
            block = block.reshape(tile.shape[0], right.shape[0])
            np.matmul(block, right, out=left_adj[rows])
            if rows.start:
                right_adj += tile.T @ block
            else:
                right_adj = tile.T @ block
        left_grads = self.left.backward(cores[: self.split], left_kept, left_adj)
        right_grads = self.right.backward(right_cores, right_kept, right_adj.T)
        return _flat([*left_grads, *(g.transpose(2, 1, 0) for g in right_grads[::-1])])


def evaluate(cores: TTCores, obs: SparseObservations) -> tuple[float, Callable[[], np.ndarray]]:
    """The objective, and its gradient as a function: ``(f, gradient)``.

    f is half the squared residual over the observed entries. ``gradient()``
    runs the backward pass on the state this forward pass kept, so it returns
    the same bits whenever it runs, packed by :func:`ttcomplete.ttmodel._flat`
    as :func:`ttcomplete.ttmodel.flatten_params` packs the cores; slices
    untouched by every observation keep an exactly zero gradient.
    """
    if cores.shape.sizes != obs.shape.sizes:
        raise ShapeError(f"cores describe shape {cores.shape}, observations shape {obs.shape}")
    join = obs._join
    resid, kept = join.forward(cores.cores)
    resid -= join.values  # in place: the forward pass's predictions are this call's own
    return 0.5 * float(np.dot(resid, resid)), lambda: join.backward(cores.cores, kept, resid)


def objective(cores: TTCores, obs: SparseObservations) -> float:
    """Half the squared residual over the observed entries: :func:`evaluate`'s f."""
    return evaluate(cores, obs)[0]


def objective_and_gradient(cores: TTCores, obs: SparseObservations) -> tuple[float, np.ndarray]:
    """Fused evaluation: :func:`evaluate` with its backward pass run at once."""
    f, grad = evaluate(cores, obs)
    return f, grad()


def gradient(cores: TTCores, obs: SparseObservations) -> np.ndarray:
    """Flattened gradient of the objective with respect to every core entry."""
    return evaluate(cores, obs)[1]()


def reconstruct(cores: TTCores, at) -> np.ndarray:
    """Model predictions at the requested multi-indices (checked as observations), in order."""
    at = np.atleast_2d(at)
    if at.shape == (0, cores.shape.order):  # no cell requested, as on a fully observed tensor's held-out set
        return np.empty(0)
    join = SparseObservations(cores.shape, at, np.zeros(at.shape[0]))._join
    out = np.empty(at.shape[0])
    out[join.order] = join.forward(cores.cores)[0]
    return out
