"""Synthetic data, missing-cell masks, observation extraction, and the fit's start."""

from __future__ import annotations

import math

import numpy as np

from .core import DenseTensor, TensorShape, whole
from .engine import _BLOCK_CELLS_PER_OBS, SparseObservations
from .errors import BoundsError, ShapeError
from .ttmodel import TTCores, TTRank, cap_ranks, random_init, tt_full

def gen_tt_random(shape: TensorShape, rank: TTRank, seed: int) -> DenseTensor:
    """Ground truth with known train rank: materialize randomly drawn cores."""
    return tt_full(random_init(shape, rank, seed))


class MissingMask:
    """Boolean observed/missing flag per cell, column-major.

    At least one cell must remain observed.
    """

    def __init__(self, shape: TensorShape, observed: np.ndarray):
        observed = np.asarray(observed, dtype=bool).ravel()
        if observed.size != shape.element_count:
            raise ShapeError(
                f"mask has {observed.size} flags, shape {shape} has {shape.element_count} cells"
            )
        if not observed.any():
            raise ValueError("degenerate mask: no observed cells")
        self.shape = shape
        self.observed = observed


def observed_count(shape: TensorShape, missing_rate: float) -> int:
    """Cells a random mask at ``missing_rate`` keeps: round((1 - missing_rate) * element_count).

    Raises ValueError unless the rate lies in [0, 1) and keeps at least one cell.
    """
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError(f"missing_rate must lie in [0, 1), got {missing_rate}")
    n_obs = int(round((1.0 - missing_rate) * shape.element_count))
    if n_obs < 1:
        raise ValueError(f"missing_rate {missing_rate} leaves no observed cell in shape {shape}")
    return n_obs


def mask_random(shape: TensorShape, missing_rate: float, seed: int) -> MissingMask:
    """Withhold a seeded uniform sample of cells; :func:`observed_count` cells stay observed."""
    count = shape.element_count
    n_obs = observed_count(shape, missing_rate)
    rng = np.random.default_rng(seed)
    observed = np.zeros(count, dtype=bool)
    observed[rng.permutation(count)[:n_obs]] = True
    return MissingMask(shape, observed)


def _check_image_shape(shape: TensorShape):
    if shape.order != 3 or shape.sizes[2] != 3:
        raise ShapeError(f"expected an image shape (height, width, 3), got {shape}")


def mask_rows(image_shape: TensorShape, missing_row_indices) -> MissingMask:
    """Withhold whole image rows (every column, every channel); rows are 1-based."""
    _check_image_shape(image_shape)
    height = image_shape.sizes[0]
    rows = [whole(r, BoundsError, "row") for r in missing_row_indices]
    for r in rows:
        if not 1 <= r <= height:
            raise BoundsError(f"row {r} out of range [1, {height}]")
    observed = np.ones(image_shape.sizes, dtype=bool)
    observed[np.array(rows, dtype=np.int64) - 1] = False
    return MissingMask(image_shape, observed.ravel(order="F"))


def mask_block(image_shape: TensorShape, top: int, left: int, height: int, width: int) -> MissingMask:
    """Withhold a pixel rectangle (all channels); ``top``/``left`` are 1-based."""
    _check_image_shape(image_shape)
    img_h, img_w = image_shape.sizes[0], image_shape.sizes[1]
    top, left, height, width = (
        whole(v, BoundsError, name)
        for v, name in zip((top, left, height, width), ("top", "left", "height", "width"))
    )
    if height < 1 or width < 1:
        raise BoundsError(f"block extent {height}x{width} must be positive")
    if not (1 <= top and top + height - 1 <= img_h):
        raise BoundsError(f"block rows {top}..{top + height - 1} out of range [1, {img_h}]")
    if not (1 <= left and left + width - 1 <= img_w):
        raise BoundsError(f"block columns {left}..{left + width - 1} out of range [1, {img_w}]")
    observed = np.ones(image_shape.sizes, dtype=bool)
    observed[top - 1 : top - 1 + height, left - 1 : left - 1 + width, :] = False
    return MissingMask(image_shape, observed.ravel(order="F"))


def extract_observations(t: DenseTensor, mask: MissingMask) -> SparseObservations:
    """Collect the observed cells as (multi-index, value) records.

    Entries come out in column-major cell order.
    """
    if t.shape.sizes != mask.shape.sizes:
        raise ShapeError(f"tensor shape {t.shape} does not match mask shape {mask.shape}")
    lin = np.flatnonzero(mask.observed)
    return _observations(t.shape, lin, t.values[lin])


def _observations(shape: TensorShape, lin: np.ndarray, values: np.ndarray) -> SparseObservations:
    """Observations of ``values`` at the 0-based column-major cell offsets ``lin`` of ``shape``."""
    # One array with each mode's column contiguous. Division by a scalar runs
    # about 2.4x faster than np.unravel_index, which divides per element.
    columns = np.empty((shape.order, lin.size), dtype=np.int64)
    for column, size in zip(columns, shape.sizes):
        rest = lin // size
        np.subtract(lin, rest * size, out=column)
        lin = rest
    columns += 1
    return SparseObservations(shape, columns.T, values)


def synthetic_scene(side: int = 256, seed: int = 0) -> DenseTensor:
    """A structured RGB test image: smooth gradients, a few shapes, mild noise.

    Values lie in [0, 255]; the layout gives completion something real to
    exploit (large-scale structure) while mean-style baselines fare poorly.
    The channels are built separably from 1-D row and column sweeps and
    broadcast, with the bits a full meshgrid gives; only green's cosine runs
    per pixel. At side 256 a call takes about 2.7 ms and traces a 4.1 MiB peak.
    """
    rng = np.random.default_rng(seed)
    y, x = np.arange(side)[:, None], np.arange(side)
    yf, xf = y / side, x / side
    red = 140 + 90 * np.sin(2 * np.pi * (xf * 1.5 + 0.2)) * np.cos(2 * np.pi * yf)
    green = 120 + 70 * np.cos(2 * np.pi * (xf + yf))
    blue = 110 + 80 * np.sin(4 * np.pi * yf)
    img = np.stack(np.broadcast_arrays(red, green, blue), axis=2)

    def span(lo, hi):
        return slice(max(int(lo * side), 0), max(int(hi * side), 1))

    img[span(0.16, 0.35), span(0.23, 0.55), 0] += 60
    img[span(0.59, 0.86), span(0.12, 0.39), 2] -= 50
    cy, cx = side * 0.65, side * 0.7
    disk = (y - cy) ** 2 + (x - cx) ** 2 < (side * 0.18) ** 2
    img[disk, 1] += 55
    img += rng.uniform(-3, 3, img.shape)
    return DenseTensor(
        TensorShape((side, side, 3)), np.clip(img, 0, 255, out=img).ravel(order="F")
    )


def _spread(values: np.ndarray) -> float:
    """std(y), independent of the values' order and finite for every finite y.

    std(y) is taken of the sorted values, over the unit 2^(e-1) where
    max|y| = m * 2^e: the unit cannot overflow, dividing by it keeps the
    values' bits, and np.std of the quotients (below 2) cannot overflow
    either. Where std(y) is 0 (constant observations) or underflows to 0,
    max|y| takes its place, at least 1, so the spread is always positive.
    """
    top = float(np.max(np.abs(values)))
    unit = math.ldexp(1.0, math.frexp(top)[1] - 1)
    # a standard deviation is at most top; min() keeps rounding from carrying it past max float
    spread = min(float(np.std(np.sort(values) / unit)) * unit, top)
    return spread if spread > 0.0 else max(top, 1.0)


def default_init_scale(obs: SparseObservations, rank: TTRank) -> float:
    """Scale of i.i.d. Gaussian cores whose chained product matches the observed magnitude.

    For cores with i.i.d. N(0, s^2) entries the entry variance is
    s^(2N) * prod(r), the product over the rank chain, so
    s = std(y)^(1/N) / prod(r)^(1/(2N)) makes the initial predictions the same
    size as the data, std(y) being :func:`_spread`'s. s is finite and
    positive for every finite y. :func:`fit_cores` no longer starts from
    such cores (see :func:`initial_cores`); this scales a random start for
    a comparison with it.
    """
    order = obs.shape.order
    return _spread(obs.values) ** (1.0 / order) / math.prod(rank.ranks) ** (0.5 / order)


def _top_right_vectors(d: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` leading right singular vectors of ``d``, at most its column count, as orthonormal columns.

    They come from the smaller Gram matrix: the eigenvectors of d^T d, or
    d^T v for those v of d d^T, made orthonormal by a QR factorization, which
    also completes them where a singular value is 0.
    """
    rows, cols = d.shape
    if cols <= rows:
        return np.linalg.eigh(d.T @ d)[1][:, : -count - 1 : -1]
    u = np.zeros((cols, count))
    v = np.linalg.eigh(d @ d.T)[1][:, : -min(count, rows) - 1 : -1]
    u[:, : v.shape[1]] = d.T @ v
    return np.linalg.qr(u)[0]


def _top_right_vectors_of_nodes(
    rows: np.ndarray, parent: np.ndarray, label: np.ndarray, parents: int, size: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """About the ``count`` leading right singular vectors U of D, as orthonormal columns, and D U, without D.

    D has ``parents`` rows of ``size`` blocks of r columns; node i's row
    ``rows[i]`` (r wide) is its block in row ``parent[i]`` (nondecreasing in
    i) at block ``label[i]``, and D is 0 elsewhere. A block subspace
    iteration of b = 2 * ``count`` columns (fewer if D has fewer rows or
    columns) finds U. It starts from D X, X[j, c] = frac(1/2 + (j + 1) /
    g^(c + 1)) - 1/2 with g^(b + 1) = g + 1: an additive-recurrence
    quasi-random sequence, which draws no noise but, like a random sketch,
    meets every singular direction (D's largest columns alone miss those of
    D's other blocks where D splits into disconnected blocks). It then takes
    eight products with D D^T, each made orthonormal by a QR factorization,
    and U is :func:`_top_right_vectors` of D projected on their span, in all
    of D's ``size`` * r columns. The products run over the labels present,
    numbered once, one of the r columns at a time, and sum in the nodes'
    order, so each costs O(nodes * r * count), memory stays O((nodes + size
    * r) * count) and the result depends on the nodes alone.
    """
    r = rows.shape[1]
    block = min(2 * count, size * r, parents)  # D's rank is at most the smaller side
    firsts = np.flatnonzero(np.diff(parent, prepend=-1))  # each parent's first node
    present, label = np.unique(label, return_inverse=True)
    at = (label[:, None] * block + np.arange(block)).ravel()

    def times(x):  # D @ x, x given at the present labels' columns
        x = x.reshape(present.size, r, -1)
        part = rows[:, :1] * x[label, 0]
        for a in range(1, r):
            part += rows[:, a : a + 1] * x[label, a]
        return np.add.reduceat(part, firsts)

    def times_transposed(y):  # D^T @ y at the present labels' columns
        y = y[parent]
        x = np.empty((present.size, r, block))
        for a in range(r):
            x[:, a] = np.bincount(at, (rows[:, a : a + 1] * y).ravel(), present.size * block).reshape(-1, block)
        return x

    g = 2.0
    for _ in range(64):  # g^(block + 1) = g + 1, a contraction from 2 down to g in (1, 2)
        g = (1.0 + g) ** (1.0 / (block + 1))
    columns = (present[:, None] * r + np.arange(1.0, r + 1)).ravel()  # column j of D as j + 1
    y = times((0.5 + np.outer(columns, g ** -np.arange(1.0, block + 1))) % 1.0 - 0.5)
    for _ in range(8):
        y = np.linalg.qr(times(times_transposed(y)))[0]
    # in all of D's columns, so that where D's rank is below count U is completed there too
    projected = np.zeros((size, r, block))
    projected[present] = times_transposed(y)
    u = _top_right_vectors(projected.reshape(size * r, block).T, count)
    return u, times(u.reshape(size, r, -1)[present])


def initial_cores(obs: SparseObservations, rank: TTRank) -> TTCores:
    """The start of :func:`ttcomplete.fit_cores`: the truncated TT-SVD of the zero-filled, rescaled data.

    T holds, at each of the K distinct observed cells, the mean observed value
    times prod(I) / K, and 0 elsewhere; the start is T's sequentially
    truncated TT-SVD (Oseledets, SIAM J. Sci. Comput. 2011), the tensor-train
    form of the spectral start of Keshavan, Montanari & Oh (IEEE Trans. Inf.
    Theory 2010). It is computed from the observations alone, in one sweep up
    the suffix trie that the observations' reversed sort describes: level n
    holds the distinct suffixes (i_n, ..., i_N), each with an r_{n-1}-wide
    row, at level 1 the cells' values. Scattered into their parents, the
    distinct (i_{n+1}, ..., i_N), by label i_n, the rows form the
    parents x (I_n * r_{n-1}) matrix D_n, a plain reshape where every parent
    has all I_n children. Core n is D_n's r_n leading right singular vectors
    U_n (:func:`_top_right_vectors`; the identity where r_n >= I_n * r_{n-1}
    leaves nothing to truncate), and the next level's rows are D_n U_n; the
    root's row is the last core. Last, the cores are scaled to equal
    Frobenius norms.

    D_n is formed only where it has at most ``_BLOCK_CELLS_PER_OBS`` cells
    per entry of the rows, the join block's cap per observation, and then so
    is the smaller Gram matrix, which is no larger. A sparser D_n, as at a
    mode of thousands of labels with few observations per label, stays the
    nodes' rows, and :func:`_top_right_vectors_of_nodes` approximates U_n by
    a subspace iteration in O((nodes + I_n * r_{n-1}) * r_n) memory; there
    the start is only near T's TT-SVD. So a level holds memory in proportion
    to its nodes' rows and its core, never to prod(I). Every D_n is formed
    where at least prod(I) / 16 distinct cells are observed, or where each
    level has at most 16 labels.

    Besides the reversed sort (8 bytes and N flags per observation, which
    the join reuses), a level holds its nodes' rows, an int64 label and
    parent position per node, built in place and freed once D_n is
    scattered or the iteration is done, and D_n; its rows go before D_n U_n
    makes the next level's. The cells' means come first, from one float and
    one int64 per observation that go once the means exist. On a 48^3 input
    with 44,237 observations at rank (1, 2, 2, 1) the start traces a peak of
    52 bytes per observation over what it is called with, at the first
    level, whose D_1 takes 20 of them and the kept sort 11; the means peak
    at 45, the later levels at 32 and 12.

    The values are first scaled by 2^-k, max|y| = m * 2^k, and the last step
    gives 2^k back with the rest of T's scale, each core's share split into a
    factor in [1, 2) and an exact power of two, so the start is finite for
    every finite y (an order-1 core is clipped at max float); all-zero data
    give the zero tensor. Repeated cells enter as their mean, and every
    reduction runs in the sort's order, so permuting the distinct
    observations changes no bit. ``rank`` is capped by ``obs.shape``
    (:func:`cap_ranks`).
    """
    shape = obs.shape
    rank = cap_ranks(shape, rank.ranks)
    sizes, ranks, order = shape.sizes, rank.ranks, shape.order
    rorder, rfresh = obs._suffix_sort()  # rfresh[order - 1 - n]: the sorted rows starting a suffix at 0-based mode n
    scale = math.frexp(float(np.max(np.abs(obs.values))))[1]
    values = np.ldexp(obs.values[rorder], -scale)
    cell = np.cumsum(rfresh[-1]) - 1
    cells = int(cell[-1]) + 1
    rows = (np.bincount(cell, weights=values) / np.bincount(cell))[:, None]  # each cell's mean, in sorted order
    del values, cell
    # Leading levels that keep every column, r_n = I_1 * ... * I_n, take the identity for U_n (below), so
    # they merge into level m, whose nodes are the cells and whose labels are the column-major offsets of
    # (i_1, ..., i_m): the same D_m, without the levels before it.
    m = 0
    while m + 1 < order and ranks[m + 1] >= sizes[m] * ranks[m]:
        m += 1
    cores = [np.eye(ranks[n + 1]).reshape(sizes[n], ranks[n], ranks[n + 1]).transpose(1, 0, 2) for n in range(m)]
    for n in range(m, order):
        lo = 0 if n == m else n  # the level's labels run over modes lo..n
        size = math.prod(sizes[lo : n + 1])
        parents = np.count_nonzero(rfresh[order - n - 2]) if n + 1 < order else 1
        width = size * rows.shape[1]
        if parents * size == rows.shape[0]:  # every parent has all its children, in label order; 7% off img256's start
            d = rows.reshape(parents, width)
        else:  # each node's row goes to its parent's, at its label
            starts = np.flatnonzero(rfresh[order - lo - 1])
            at = rorder[starts]
            label = obs.indices[at, n] - 1
            for k in range(n - 1, lo - 1, -1):
                label *= sizes[k]
                label += obs.indices[at, k] - 1
            del at
            if n + 1 < order:  # else the one parent is the root
                parent = np.cumsum(rfresh[order - n - 2][starts]) - 1
                del starts
                if ranks[n + 1] < width and parents * width > _BLOCK_CELLS_PER_OBS * rows.size:
                    # D_n would hold more cells per entry of the rows than the fit's join block holds per
                    # observation, so it stays the nodes' rows
                    u, rows = _top_right_vectors_of_nodes(rows, parent, label, parents, size, ranks[n + 1])
                    cores.append(u.reshape(sizes[n], ranks[n], ranks[n + 1]).transpose(1, 0, 2))
                    continue
                parent *= size
                label += parent  # each node's row of D_n, as a parent-major block row
                del parent
            d = np.zeros((parents * size, rows.shape[1]))
            item = np.dtype((np.void, rows.itemsize * rows.shape[1]))  # numpy moves a row as one item 2x faster
            d.view(item)[label, 0] = rows.view(item)[:, 0]
            del label, rows  # before d @ u allocates the next level's rows
            d = d.reshape(parents, width)
        if n + 1 == order:
            u = d.reshape(width, 1)  # the root's row
        elif ranks[n + 1] >= width:
            # nothing to truncate: the singular vectors are an orthogonal gauge away from the identity, which
            # changes neither T's projection nor, in exact arithmetic, the NCG run from it
            u = np.eye(width, ranks[n + 1])
        else:
            u = _top_right_vectors(d, ranks[n + 1])
        cores.append(u.reshape(sizes[n], ranks[n], ranks[n + 1]).transpose(1, 0, 2))
        rows = d @ u
        del d  # before the next level's D is built
    norms = [float(np.linalg.norm(c)) for c in cores]
    if norms[-1] > 0.0:  # else T is 0, which the orthonormal cores and a zero last core give
        # log2 of every core's norm once the cores also carry T's scale, 2^k * prod(I) / K
        target = (scale + math.log2(math.prod(sizes) / cells) + sum(map(math.log2, norms))) / order
        logs = [target - math.log2(a) for a in norms]
        with np.errstate(over="ignore"):  # past max float only an order-1 core, clipped to it
            cores = [np.ldexp(c * 2.0 ** (x - math.floor(x)), math.floor(x)) for c, x in zip(cores, logs)]
        if order == 1:
            cores = [np.nan_to_num(cores[0])]
    return TTCores(tuple(cores), shape, rank)
