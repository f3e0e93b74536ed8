"""Independent reference computations the tests check the library against.

Everything here is deliberately naive: explicit per-entry matrix chains,
nested loops, dense weighted residuals, and central finite differences.
"""

from __future__ import annotations

import itertools

import numpy as np


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
