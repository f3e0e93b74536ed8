"""High-level drivers tying observations, the TT model, and the optimizer together."""

from __future__ import annotations

import numpy as np

from .core import DenseTensor
from .data import MissingMask, extract_observations, initial_cores
from .engine import SparseObservations, evaluate
from .images import _tensorized_observations
from .optimize import OptimizeConfig, OptimizeReport, minimize
from .ttmodel import TTCores, TTRank, flatten_params, tt_full, unflatten_params


def fit_cores(
    obs: SparseObservations,
    rank: TTRank,
    cfg: OptimizeConfig | None = None,
    seed: int = 0,
) -> tuple[TTCores, OptimizeReport]:
    """Fit TT cores to the observed entries from the near-identity start ``seed`` draws.

    The start is :func:`ttcomplete.data.initial_cores`. ``rank`` is capped by
    ``obs.shape`` (see :func:`ttcomplete.ttmodel.cap_ranks`); the fitted cores
    carry the capped chain.
    """
    start = initial_cores(obs, rank, seed)
    flat = flatten_params(start)
    cores = unflatten_params(start, flat)  # views of ``flat``, built once per fit

    def callback(x: np.ndarray):
        flat[:] = x  # minimize has taken the last trial's gradient, and dropped its closure, by now
        return evaluate(cores, obs)

    final, report = minimize(callback, flat, cfg)
    return unflatten_params(start, final), report


def complete_image(
    img: DenseTensor,
    mask: MissingMask,
    rank: TTRank,
    cfg: OptimizeConfig | None = None,
    seed: int = 0,
    tensorize: bool = True,
) -> tuple[DenseTensor, TTCores, OptimizeReport]:
    """Recover a masked image; returns the unclamped reconstruction.

    With ``tensorize`` the model is fit in the block-tensorized domain and
    mapped back afterwards; ``rank`` must have the working shape's order and is
    capped by that shape.
    """
    if tensorize:  # one cell map takes the image to the tensor and back
        obs, cells = _tensorized_observations(img, mask)
    else:
        obs = extract_observations(img, mask)
    cores, report = fit_cores(obs, rank, cfg, seed)
    del obs  # free it and its join before tt_full and the gather, where a fit's memory peaks
    recovered = tt_full(cores)
    if tensorize:
        recovered = DenseTensor(img.shape, recovered.values[cells])
    return recovered, cores, report
