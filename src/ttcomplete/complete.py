"""High-level drivers tying observations, the TT model, and the optimizer together."""

from __future__ import annotations

import numpy as np

from .core import DenseTensor
from .data import MissingMask, default_init_scale, extract_observations
from .engine import SparseObservations, objective_and_gradient
from .images import detensorize_image, tensorize_image, tensorize_mask
from .optimize import OptimizeConfig, OptimizeReport, minimize
from .ttmodel import TTCores, TTRank, cap_ranks, flatten_params, random_init, tt_full, unflatten_params


def fit_cores(
    obs: SparseObservations,
    rank: TTRank,
    cfg: OptimizeConfig | None = None,
    seed: int = 0,
    init_scale: float | None = None,
) -> tuple[TTCores, OptimizeReport]:
    """Fit TT cores to the observed entries from a seeded random start.

    ``rank`` is capped by ``obs.shape`` (see :func:`ttcomplete.ttmodel.cap_ranks`);
    the fitted cores carry the capped chain.
    """
    rank = cap_ranks(obs.shape, rank.ranks)
    if init_scale is None:
        init_scale = default_init_scale(obs, rank)
    template = random_init(obs.shape, rank, seed, scale=init_scale)

    def callback(flat: np.ndarray):
        return objective_and_gradient(unflatten_params(template, flat), obs)

    final, report = minimize(callback, flatten_params(template), cfg)
    return unflatten_params(template, final), report


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
    if tensorize:
        work = tensorize_image(img)
        work_mask = tensorize_mask(mask)
    else:
        work, work_mask = img, mask
    obs = extract_observations(work, work_mask)
    cores, report = fit_cores(obs, rank, cfg, seed)
    recovered = tt_full(cores)
    if tensorize:
        recovered = detensorize_image(recovered)
    return recovered, cores, report
