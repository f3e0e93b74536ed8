"""Tensor-train completion of sparsely observed N-way arrays.

The model represents a tensor as a chain of three-way cores and fits them to
the observed entries alone by first-order optimization, then fills the
missing cells from the fitted cores. Includes the block tensorization that
lifts RGB images to a nine-way tensor, synthetic benchmarks, masks, metrics,
file formats, and a CLI (``ttcomplete``).
"""

from .complete import complete_image, fit_cores
from .core import DenseTensor, TensorShape, tensor_from_array
from .data import (
    MissingMask,
    default_init_scale,
    extract_observations,
    gen_tt_random,
    initial_cores,
    mask_block,
    mask_random,
    mask_rows,
    synthetic_scene,
)
from .engine import (
    SparseObservations,
    evaluate,
    gradient,
    objective,
    objective_and_gradient,
    reconstruct,
)
from .errors import BoundsError, CapacityError, FormatError, NumericError, ShapeError
from .fileio import (
    load_dense,
    load_model,
    load_sparse,
    save_dense,
    save_model,
    save_sparse,
)
from .images import (
    detensorize_image,
    load_image,
    save_image,
    tensorize_image,
    tensorize_mask,
)
from .metrics import psnr, rse
from .optimize import OptimizeConfig, OptimizeReport, minimize
from .ttmodel import (
    TTCores,
    TTRank,
    cap_ranks,
    flatten_params,
    random_init,
    tt_full,
    unflatten_params,
    uniform_ranks,
)

__version__ = "0.1.0"
