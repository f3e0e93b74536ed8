"""Command-line driver: complete tensors or images, run sweeps, tensorize.

Exit codes: 0 success, 2 invalid arguments or unsupported input shapes,
3 I/O or file-format failure, 4 non-finite numbers during optimization.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .complete import complete_image, fit_cores
from .core import TensorShape
from .data import gen_oscillating, mask_block, mask_random, mask_rows, observed_count
from .errors import FormatError, NumericError, ShapeError
from .fileio import _write, load_dense, load_sparse, save_dense, save_model
from .images import detensorize_image, load_image, save_image, tensorize_image
from .metrics import psnr, rse
from .optimize import OptimizeConfig
from .ttmodel import TTRank, cap_ranks, check_full_capacity, tt_full, uniform_ranks


class UsageError(Exception):
    """Invalid argument combination or value (exit code 2)."""


def _parse_list(text: str, flag: str, kind=int) -> list:
    try:
        return [kind(p) for p in text.split(",") if p != ""]
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise UsageError(f"{flag} expects a comma-separated {noun} list, got {text!r}") from None


def _parse_mask(args):
    """The ``# mask=`` description and a ``(shape, seed) -> MissingMask`` builder."""
    if args.missing_rate is not None:
        if args.mask is not None:
            raise UsageError("--missing-rate and --mask are mutually exclusive")
        rate = args.missing_rate
        return f"random:{rate}", lambda shape, seed: mask_random(shape, rate, seed)
    if args.mask is None:
        return "none", None
    kind, sep, rest = args.mask.partition(":")
    if not sep:
        raise UsageError(f"--mask expects rows:... or block:..., got {args.mask!r}")
    if kind not in ("rows", "block"):
        raise UsageError(f"unknown mask kind {kind!r}, expected rows or block")
    vals = _parse_list(rest, f"--mask {kind}")
    if kind == "block" and len(vals) != 4:
        raise UsageError("--mask block expects top,left,height,width")
    describe = f"{kind}:" + ",".join(str(v) for v in vals)
    if kind == "rows":
        return describe, lambda shape, seed: mask_rows(shape, vals)
    return describe, lambda shape, seed: mask_block(shape, *vals)


def _parse_shapes(text: str) -> list[TensorShape]:
    shapes = []
    for part in text.split(","):
        if not part:
            continue
        try:
            shapes.append(TensorShape(tuple(int(v) for v in part.split("x"))))
        except ShapeError as exc:
            raise UsageError(f"bad shape {part!r}: {exc}") from None
        except ValueError:
            raise UsageError(f"bad shape {part!r}, expected e.g. 26x26x26") from None
    if not shapes:
        raise UsageError("--shapes lists no shapes")
    return shapes


def _check_out_dir(path: str):
    """Refuse an output path in a missing directory (exit 3) before any fit."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise OSError(f"the directory of output path {path!r} does not exist")


def cmd_complete(args) -> int:
    if (args.input is None) == (args.image is None):
        raise UsageError("exactly one input source is required: --input or --image")
    masked = args.missing_rate is not None or args.mask is not None
    if args.image is None and masked:
        raise UsageError("--missing-rate/--mask apply only to --image inputs")
    if args.image is not None and not masked:
        raise UsageError("an image input needs --missing-rate or --mask")
    if args.tensorize and args.image is None:
        raise UsageError("--tensorize applies only to --image inputs")
    mask_text, build_mask = _parse_mask(args)
    rank = TTRank(tuple(_parse_list(args.ranks, "--ranks")))
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    config = OptimizeConfig(max_iters=args.max_iters, grad_tol=args.grad_tol)
    _check_out_dir(args.out_prefix)
    if args.image is not None:
        image = load_image(args.image)
        check_full_capacity(image.shape)
        mask = build_mask(image.shape, args.seed)
        recovered, cores, report = complete_image(image, mask, rank, config, args.seed, args.tensorize)
    else:
        def check_shape(shape):
            check_full_capacity(shape)
            cap_ranks(shape, rank.ranks)

        obs = load_sparse(args.input, check_shape)
        cores, report = fit_cores(obs, rank, config, args.seed)
        recovered = tt_full(cores)
    if report.reason == "line-search-failure":
        print(
            f"warning: line-search-failure after {report.iterations} iterations; "
            "the outputs hold the last accepted step",
            file=sys.stderr,
        )

    head = [
        "# command=complete",
        f"# input={args.input or args.image}",
        "# ranks=" + ",".join(str(r) for r in cores.rank.ranks),
        f"# mask={mask_text}",
        f"# tensorize={int(args.tensorize)}",
        f"# seed={args.seed}",
        *(f"# {key}={value}" for key, value in asdict(config).items()),
        f"# termination={report.reason}",
        f"# evals={report.evals}",
        f"# gradients={report.gradients}",
        "iter,objective,grad_norm,step,evals",
    ]
    trace = (
        f"{i},{r.objective!r},{r.grad_norm!r},{r.step!r},{r.evals}" for i, r in enumerate(report.records)
    )
    _write(f"{args.out_prefix}.csv", head, trace)
    save_model(f"{args.out_prefix}_model.txt", cores)

    if args.image is not None:
        save_image(f"{args.out_prefix}_recovered.ppm", recovered)
        saved = load_image(f"{args.out_prefix}_recovered.ppm")
        fit_rse = rse(saved, image) if np.any(image.values) else float("nan")  # an all-black reference
        metrics_line = f"objective={report.final_objective!r} rse={fit_rse!r} psnr={psnr(saved, image)!r}"
    else:
        save_dense(f"{args.out_prefix}_recovered.txt", recovered)
        # final_objective is 0.5 * ||fitted - y||^2 at the returned cores
        denom = float(np.linalg.norm(np.sort(obs.values)))  # sorted: independent of record order
        fit_rse = math.sqrt(2.0 * report.final_objective) / denom if denom > 0 else float("nan")
        metrics_line = f"objective={report.final_objective!r} rse_observed={fit_rse!r}"

    _write(f"{args.out_prefix}_metrics.txt", [metrics_line], ())
    print(metrics_line)
    return 0


def _sweep_point(shape: TensorShape, rate: float, seed: int, rank_value: int, config: OptimizeConfig):
    start = time.perf_counter()
    truth = gen_oscillating(shape)
    mask = mask_random(shape, rate, seed)
    est, _, report = complete_image(truth, mask, uniform_ranks(shape, rank_value), config, seed, tensorize=False)
    err = rse(est, truth)
    seconds = time.perf_counter() - start
    return (
        f"{shape},{rate!r},{seed},{rank_value},{report.iterations},"
        f"{report.final_objective!r},{err!r},{seconds:.3f}"
    )


def cmd_sweep(args) -> int:
    shapes = _parse_shapes(args.shapes)
    rates = _parse_list(args.rates, "--rates", float)
    seeds = _parse_list(args.seeds, "--seeds")
    config = OptimizeConfig(max_iters=args.max_iters, grad_tol=args.grad_tol)
    if not rates:
        raise UsageError("--rates lists no missing rates")
    if not seeds:
        raise UsageError("--seeds lists no seeds")
    if min(seeds) < 0:
        raise UsageError(f"--seeds must be non-negative, got {min(seeds)}")
    for shape in shapes:
        check_full_capacity(shape)
        for rate in rates:
            observed_count(shape, rate)
    _check_out_dir(args.out)
    grid = [(shape, rate, seed) for shape in shapes for rate in rates for seed in seeds]
    rows = [_sweep_point(*g, args.rank, config) for g in grid]

    head = [
        "# command=sweep",
        "# shapes=" + ",".join(str(s) for s in shapes),
        "# rates=" + ",".join(repr(r) for r in rates),
        "# seeds=" + ",".join(str(s) for s in seeds),
        f"# rank={args.rank}",
        *(f"# {key}={value}" for key, value in asdict(config).items()),
        "shape,rate,seed,rank,iters,final_objective,rse,seconds",
    ]
    _write(args.out, head, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_tensorize(args) -> int:
    if args.direction == "forward":
        save_dense(args.output, tensorize_image(load_image(args.input)))
    else:
        save_image(args.output, detensorize_image(load_dense(args.input)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ttcomplete", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--max-iters", type=int, default=OptimizeConfig.max_iters)
    fit.add_argument("--grad-tol", type=float, default=OptimizeConfig.grad_tol)

    p_complete = sub.add_parser(
        "complete", parents=[fit], help="fit a TT model to observed entries and fill the gaps"
    )
    p_complete.add_argument("--input", help="sparse observation file (stto-sparse v1)")
    p_complete.add_argument("--image", help="PPM image to mask and recover")
    p_complete.add_argument("--ranks", required=True, help="rank chain, e.g. 1,16,16,1 (capped by shape)")
    p_complete.add_argument("--missing-rate", type=float, help="random missing rate for --image")
    p_complete.add_argument("--mask", help="irregular mask: rows:10,20,30 or block:top,left,height,width")
    p_complete.add_argument("--tensorize", action="store_true", help="fit the block-tensorized image")
    p_complete.add_argument("--seed", type=int, default=0)
    p_complete.add_argument("--out-prefix", required=True)
    p_complete.set_defaults(run=cmd_complete)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[fit],
        help="grid of synthetic completion runs, one CSV row each",
        description="Fit gen_oscillating truths over a grid of shapes, missing rates and seeds, one CSV row "
        "each. gen_oscillating is not low-rank at small shapes, so a row's rse measures how well a rank-r "
        "model fits that function, not whether completion recovers a low-rank truth: 10x10x10 at missing "
        "rate 0.5 and rank 3 reaches a held-out RSE of 2.00, worse than filling zeros.",
    )
    p_sweep.add_argument("--shapes", required=True, help="comma list, e.g. 26x26x26,7x7x7x7x7")
    p_sweep.add_argument("--rates", required=True, help="comma list of missing rates in [0,1)")
    p_sweep.add_argument("--seeds", required=True, help="comma list of seeds")
    p_sweep.add_argument("--rank", type=int, default=8, help="uniform interior TT rank (capped by shape)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(run=cmd_sweep)

    p_tens = sub.add_parser("tensorize", help="convert between PPM images and the tensorized text form")
    p_tens.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p_tens.add_argument("--input", required=True)
    p_tens.add_argument("--output", required=True)
    p_tens.set_defaults(run=cmd_tensorize)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (UsageError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
