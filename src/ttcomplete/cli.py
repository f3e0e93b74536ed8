"""Command-line driver: complete tensors or images, run sweeps, tensorize.

Exit codes: 0 success, 2 invalid arguments or unsupported input shapes,
3 I/O or file-format failure, 4 non-finite numbers during optimization.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .complete import complete_image, fit_cores
from .core import TensorShape
from .data import (
    MissingMask,
    extract_observations,
    gen_oscillating,
    mask_block,
    mask_random,
    mask_rows,
)
from .engine import reconstruct
from .errors import FormatError, NumericError
from .fileio import load_dense, load_sparse, save_dense, save_model
from .images import detensorize_image, load_image, save_image, tensorize_image
from .metrics import psnr, rse
from .optimize import METHOD_GD, METHOD_NCG, OptimizeConfig, OptimizeReport
from .ttmodel import TTRank, check_full_capacity, tt_full, uniform_ranks


class UsageError(Exception):
    """Invalid argument combination or value (exit code 2)."""


@dataclass(frozen=True)
class MaskSpec:
    """Which cells to withhold: a random rate, whole rows, or a block."""

    kind: str = "none"
    rate: float = 0.0
    rows: tuple[int, ...] = ()
    block: tuple[int, int, int, int] = (0, 0, 0, 0)

    def describe(self) -> str:
        if self.kind == "random":
            return f"random:{self.rate}"
        if self.kind == "rows":
            return "rows:" + ",".join(str(r) for r in self.rows)
        if self.kind == "block":
            return "block:" + ",".join(str(v) for v in self.block)
        return "none"

    def build(self, shape: TensorShape, seed: int) -> MissingMask:
        if self.kind == "random":
            return mask_random(shape, self.rate, seed)
        if self.kind == "rows":
            return mask_rows(shape, self.rows)
        if self.kind == "block":
            return mask_block(shape, *self.block)
        raise UsageError("an image input needs --missing-rate or --mask")


@dataclass(frozen=True)
class RunSpec:
    """One resolved completion run."""

    sparse_path: str | None
    image_path: str | None
    ranks: tuple[int, ...]
    mask: MaskSpec
    tensorize: bool
    seed: int
    out_prefix: str
    config: OptimizeConfig

    def __post_init__(self):
        if (self.sparse_path is None) == (self.image_path is None):
            raise UsageError("exactly one input source is required: --input or --image")
        if self.image_path is None and self.mask.kind != "none":
            raise UsageError("--missing-rate/--mask apply only to --image inputs")
        if self.image_path is not None and self.mask.kind == "none":
            raise UsageError("an image input needs --missing-rate or --mask")
        if self.tensorize and self.image_path is None:
            raise UsageError("--tensorize applies only to --image inputs")


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated integer list, got {text!r}") from None


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated number list, got {text!r}") from None


def _parse_mask(text: str) -> MaskSpec:
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"--mask expects rows:... or block:..., got {text!r}")
    if kind == "rows":
        rows = _parse_int_list(rest, "--mask rows")
        return MaskSpec(kind="rows", rows=tuple(rows))
    if kind == "block":
        vals = _parse_int_list(rest, "--mask block")
        if len(vals) != 4:
            raise UsageError("--mask block expects top,left,height,width")
        return MaskSpec(kind="block", block=tuple(vals))
    raise UsageError(f"unknown mask kind {kind!r}, expected rows or block")


def _parse_shapes(text: str) -> list[TensorShape]:
    shapes = []
    for part in text.split(","):
        if not part:
            continue
        try:
            sizes = tuple(int(v) for v in part.split("x"))
            shapes.append(TensorShape(sizes))
        except ValueError:
            raise UsageError(f"bad shape {part!r}, expected e.g. 26x26x26") from None
    if not shapes:
        raise UsageError("--shapes lists no shapes")
    return shapes


def _method_name(flag: str) -> str:
    return {"ncg": METHOD_NCG, "gd": METHOD_GD}[flag]


def _config_lines(pairs) -> list[str]:
    return [f"# {key}={value}" for key, value in pairs]


def _write_trace(path, spec_pairs, report: OptimizeReport) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for line in _config_lines(spec_pairs):
            fh.write(line + "\n")
        fh.write("iter,objective,grad_norm,step\n")
        for i, rec in enumerate(report.records):
            fh.write(f"{i},{rec.objective!r},{rec.grad_norm!r},{rec.step!r}\n")


def cmd_complete(spec: RunSpec) -> int:
    config = spec.config
    rank = TTRank(spec.ranks)
    if spec.image_path is not None:
        image = load_image(spec.image_path)
        check_full_capacity(image.shape)
        mask = spec.mask.build(image.shape, spec.seed)
        recovered, cores, report = complete_image(image, mask, rank, config, spec.seed, spec.tensorize)
    else:
        obs = load_sparse(spec.sparse_path)
        check_full_capacity(obs.shape)
        cores, report = fit_cores(obs, rank, config, spec.seed)
        recovered = tt_full(cores)

    spec_pairs = [
        ("command", "complete"),
        ("input", spec.sparse_path or spec.image_path),
        ("ranks", ",".join(str(r) for r in cores.rank.ranks)),
        ("mask", spec.mask.describe()),
        ("tensorize", int(spec.tensorize)),
        ("seed", spec.seed),
        *asdict(config).items(),
        ("termination", report.reason),
    ]
    _write_trace(f"{spec.out_prefix}.csv", spec_pairs, report)
    save_model(f"{spec.out_prefix}_model.txt", cores)

    if spec.image_path is not None:
        save_image(f"{spec.out_prefix}_recovered.ppm", recovered)
        saved = load_image(f"{spec.out_prefix}_recovered.ppm")
        metrics_line = (
            f"objective={report.final_objective!r} rse={rse(saved, image)!r} "
            f"psnr={psnr(saved, image)!r}"
        )
    else:
        save_dense(f"{spec.out_prefix}_recovered.txt", recovered)
        fitted = reconstruct(cores, obs.indices)
        denom = float(np.linalg.norm(obs.values))
        fit_rse = float(np.linalg.norm(fitted - obs.values)) / denom if denom > 0 else float("nan")
        metrics_line = f"objective={report.final_objective!r} rse_observed={fit_rse!r}"

    with open(f"{spec.out_prefix}_metrics.txt", "w", encoding="ascii") as fh:
        fh.write(metrics_line + "\n")
    print(metrics_line)
    return 0


def _sweep_point(shape: TensorShape, rate: float, seed: int, rank_value: int, config: OptimizeConfig):
    start = time.perf_counter()
    truth = gen_oscillating(shape)
    mask = mask_random(shape, rate, seed)
    obs = extract_observations(truth, mask)
    rank = uniform_ranks(shape, rank_value)
    cores, report = fit_cores(obs, rank, config, seed)
    est = tt_full(cores)
    err = rse(est, truth)
    seconds = time.perf_counter() - start
    return (
        f"{shape},{rate!r},{seed},{rank_value},{report.iterations},"
        f"{report.final_objective!r},{err!r},{seconds:.3f}"
    )


def cmd_sweep(shapes, rates, seeds, rank_value, config, out_csv, workers=1) -> int:
    if not rates:
        raise UsageError("--rates lists no missing rates")
    if not seeds:
        raise UsageError("--seeds lists no seeds")
    for shape in shapes:
        check_full_capacity(shape)
    grid = [(shape, rate, seed) for shape in shapes for rate in rates for seed in seeds]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda g: _sweep_point(*g, rank_value, config), grid))
    else:
        rows = [_sweep_point(*g, rank_value, config) for g in grid]

    spec_pairs = [
        ("command", "sweep"),
        ("shapes", ",".join(str(s) for s in shapes)),
        ("rates", ",".join(repr(r) for r in rates)),
        ("seeds", ",".join(str(s) for s in seeds)),
        ("rank", rank_value),
        *asdict(config).items(),
        ("workers", workers),
    ]
    with open(out_csv, "w", encoding="ascii") as fh:
        for line in _config_lines(spec_pairs):
            fh.write(line + "\n")
        fh.write("shape,rate,seed,rank,iters,final_objective,rse,seconds\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"wrote {len(rows)} rows to {out_csv}")
    return 0


def cmd_tensorize(input_path, output_path, direction) -> int:
    if direction == "forward":
        img = load_image(input_path)
        save_dense(output_path, tensorize_image(img))
    else:
        t = load_dense(input_path)
        save_image(output_path, detensorize_image(t))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ttcomplete", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_complete = sub.add_parser("complete", help="fit a TT model to observed entries and fill the gaps")
    p_complete.add_argument("--input", help="sparse observation file (stto-sparse v1)")
    p_complete.add_argument("--image", help="PPM image to mask and recover")
    p_complete.add_argument("--ranks", required=True, help="rank chain, e.g. 1,16,16,1 (capped by shape)")
    p_complete.add_argument("--missing-rate", type=float, help="random missing rate for --image")
    p_complete.add_argument("--mask", help="irregular mask: rows:10,20,30 or block:top,left,height,width")
    p_complete.add_argument("--tensorize", action="store_true", help="fit the block-tensorized image")
    p_complete.add_argument("--seed", type=int, default=0)
    p_complete.add_argument("--method", choices=("ncg", "gd"), default="ncg")
    p_complete.add_argument("--max-iters", type=int, default=200)
    p_complete.add_argument("--grad-tol", type=float, default=0.0)
    p_complete.add_argument("--out-prefix", required=True)

    p_sweep = sub.add_parser("sweep", help="grid of synthetic completion runs, one CSV row each")
    p_sweep.add_argument("--shapes", required=True, help="comma list, e.g. 26x26x26,7x7x7x7x7")
    p_sweep.add_argument("--rates", required=True, help="comma list of missing rates in [0,1)")
    p_sweep.add_argument("--seeds", required=True, help="comma list of seeds")
    p_sweep.add_argument("--rank", type=int, default=8, help="uniform interior TT rank (capped by shape)")
    p_sweep.add_argument("--method", choices=("ncg", "gd"), default="ncg")
    p_sweep.add_argument("--max-iters", type=int, default=200)
    p_sweep.add_argument("--grad-tol", type=float, default=0.0)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_tens = sub.add_parser("tensorize", help="convert between PPM images and the tensorized text form")
    p_tens.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p_tens.add_argument("--input", required=True)
    p_tens.add_argument("--output", required=True)
    return parser


def _run(args) -> int:
    if args.command == "complete":
        mask = MaskSpec()
        if args.missing_rate is not None and args.mask is not None:
            raise UsageError("--missing-rate and --mask are mutually exclusive")
        if args.missing_rate is not None:
            mask = MaskSpec(kind="random", rate=args.missing_rate)
        elif args.mask is not None:
            mask = _parse_mask(args.mask)
        config = OptimizeConfig(
            method=_method_name(args.method),
            max_iters=args.max_iters,
            grad_tol=args.grad_tol,
        )
        spec = RunSpec(
            sparse_path=args.input,
            image_path=args.image,
            ranks=tuple(_parse_int_list(args.ranks, "--ranks")),
            mask=mask,
            tensorize=args.tensorize,
            seed=args.seed,
            out_prefix=args.out_prefix,
            config=config,
        )
        return cmd_complete(spec)
    if args.command == "sweep":
        config = OptimizeConfig(
            method=_method_name(args.method),
            max_iters=args.max_iters,
            grad_tol=args.grad_tol,
        )
        return cmd_sweep(
            _parse_shapes(args.shapes),
            _parse_float_list(args.rates, "--rates"),
            _parse_int_list(args.seeds, "--seeds"),
            args.rank,
            config,
            args.out,
            workers=max(1, args.workers),
        )
    return cmd_tensorize(args.input, args.output, args.direction)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
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
