"""The benchmark workloads: inputs from a seed, the timed op, output checks.

Every workload calls ``ttcomplete`` through module attributes at call time,
so the tracing shims see each call. The program receives only the generated
inputs; the truth stays with the benchmark for the checks. Fits start from
the library's default initial seed (0), as a user's would.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

import ttcomplete as ttc
import ttcomplete.cli  # noqa: F401  (binds ttc.cli)

# A full-tensor RSE at or below this counts as exact recovery.
RECOVERY_RSE = 1e-6


@dataclass
class Case:
    """One timed op's inputs plus the truth its outputs are checked against."""

    truth: object
    mask: object
    obs: object = None
    path: str = ""


@dataclass
class Outcome:
    """Checked result of one op. ``problems`` is empty when every check passed."""

    problems: list
    heldout_rse: float = math.nan
    recovered: bool = False
    psnr_db: float = math.nan
    reason: str = ""


def _seeds(seed: int, pass_index: int, case: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, pass_index, case]).generate_state(count)
    return [int(s) for s in state]


def _heldout(est_values: np.ndarray, truth, mask) -> tuple[float, float]:
    """RSE of ``est_values`` on the withheld cells, and that of filling them with the observed mean."""
    miss = ~mask.observed
    want = truth.values[miss]
    denom = float(np.linalg.norm(want))
    fit = float(np.linalg.norm(est_values[miss] - want)) / denom
    fill = float(np.linalg.norm(truth.values[mask.observed].mean() - want)) / denom
    return fit, fill


def _finite_cores(cores) -> bool:
    return all(np.all(np.isfinite(c)) for c in cores.cores)


class Img256:
    """One tensorized completion of a 256^2 synthetic scene at missing rate 0.9."""

    name = "img256"
    why = (
        "order-9 tensorized image at rank 8 and M=19,661 with 20 iterations; the per-observation "
        "prefix and suffix sweeps of the engine are nearly all of the time"
    )
    SIDE = 256
    RATE = 0.9
    RANK = 8
    MAX_ITERS = 20
    PASSES = 6

    def setup(self, seed: int, pass_index: int, workdir: str) -> list[Case]:
        s_img, s_mask = _seeds(seed, pass_index, 0, 2)
        img = ttc.synthetic_scene(self.SIDE, seed=s_img)
        return [Case(img, ttc.mask_random(img.shape, self.RATE, s_mask))]

    def op(self, case: Case, workdir: str):
        k = self.SIDE.bit_length() - 1
        rank = ttc.uniform_ranks(ttc.TensorShape((4,) * k + (3,)), self.RANK)
        cfg = ttc.OptimizeConfig(max_iters=self.MAX_ITERS)
        return ttc.complete_image(case.truth, case.mask, rank, cfg)

    def check(self, case: Case, out, workdir: str) -> Outcome:
        recovered, cores, report = out
        if not (np.all(np.isfinite(recovered.values)) and _finite_cores(cores)):
            return Outcome(["reconstruction is not finite"], reason=report.reason)
        heldout, fill = _heldout(recovered.values, case.truth, case.mask)
        return Outcome(
            [], heldout, heldout < fill, ttc.psnr(recovered, case.truth), reason=report.reason
        )


class Sparse48Cli:
    """One in-process ``ttcomplete complete --input`` on a 48^3 sparse file.

    The rank-2 fit stops at a gradient tolerance, after about 100-130
    evaluations, with the truth recovered (RSE <= 1e-6 on 60 of 60 inputs).
    Run to line-search failure instead, evaluation counts spread twice as
    wide; at rank 1 about one input in 30 ends at max-iters unrecovered.
    """

    name = "sparse48-cli"
    why = (
        "CLI on a 1.2 MB sparse file (M=44,237) fitted at rank 2 to a gradient tolerance that "
        "recovers the truth: file parsing and writing take about 14% of the time, which no other "
        "workload has"
    )
    SHAPE = (48, 48, 48)
    RANKS = (1, 2, 2, 1)
    RATE = 0.6
    MAX_ITERS = 200
    GRAD_TOL = 1e-4
    PASSES = 6
    OUTPUTS = (".csv", "_model.txt", "_recovered.txt", "_metrics.txt")

    def setup(self, seed: int, pass_index: int, workdir: str) -> list[Case]:
        shape = ttc.TensorShape(self.SHAPE)
        s_truth, s_mask = _seeds(seed, pass_index, 0, 2)
        truth = ttc.gen_tt_random(shape, ttc.TTRank(self.RANKS), s_truth)
        mask = ttc.mask_random(shape, self.RATE, s_mask)
        path = os.path.join(workdir, f"obs-{pass_index}.txt")
        ttc.save_sparse(path, ttc.extract_observations(truth, mask))
        return [Case(truth, mask, path=path)]

    def _prefix(self, case: Case) -> str:
        return case.path[: -len(".txt")] + "-fit"

    def op(self, case: Case, workdir: str):
        argv = [
            "complete", "--input", case.path,
            "--ranks", ",".join(str(r) for r in self.RANKS),
            "--max-iters", str(self.MAX_ITERS),
            "--grad-tol", str(self.GRAD_TOL),
            "--out-prefix", self._prefix(case),
        ]
        with redirect_stdout(io.StringIO()):
            return ttc.cli.main(argv)

    def check(self, case: Case, out, workdir: str) -> Outcome:
        prefix = self._prefix(case)
        paths = [prefix + suffix for suffix in self.OUTPUTS]
        try:
            if out != 0:
                return Outcome([f"exit code {out}"])
            missing = [p for p in paths if not os.path.isfile(p)]
            if missing:
                return Outcome([f"missing output {p}" for p in missing])
            with open(paths[0], encoding="ascii") as fh:
                reason = next(
                    (ln.split("=", 1)[1].strip() for ln in fh if ln.startswith("# termination=")), ""
                )
            model = ttc.load_model(paths[1])
            recovered = ttc.load_dense(paths[2])
            problems = []
            if model.shape.sizes != self.SHAPE or model.rank.ranks != self.RANKS:
                problems.append("model file has the wrong shape or rank")
            if recovered.shape.sizes != self.SHAPE:
                problems.append("recovered tensor has the wrong shape")
            if not (_finite_cores(model) and np.all(np.isfinite(recovered.values))):
                problems.append("outputs are not finite")
            if os.path.getsize(paths[3]) == 0:
                problems.append("metrics file is empty")
            if problems:
                return Outcome(problems, reason=reason)
            heldout, _ = _heldout(recovered.values, case.truth, case.mask)
            return Outcome([], heldout, ttc.rse(recovered, case.truth) <= RECOVERY_RSE, reason=reason)
        finally:
            for p in paths + [case.path]:
                if os.path.exists(p):
                    os.remove(p)


WORKLOADS = {w.name: w for w in (Img256(), Sparse48Cli())}
