"""Cross-over of the sparse loss against the dense weighted loss of TT-WOPT.

TT-WOPT (Yuan, Zhao & Cao, ICONIP 2017) minimises 1/2 ||W * (X - Y)||^2 over
the whole tensor, where X is the tensor the cores represent and W marks the
observed cells. Its gradient is built here from whole-tensor contractions
with left and right partial products, so its cost does not depend on the
missing rate. The package's sparse objective and gradient touch only the M
observed entries. Both losses are equal, so their gradients must agree.

This script checks that agreement, then times one f+g of each on the
tensorized 256^2 scene at rank 16 for missing rates 0.5 to 0.99, and reports
the missing rate above which the sparse evaluation is faster. It is not one of
the gated workloads. Run from the repository root:

    python3 bench/crossover.py [--out bench/results/crossover.json]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import run as bench

RATES = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97, 0.98, 0.99)
SIDE = 256
RANK = 16
SEED = 0
GRAD_RTOL = 1e-10


def dense_fg(cores, y, w):
    """TT-WOPT objective and flattened gradient by whole-tensor contractions.

    ``y`` and ``w`` are column-major value and 0/1 weight vectors over every
    cell. Left products L_n enumerate (i_1..i_{n-1}) as rows, right products
    R_n enumerate (i_{n+1}..i_N) as columns; the gradient of core n is
    L_n^T E_(n) R_n^T for the weighted residual E unfolded around mode n.
    """
    import numpy as np

    cs = cores.cores
    sizes = cores.shape.sizes
    n_modes = len(cs)
    left = [np.ones((1, 1))]
    for n in range(n_modes - 1):
        grown = np.tensordot(left[-1], cs[n], axes=(1, 0))
        left.append(grown.reshape((-1, cs[n].shape[2]), order="F"))
    x = np.tensordot(left[-1], cs[-1], axes=(1, 0)).reshape(-1, order="F")
    right = [None] * n_modes
    right[-1] = np.ones((1, 1))
    for n in range(n_modes - 1, 0, -1):
        grown = np.tensordot(cs[n], right[n], axes=(2, 0))
        right[n - 1] = grown.reshape((cs[n].shape[0], -1), order="F")
    resid = w * (x - y)
    f = 0.5 * float(np.dot(resid, resid))
    parts = []
    for n in range(n_modes):
        unfolded = resid.reshape((left[n].shape[0], sizes[n], right[n].shape[1]), order="F")
        grad = np.tensordot(np.tensordot(left[n], unfolded, axes=(0, 0)), right[n], axes=(2, 1))
        parts.append(grad.ravel(order="F"))
    return f, np.concatenate(parts)


def _rel_err(a, b) -> float:
    import numpy as np

    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def gradient_check(seed: int) -> dict:
    """Relative max differences of f and g between the two methods on two instances."""
    import numpy as np

    import ttcomplete as ttc

    out = {}
    small = ttc.TensorShape((5, 4, 6, 3))
    truth = ttc.gen_tt_random(small, ttc.TTRank((1, 3, 2, 3, 1)), seed)
    mask = ttc.mask_random(small, 0.5, seed + 1)
    cases = {"small_5x4x6x3": (truth, mask, ttc.TTRank((1, 2, 3, 2, 1)))}
    img, img_mask = _image_instance(seed, 0.9)
    cases["img256_rate0.9"] = (img, img_mask, ttc.uniform_ranks(img.shape, RANK))
    for name, (t, m, rank) in cases.items():
        obs = ttc.extract_observations(t, m)
        cores = ttc.random_init(t.shape, rank, seed + 2, scale=ttc.default_init_scale(obs, rank))
        f_s, g_s = ttc.objective_and_gradient(cores, obs)
        f_d, g_d = dense_fg(cores, t.values, m.observed.astype(np.float64))
        out[name] = {"f_rel_err": abs(f_s - f_d) / abs(f_d), "g_rel_err": _rel_err(g_s, g_d)}
    return out


def _image_instance(seed: int, rate: float):
    import ttcomplete as ttc

    img = ttc.synthetic_scene(SIDE, seed=seed)
    mask = ttc.mask_random(img.shape, rate, seed + 1)
    return ttc.tensorize_image(img), ttc.tensorize_mask(mask)


def crossover_rate(rates, sparse, dense):
    """Lowest missing rate from which sparse stays faster, interpolated in log time ratio."""
    ratios = [math.log(s / d) for s, d in zip(sparse, dense)]
    if ratios[-1] >= 0:
        return None
    k = len(ratios) - 1
    while k > 0 and ratios[k - 1] < 0:
        k -= 1
    if k == 0:
        return rates[0]
    r0, r1 = rates[k - 1], rates[k]
    return r0 + (r1 - r0) * ratios[k - 1] / (ratios[k - 1] - ratios[k])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(bench.BENCH / "results" / "crossover.json"))
    args = parser.parse_args(argv)
    if not (bench.SRC / "ttcomplete" / "__init__.py").is_file():
        print(f"error: no ttcomplete package under {bench.SRC}", file=sys.stderr)
        return 2
    threads = bench.pin_threads()
    sys.path.insert(0, str(bench.SRC))
    import numpy as np

    import ttcomplete as ttc

    check = gradient_check(SEED)
    agree = all(v["f_rel_err"] <= GRAD_RTOL and v["g_rel_err"] <= GRAD_RTOL for v in check.values())
    print(f"gradient check ({'ok' if agree else 'FAILED'}): {json.dumps(check)}")

    sparse_ms, dense_ms, counts = [], [], []
    for rate in RATES:
        work, mask = _image_instance(SEED, rate)
        obs = ttc.extract_observations(work, mask)
        rank = ttc.uniform_ranks(work.shape, RANK)
        cores = ttc.random_init(work.shape, rank, SEED + 2, scale=ttc.default_init_scale(obs, rank))
        w = mask.observed.astype(np.float64)
        fns = (lambda: ttc.objective_and_gradient(cores, obs), lambda: dense_fg(cores, work.values, w))
        for fn in fns:
            fn()  # warm-up
        sparse_s, dense_s = bench._interleaved_medians(*fns)
        sparse_ms.append(1e3 * sparse_s)
        dense_ms.append(1e3 * dense_s)
        counts.append(obs.count)
        print(f"rate {rate:.2f}  M {obs.count:6d}  sparse {sparse_ms[-1]:9.2f} ms  dense {dense_ms[-1]:9.2f} ms")
    cross = crossover_rate(RATES, sparse_ms, dense_ms)
    print("sparse is faster from missing rate " + (f"{cross:.4f}" if cross is not None else "never (in range)"))

    report = {
        "env": bench.environment(threads, seed=SEED, reps=bench.PROBE_REPS),
        "shape": list(work.shape.sizes),
        "ranks": list(rank.ranks),
        "rates": list(RATES),
        "observed": counts,
        "sparse_fg_ms": sparse_ms,
        "dense_fg_ms": dense_ms,
        "crossover_rate": cross,
        "gradient_check": check,
        "gradients_agree": agree,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="ascii")
    print(f"wrote {out}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
