import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ttcomplete import (
    NumericError,
    OptimizeConfig,
    SparseObservations,
    complete_image,
    TensorShape,
    extract_observations,
    gen_tt_random,
    load_image,
    load_model,
    load_sparse,
    mask_random,
    reconstruct,
    save_image,
    save_sparse,
    tensor_from_array,
    TTRank,
)
import ttcomplete.cli as cli
import ttcomplete.fileio as fileio
from ttcomplete.cli import main


def write_small_problem(tmp_path, seed=0):
    """Fully observed cells of an exactly rank-(1,2,2,1) tensor."""
    shape = TensorShape((4, 4, 4))
    truth = gen_tt_random(shape, TTRank((1, 2, 2, 1)), seed=seed)
    obs = extract_observations(truth, mask_random(shape, 0.0, seed))
    path = tmp_path / "obs.txt"
    save_sparse(path, obs)
    return path, truth


def write_test_image(tmp_path, side=16, seed=0):
    rng = np.random.default_rng(seed)
    y, x = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    base = 96.0 + 80.0 * np.sin(2.0 * np.pi * x / side) * np.cos(2.0 * np.pi * y / side)
    img = np.stack([base, np.flipud(base), base.T], axis=2)
    img += rng.uniform(-4, 4, img.shape)
    path = tmp_path / "img.ppm"
    save_image(path, tensor_from_array(img))
    return path


class TestComplete:
    def test_fully_observed_small_tensor(self, tmp_path, capsys):
        obs_path, truth = write_small_problem(tmp_path)
        prefix = str(tmp_path / "run")
        code = main(
            [
                "complete",
                "--input", str(obs_path),
                "--ranks", "1,2,2,1",
                "--max-iters", "400",
                "--seed", "1",
                "--out-prefix", prefix,
            ]
        )
        assert code == 0
        metrics = (tmp_path / "run_metrics.txt").read_text()
        rse_observed = float(metrics.split("rse_observed=")[1].split()[0])
        assert rse_observed < 1e-6

        trace = (tmp_path / "run.csv").read_text().splitlines()
        config_lines = [l for l in trace if l.startswith("# ")]
        assert any(l.startswith("# grad_tol=") for l in config_lines)
        assert any(l.startswith("# max_iters=") for l in config_lines)
        header_at = trace.index("iter,objective,grad_norm,step,evals")
        assert header_at == len(config_lines)
        first_row = trace[header_at + 1].split(",")
        assert first_row[0] == "0" and first_row[3] == "0.0" and first_row[4] == "1"

        model = load_model(tmp_path / "run_model.txt")
        assert model.shape.sizes == (4, 4, 4)

    def test_line_search_failure_reported_on_stderr(self, tmp_path, capsys):
        # Pinned: the fully observed 4x4x4 problem of seed 0, fitted from seed 1,
        # reaches f ~ 0 and then ends in a line search that finds no decrease.
        obs_path, _ = write_small_problem(tmp_path)
        argv = ["complete", "--input", str(obs_path), "--ranks", "1,2,2,1", "--seed", "1"]
        assert main(argv + ["--max-iters", "400", "--out-prefix", str(tmp_path / "run")]) == 0
        err = capsys.readouterr().err
        assert "line-search-failure" in err
        trace = (tmp_path / "run.csv").read_text().splitlines()
        assert "# termination=line-search-failure" in trace
        evals = int(next(l for l in trace if l.startswith("# evals=")).split("=")[1])
        header_at = trace.index("iter,objective,grad_norm,step,evals")
        recorded = sum(int(row.split(",")[4]) for row in trace[header_at + 1 :])
        # the failed search's evaluations are in the total, not in any row
        assert evals > recorded

        assert main(argv + ["--max-iters", "3", "--out-prefix", str(tmp_path / "short")]) == 0
        assert capsys.readouterr().err == ""
        assert "# termination=max-iters" in (tmp_path / "short.csv").read_text().splitlines()

    def test_gradients_counted_after_evals(self, tmp_path, capsys):
        obs_path, _ = write_small_problem(tmp_path)
        argv = ["complete", "--input", str(obs_path), "--ranks", "1,2,2,1", "--seed", "1"]
        assert main(argv + ["--max-iters", "20", "--out-prefix", str(tmp_path / "run")]) == 0
        trace = (tmp_path / "run.csv").read_text().splitlines()
        at = next(i for i, l in enumerate(trace) if l.startswith("# evals="))
        evals = int(trace[at].split("=")[1])
        assert trace[at + 1].startswith("# gradients=")
        # the start and each accepted step need a gradient; rejected trials do not
        assert 21 <= int(trace[at + 1].split("=")[1]) < evals

    def test_rse_observed_matches_reconstruct(self, tmp_path, capsys):
        shape = TensorShape((5, 4, 6))
        truth = gen_tt_random(shape, TTRank((1, 3, 3, 1)), seed=4)
        obs = extract_observations(truth, mask_random(shape, 0.4, 4))
        path = tmp_path / "obs.txt"
        save_sparse(path, obs)
        argv = ["complete", "--input", str(path), "--ranks", "1,1,1,1", "--max-iters", "10"]
        assert main(argv + ["--out-prefix", str(tmp_path / "run")]) == 0
        printed = float(capsys.readouterr().out.split("rse_observed=")[1].split()[0])
        fitted = reconstruct(load_model(tmp_path / "run_model.txt"), obs.indices)
        expected = np.linalg.norm(fitted - obs.values) / np.linalg.norm(obs.values)
        assert expected > 1e-3
        assert printed == pytest.approx(expected, rel=1e-12)

    def test_deterministic_trace(self, tmp_path):
        obs_path, _ = write_small_problem(tmp_path)
        args = [
            "complete",
            "--input", str(obs_path),
            "--ranks", "1,2,2,1",
            "--max-iters", "50",
            "--seed", "3",
        ]
        assert main(args + ["--out-prefix", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-prefix", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a_model.txt").read_bytes() == (tmp_path / "b_model.txt").read_bytes()

    @pytest.mark.parametrize("max_iters", [1, 2, 4])
    def test_trace_and_metrics_bytes(self, tmp_path, capsys, monkeypatch, max_iters):
        # traces of 2, 3 and 5 records; the metrics body is empty
        items = {}

        def write(path, head, body):
            head, body = list(head), list(body)
            items[path] = (head, body)
            fileio._write(path, head, body)

        monkeypatch.setattr(cli, "_write", write)
        obs_path, _ = write_small_problem(tmp_path)
        prefix = str(tmp_path / "run")
        argv = ["complete", "--input", str(obs_path), "--ranks", "1,2,2,1", "--max-iters", str(max_iters)]
        assert main(argv + ["--out-prefix", prefix]) == 0
        head, trace = items[f"{prefix}.csv"]
        assert len(trace) == max_iters + 1
        assert (tmp_path / "run.csv").read_text() == "".join(f"{item}\n" for item in head + trace)
        assert items[f"{prefix}_metrics.txt"][1] == []
        assert (tmp_path / "run_metrics.txt").read_text() == capsys.readouterr().out

    def test_image_completion_smoke(self, tmp_path):
        img_path = write_test_image(tmp_path)
        prefix = str(tmp_path / "img_run")
        code = main(
            [
                "complete",
                "--image", str(img_path),
                "--missing-rate", "0.5",
                "--tensorize",
                "--ranks", "1,4,4,4,4,1",
                "--max-iters", "60",
                "--seed", "0",
                "--out-prefix", prefix,
            ]
        )
        assert code == 0
        metrics = (tmp_path / "img_run_metrics.txt").read_text()
        assert "psnr=" in metrics
        psnr_val = float(metrics.split("psnr=")[1].split()[0])
        assert np.isfinite(psnr_val)
        recovered = load_image(tmp_path / "img_run_recovered.ppm")
        assert recovered.shape.sizes == (16, 16, 3)

    def test_all_black_image_reports_rse_nan(self, tmp_path, capsys):
        # the relative error has no reference norm to divide by, as for an all-zero --input
        img_path = tmp_path / "black.ppm"
        save_image(img_path, tensor_from_array(np.zeros((16, 16, 3))))
        prefix = str(tmp_path / "black_run")
        argv = ["complete", "--image", str(img_path), "--missing-rate", "0.5", "--ranks", "1,4,4,1"]
        assert main(argv + ["--max-iters", "20", "--out-prefix", prefix]) == 0
        for suffix in (".csv", "_model.txt", "_recovered.ppm", "_metrics.txt"):
            assert (tmp_path / f"black_run{suffix}").is_file()
        out = capsys.readouterr().out
        assert " rse=nan " in out
        assert (tmp_path / "black_run_metrics.txt").read_text() == out

    def test_rows_mask(self, tmp_path):
        img_path = write_test_image(tmp_path)
        code = main(
            [
                "complete",
                "--image", str(img_path),
                "--mask", "rows:3,7",
                "--ranks", "1,8,8,1",
                "--max-iters", "30",
                "--out-prefix", str(tmp_path / "rows_run"),
            ]
        )
        assert code == 0

    def test_malformed_sparse_file_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("stto-sparse v1\n2\n3 3\n1\nnot a record\n")
        code = main(
            [
                "complete",
                "--input", str(bad),
                "--ranks", "1,2,1",
                "--out-prefix", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert "line 5" in capsys.readouterr().err

    def test_non_finite_sparse_value_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("stto-sparse v1\n2\n3 3\n2\n1 1 1.0\n2 2 nan\n")
        code = main(
            [
                "complete",
                "--input", str(bad),
                "--ranks", "1,2,1",
                "--out-prefix", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert "line 6" in capsys.readouterr().err

    def test_non_ascii_byte_exit_3_with_line(self, tmp_path, capsys):
        bad = tmp_path / "accent.txt"
        bad.write_bytes(b"stto-sparse v1\n2\n3 3\n2\n1 1 1.0\n2 2 1.\xc3\xa9\n")
        argv = ["complete", "--input", str(bad), "--ranks", "1,2,1"]
        assert main(argv + ["--out-prefix", str(tmp_path / "x")]) == 3
        assert "line 6: non-ASCII byte 0xc3" in capsys.readouterr().err

    def test_non_ascii_input_path_keeps_the_fit(self, tmp_path):
        obs_path, _ = write_small_problem(tmp_path)
        accented = obs_path.rename(tmp_path / "donn\u00e9es.txt")
        prefix = tmp_path / "run"
        argv = ["complete", "--input", str(accented), "--ranks", "1,2,2,1", "--max-iters", "5"]
        assert main(argv + ["--out-prefix", str(prefix)]) == 0
        for suffix in (".csv", "_model.txt", "_recovered.txt", "_metrics.txt"):
            assert (tmp_path / f"run{suffix}").is_file()
        trace = (tmp_path / "run.csv").read_text(encoding="ascii").splitlines()
        assert trace[1] == f"# input={tmp_path}/donn\\xe9es.txt"

    def test_over_capacity_exit_2_before_fitting(self, tmp_path, capsys):
        # 300*300*300*2 = 54M cells, over the 2**24 cells tt_full will materialize
        shape = TensorShape((300, 300, 300, 2))
        path = tmp_path / "big.txt"
        save_sparse(path, SparseObservations(shape, [[1, 1, 1, 1], [2, 3, 4, 2]], [1.0, 2.0]))
        code = main(
            [
                "complete",
                "--input", str(path),
                "--ranks", "1,2,2,2,1",
                "--out-prefix", str(tmp_path / "big"),
            ]
        )
        assert code == 2
        assert "over the limit" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.txt"]

    def test_over_capacity_header_refused_before_records(self, tmp_path, capsys):
        # 100^4 = 1e8 cells; the malformed second record is never parsed
        path = tmp_path / "big.txt"
        path.write_text("stto-sparse v1\n4\n100 100 100 100\n2\n1 1 1 1 1.0\n1 1 x 1 2.0\n")
        argv = ["complete", "--input", str(path), "--ranks", "1,2,2,2,1"]
        assert main(argv + ["--out-prefix", str(tmp_path / "big")]) == 2
        assert "over the limit" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.txt"]

    def test_rank_chain_refused_before_a_malformed_record(self, tmp_path, capsys):
        # an order-3 header and a 2-mode rank chain; line 6 is never parsed
        path = tmp_path / "obs.txt"
        path.write_text("stto-sparse v1\n3\n4 4 4\n2\n1 1 1 1.0\n1 x 1 2.0\n")
        argv = ["complete", "--input", str(path), "--ranks", "1,2,1"]
        assert main(argv + ["--out-prefix", str(tmp_path / "run")]) == 2
        assert "rank chain length 3" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.txt"]

    def test_rank_chain_refused_before_any_record(self, tmp_path, capsys):
        obs_path, _ = write_small_problem(tmp_path)
        argv = ["complete", "--input", str(obs_path), "--ranks", "1,2,1"]
        read = fileio._LineReader.table
        with mock.patch.object(fileio._LineReader, "table", autospec=True, side_effect=read) as table:
            assert main(argv + ["--out-prefix", str(tmp_path / "run")]) == 2
        # only the header's two lines were parsed
        assert [c.args[1] for c in table.call_args_list] == ["mode count", "mode sizes"]
        assert "rank chain length 3" in capsys.readouterr().err

    def test_shuffled_records_give_identical_outputs(self, tmp_path, capsys):
        shape = TensorShape((6, 5, 7))
        truth = gen_tt_random(shape, TTRank((1, 2, 2, 1)), seed=25)
        obs = extract_observations(truth, mask_random(shape, 0.5, 25))
        perm = np.random.default_rng(25).permutation(obs.count)
        save_sparse(tmp_path / "a.txt", obs)
        save_sparse(tmp_path / "b.txt", SparseObservations(shape, obs.indices[perm], obs.values[perm]))
        for name in "ab":
            argv = ["complete", "--input", str(tmp_path / f"{name}.txt"), "--ranks", "1,2,2,1"]
            assert main(argv + ["--max-iters", "5", "--out-prefix", str(tmp_path / name)]) == 0
        for suffix in ("_model.txt", "_recovered.txt", "_metrics.txt"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    def test_image_output_matches_complete_image(self, tmp_path):
        img_path = write_test_image(tmp_path)
        prefix = str(tmp_path / "run")
        argv = [
            "complete",
            "--image", str(img_path),
            "--missing-rate", "0.5",
            "--tensorize",
            "--ranks", "1,4,4,4,4,1",
            "--max-iters", "20",
            "--seed", "3",
            "--out-prefix", prefix,
        ]
        assert main(argv) == 0
        img = load_image(img_path)
        mask = mask_random(img.shape, 0.5, 3)
        rank = TTRank((1, 4, 4, 4, 4, 1))
        recovered = complete_image(img, mask, rank, OptimizeConfig(max_iters=20), seed=3)[0]
        save_image(tmp_path / "lib.ppm", recovered)
        assert (tmp_path / "run_recovered.ppm").read_bytes() == (tmp_path / "lib.ppm").read_bytes()

    def test_missing_input_exit_2(self, tmp_path):
        code = main(["complete", "--ranks", "1,2,1", "--out-prefix", str(tmp_path / "x")])
        assert code == 2

    def test_both_inputs_exit_2(self, tmp_path):
        obs_path, _ = write_small_problem(tmp_path)
        img_path = write_test_image(tmp_path)
        code = main(
            [
                "complete",
                "--input", str(obs_path),
                "--image", str(img_path),
                "--missing-rate", "0.5",
                "--ranks", "1,2,2,1",
                "--out-prefix", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_bad_rank_chain_exit_2(self, tmp_path):
        obs_path, _ = write_small_problem(tmp_path)
        code = main(
            [
                "complete",
                "--input", str(obs_path),
                "--ranks", "1,2,1",
                "--out-prefix", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_method_flag_rejected(self, tmp_path, capsys):
        obs_path, _ = write_small_problem(tmp_path)
        argv = ["complete", "--input", str(obs_path), "--ranks", "1,2,2,1", "--method", "gd"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_nonexistent_input_exit_3(self, tmp_path):
        code = main(
            [
                "complete",
                "--input", str(tmp_path / "missing.txt"),
                "--ranks", "1,2,1",
                "--out-prefix", str(tmp_path / "x"),
            ]
        )
        assert code == 3


class TestMissingOutputDirectory:
    """A missing output directory exits 3 before any fit and writes nothing."""

    def test_complete(self, tmp_path, capsys):
        obs_path, _ = write_small_problem(tmp_path)
        argv = ["complete", "--input", str(obs_path), "--ranks", "1,2,2,1"]
        with mock.patch.object(cli, "fit_cores") as fit:
            assert main(argv + ["--out-prefix", str(tmp_path / "no" / "such" / "run")]) == 3
        fit.assert_not_called()
        assert "does not exist" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.txt"]

    def test_sweep(self, tmp_path, capsys):
        argv = ["sweep", "--shapes", "4x4", "--rates", "0.5", "--seeds", "0,1"]
        with mock.patch.object(cli, "complete_image") as fit:
            assert main(argv + ["--out", str(tmp_path / "no" / "such.csv")]) == 3
        fit.assert_not_called()
        assert "does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFitDefaults:
    """Without fit flags, both fitting commands fit with ``OptimizeConfig()``."""

    def fitted_config(self, argv, fit_name, position):
        with mock.patch.object(cli, fit_name, side_effect=RuntimeError("stop before fitting")) as fit:
            with pytest.raises(RuntimeError, match="stop before fitting"):
                main(argv)
        return fit.call_args.args[position]

    def test_complete(self, tmp_path):
        obs_path, _ = write_small_problem(tmp_path)
        argv = ["complete", "--input", str(obs_path), "--ranks", "1,2,2,1"]
        assert self.fitted_config(argv + ["--out-prefix", str(tmp_path / "run")], "fit_cores", 2) == OptimizeConfig()

    def test_sweep(self, tmp_path):
        # a sweep point fits through complete_image(truth, mask, rank, config, seed, tensorize=False)
        argv = ["sweep", "--shapes", "4x4", "--rates", "0.5", "--seeds", "0"]
        config = self.fitted_config(argv + ["--out", str(tmp_path / "s.csv")], "complete_image", 3)
        assert config == OptimizeConfig()


class TestUsageErrors:
    """Each invalid combination exits 2 with its message on stderr and writes nothing."""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--input", "{obs}", "--mask", "rows:1"], "--missing-rate/--mask apply only to --image inputs"),
            (["--image", "{img}"], "an image input needs --missing-rate or --mask"),
            (["--input", "{obs}", "--tensorize"], "--tensorize applies only to --image inputs"),
            (
                ["--image", "{img}", "--missing-rate", "0.5", "--mask", "rows:1"],
                "--missing-rate and --mask are mutually exclusive",
            ),
            (["--image", "{img}", "--mask", "foo"], "--mask expects rows:... or block:..., got 'foo'"),
            (["--image", "{img}", "--mask", "block:1,2,3"], "--mask block expects top,left,height,width"),
            (["--image", "{img}", "--mask", "disk:1"], "unknown mask kind 'disk', expected rows or block"),
            (
                ["--input", "{obs}", "--ranks", "1,x,1"],
                "--ranks expects a comma-separated integer list, got '1,x,1'",
            ),
            # refused before the (missing) input file is read, which would exit 3
            (["--input", "{absent}", "--seed", "-1"], "--seed must be non-negative, got -1"),
            (["--image", "{absent}", "--missing-rate", "0.5", "--seed", "-3"], "--seed must be non-negative, got -3"),
            # an infinite tolerance would stop at the start and write the random start as the recovery
            (["--input", "{obs}", "--grad-tol", "inf"], "grad_tol must be finite, got inf"),
            (["--input", "{obs}", "--grad-tol", "1e400"], "grad_tol must be finite, got inf"),
        ],
    )
    def test_complete(self, tmp_path, capsys, extra, message):
        paths = {
            "obs": str(write_small_problem(tmp_path)[0]),
            "img": str(write_test_image(tmp_path)),
            "absent": str(tmp_path / "absent.txt"),
        }
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = ["complete", "--ranks", "1,2,2,1", "--out-prefix", str(tmp_path / "x")]
        assert main(argv + [a.format(**paths) for a in extra]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seeds", "", "--seeds lists no seeds"),
            ("--shapes", ",", "--shapes lists no shapes"),
            ("--shapes", "4xq", "bad shape '4xq', expected e.g. 26x26x26"),
            ("--shapes", "0x3", "bad shape '0x3': mode 1 has non-positive size 0"),
            ("--grad-tol", "nan", "grad_tol must be non-negative, got nan"),
            ("--rates", "0.5,1.0", "missing_rate must lie in [0, 1), got 1.0"),
            ("--shapes", "4x4,1x1", "missing_rate 0.5 leaves no observed cell in shape 1x1"),
            ("--seeds", "0,-2", "--seeds must be non-negative, got -2"),
        ],
    )
    def test_sweep(self, tmp_path, capsys, flag, value, message):
        argv = ["sweep", "--shapes", "4x4", "--rates", "0.5", "--seeds", "0", "--out", str(tmp_path / "s.csv")]
        # the later occurrence of a flag wins; no grid point is fitted
        with mock.patch.object(cli, "complete_image") as fit:
            assert main(argv + [flag, value]) == 2
        fit.assert_not_called()
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestNumericFailure:
    def test_exits_4_and_writes_nothing(self, tmp_path, capsys):
        obs_path, _ = write_small_problem(tmp_path)
        argv = ["complete", "--input", str(obs_path), "--ranks", "1,2,2,1"]
        argv += ["--out-prefix", str(tmp_path / "x")]
        failure = NumericError("objective or gradient is not finite at the starting point")
        with mock.patch.object(cli, "fit_cores", side_effect=failure):
            assert main(argv) == 4
        assert "error: objective or gradient is not finite at the starting point" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["obs.txt"]

    @pytest.mark.parametrize("magnitude", ["1e200", "1.5e308"])
    def test_entry_point_exits_4_on_huge_values(self, tmp_path, magnitude):
        # the module's own __main__ line, run as a user runs it; the first evaluation overflows
        path = tmp_path / "huge.txt"
        cells = ("1 1", "1 2", "2 1", "2 2")
        records = [f"{c} {sign}{magnitude}" for c, sign in zip(cells, ("", "-", "", "-"))]
        path.write_text("\n".join(["stto-sparse v1", "2", "2 2", "4"] + records) + "\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["complete", "--input", str(path), "--ranks", "1,2,1", "--out-prefix", str(tmp_path / "x")]
        run = subprocess.run(
            [sys.executable, "-m", "ttcomplete.cli", *argv], env=env, capture_output=True, text=True
        )
        assert run.returncode == 4
        assert "Traceback" not in run.stderr
        assert run.stderr.splitlines()[-1] == "error: objective or gradient is not finite at the starting point"
        assert [p.name for p in tmp_path.iterdir()] == ["huge.txt"]


class TestMaskHeader:
    @pytest.mark.parametrize(
        "flags, header",
        [
            (["--missing-rate", "0.5"], "# mask=random:0.5"),
            (["--mask", "rows:3,,7"], "# mask=rows:3,7"),
            (["--mask", "block:5,6,8,10"], "# mask=block:5,6,8,10"),
        ],
    )
    def test_describes_mask(self, tmp_path, flags, header):
        img_path = write_test_image(tmp_path)
        argv = ["complete", "--image", str(img_path), "--ranks", "1,4,4,1", "--max-iters", "2"]
        assert main(argv + flags + ["--out-prefix", str(tmp_path / "run")]) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert header in lines


class TestSweep:
    def test_single_grid_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--shapes", "5x5x5",
                "--rates", "0.0",
                "--seeds", "0",
                "--rank", "5",
                "--max-iters", "4000",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "shape,rate,seed,rank,iters,final_objective,rse,seconds"
        rows = lines[1:]
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert fields[0] == "5x5x5"
        # fully observed with full-capacity ranks: the fit drives the error down
        # (this under-resolved 5^3 sampling needs about 3,000 NCG iterations)
        assert float(fields[6]) < 1e-4

    def test_empty_rates_exit_2(self, tmp_path):
        code = main(
            [
                "sweep",
                "--shapes", "4x4",
                "--rates", "",
                "--seeds", "0",
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 2

    def test_over_capacity_exit_2_before_fitting(self, tmp_path):
        out = tmp_path / "big.csv"
        code = main(
            [
                "sweep",
                "--shapes", "4x4,300x300x300x2",
                "--rates", "0.5",
                "--seeds", "0",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_grid_size_and_config_comments(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "sweep",
                "--shapes", "4x4,3x3x3",
                "--rates", "0.2,0.5",
                "--seeds", "0,1",
                "--rank", "2",
                "--max-iters", "20",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 8
        assert any("max_iters=20" in c for c in comments)


class TestTensorizeCommand:
    def test_round_trip_bytes(self, tmp_path):
        img_path = write_test_image(tmp_path)
        tens_path = tmp_path / "t.txt"
        back_path = tmp_path / "back.ppm"
        assert main(["tensorize", "--input", str(img_path), "--output", str(tens_path)]) == 0
        assert (
            main(
                [
                    "tensorize",
                    "--direction", "inverse",
                    "--input", str(tens_path),
                    "--output", str(back_path),
                ]
            )
            == 0
        )
        assert back_path.read_bytes() == img_path.read_bytes()

    def test_non_square_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        img = tensor_from_array(rng.integers(0, 255, (8, 16, 3)).astype(float))
        path = tmp_path / "wide.ppm"
        save_image(path, img)
        code = main(["tensorize", "--input", str(path), "--output", str(tmp_path / "t.txt")])
        assert code == 2

    def test_inverse_of_oversized_dense_file_exit_3(self, tmp_path, capsys):
        # declares 10^15 values in a 5-line file
        path = tmp_path / "huge.txt"
        path.write_text("stto-dense v1\n3\n100000 100000 100000\n1.0\n2.0\n")
        argv = ["tensorize", "--direction", "inverse", "--input", str(path)]
        assert main(argv + ["--output", str(tmp_path / "back.ppm")]) == 3
        assert "line 6: missing value" in capsys.readouterr().err
