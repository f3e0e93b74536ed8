import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttcomplete import (
    FormatError,
    SparseObservations,
    TTRank,
    TensorShape,
    extract_observations,
    flatten_params,
    gen_oscillating,
    load_dense,
    load_model,
    load_sparse,
    mask_random,
    random_init,
    save_dense,
    save_model,
    save_sparse,
)


class TestSparseFormat:
    def test_minimal_round_trip(self, tmp_path):
        obs = SparseObservations(TensorShape((3, 4)), np.array([[2, 3]]), np.array([1.25]))
        path = tmp_path / "one.txt"
        save_sparse(path, obs)
        again = load_sparse(path)
        assert again.shape.sizes == (3, 4)
        assert np.array_equal(again.indices, obs.indices)
        assert np.array_equal(again.values, obs.values)

    def test_header_layout(self, tmp_path):
        obs = SparseObservations(TensorShape((3, 4)), np.array([[2, 3]]), np.array([0.5]))
        path = tmp_path / "one.txt"
        save_sparse(path, obs)
        lines = path.read_text().splitlines()
        assert lines[0] == "stto-sparse v1"
        assert lines[1] == "2"
        assert lines[2] == "3 4"
        assert lines[3] == "1"
        assert lines[4] == "2 3 0.5"

    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        shape = TensorShape((5, 4, 3))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.5, 1))
        path = tmp_path / "obs.txt"
        save_sparse(path, obs)
        again = load_sparse(path)
        assert np.array_equal(again.values, obs.values)
        assert np.array_equal(again.indices, obs.indices)

    def test_duplicate_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text(
            "stto-sparse v1\n2\n3 3\n3\n1 1 1.0\n2 2 2.0\n1 1 3.0\n"
        )
        with pytest.raises(FormatError, match="line 7"):
            load_sparse(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v2.txt"
        path.write_text("stto-sparse v2\n1\n3\n1\n1 1.0\n")
        with pytest.raises(FormatError, match="line 1"):
            load_sparse(path)

    def test_bad_counts(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("stto-sparse v1\n2\n3 3\n2\n1 1 1.0\n")
        with pytest.raises(FormatError, match="line 6"):
            load_sparse(path)

    def test_out_of_bounds_index(self, tmp_path):
        path = tmp_path / "oob.txt"
        path.write_text("stto-sparse v1\n2\n3 3\n1\n1 4 1.0\n")
        with pytest.raises(FormatError, match="line 5"):
            load_sparse(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("stto-sparse v1\n2\n3 3\n1\n1 x 1.0\n")
        with pytest.raises(FormatError, match="line 5"):
            load_sparse(path)

    def test_trailing_content(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("stto-sparse v1\n2\n3 3\n1\n1 1 1.0\n2 2 2.0\n")
        with pytest.raises(FormatError, match="line 6"):
            load_sparse(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "nan.txt"
        path.write_text(f"stto-sparse v1\n2\n3 3\n2\n1 1 1.0\n2 2 {value}\n")
        with pytest.raises(FormatError, match="line 6: non-finite"):
            load_sparse(path)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_random(self, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        shape = TensorShape((4, 5))
        count = int(rng.integers(1, 20))
        lin = rng.choice(20, size=count, replace=False)
        coords = np.stack(np.unravel_index(lin, shape.sizes, order="F"), axis=1) + 1
        obs = SparseObservations(shape, coords, rng.standard_normal(count))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "obs.txt"
            save_sparse(path, obs)
            again = load_sparse(path)
        assert np.array_equal(again.indices, obs.indices)
        assert np.array_equal(again.values, obs.values)


class TestDenseFormat:
    def test_round_trip(self, tmp_path):
        t = gen_oscillating(TensorShape((4, 3, 2)))
        path = tmp_path / "dense.txt"
        save_dense(path, t)
        again = load_dense(path)
        assert again.shape.sizes == t.shape.sizes
        assert np.array_equal(again.values, t.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("stto-sparse v1\n1\n2\n0.0\n0.0\n")
        with pytest.raises(FormatError):
            load_dense(path)

    def test_missing_values(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("stto-dense v1\n1\n3\n0.0\n0.0\n")
        with pytest.raises(FormatError, match="line 6"):
            load_dense(path)

    def test_trailing_content(self, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("stto-dense v1\n1\n2\n1.0\n2.0\n\ngarbage\n")
        with pytest.raises(FormatError, match="line 7: trailing content"):
            load_dense(path)


class TestModelFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        cores = random_init(TensorShape((3, 4, 2)), TTRank((1, 2, 3, 1)), seed=9)
        path = tmp_path / "model.txt"
        save_model(path, cores)
        again = load_model(path)
        assert again.shape.sizes == cores.shape.sizes
        assert again.rank.ranks == cores.rank.ranks
        assert np.array_equal(flatten_params(again), flatten_params(cores))

    def test_header_lines(self, tmp_path):
        cores = random_init(TensorShape((2, 2)), TTRank((1, 2, 1)), seed=0)
        path = tmp_path / "model.txt"
        save_model(path, cores)
        lines = path.read_text().splitlines()
        assert lines[0] == "2"
        assert lines[1] == "2 2"
        assert lines[2] == "1 2 1"
        assert len(lines) == 3 + cores.param_count

    def test_invalid_rank_chain(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("2\n2 2\n2 2 1\n" + "0.0\n" * 12)
        with pytest.raises(FormatError):
            load_model(path)

    def test_trailing_content(self, tmp_path):
        cores = random_init(TensorShape((2, 2)), TTRank((1, 2, 1)), seed=0)
        path = tmp_path / "model.txt"
        save_model(path, cores)
        with open(path, "a", encoding="ascii") as fh:
            fh.write("garbage\n")
        with pytest.raises(FormatError, match=f"line {4 + cores.param_count}: trailing content"):
            load_model(path)
