import gc
import io
import re
import tempfile
import tracemalloc
import warnings
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ttcomplete.engine as engine
import ttcomplete.fileio as fileio
from oracles import WholeFileReader, dense_text, gen_oscillating, model_text, sparse_text
from ttcomplete import (
    CapacityError,
    DenseTensor,
    FormatError,
    SparseObservations,
    TTCores,
    TTRank,
    TensorShape,
    extract_observations,
    flatten_params,
    unflatten_params,
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

    @pytest.mark.parametrize(
        "coords, message",
        [
            ([[1, 1], [1, 1], [2, 3]], r"observation 2: duplicate multi-index \(1, 1\)"),
            ([[2, 3], [1, 1], [3, 3], [1, 1], [2, 3]], r"observation 4: duplicate multi-index \(1, 1\)"),
        ],
    )
    def test_repeated_cells_refused_before_the_file_is_opened(self, tmp_path, coords, message):
        obs = SparseObservations(TensorShape((3, 3)), np.array(coords), np.arange(len(coords), dtype=float))
        path = tmp_path / "dup.txt"
        with pytest.raises(FormatError, match=f"^{message} cannot be saved$"):
            save_sparse(path, obs)
        assert not path.exists()

    def test_duplicate_checks_sort_once_and_build_no_join(self, tmp_path):
        shape = TensorShape((6, 5, 4))
        obs = extract_observations(gen_oscillating(shape), mask_random(shape, 0.5, seed=3))
        with mock.patch.object(engine, "_sort_rows", wraps=engine._sort_rows) as sort:
            save_sparse(tmp_path / "obs.txt", obs)
            again = load_sparse(tmp_path / "obs.txt")
            assert sort.call_count == 2
            assert "_join" not in obs.__dict__ and "_join" not in again.__dict__
            obs._join  # reuses the cached sort; only the suffix sort is new
            assert sort.call_count == 3

    def test_zero_observations_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("stto-sparse v1\n2\n3 3\n0\n")
        with pytest.raises(FormatError, match="^line 4: observation count must be positive, got 0"):
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

    def test_out_of_bounds_index_names_its_line(self, tmp_path):
        path = tmp_path / "oob3.txt"
        # the fourth record is out of range too, in an earlier mode
        path.write_text("stto-sparse v1\n2\n3 3\n4\n1 1 1.0\n2 2 2.0\n3 4 3.0\n4 1 4.0\n")
        with pytest.raises(FormatError, match=r"line 7: .* 4 out of range \[1, 3\] in mode 2"):
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

    def test_value_made_non_finite_refused_before_the_file_is_opened(self, tmp_path):
        # the numpy formatter reads any bit pattern as a finite double; it must not write one for a NaN
        obs = SparseObservations(TensorShape((3, 3)), np.array([[1, 1], [2, 2], [3, 3]]), np.array([1.0, 2.0, 3.0]))
        obs.values[1] = np.nan
        path = tmp_path / "obs.txt"
        with pytest.raises(FormatError, match="^observation 2: non-finite value nan cannot be saved$"):
            save_sparse(path, obs)
        assert not path.exists()

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

    def test_bytes(self, tmp_path):
        t = DenseTensor(TensorShape((5,)), np.array([0.1, -2.0, 1e-300, 5e-324, 1e16]))
        path = tmp_path / "dense.txt"
        save_dense(path, t)
        assert path.read_bytes() == b"stto-dense v1\n1\n5\n0.1\n-2.0\n1e-300\n5e-324\n1e+16\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused_before_the_file_is_opened(self, tmp_path, bad):
        # load_dense rejects a "nan" or "inf" line, so the writer must not make one
        path = tmp_path / "dense.txt"
        t = DenseTensor(TensorShape((6,)), np.array([1.0, 2.0, 3.0, 4.0, bad, np.nan]))
        with pytest.raises(FormatError, match=f"^value 5: non-finite value {bad!r} cannot be saved$"):
            save_dense(path, t)
        assert not path.exists()

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

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_parameter_refused_before_the_file_is_opened(self, tmp_path, bad):
        cores = random_init(TensorShape((3, 4, 2)), TTRank((1, 2, 3, 1)), seed=9)
        flat = flatten_params(cores)
        flat[[7, 20]] = bad
        path = tmp_path / "model.txt"
        with pytest.raises(FormatError, match=f"^parameter 8: non-finite value {bad!r} cannot be saved$"):
            save_model(path, unflatten_params(cores, flat))
        assert not path.exists()

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


# Each format as: loader, header lines declaring a block of n one-mode records,
# and the record line holding value v at 1-based position i.
FORMATS = {
    "sparse": (load_sparse, lambda n: ["stto-sparse v1", "1", "3", str(n)], lambda i, v: f"{i} {v}"),
    "dense": (load_dense, lambda n: ["stto-dense v1", "1", str(n)], lambda i, v: v),
    "model": (load_model, lambda n: ["1", str(n), "1 1"], lambda i, v: v),
}

# case: (declared count, record values, bad line counted from the header's end, message)
MALFORMED = {
    "short block": (3, ["1.0", "2.0"], 3, "missing"),
    "count far beyond the file": (10**15, ["1.0"], 2, "missing"),
    "wrong field count": (2, ["1.0", "2.0 7"], 2, "has 3 fields, expected 2|has 2 fields, expected 1"),
    "blank record": (2, ["1.0", ""], 2, "fields, expected"),
    "bad number": (2, ["1.0", "2.0x"], 2, "malformed"),
    "nan": (2, ["1.0", "nan"], 2, "non-finite"),
    "inf": (2, ["inf", "2.0"], 1, "non-finite"),
    "-inf": (2, ["1.0", "-inf"], 2, "non-finite"),
    "trailing content": (2, ["1.0", "2.0", "3.0"], 3, "trailing content"),
    "non-ASCII byte": (2, ["1.0", "2.é"], 2, "non-ASCII byte 0xc3"),
}


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestMalformedEveryFormat:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_well_formed_base(self, tmp_path, fmt):
        load, header, record = FORMATS[fmt]
        path = tmp_path / "ok.txt"
        _write_lines(path, header(2) + [record(1, "1.0"), record(2, "2.0")])
        loaded = load(path)
        values = flatten_params(loaded) if fmt == "model" else loaded.values
        assert values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("case", MALFORMED)
    def test_names_the_bad_line(self, tmp_path, fmt, case):
        load, header, record = FORMATS[fmt]
        count, values, offset, message = MALFORMED[case]
        head = header(count)
        path = tmp_path / "bad.txt"
        _write_lines(path, head + [record(i, v) for i, v in enumerate(values, 1)])
        with pytest.raises(FormatError, match=rf"^line {len(head) + offset}: .*({message})"):
            load(path)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "order, sizes, bad, message",
        [
            ("1000000000000", "3 3", 2, "mode sizes has 2 fields"),
            ("x", "3", 1, "malformed mode count"),
            ("0", "3", 1, "mode count must be positive"),
            ("1", "3.0", 2, "malformed mode sizes"),
            ("1", "0", 2, "non-positive size"),
            ("1", "99999999999999999999", 2, "malformed mode sizes"),
        ],
    )
    def test_header_names_its_line(self, tmp_path, fmt, order, sizes, bad, message):
        load, header, _ = FORMATS[fmt]
        head = header(1)
        at = 0 if fmt == "model" else 1  # index of the mode count line
        head[at : at + 2] = [order, sizes]
        path = tmp_path / "bad.txt"
        _write_lines(path, head + ["1 1.0" if fmt == "sparse" else "1.0"])
        with pytest.raises(FormatError, match=f"^line {at + bad}: .*{message}"):
            load(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            ("99999999999999999999 1 1.0", "malformed"),
            ("1.0 1 1.0", "malformed"),
            ("1 1 1.0#", "malformed"),
            ("1 1 1.0 # note", "has 5 fields"),
        ],
    )
    def test_sparse_coordinates(self, tmp_path, record, message):
        path = tmp_path / "bad.txt"
        _write_lines(path, ["stto-sparse v1", "2", "3 3", "1", record])
        with pytest.raises(FormatError, match=f"^line 5: .*{message}"):
            load_sparse(path)


@pytest.fixture(params=[2, 3])
def per_block(request, monkeypatch):
    """A count p of records; ``fileio._BLOCK`` = 3p, so that a block holds p records of 4 characters.

    Short files then span several blocks, of 1 to 3 records in each format.
    """
    monkeypatch.setattr(fileio, "_BLOCK", 3 * request.param)
    return request.param


def _load_error(load, path) -> str:
    with pytest.raises(FormatError) as info:
        load(path)
    return str(info.value)


class TestChunkBoundaries:
    # A bad line at every position of the first two blocks must give the
    # message that one-character blocks give, which end at each line's end:
    # the line-by-line parse, but for a blank line, which takes the next with it.
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("case", MALFORMED)
    def test_bad_line_anywhere(self, tmp_path, monkeypatch, per_block, fmt, case):
        load, header, record = FORMATS[fmt]
        count, values, offset, message = MALFORMED[case]
        inside = count == len(values) and offset <= count  # the bad line is one of the records
        path = tmp_path / "bad.txt"
        for at in range(1 if inside else offset, 2 * per_block + 1):
            for after in (0, 1, per_block) if inside else (0,):
                if inside:  # the bad record at `at`, then `after` good ones
                    records = ["0.5"] * (at - 1) + [values[offset - 1]] + ["0.5"] * after
                    n = at + after
                else:  # `at - offset` good records, then the case's lines
                    records = ["0.5"] * (at - offset) + values
                    n = count + at - offset
                # every case fails before sparse coordinates are range-checked
                head = header(n)
                _write_lines(path, head + [record(i, v) for i, v in enumerate(records, 1)])
                got = _load_error(load, path)
                assert re.match(rf"line {len(head) + at}: .*({message})", got), (at, after, got)
                with monkeypatch.context() as line_by_line:
                    line_by_line.setattr(fileio, "_BLOCK", 1)
                    assert got == _load_error(load, path)

    @pytest.mark.parametrize("order", ["width first", "token first"])
    def test_two_bad_lines_in_one_block(self, tmp_path, per_block, order):
        # the good records before the pair move it across the blocks, so that some files hold it in one
        bad = ["2.0 7", "2.0x"] if order == "width first" else ["2.0x", "2.0 7"]
        path = tmp_path / "bad.txt"
        message = "value has 2 fields" if order == "width first" else "malformed value '2.0x'"
        for good in range(per_block):
            _write_lines(path, ["stto-dense v1", "1", str(good + 2)] + ["0.5"] * good + bad)
            with pytest.raises(FormatError, match=f"^line {4 + good}: {message}"):
                load_dense(path)

    @pytest.mark.parametrize("gap", [0, 1, 3])
    def test_malformed_wins_over_an_earlier_non_finite_value(self, tmp_path, per_block, gap):
        # the finite check runs after the whole table, so a later bad token is reported
        path = tmp_path / "bad.txt"
        records = ["1 nan"] + ["1 0.5"] * gap + ["1 x"]
        _write_lines(path, ["stto-sparse v1", "1", "3", str(len(records))] + records)
        with pytest.raises(FormatError, match=f"^line {5 + len(records) - 1}: malformed observation '1 x'"):
            load_sparse(path)

    @pytest.mark.parametrize("coordinate", [2**63, -(2**63) - 1])
    def test_int64_overflow_in_a_blocks_last_record(self, tmp_path, per_block, coordinate):
        # the bad record is longer than a block, so no later line starts in its block
        path = tmp_path / "bad.txt"
        records = ["1 1 0.5"] * (per_block - 1) + [f"1 {coordinate} 0.5", "2 2 0.5"]
        _write_lines(path, ["stto-sparse v1", "2", "3 3", str(len(records))] + records)
        message = f"^line {4 + per_block}: malformed observation '1 {coordinate} 0.5'"
        with pytest.raises(FormatError, match=message):
            load_sparse(path)


def _reference(lines) -> bytes:
    """The bytes of writing each item on its own line."""
    return "".join(f"{item}\n" for item in lines).encode("ascii")


class TestWriterBlocks:
    # with _ROWS = R = 3: body lengths 0, 1, R - 1, R, R + 1 and 2R + 1; the peak tests keep _ROWS
    LENGTHS = [0, 1, 2, 3, 4, 7]

    @pytest.fixture
    def three_row_blocks(self, monkeypatch):
        monkeypatch.setattr(fileio, "_ROWS", 3)

    @pytest.mark.usefixtures("three_row_blocks")
    @pytest.mark.parametrize("n", LENGTHS)
    def test_write(self, tmp_path, n):
        head, body = ["# head", 7], [f"line {i}" for i in range(n)]
        fileio._write(tmp_path / "out.txt", head, iter(body))
        assert (tmp_path / "out.txt").read_bytes() == _reference(head + body)

    @pytest.mark.usefixtures("three_row_blocks")
    @pytest.mark.parametrize("n", LENGTHS[1:])
    def test_save_dense(self, tmp_path, n):
        values = np.random.default_rng(n).standard_normal(n) * 10.0 ** np.arange(-150, -150 + 50 * n, 50)
        save_dense(tmp_path / "d.txt", DenseTensor(TensorShape((n,)), values))
        expected = _reference(["stto-dense v1", 1, n, *map(repr, values.tolist())])
        assert (tmp_path / "d.txt").read_bytes() == expected

    @pytest.mark.usefixtures("three_row_blocks")
    @pytest.mark.parametrize("n", LENGTHS[1:])
    def test_save_sparse(self, tmp_path, n):
        shape = TensorShape((n, 12, 2))
        rng = np.random.default_rng(n)
        cells = rng.permutation(shape.element_count)[:n]
        coords = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
        obs = SparseObservations(shape, coords, rng.standard_normal(n) * 1e-5)
        save_sparse(tmp_path / "s.txt", obs)
        rows = zip(coords.tolist(), obs.values.tolist())
        records = [f"{' '.join(map(str, idx))} {val!r}" for idx, val in rows]
        expected = _reference(["stto-sparse v1", 3, f"{n} 12 2", n, *records])
        assert (tmp_path / "s.txt").read_bytes() == expected

    @pytest.mark.usefixtures("three_row_blocks")
    @pytest.mark.parametrize("n", LENGTHS[1:])
    def test_save_model(self, tmp_path, n):
        cores = random_init(TensorShape((n,)), TTRank((1, 1)), seed=n)
        save_model(tmp_path / "m.txt", cores)
        expected = _reference([1, n, "1 1", *map(repr, flatten_params(cores).tolist())])
        assert (tmp_path / "m.txt").read_bytes() == expected

    def test_save_dense_peak_memory(self, tmp_path):
        # one block of floats and strings at a time: a whole-body float list alone is 3.4 MiB at 48^3
        t = DenseTensor(TensorShape((48, 48, 48)), np.random.default_rng(0).standard_normal(48**3))
        assert _peak(save_dense, tmp_path / "d.txt", t) < 2**19

    def test_save_sparse_peak_memory(self, tmp_path):
        # M = 44,237 records: whole-body int and float lists would be 2.4 MiB
        obs = _sparse48()
        obs.repeated_rows()  # the duplicate check's sort is cached on ``obs``; it holds arrays, not lines
        assert _peak(save_sparse, tmp_path / "s.txt", obs) < 2**19

    @pytest.mark.parametrize("sizes", [(1000,) * 3, (2**20,) * 3, (2**62,)], ids=["4-digits", "7-digits", "19-digits"])
    def test_save_sparse_peak_memory_at_wide_coordinates(self, tmp_path, sizes):
        # wider lines take fewer rows a block; at 4,096 rows these peak at 494, 602 and 681 KiB
        obs = _sparse48(sizes)
        obs.repeated_rows()
        assert _peak(save_sparse, tmp_path / "s.txt", obs) < 2**19

    @pytest.mark.parametrize("layout", ["column-major", "row-major", "strided"])
    def test_save_model_formats_whole_blocks_of_each_core(self, tmp_path, monkeypatch, layout):
        # nditer hands a row-major core over in runs of r x n values; each core still takes ceil(size / _ROWS)
        # blocks, all but its last of _ROWS values
        cores = random_init(TensorShape((48, 48, 48)), TTRank((1, 47, 47, 1)), seed=0)
        arrays = {
            "column-major": [np.asfortranarray(c) for c in cores.cores],
            "row-major": [np.ascontiguousarray(c) for c in cores.cores],
            "strided": [np.repeat(c, 2, axis=1)[:, ::2] for c in cores.cores],
        }[layout]
        cores = TTCores(tuple(arrays), cores.shape, cores.rank)
        sizes, real = [], fileio._format
        monkeypatch.setattr(fileio, "_format", lambda x, *rest: sizes.append(x.size) or real(x, *rest))
        save_model(tmp_path / "m.txt", cores)
        rows = fileio._ROWS
        assert sizes == [min(rows, c.size - i) for c in cores.cores for i in range(0, c.size, rows)]
        assert (tmp_path / "m.txt").read_bytes() == model_text(cores)

    @pytest.mark.parametrize("fitted", [True, False], ids=["views-of-a-flat-vector", "own-arrays"])
    def test_save_model_peak_memory(self, tmp_path, fitted):
        # 110,544 parameters: the flat vector alone is 864 KiB. A fit returns cores that are column-major
        # views of one flat vector; random_init's cores are row-major arrays of their own.
        cores = random_init(TensorShape((48, 48, 48)), TTRank((1, 47, 47, 1)), seed=0)
        if fitted:
            cores = unflatten_params(cores, flatten_params(cores))
        assert _peak(save_model, tmp_path / "m.txt", cores) < 2**19

    @pytest.mark.parametrize("writer", ["dense", "sparse", "model"])
    def test_peak_memory_does_not_grow_with_the_body(self, tmp_path, writer):
        # a body of 4 x 2^17 values peaks within 16 KiB of one of 2^17, so a temporary as long as the body,
        # even of one byte a value, fails at any _ROWS; every coordinate has 2 digits, so sparse lines are
        # as wide at 4x
        def peak(scale):
            n = 2**17 * scale
            if writer == "dense":
                t = DenseTensor(TensorShape((32 * scale, 64, 64)), np.random.default_rng(0).standard_normal(n))
                return _peak(save_dense, tmp_path / "d.txt", t)
            if writer == "sparse":
                obs = _sparse48((96, 96, 96), n)
                obs.repeated_rows()
                return _peak(save_sparse, tmp_path / "s.txt", obs)
            cores = random_init(TensorShape((n,)), TTRank((1, 1)), seed=0)
            return _peak(save_model, tmp_path / "m.txt", cores)

        assert peak(4) - peak(1) < 16 * 2**10


def _floats(bits) -> np.ndarray:
    """The float64 values of the given 64-bit patterns."""
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def _all_three(tmp_path, values, rng) -> None:
    """Write ``values`` with each writer and compare each file with the per-value writer's bytes."""
    m = values.size
    t = DenseTensor(TensorShape((m,)), values)
    save_dense(tmp_path / "d.txt", t)
    assert (tmp_path / "d.txt").read_bytes() == dense_text(t)
    cores = unflatten_params(random_init(TensorShape((m,)), TTRank((1, 1)), seed=0), values)
    save_model(tmp_path / "m.txt", cores)
    assert (tmp_path / "m.txt").read_bytes() == model_text(cores)
    shape = TensorShape((m, 99_999, 3))
    cells = rng.choice(shape.element_count, size=m, replace=False)
    coords = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
    obs = SparseObservations(shape, coords, values)
    save_sparse(tmp_path / "s.txt", obs)
    assert (tmp_path / "s.txt").read_bytes() == sparse_text(obs)


class TestFloatText:
    """The writers format numbers in numpy; ``repr`` and ``str`` of each value, in ``oracles``, are the reference."""

    FINITE = st.integers(0, 2**64 - 1).filter(lambda b: b >> 52 & 0x7FF != 0x7FF)  # every finite double

    @pytest.mark.parametrize(
        "value, text",
        [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (773247325567427.75, "773247325567427.8"),  # a tie between two shortest candidates: the even one
            (9999999999999998.0, "9999999999999998.0"),  # the largest below 1e16, written in fixed notation
            (1e16, "1e+16"),
            (0.0001, "0.0001"),
            (1e-5, "1e-05"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
            (-1.7976931348623157e308, "-1.7976931348623157e+308"),
            (2.2250738585072014e-308, "2.2250738585072014e-308"),  # the least normal
            (5e-324, "5e-324"),  # the least subnormal: its shortest is one digit
            (1e-323, "1e-323"),
            (123.0, "123.0"),
            (0.1, "0.1"),
        ],
    )
    def test_line(self, tmp_path, value, text):
        save_dense(tmp_path / "d.txt", DenseTensor(TensorShape((1,)), [value]))
        assert (tmp_path / "d.txt").read_bytes() == f"stto-dense v1\n1\n1\n{text}\n".encode()

    def test_powers_of_two_and_ten(self, tmp_path):
        # each power of two above the least normal has a rounding interval half as wide below it
        powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
        _all_three(tmp_path, np.concatenate([powers, -powers]), np.random.default_rng(0))

    def test_values_near_powers_of_two_and_ten(self, tmp_path):
        # every finite double within 8 ulps of a power of two or ten, either sign: the edges of the
        # rounding intervals, and of the scaled products that find the digits
        powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)]).view(np.int64)
        near = _floats((powers[:, None] + np.arange(-8, 9)).ravel().view(np.uint64))
        near = np.unique(near[np.isfinite(near) & (near > 0)])
        _all_three(tmp_path, np.concatenate([near, -near]), np.random.default_rng(0))

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_body_lengths_around_one_block(self, tmp_path, step):
        rng = np.random.default_rng(step + 1)
        values = _floats(rng.integers(0, 2**64, fileio._ROWS + step, dtype=np.uint64, endpoint=False))
        _all_three(tmp_path, np.where(np.isfinite(values), values, 1.5), rng)

    def test_many_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, 1 << 16, dtype=np.uint64, endpoint=False)
        subnormal = bits[: 1 << 12] & np.uint64((1 << 52) - 1)
        ties = rng.integers(0, 2**53, 1 << 12) / 2.0 ** rng.integers(1, 8, 1 << 12)  # exact halves, quarters, ...
        short = rng.integers(1, 10**6, 1 << 12) * 10.0 ** rng.integers(-30, 30, 1 << 12)  # few significant digits
        values = np.concatenate([_floats(bits), _floats(subnormal), ties, short])
        t = DenseTensor(TensorShape((values.size,)), np.where(np.isfinite(values), values, 0.0))
        save_dense(tmp_path / "d.txt", t)
        assert (tmp_path / "d.txt").read_bytes() == dense_text(t)

    @pytest.mark.parametrize("rows", [1, 3, 4096])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_coordinates_at_powers_of_ten(self, tmp_path, monkeypatch, order, rows):
        # 1 and 10^k - 1, 10^k for k = 1..18: each width up to 19 digits, and each bound where a leading
        # zero is dropped. A float64 bound reads 10^17 - 1 as 10^17 and keeps its leading 0.
        monkeypatch.setattr(fileio, "_ROWS", rows)
        bounds = [1, *(b for k in range(1, 19) for b in (10**k - 1, 10**k))]
        cases = [((10**18,), [[b] for b in bounds])]  # every width in one column
        for k in range(1, 18):  # one width per column, k and 18 - k digits
            ends = [(10 ** (k - 1), 10**k - 1), (10 ** (17 - k), 10 ** (18 - k) - 1)]
            cases.append(((10**k, 10 ** (18 - k)), [[a, b] for a in ends[0] for b in ends[1]]))
        sizes = (10**9, 10**6, 10**3)  # mixed widths in each column and across them
        cases.append((sizes, [[a, b, c] for a in bounds[:19] for b in bounds[:13] for c in bounds[:7]]))
        for sizes, coords in cases:
            obs = SparseObservations(TensorShape(sizes), np.array(coords, order=order), np.arange(len(coords)) / 7)
            save_sparse(tmp_path / "s.txt", obs)
            assert (tmp_path / "s.txt").read_bytes() == sparse_text(obs)

    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_writers_match_the_per_value_writers(self, data, rows):
        sizes = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=3) | st.tuples(st.integers(1, 2**62)))
        cells = st.tuples(*(st.integers(1, s) for s in sizes))
        coords = data.draw(st.lists(cells, min_size=1, max_size=12, unique=True))
        values = _floats(data.draw(st.lists(self.FINITE, min_size=len(coords), max_size=len(coords))))
        obs = SparseObservations(TensorShape(tuple(sizes)), np.array(coords, dtype=np.int64), values)
        t = DenseTensor(TensorShape((values.size,)), values)
        cores = unflatten_params(random_init(TensorShape((values.size,)), TTRank((1, 1)), seed=0), values)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_ROWS", rows):
            save_sparse(Path(tmp) / "s.txt", obs)
            save_dense(Path(tmp) / "d.txt", t)
            save_model(Path(tmp) / "m.txt", cores)
            assert (Path(tmp) / "s.txt").read_bytes() == sparse_text(obs)
            assert (Path(tmp) / "d.txt").read_bytes() == dense_text(t)
            assert (Path(tmp) / "m.txt").read_bytes() == model_text(cores)


def _sparse48(sizes=(48, 48, 48), m=44_237) -> SparseObservations:
    """``m`` distinct cells of a tensor of ``sizes``: by default 44,237 of 48^3, as the bench's sparse48 files hold."""
    shape = TensorShape(sizes)
    rng = np.random.default_rng(0)
    cells = rng.choice(shape.element_count, size=m, replace=False)
    coords = np.stack(np.unravel_index(cells, shape.sizes, order="F"), axis=1) + 1
    return SparseObservations(shape, coords, rng.standard_normal(cells.size))


def _peak(fn, *args) -> int:
    """The traced heap peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingReads:
    def test_load_dense_peak_memory(self, tmp_path):
        # the 0.84 MiB of values plus one 8 KiB block, 1.09 MiB; 64 KiB blocks read 2.32 MiB, and the
        # whole text with one str per line would be 10 MiB
        t = DenseTensor(TensorShape((48, 48, 48)), np.random.default_rng(0).standard_normal(48**3))
        save_dense(tmp_path / "d.txt", t)
        assert _peak(load_dense, tmp_path / "d.txt") < 1.5 * 2**20

    def test_load_sparse_peak_memory(self, tmp_path):
        # the 1.4 MiB of indices and values plus one block; the whole text with one str per line would be 6.1 MiB
        save_sparse(tmp_path / "s.txt", _sparse48())
        assert _peak(load_sparse, tmp_path / "s.txt") < 3 * 2**20

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["CR", "CRLF"])
    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_peak_memory_at_other_line_ends(self, tmp_path, fmt, end):
        # the bounds above hold when the blocks end at \r or \r\n instead of \n
        path = tmp_path / "f.txt"
        if fmt == "dense":
            save_dense(path, DenseTensor(TensorShape((48, 48, 48)), np.random.default_rng(0).standard_normal(48**3)))
        else:
            save_sparse(path, _sparse48())
        path.write_bytes(path.read_bytes().replace(b"\n", end))
        load, bound = (load_dense, 1.5 * 2**20) if fmt == "dense" else (load_sparse, 3 * 2**20)
        assert _peak(load, path) < bound

    def test_a_huge_mode_count_allocates_no_row_that_wide(self, tmp_path):
        # numpy reads an integer-only table as wide as its lines; a structured row as wide as the declared
        # 10^6 modes traces 33 MiB before the 2 fields of the sizes line refuse it
        path = tmp_path / "d.txt"
        path.write_bytes(b"stto-dense v1\n1000000\n3 3\n0.5\n")

        def load():
            with pytest.raises(FormatError, match="^line 3: mode sizes has 2 fields, expected 1000000$"):
                load_dense(path)

        assert _peak(load) < 2**20

    @pytest.mark.parametrize(
        "raw, lines",
        [
            (b"a\r\nb", ["a", "b"]),
            (b"a\r\rb\n\n", ["a", "", "b", ""]),
            (b"a\n\rb", ["a", "", "b"]),
            (b"\x0b\x0c\x1c\x1d\x1e\x1fa\r", ["", "", "", "", "", "\x1fa"]),
            (b"", []),
            (b"\r\n", [""]),
            (b"long line without an end", ["long line without an end"]),
        ],
    )
    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_lines_end_as_splitlines_ends_them(self, tmp_path, monkeypatch, raw, lines, block):
        monkeypatch.setattr(fileio, "_BLOCK", block)
        assert raw.decode("ascii").splitlines() == lines
        path = tmp_path / "lines.txt"
        path.write_bytes(raw)
        with open(path, "rb") as fh:
            rd = fileio._LineReader(fh)
            assert [line for part in iter(rd.take, []) for line in part] == lines
            assert rd.pos == rd.rest() == len(lines)

    @pytest.mark.parametrize(
        "prefix, line",
        [(b"", 1), (b"1\r", 2), (b"1\r\n", 2), (b"1\n\r", 3), (b"1\x0c2\x1e", 3), (b"12", 1)],
    )
    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_non_ascii_byte_names_its_line(self, tmp_path, monkeypatch, prefix, line, block):
        monkeypatch.setattr(fileio, "_BLOCK", block)
        path = tmp_path / "bad.txt"
        path.write_bytes(prefix + b"\xe9\n1\n")
        with pytest.raises(FormatError, match=f"^line {line}: non-ASCII byte 0xe9$"):
            load_model(path)

    def test_non_ascii_byte_ranks_before_check_shape(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK", 4)  # the header's blocks end before the bad byte
        path = tmp_path / "obs.txt"
        path.write_bytes(b"stto-sparse v1\n1\n3\n1\n1 1.0\n\n\xff\n")
        with pytest.raises(FormatError, match="^line 7: non-ASCII byte 0xff$"):
            load_sparse(path, _refuse)
        path.write_bytes(b"stto-sparse v1\n1\n3\n1\n1 1.0\n")
        with pytest.raises(CapacityError, match=r"^refused \(3,\)$"):
            load_sparse(path, _refuse)

    def test_a_fault_reads_on_only_to_rank_it(self, tmp_path, monkeypatch):
        # in a block that numpy refuses, Python reads the lines up to and including the first bad one; after
        # that fault the rest of the file is read for non-ASCII bytes, but not parsed
        monkeypatch.setattr(fileio, "_BLOCK", 32)  # the header and records 1-3, then records 4-12 and 13-21
        path = tmp_path / "bad.txt"
        path.write_bytes(b"stto-dense v1\n1\n3000\n" + b"0.5\n" * 16 + b"x\n" + b"0.5\n" * 2983)
        with mock.patch.object(fileio, "_parse", wraps=fileio._parse) as parse, mock.patch.object(
            fileio, "_fill", wraps=fileio._fill
        ) as fill:
            with pytest.raises(FormatError, match="^line 20: malformed value 'x'$"):
                load_dense(path)
        assert parse.call_count == 2 + 3  # the header's two tables and the first three record blocks; no later block
        assert [call.args[0] for call in fill.call_args_list] == [["0.5"]] * 4 + [["x"]]  # records 13-17

    def test_one_parse_per_block(self, tmp_path, monkeypatch):
        # the records of each decoded block are parsed at once, never gathered across blocks
        monkeypatch.setattr(fileio, "_BLOCK", 32)  # the header and 3 records, then 9 records a block
        path = tmp_path / "d.txt"
        path.write_bytes(b"stto-dense v1\n1\n3000\n" + b"0.5\n" * 3000)
        with mock.patch.object(fileio, "_parse", wraps=fileio._parse) as parse, mock.patch.object(
            fileio, "_fill", wraps=fileio._fill
        ) as fill, mock.patch.object(
            fileio._LineReader, "_more", autospec=True, side_effect=fileio._LineReader._more
        ) as more:
            assert load_dense(path).values.size == 3000
        blocks = more.call_count - 1  # the last call finds the end of the file
        assert blocks == 1 + 2997 // 9
        assert parse.call_count == 2 + blocks  # the header's two tables, then one parse per block
        assert fill.call_count == 0

    @pytest.mark.parametrize("fmt", ["sparse", "dense", "model"])
    def test_a_savers_body_is_parsed_by_numpy(self, tmp_path, monkeypatch, fmt):
        # numpy reads every line of what the savers write, the header tables' too; Python reads none
        monkeypatch.setattr(fileio, "_BLOCK", 256)  # several blocks
        path = tmp_path / "f.txt"
        rng = np.random.default_rng(0)
        shape = TensorShape((4, 5, 6))
        if fmt == "sparse":
            coords = np.stack(np.unravel_index(np.arange(0, 120, 2), shape.sizes), axis=1) + 1
            save_sparse(path, SparseObservations(shape, coords, rng.standard_normal(60)))
        elif fmt == "dense":
            save_dense(path, DenseTensor(shape, rng.standard_normal(shape.element_count)))
        else:
            save_model(path, random_init(shape, TTRank((1, 3, 2, 1)), seed=0))
        with mock.patch.object(fileio, "_fill", wraps=fileio._fill) as fill:
            assert _outcome(fmt, path, None)[0] == shape.sizes
        assert fill.call_count == 0

    @pytest.mark.parametrize("lenient", [False, True], ids=["numpy", "warning parser"])
    def test_a_float_coordinate_is_malformed_under_any_warning_filter(self, tmp_path, monkeypatch, lenient):
        # numpy 1.24-1.26 read 1.0 in an int field as 1 with only a DeprecationWarning, which
        # pytest's filterwarnings = error would turn into a refusal; the loader must refuse it itself
        if lenient:
            loadtxt = np.loadtxt

            def warn_and_read(lines, *args, **kwargs):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                return loadtxt([line.replace("1.0 ", "1 ") for line in lines], *args, **kwargs)

            monkeypatch.setattr(fileio.np, "loadtxt", warn_and_read)
        path = tmp_path / "obs.txt"
        path.write_bytes(b"stto-sparse v1\n1\n3\n2\n2 0.5\n1.0 0.25\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FormatError, match=r"^line 6: malformed observation '1\.0 0\.25'$"):
                load_sparse(path)


# Tokens from signs, digits, "_", points, exponents, the inf and nan spellings in any case, the
# int64 edges and the whitespace a line can hold (space, tab and \x1f, which ends no line).
_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789_", max_size=8)
_EXPONENT = st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-", "_"]), _DIGITS)
_SPELLING = st.builds(
    lambda word, upper: "".join(c.upper() if u else c for c, u in zip(word, upper)),
    st.sampled_from(["inf", "infinity", "nan", "infinit", "nan(1)"]),
    st.lists(st.booleans(), min_size=8, max_size=8),
)
_TOKENS = st.one_of(
    st.text("+-0123456789_.eE \t\x1f", max_size=12),
    st.builds("{}{}{}{}{}".format, _SIGN, _DIGITS, st.sampled_from(["", ".", "_."]), _DIGITS, _EXPONENT | st.just("")),
    st.builds("{}{}".format, _SIGN, _SPELLING),
    st.builds(lambda sign, k: str(sign * 2**63 + k), st.sampled_from([-1, 1]), st.integers(-2, 2)),
)
_SPACE = st.sampled_from(["", " ", "\t", "\x1f"])


class TestNumpyParser:
    # numpy's parser may refuse a line that Python's int and float read, and then _fill reads it;
    # but what numpy reads, Python reads to the same bits, so no file loads differently. A template
    # of more fields than ints ends in a value column; the others are integer-only tables.
    @pytest.mark.parametrize(
        "template, ints",
        [("{}", 0), ("{} 0.5", 1), ("1 {}", 1), ("7 {} -2", 2), ("{}", 1), ("1 {}", 2), ("7 {} -2", 3)],
    )
    @given(st.tuples(_SPACE, _TOKENS, _SPACE))
    @example(("", "1_0", ""))
    @example(("", "\u0661", ""))
    @example(("", "2^63", ""))
    @example(("", "1.0", ""))
    @example(("\x1f", "-9223372036854775808", "\t"))
    @settings(max_examples=300, deadline=None)
    def test_reads_a_token_as_python_does_or_refuses_it(self, template, ints, padded):
        line = template.format("".join(padded))
        value = len(template.split()) > ints
        got, expected = (array("q"), array("d")), (array("q"), array("d"))
        if fileio._parse([line], ints, value, *got):
            assert fileio._fill(line.split(), ints, value, *expected), line
            assert (got[0].tobytes(), got[1].tobytes()) == (expected[0].tobytes(), expected[1].tobytes()), line

    def test_reads_what_the_savers_write(self):
        lines = ["1 2 0.5", "3 4 -1e-300", "9223372036854775807 1 1.7976931348623157e+308", "1 1 5e-324"]
        got = array("q"), array("d")
        assert fileio._parse(lines, 2, True, *got)
        assert got[0].tolist() == [1, 2, 3, 4, 2**63 - 1, 1, 1, 1]
        assert got[1].tolist() == [0.5, -1e-300, 1.7976931348623157e308, 5e-324]
        got = array("q"), array("d")
        assert fileio._parse(["3"], 1, False, *got) and fileio._parse(["48 48 9223372036854775807"], 3, False, *got)
        assert got[0].tolist() == [3, 48, 48, 2**63 - 1] and not got[1]

    @pytest.mark.parametrize(
        "lines, ints",
        [(["0.5", ""], 0), (["0.5", " \t"], 0), (["0.5 1"], 0), (["1 0.5", "1"], 1), (["1"], 1), (["1 2 0.5"], 1)],
    )
    def test_refuses_a_lost_line_or_a_wrong_width(self, lines, ints):
        # loadtxt skips blank lines, which are malformed records here
        assert not fileio._parse(lines, ints, True, array("q"), array("d"))

    @pytest.mark.parametrize("lines, ints", [(["3", ""], 1), (["3 3"], 1), (["3"], 2), (["1 2", "3"], 2), ([" "], 1)])
    def test_refuses_a_lost_line_or_a_wrong_width_without_a_value(self, lines, ints):
        assert not fileio._parse(lines, ints, False, array("q"), array("d"))


def _refuse(shape):
    raise CapacityError(f"refused {shape.sizes}")


# Bytes that mutations put into a valid file: non-ASCII bytes, every ASCII line
# end of str.splitlines and \x1f (which is whitespace but no line end),
# fragments of numbers, and whole lines.
PIECES = [
    b"\xc3", b"\xff", b"\x80", b"\r", b"\r\n", b"\n", b"\n\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
    b"\x1f", b" ", b"\t", b"x", b"-", b".", b"e", b"1", b"0.5", b"nan", b"inf", b"1e999", b"9" * 20,
    b"1 1 0.5\n", b"garbage\n",
]


@st.composite
def _valid_file(draw, fmt):
    """The bytes that the saver of ``fmt`` writes for a small drawn object."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    shape = TensorShape(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.txt"
        if fmt == "sparse":
            count = draw(st.integers(1, shape.element_count))
            cells = rng.permutation(shape.element_count)[:count]
            coords = np.stack(np.unravel_index(cells, sizes, order="F"), axis=1) + 1
            save_sparse(path, SparseObservations(shape, coords, rng.standard_normal(count)))
        elif fmt == "dense":
            save_dense(path, DenseTensor(shape, rng.standard_normal(shape.element_count)))
        else:
            inner = draw(st.lists(st.integers(1, 2), min_size=len(sizes) - 1, max_size=len(sizes) - 1))
            save_model(path, random_init(shape, TTRank((1, *inner, 1)), seed=int(rng.integers(100))))
        return path.read_bytes()


# Whole fields that replace one of the file's fields.
FIELDS = [b"nan", b"inf", b"-inf", b"1e999", b"x", b"\xc3\xa9", b"9" * 20, b"0.5", b"1", b"-1", b"0"]


@st.composite
def _mutated(draw, raw: bytes):
    """``raw`` with a byte or a field replaced, bytes inserted or deleted, a line inserted, or the end cut off."""
    op = draw(st.sampled_from(["replace", "field", "insert", "delete", "line", "truncate"]))
    at = draw(st.integers(0, len(raw)))
    piece = draw(st.sampled_from(PIECES))
    if op == "field" and (fields := list(re.finditer(rb"\S+", raw))):
        field = draw(st.sampled_from(fields))
        return raw[: field.start()] + draw(st.sampled_from(FIELDS)) + raw[field.end() :]
    if op == "replace":
        return raw[:at] + piece + raw[at + 1 :]
    if op == "insert":
        return raw[:at] + piece + raw[at:]
    if op == "delete":
        return raw[:at] + raw[at + draw(st.integers(1, 4)) :]
    if op == "line":  # a blank, whitespace-only or extra line at a line start
        lines = raw.split(b"\n")
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([b"", b" \t", b"0.5", b"1 1 0.5", b"x"])))
        return b"\n".join(lines)
    return raw[:at]


def _outcome(fmt, path, check_shape):
    """What loading ``path`` gives: its arrays bit for bit, or the exception's type and text."""
    try:
        if fmt == "sparse":
            obs = load_sparse(path, check_shape)
            return obs.shape.sizes, obs.indices.tolist(), obs.values.tobytes()
        if fmt == "dense":
            t = load_dense(path)
            return t.shape.sizes, t.values.tobytes()
        cores = load_model(path)
        return cores.shape.sizes, cores.rank.ranks, flatten_params(cores).tobytes()
    except Exception as exc:  # noqa: BLE001 - the two readers must fail alike, whatever the failure
        return type(exc).__name__, str(exc)


class TestMatchesTheWholeFileReader:
    # The streaming reader, at any block size, loads what the whole-file
    # reference loads and refuses what it refuses with the same text; a
    # 256-character block holds most drawn files whole.
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 256])
    @given(st.sampled_from(["sparse", "dense", "model"]), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_files(self, block, fmt, refuse, data):
        raw = data.draw(_valid_file(fmt))
        for _ in range(data.draw(st.integers(0, 3))):
            raw = data.draw(_mutated(raw))
        check_shape = _refuse if refuse and fmt == "sparse" else None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.txt"
            path.write_bytes(raw)
            with mock.patch.object(fileio, "_BLOCK", block):
                got = _outcome(fmt, path, check_shape)
            with mock.patch.object(fileio, "_LineReader", WholeFileReader):
                expected = _outcome(fmt, path, check_shape)
        assert got == expected, raw


def _dense_with_cr_at(offset: int, end: bytes) -> bytes:
    """A 3-value dense file with ``end`` line ends, its first value padded so that a ``\\r`` is byte ``offset``."""
    head = b"stto-dense v1" + end + b"1" + end + b"3" + end
    return head + b" " * (offset - len(head) - 3) + b"0.5" + end + b"0.25" + end + b"-1.5" + end


class _Chunks(io.BufferedReader):
    """A binary file that keeps the size of each chunk a text layer over it reads, by ``read1``, to decode."""

    def __init__(self, path):
        super().__init__(io.FileIO(path))
        self.sizes = []

    def read1(self, size=-1):
        data = super().read1(size)
        self.sizes.append(len(data))
        return data


class TestLineEndAtABoundary:
    # A \r that ends the decoder's chunk or a block's read: with its \n it is
    # still one line end, and alone it still ends its line. The decoder reads
    # max(8 KiB, what a read asks for) at a time.
    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["CRLF", "CR"])
    @pytest.mark.parametrize(
        "offset, block, ends",
        [(8191, 4096, "chunk"), (4095, 4096, "read"), (8191, None, "chunk read")],
        ids=["chunk", "block", "both"],
    )
    def test_loads_as_the_whole_file_reader_does(self, tmp_path, monkeypatch, offset, block, ends, end):
        if block is not None:
            monkeypatch.setattr(fileio, "_BLOCK", block)
        raw = _dense_with_cr_at(offset, end)
        assert raw[offset : offset + 1] == b"\r"
        path = tmp_path / "d.txt"
        path.write_bytes(raw)
        with _Chunks(path) as fh:
            rd = fileio._LineReader(fh)
            while rd.take():
                pass
            at_chunk_end = offset in np.cumsum(fh.sizes) - 1
        first_read_end = offset == fileio._BLOCK - 1
        assert (at_chunk_end, first_read_end) == ("chunk" in ends, "read" in ends)
        got = _outcome("dense", path, None)
        with mock.patch.object(fileio, "_LineReader", WholeFileReader):
            assert got == _outcome("dense", path, None)
        assert load_dense(path).values.tolist() == [0.5, 0.25, -1.5]


def _record_opens(monkeypatch) -> list:
    """Make ``fileio``'s ``open`` keep every file object it returns in the list returned."""
    opened = []

    def record(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(fileio, "open", record, raising=False)
    return opened


class TestFileHandles:
    CASES = {
        "valid sparse": (load_sparse, b"stto-sparse v1\n1\n3\n1\n1 1.0\n", None),
        "malformed sparse": (load_sparse, b"stto-sparse v1\n1\n3\n2\n1 1.0\n1 x\n", FormatError),
        "non-ASCII sparse": (load_sparse, b"stto-sparse v1\n1\n3\n1\n1 1.0\xe9\n", FormatError),
        "sparse refused by check_shape": (lambda p: load_sparse(p, _refuse), b"stto-sparse v1\n1\n3\n1\n1 1.0\n", CapacityError),
        "valid dense": (load_dense, b"stto-dense v1\n1\n1\n1.0\n", None),
        "malformed dense": (load_dense, b"stto-dense v1\n1\n2\n1.0\n", FormatError),
        "non-ASCII dense": (load_dense, b"stto-dense v1\n1\n1\n\xff\n", FormatError),
        "valid model": (load_model, b"1\n1\n1 1\n1.0\n", None),
        "malformed model": (load_model, b"1\n1\n1 2\n1.0\n", FormatError),
        "non-ASCII model": (load_model, b"1\n1\n1 1\n1.0\n\x80", FormatError),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_load_closes_its_file(self, tmp_path, monkeypatch, case):
        load, raw, error = self.CASES[case]
        path = tmp_path / "file.txt"
        path.write_bytes(raw)
        opened = _record_opens(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if error is None:
                load(path)
            else:
                with pytest.raises(error):
                    load(path)
            assert len(opened) == 1 and opened[0].closed
            opened.clear()
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestRoundTripAcrossBlocks:
    @given(
        st.integers(1, 24),
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse(self, block, sizes, data):
        shape = TensorShape(tuple(sizes))
        cells = data.draw(st.lists(st.integers(0, shape.element_count - 1), min_size=1, unique=True))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(finite, min_size=len(cells), max_size=len(cells)))
        coords = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
        obs = SparseObservations(shape, coords, np.array(values))
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_BLOCK", block):
            path = Path(tmp) / "obs.txt"
            save_sparse(path, obs)
            again = load_sparse(path)
        assert again.shape.sizes == shape.sizes
        assert np.array_equal(again.indices, obs.indices)
        assert np.array_equal(again.values, obs.values)
        assert np.array_equal(np.signbit(again.values), np.signbit(obs.values))
