import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttcomplete.engine as engine
import ttcomplete.fileio as fileio
from ttcomplete import (
    DenseTensor,
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
def chunk(request, monkeypatch):
    """A small ``fileio._CHUNK``, so that short files span several blocks."""
    monkeypatch.setattr(fileio, "_CHUNK", request.param)
    return request.param


def _load_error(load, path) -> str:
    with pytest.raises(FormatError) as info:
        load(path)
    return str(info.value)


class TestChunkBoundaries:
    # A bad line at every position of the first two blocks must give the
    # message that one-line blocks give, which is the line-by-line parse.
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("case", MALFORMED)
    def test_bad_line_anywhere(self, tmp_path, monkeypatch, chunk, fmt, case):
        load, header, record = FORMATS[fmt]
        count, values, offset, message = MALFORMED[case]
        inside = count == len(values) and offset <= count  # the bad line is one of the records
        path = tmp_path / "bad.txt"
        for at in range(1 if inside else offset, 2 * chunk + 1):
            for after in (0, 1, chunk) if inside else (0,):
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
                    line_by_line.setattr(fileio, "_CHUNK", 1)
                    assert got == _load_error(load, path)

    @pytest.mark.parametrize("order", ["width first", "token first"])
    def test_two_bad_lines_in_one_block(self, tmp_path, chunk, order):
        bad = ["2.0 7", "2.0x"] if order == "width first" else ["2.0x", "2.0 7"]
        path = tmp_path / "bad.txt"
        _write_lines(path, ["stto-dense v1", "1", str(chunk)] + ["0.5"] * (chunk - 2) + bad)
        message = "value has 2 fields" if order == "width first" else "malformed value '2.0x'"
        with pytest.raises(FormatError, match=f"^line {2 + chunk}: {message}"):
            load_dense(path)

    @pytest.mark.parametrize("gap", [0, 1, 3])
    def test_malformed_wins_over_an_earlier_non_finite_value(self, tmp_path, chunk, gap):
        # the finite check runs after the whole table, so a later bad token is reported
        path = tmp_path / "bad.txt"
        records = ["1 nan"] + ["1 0.5"] * gap + ["1 x"]
        _write_lines(path, ["stto-sparse v1", "1", "3", str(len(records))] + records)
        with pytest.raises(FormatError, match=f"^line {5 + len(records) - 1}: malformed observation '1 x'"):
            load_sparse(path)

    @pytest.mark.parametrize("coordinate", [2**63, -(2**63) - 1])
    def test_int64_overflow_in_a_blocks_last_record(self, tmp_path, chunk, coordinate):
        path = tmp_path / "bad.txt"
        records = ["1 1 0.5"] * (chunk - 1) + [f"1 {coordinate} 0.5", "2 2 0.5"]
        _write_lines(path, ["stto-sparse v1", "2", "3 3", str(len(records))] + records)
        message = f"^line {4 + chunk}: malformed observation '1 {coordinate} 0.5'"
        with pytest.raises(FormatError, match=message):
            load_sparse(path)


def _reference(lines) -> bytes:
    """The bytes of writing each item on its own line."""
    return "".join(f"{item}\n" for item in lines).encode("ascii")


class TestWriterBlocks:
    # with C = 3: body lengths 0, 1, C - 1, C, C + 1 and 2C + 1
    LENGTHS = [0, 1, 2, 3, 4, 7]

    @pytest.fixture(autouse=True)
    def three_line_blocks(self, monkeypatch):
        monkeypatch.setattr(fileio, "_CHUNK", 3)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_write(self, tmp_path, n):
        head, body = ["# head", 7], [f"line {i}" for i in range(n)]
        fileio._write(tmp_path / "out.txt", head, iter(body))
        assert (tmp_path / "out.txt").read_bytes() == _reference(head + body)

    @pytest.mark.parametrize("n", LENGTHS[1:])
    def test_save_dense(self, tmp_path, n):
        values = np.random.default_rng(n).standard_normal(n) * 10.0 ** np.arange(-150, -150 + 50 * n, 50)
        save_dense(tmp_path / "d.txt", DenseTensor(TensorShape((n,)), values))
        expected = _reference(["stto-dense v1", 1, n, *map(repr, values.tolist())])
        assert (tmp_path / "d.txt").read_bytes() == expected

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

    @pytest.mark.parametrize("n", LENGTHS[1:])
    def test_save_model(self, tmp_path, n):
        cores = random_init(TensorShape((n,)), TTRank((1, 1)), seed=n)
        save_model(tmp_path / "m.txt", cores)
        expected = _reference([1, n, "1 1", *map(repr, flatten_params(cores).tolist())])
        assert (tmp_path / "m.txt").read_bytes() == expected

    def test_save_dense_peak_memory(self, tmp_path):
        # one block of strings at a time: the peak is the values' float list (3.4 MiB at 48^3)
        t = DenseTensor(TensorShape((48, 48, 48)), np.random.default_rng(0).standard_normal(48**3))
        tracemalloc.start()
        try:
            save_dense(tmp_path / "d.txt", t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRoundTripAcrossBlocks:
    @given(
        st.integers(1, 5),
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse(self, chunk, sizes, data):
        shape = TensorShape(tuple(sizes))
        cells = data.draw(st.lists(st.integers(0, shape.element_count - 1), min_size=1, unique=True))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(finite, min_size=len(cells), max_size=len(cells)))
        coords = np.stack(np.unravel_index(cells, shape.sizes), axis=1) + 1
        obs = SparseObservations(shape, coords, np.array(values))
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_CHUNK", chunk):
            path = Path(tmp) / "obs.txt"
            save_sparse(path, obs)
            again = load_sparse(path)
        assert again.shape.sizes == shape.sizes
        assert np.array_equal(again.indices, obs.indices)
        assert np.array_equal(again.values, obs.values)
        assert np.array_equal(np.signbit(again.values), np.signbit(obs.values))
