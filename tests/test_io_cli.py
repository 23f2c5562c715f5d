"""Text file formats and the command line interface."""

import csv
import itertools
import math
import os
import re
import stat
import warnings

import numpy as np
import pytest

from logitcp import cli, decomp, fileio, selection, simulate
from logitcp.likelihood import BinaryTensor, LogitModel


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def small_model():
    rng = np.random.default_rng(3)
    u = np.column_stack([unit(rng.standard_normal(4)), unit(rng.standard_normal(4))])
    v = np.column_stack([unit(rng.standard_normal(3)), unit(rng.standard_normal(3))])
    w = np.column_stack([unit(rng.standard_normal(2)), unit(rng.standard_normal(2))])
    return LogitModel(-0.3217, [2.5, 1.0 / 3.0], u, v, w)


# ----------------------------------------------------------- tensor files


def test_tensor_round_trip_with_mask(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.random((4, 3, 2)) < 0.5
    mask = rng.random((4, 3, 2)) < 0.7
    path = tmp_path / "t.txt"
    fileio.write_tensor(path, vals, mask)
    got_vals, got_mask = fileio.read_tensor(path)
    assert got_vals.dtype == bool and got_mask.dtype == bool
    assert np.array_equal(got_mask, mask)
    assert np.array_equal(got_vals[mask], vals[mask])
    assert not got_vals[~mask].any()


def test_tensor_record_order_and_binary_formatting(tmp_path):
    vals = np.arange(8, dtype=float).reshape((2, 2, 2), order="F") % 2
    path = tmp_path / "t.txt"
    fileio.write_binary_tensor(path, BinaryTensor.dense(vals))
    lines = path.read_text().splitlines()
    assert lines[0] == "dims 2 2 2"
    # first index varies fastest, labels are written as bare integers
    assert lines[1] == "1 1 1 0"
    assert lines[2] == "2 1 1 1"
    assert lines[3] == "1 2 1 0"
    assert lines[5] == "1 1 2 0"


def test_tensor_write_read_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    x = BinaryTensor.dense((rng.random((5, 4, 3)) < 0.5).astype(float))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    fileio.write_binary_tensor(a, x)
    fileio.write_binary_tensor(b, fileio.read_binary_tensor(a))
    assert a.read_bytes() == b.read_bytes()


def test_read_tensor_error_paths(tmp_path):
    def written(text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        return p

    with pytest.raises(ValueError, match="first line"):
        fileio.read_tensor(written("dims 2 2\n"))
    with pytest.raises(ValueError, match="dims must be positive"):
        fileio.read_tensor(written("dims 2 0 2\n"))
    with pytest.raises(ValueError, match="expected 'i j k v'"):
        fileio.read_tensor(written("dims 2 2 2\n1 1 1\n"))
    with pytest.raises(ValueError, match="bad record"):
        fileio.read_tensor(written("dims 2 2 2\n1 1 x 1\n"))
    with pytest.raises(ValueError, match="out of range"):
        fileio.read_tensor(written("dims 2 2 2\n3 1 1 1\n"))
    with pytest.raises(ValueError, match="duplicate"):
        fileio.read_tensor(written("dims 2 2 2\n1 1 1 1\n1 1 1 0\n"))
    with pytest.raises(ValueError, match="bad.txt:2: value '0.5' is not 0 or 1"):
        fileio.read_binary_tensor(written("dims 2 2 2\n1 1 1 0.5\n"))
    with pytest.raises(ValueError, match="bad.txt: mask is empty"):
        fileio.read_binary_tensor(written("dims 2 2 2\n"))
    for token in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f":3: non-finite value '{token}'"):
            fileio.read_tensor(written(f"dims 1 1 2\n1 1 1 1\n1 1 2 {token}\n"))


def reference_tensor_text(values, mask):
    """The tensor file format written one cell at a time."""
    p1, p2, p3 = values.shape
    lines = [f"dims {p1} {p2} {p3}"]
    for k in range(p3):
        for j in range(p2):
            for i in range(p1):
                if mask[i, j, k]:
                    lines.append(f"{i + 1} {j + 1} {k + 1} {int(values[i, j, k])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("as_bool", [True, False])
def test_write_tensor_matches_the_cell_loop(tmp_path, as_bool):
    # more cells than one formatting block, with an irregular mask; the
    # blocks are runs of whole mode-3 slices, runs of mode-2 columns, and
    # single columns longer than a block
    rng = np.random.default_rng(5)
    for shape in ((70, 50, 40), (40, 2000, 2), (70000, 2, 1)):
        vals = rng.random(shape) < 0.5
        mask = rng.random(shape) < 0.7
        path = tmp_path / "t.txt"
        fileio.write_tensor(path, vals if as_bool else np.where(vals, 1.0, -0.0), mask)
        assert path.read_text() == reference_tensor_text(vals, mask)
        got_vals, got_mask = fileio.read_tensor(path)
        assert np.array_equal(got_mask, mask)
        assert np.array_equal(got_vals, vals & mask)


def test_tensor_round_trips_are_byte_identical(tmp_path):
    rng = np.random.default_rng(2)
    mask = rng.random((60, 40, 30)) < 0.8
    x = BinaryTensor(np.where(mask, rng.random(mask.shape) < 0.5, 0.0), mask)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    fileio.write_binary_tensor(a, x)
    fileio.write_binary_tensor(b, fileio.read_binary_tensor(a))
    assert a.read_bytes() == b.read_bytes()


def test_bool_values_write_as_floats_do_and_read_back_bool(tmp_path):
    rng = np.random.default_rng(6)
    # more records than one formatting chunk, with an irregular mask
    mask = rng.random((70, 50, 40)) < 0.7
    x = BinaryTensor(rng.random(mask.shape) < 0.5, mask)
    assert x.values.dtype == bool
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    fileio.write_binary_tensor(a, x)
    assert a.read_text() == reference_tensor_text(x.values, mask)
    fileio.write_tensor(b, x.values.astype(float), mask)
    assert a.read_bytes() == b.read_bytes()
    y = fileio.read_binary_tensor(a)
    assert y.values.dtype == bool
    assert np.array_equal(y.values, x.values) and np.array_equal(y.mask, mask)


def test_write_tensor_rejects_a_mask_of_another_shape(tmp_path):
    vals = np.zeros((3, 2, 2))
    for shape in ((4, 2, 2), (2, 2, 2), (3, 2)):
        with pytest.raises(ValueError, match=r"mask shape .* does not match values shape \(3, 2, 2\)"):
            fileio.write_tensor(tmp_path / "t.txt", vals, np.ones(shape, dtype=bool))
    assert list(tmp_path.iterdir()) == []


def test_failed_tensor_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("old\n")
    vals = np.ones((256, 256, 2))
    vals[-1, -1, -1] = np.nan  # the last record, past the first chunk of records
    with pytest.raises(ValueError, match="^observed values must be exactly 0 or 1$"):
        fileio.write_tensor(path, vals)
    assert path.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["t.txt"]


def test_binary_tensor_write_refuses_a_fraction_and_leaves_the_old_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("old\n")
    for value in (0.5, 2.0, -1.0, np.inf):
        vals = np.ones((256, 256, 2))
        vals[5, 3, 1] = value  # record 66310, past the first chunk of records
        with pytest.raises(ValueError, match="^observed values must be exactly 0 or 1$"):
            fileio.write_tensor(path, vals)
        assert path.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["t.txt"]


def test_read_tensor_error_messages_name_path_and_line(tmp_path):
    p = tmp_path / "bad.txt"

    def error(text):
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError) as info:
            fileio.read_tensor(p)
        return str(info.value)

    head = "dims 2 2 2\n1 1 1 1\n"
    assert error(head + "1 1 1\n") == f"{p}:3: expected 'i j k v', got '1 1 1\\n'"
    assert error(head + "1 1 2 1 1\n") == f"{p}:3: expected 'i j k v', got '1 1 2 1 1\\n'"
    assert error(head + "1 x 2 1\n") == f"{p}:3: bad record '1 x 2 1\\n'"
    assert error(head + "1x2 2 1\n") == f"{p}:3: expected 'i j k v', got '1x2 2 1\\n'"
    assert error(head + "1 1 2 1 2\n1 2 1\n") == (
        f"{p}:3: expected 'i j k v', got '1 1 2 1 2\\n'"
    )
    assert error(head + "1 1 2 1.0.0\n") == f"{p}:3: bad record '1 1 2 1.0.0\\n'"
    assert error(head + "1 1 2 nan\n") == f"{p}:3: non-finite value 'nan'"
    assert error(head + "1 1 2 1e999\n") == f"{p}:3: non-finite value '1e999'"
    assert error(head + "1 3 1 1\n") == f"{p}:3: index (1,3,1) out of range (2, 2, 2)"
    assert error(head + "0 1 1 1\n") == f"{p}:3: index (0,1,1) out of range (2, 2, 2)"
    assert error(head + "1 12 2 1\n") == f"{p}:3: index (1,12,2) out of range (2, 2, 2)"
    assert error(head + "1 1 1 0\n") == f"{p}:3: duplicate record for cell (1,1,1)"
    for token in ("2", "10", "0.5", "-1", "1.0000000000000002"):
        assert error(head + f"1 1 2 {token}\n") == f"{p}:3: value '{token}' is not 0 or 1"
    # the first fault in file order wins, whatever its class
    lines = ["dims 3 3 3", "1 1 1 1", "2 1 1 0", "3 1 1 1", "2 1 1 1",
             "1 2 1 1", "2 2 1 1", "3 2 1 inf", "1 3 1 x", "4 1 1 1"]
    assert error("\n".join(lines) + "\n") == f"{p}:5: duplicate record for cell (2,1,1)"
    lines[3] = "3 1 1 2"
    assert error("\n".join(lines) + "\n") == f"{p}:4: value '2' is not 0 or 1"
    # blank lines and CRLF line ends count toward line numbers
    assert error("dims 2 2 2\r\n\r\n1 1 1 1\r\n   \r\n1 1 3 1\r\n") == (
        f"{p}:5: index (1,1,3) out of range (2, 2, 2)"
    )
    assert error("dims 2 2 2\n\n\n2 2 2 1\n\t\n2 2 2 0\n") == (
        f"{p}:6: duplicate record for cell (2,2,2)"
    )
    # bytes that are not UTF-8 are named with their path, and in a record
    # with its line
    assert error(head.encode() + b"1 \xff 2 1\n") == f"{p}:3: not UTF-8 text: b'1 \\xff 2 1\\n'"
    assert error(b"dims 2 \xff 2\n1 1 1 1\n").startswith(
        f"{p}: 'utf-8' codec can't decode byte 0xff in position 7"
    )


def test_read_tensor_duplicate_past_the_first_chunk(tmp_path):
    p = tmp_path / "t.txt"
    fileio.write_tensor(p, np.ones((100, 100, 10)))
    with open(p, "a") as fh:
        fh.write("37 5 2 0\n")
    with pytest.raises(ValueError) as info:
        fileio.read_tensor(p)
    assert str(info.value) == f"{p}:100002: duplicate record for cell (37,5,2)"


def test_read_tensor_header_only_and_blank_lines(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("dims 2 3 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, mask = fileio.read_tensor(p)
        assert vals.shape == (2, 3, 4) and not mask.any() and not vals.any()
        p.write_text("dims 2 3 4\n\n  \n")
        assert not fileio.read_tensor(p)[1].any()
        p.write_bytes(b"dims 2 3 4\r\n\r\n2 3 4 1\r\n\t\r\n")
        vals, mask = fileio.read_tensor(p)
    assert mask.sum() == 1 and vals[1, 2, 3] == 1.0


def test_read_tensor_takes_tokens_python_accepts(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("dims 12 2 2\n+1 1 1 0_1\n1_0 1 1 1e0\n2 +2 2 +1\n3 1 1 -0.0\n4 1 1 1.0\n")
    vals, mask = fileio.read_tensor(p)
    assert vals.dtype == bool
    assert np.array_equal(np.argwhere(mask),
                          [[0, 0, 0], [1, 1, 1], [2, 0, 0], [3, 0, 0], [9, 0, 0]])
    assert np.array_equal(np.argwhere(vals), [[0, 0, 0], [1, 1, 1], [3, 0, 0], [9, 0, 0]])
    # 1_0 is ten, not a binary value
    p.write_text("dims 2 2 2\n1 1 1 1\n1 1 2 1_0\n")
    with pytest.raises(ValueError, match=r"^" + re.escape(f"{p}:3: value '1_0' is not 0 or 1")):
        fileio.read_tensor(p)
    p.write_text("dims 2 2 2\n1e0 1 1 1\n")
    with pytest.raises(ValueError, match=r"^" + re.escape(f"{p}:2: bad record '1e0 1 1 1\\n'")):
        fileio.read_tensor(p)
    big = "99999999999999999999"
    p.write_text(f"dims 2 2 2\n1 1 1 1\n{big} 1 1 1\n")
    with pytest.raises(ValueError) as info:
        fileio.read_tensor(p)
    assert str(info.value) == f"{p}:3: index ({big},1,1) out of range (2, 2, 2)"


AGREEMENT_DIMS = [(9, 10, 99), (100, 9, 10), (1000, 2, 3), (1, 1, 1)]


def record_lines(dims, form):
    """Lines for up to 40 distinct random cells of dims, in random order,
    each written by form(i, j, k, v) from its decimal tokens."""
    rng = np.random.default_rng(sum(dims))
    cells = rng.choice(math.prod(dims), size=min(40, math.prod(dims)), replace=False)
    idx = np.column_stack(np.unravel_index(cells, dims)) + 1
    return [form(*map(str, row), str(rng.integers(2)), dims) for row in idx]


VALID_FORMS = {
    "canonical": lambda i, j, k, v, dims: f"{i} {j} {k} {v}\n",
    "padded to the dim's width": lambda i, j, k, v, dims: " ".join(
        t.zfill(len(str(p))) for t, p in zip((i, j, k), dims)) + f" {v}\n",
    "one leading zero": lambda i, j, k, v, dims: f"0{i} 0{j} 0{k} {v}\n",
    "crlf": lambda i, j, k, v, dims: f"{i} {j} {k} {v}\r\n",
    "tabs": lambda i, j, k, v, dims: f"{i}\t{j}\t{k}\t{v}\n",
    "blank lines": lambda i, j, k, v, dims: f"\n{i} {j} {k} {v}\n  \n",
    "python tokens": lambda i, j, k, v, dims: (
        f"+{i} {j} {k} " + ("1.0", "-0.0")[v == "0"] + "\n" if int(i) % 2
        else f"{i} {j} {k} " + ("0_1", "0.0")[v == "0"] + "\n"),
}


@pytest.mark.parametrize("read_size", [None, 7])
def test_read_tensor_agrees_with_the_walker(tmp_path, monkeypatch, read_size):
    # every valid file reads as the line walk reads it, whether the byte
    # parse takes it or passes it on; 7-byte reads make records straddle
    # every chunk boundary
    if read_size:
        monkeypatch.setattr(fileio, "_READ", read_size)
    p = tmp_path / "t.txt"
    for dims in AGREEMENT_DIMS:
        for form in VALID_FORMS.values():
            text = "dims {} {} {}\n".format(*dims) + "".join(record_lines(dims, form))
            for body in (text, text.rstrip("\n"), text.replace("\n", "\r")):
                p.write_text(body, newline="")
                want = fileio._walk_records(p, dims)
                got = fileio.read_tensor(p)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_written_tensor_files_never_reach_the_walker(tmp_path, monkeypatch):
    def walked(path, dims):
        raise AssertionError(f"{path} was read line by line")

    monkeypatch.setattr(fileio, "_walk_records", walked)
    rng = np.random.default_rng(7)
    p = tmp_path / "t.txt"
    # the last shape's file spans several read chunks
    for dims in AGREEMENT_DIMS + [(70000, 2, 1)]:
        mask = rng.random(dims) < 0.7
        mask.flat[0] = True
        values = rng.random(dims) < 0.5
        fileio.write_tensor(p, values, mask)
        got_values, got_mask = fileio.read_tensor(p)
        assert np.array_equal(got_mask, mask) and np.array_equal(got_values, values & mask)
    text = p.read_text()
    for body in (text.rstrip("\n"), text.replace("\n", "\r\n"), text.replace(" ", "\t")):
        p.write_text(body, newline="")
        got_values, got_mask = fileio.read_tensor(p)
        assert np.array_equal(got_mask, mask) and np.array_equal(got_values, values & mask)


# ------------------------------------------------------------ model files


def test_model_round_trip_is_lossless(tmp_path):
    m = small_model()
    path = tmp_path / "m.txt"
    meta = {"kind": "fit", "note": "two words kept verbatim", "empty": ""}
    fileio.write_model(path, m, meta)
    got, got_meta = fileio.read_model(path)
    assert got.mu == m.mu
    assert np.array_equal(got.d, m.d)
    for a, b in ((got.U, m.U), (got.V, m.V), (got.W, m.W)):
        assert np.array_equal(a, b)
    assert list(got_meta.items()) == list(meta.items())


def test_model_write_read_write_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    fileio.write_model(a, small_model(), {"seed": "7"})
    got, meta = fileio.read_model(a)
    fileio.write_model(b, got, meta)
    assert a.read_bytes() == b.read_bytes()


def special_model():
    # each factor column is unit-norm: the squares of the tiny entries underflow
    col = np.array([1.0, -0.0, 5e-324, 1e-300])
    f = np.column_stack([col, np.roll(col, 1)])
    return LogitModel(1e300, [1.0, 5e-324], f, f, f)


def per_value(rows):
    return [",".join(repr(float(v)) for v in row) for row in rows]


def test_model_and_slice_files_write_each_value_as_its_repr(tmp_path):
    m = special_model()
    path = tmp_path / "m.model"
    fileio.write_model(path, m)
    want = [fileio.MODEL_MAGIC, "dims 4 4 4", "rank 2", f"mu {float(m.mu)!r}",
            "d " + " ".join(repr(float(v)) for v in m.d)]
    for name, mat in (("U", m.U), ("V", m.V), ("W", m.W)):
        want += [name, *(line.replace(",", " ") for line in per_value(mat))]
    text = path.read_text()
    assert text == "\n".join(want) + "\n"
    assert {"-0.0", "5e-324", "1e-300", "1e+300"} <= set(text.split())
    assert run_cli("report", "--model", path, "--out", tmp_path / "rep") == 0
    for r in range(m.rank):
        sl = m.d[r] * np.outer(m.U[:, r], m.W[:, r])
        rows = (tmp_path / f"rep.component{r + 1}.csv").read_text().splitlines()
        assert rows == per_value(sl / 1.0)  # the largest slice entry is 1
    assert {"-0.0", "5e-324", "1e-300"} <= set(
        (tmp_path / "rep.component1.csv").read_text().replace("\n", ",").split(",")
    )


def test_read_model_error_paths(tmp_path):
    m = small_model()
    good = tmp_path / "good.txt"
    fileio.write_model(good, m)
    lines = good.read_text().splitlines()

    def written(mutated):
        p = tmp_path / "bad.txt"
        p.write_text("\n".join(mutated) + "\n")
        return p

    with pytest.raises(ValueError, match="not a model file"):
        fileio.read_model(written(["bogus"] + lines[1:]))
    with pytest.raises(ValueError, match="expected 2 weights"):
        fileio.read_model(written(lines[:4] + ["d 1.5"] + lines[5:]))
    with pytest.raises(ValueError, match="truncated factor section"):
        fileio.read_model(written(lines[:-1]))  # drop the last W row
    with pytest.raises(ValueError, match="expected 'U'"):
        fileio.read_model(written(lines[:5] + lines[6:]))  # drop the U label
    bad_row = lines.copy()
    bad_row[6] = "0.5"  # first U row loses a column
    with pytest.raises(ValueError, match="row has 1 entries"):
        fileio.read_model(written(bad_row))
    with pytest.raises(ValueError, match="unexpected trailing line"):
        fileio.read_model(written(lines + ["junk trailing line"]))
    p = tmp_path / "bytes.txt"
    p.write_bytes(good.read_bytes() + b"meta note \xff\n")
    with pytest.raises(ValueError) as info:
        fileio.read_model(p)
    assert str(info.value).startswith(f"{p}: 'utf-8' codec can't decode byte 0xff")
    # meta that read_model could not read back is refused before writing
    for meta, message in (
        ({"two words": "v"}, "single token"),
        ({"tab\tkey": "v"}, "single token"),
        ({"": "v"}, "single token"),
        ({"note": "two\nlines"}, "single line"),
        ({"note": "ends\r"}, "single line"),
        ({"note": "page\x0cbreak"}, "single line"),
    ):
        with pytest.raises(ValueError, match=message):
            fileio.write_model(tmp_path / "x.txt", m, meta)
    assert not (tmp_path / "x.txt").exists()

    # a malformed header or factor line names the path and the line
    cases = [
        (1, "dims 4 3", ":2: bad dims line 'dims 4 3'"),
        (1, "dims 4 x 2", ":2: bad dims line 'dims 4 x 2'"),
        (1, "dims 4 0 2", ":2: dims must be positive, got (4, 0, 2)"),
        (2, "rank ", ":3: bad rank line 'rank '"),
        (2, "rank two", ":3: bad rank line 'rank two'"),
        (3, "mu ", ":4: bad mu line 'mu '"),
        (3, "mu 0.1 0.2", ":4: bad mu line 'mu 0.1 0.2'"),
        (4, "d 1.5 x", ":5: bad d line 'd 1.5 x'"),
        (4, "dx 2.5 0.3", ": expected 'd ' at line 5"),
        (6, "0.5 y", ":7: bad factor U row '0.5 y'"),
    ]
    for index, text, message in cases:
        bad = lines.copy()
        bad[index] = text
        path = written(bad)
        with pytest.raises(ValueError) as info:
            fileio.read_model(path)
        assert str(info.value) == f"{path}{message}"


def test_atomic_write_overwrites_in_place(tmp_path):
    p = tmp_path / "out.txt"
    fileio.atomic_write_text(p, "first\n")
    fileio.atomic_write_text(p, "second\n")
    assert p.read_text() == "second\n"
    assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_streams_chunks_or_leaves_the_old_file(tmp_path):
    p = tmp_path / "out.txt"
    fileio.atomic_write_text(p, (line for line in ("third\n", "fourth\n")))
    assert p.read_text() == "third\nfourth\n"

    def chunks():
        yield "partial\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        fileio.atomic_write_text(p, chunks())
    assert p.read_text() == "third\nfourth\n"
    assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_gives_the_mode_open_would(tmp_path):
    made, opened = tmp_path / "made.txt", tmp_path / "opened.txt"
    for umask in (0o022, 0o077, 0o002):
        old = os.umask(umask)
        try:
            made.unlink(missing_ok=True)
            opened.unlink(missing_ok=True)
            fileio.atomic_write_text(made, "x\n")
            with open(opened, "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(made.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode)
        assert stat.S_IMODE(made.stat().st_mode) == 0o666 & ~umask


# -------------------------------------------------------------------- CLI


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def sim_file(tmp_path):
    out = tmp_path / "sim.txt"
    rc = run_cli(
        "simulate", "--dims", "15,8,6", "--rank", "1", "--snr", "4",
        "--baseline-weight", "3.0", "--seed", "1", "--out", out,
    )
    assert rc == 0
    return out


def test_cli_simulate_writes_data_and_truth(sim_file, capsys):
    x = fileio.read_binary_tensor(sim_file)
    assert x.dims == (15, 8, 6) and x.fully_observed
    truth, meta = fileio.read_model(str(sim_file) + ".truth")
    assert truth.rank == 1
    assert meta["kind"] == "ground-truth"
    assert meta["baseline_weight"] == repr(3.0)
    assert float(truth.d[0]) == pytest.approx(4.0 * 3.0, abs=1e-12)


def test_cli_simulate_same_seed_same_bytes(tmp_path):
    args = ["simulate", "--scenario", "I", "--scale", "0.02", "--snr", "3",
            "--baseline-weight", "2.0", "--seed", "5"]
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.truth").read_bytes() == (tmp_path / "b.txt.truth").read_bytes()
    assert run_cli(*args[:-1], "6", "--out", c) == 0  # different seed
    assert a.read_bytes() != c.read_bytes()


def test_cli_simulate_usage_errors(tmp_path, capsys):
    rc = run_cli("simulate", "--dims", "4,3,2", "--out", tmp_path / "x.txt")
    assert rc == 2
    assert "needs --scenario or all of" in capsys.readouterr().err
    rc = run_cli("simulate", "--dims", "4,3,2", "--rank", "1", "--snr", "0",
                 "--baseline-weight", "1.0", "--out", tmp_path / "x.txt")
    assert rc == 2  # snr must be positive


@pytest.mark.parametrize("flag,value", [("--snr", "inf"), ("--snr", "nan"), ("--mu", "inf"),
                                        ("--mu", "nan"), ("--baseline-weight", "inf"),
                                        ("--baseline-weight", "nan")])
def test_cli_simulate_refuses_non_finite_values(tmp_path, capsys, flag, value):
    given = {"--snr": "3", "--mu": "0", "--baseline-weight": "2.0", flag: value}
    out = tmp_path / "d"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli("simulate", "--dims", "6,5,4", "--rank", "1", "--seed", "0",
                     *itertools.chain(*given.items()), "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    name = {"--snr": "snr values", "--mu": "mu", "--baseline-weight": "baseline weight"}[flag]
    assert err.startswith(f"error: {name} must be finite") and value in err
    assert list(tmp_path.iterdir()) == []


def test_cli_simulate_names_a_calibration_config_error(tmp_path, capsys):
    # rank 11 is above the 10 starts the noise baseline fits from: a usage
    # error, found before any replicate is fitted
    out = tmp_path / "d"
    rc = run_cli("simulate", "--dims", "12,6,5", "--rank", "11", "--snr", ",".join(["3"] * 11),
                 "--seed", "0", "--baseline-reps", "3", "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == "error: n_starts=10 must be at least rank=11\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [("--scenario", "I", "--scale", "0.05", "--rank", "2"),
     ("--scenario", "I", "--dims", "3,3,3"),
     ("--scenario", "I", "--scale", "0.05", "--rank", "2", "--dims", "3,3,3"),
     ("--dims", "6,5,4", "--rank", "1", "--snr", "3", "--scale", "0.5")],
    ids=["scenario-rank", "scenario-dims", "scenario-rank-dims", "scale-without-scenario"],
)
def test_cli_simulate_refuses_flags_it_would_ignore(tmp_path, capsys, flags):
    out = tmp_path / "d"
    assert run_cli("simulate", *flags, "--baseline-weight", "2.0", "--out", out) == 2
    err = capsys.readouterr().err
    if "--scenario" in flags:
        given = ", ".join(f for f in ("--dims", "--rank") if f in flags)
        assert err == f"error: {given} cannot be combined with --scenario\n"
    else:
        assert err == "error: --scale only applies to --scenario\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale,p1", [((), 1000), (("--scale", "0.05"), 50)])
def test_cli_simulate_scenario_takes_snr_and_scale(tmp_path, scale, p1):
    out = tmp_path / "d"
    assert run_cli("simulate", "--scenario", "I", *scale, "--snr", "3",
                   "--baseline-weight", "2.0", "--out", out) == 0
    truth, meta = fileio.read_model(str(out) + ".truth")
    assert truth.dims == (p1, 10, 10) and truth.rank == 1
    assert meta["snr"] == repr(3.0)


# dims of 10^6 per mode ask for 1e18 bytes: more than any address space
# maps, so the allocation fails at once on every host
HUGE_DIMS = "dims 1000000 1000000 1000000\n1 1 1 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("fit", "--data", "{sim}", "--rank", "1", "--method", "ttp", "--s-ratio", "inf"),
        ("select", "--data", "{sim}", "--ranks", "1", "--method", "ttp", "--ratios", "inf"),
        ("simulate", "--scenario", "I", "--scale", "inf"),
        ("simulate", "--scenario", "I", "--scale", "-1"),
        ("fit", "--data", "{huge}", "--rank", "1"),
        ("select", "--data", "{huge}", "--ranks", "1"),
        ("complete", "--data", "{huge}", "--rank", "1"),
    ],
    ids=["fit-s-ratio-inf", "select-ratios-inf", "scale-inf", "scale-negative",
         "fit-huge-dims", "select-huge-dims", "complete-huge-dims"],
)
def test_cli_rejects_unusable_values_with_exit_2(argv, sim_file, tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text(HUGE_DIMS)
    assert run_cli(*(a.format(sim=sim_file, huge=huge) for a in argv),
                   "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if "{huge}" in argv:
        assert f"{huge}: dims (1000000, 1000000, 1000000) too large" in err
    assert not (tmp_path / "out").exists()


def test_cli_select_marks_a_non_finite_ratio_failed(sim_file, tmp_path):
    out = tmp_path / "scores.csv"
    assert run_cli("select", "--data", sim_file, "--ranks", "1", "--method", "ttp",
                   "--ratios", "0.5,inf", "--starts", "4", "--seed", "0", "--out", out) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[1], r[5], r[7]) for r in rows if r[1] == "inf"] == [
        ("inf", "0", "failed: l0 ratio inf is not finite")
    ]


def test_cli_select_csv_quotes_a_note_with_a_comma(sim_file, tmp_path):
    # at ratio 0.05 the l0 cardinality of the 15-row mode is 0, so that fit
    # fails with a note that holds a comma
    out = tmp_path / "scores.csv"
    assert run_cli("select", "--data", sim_file, "--ranks", "1", "--method", "ttp",
                   "--ratios", "0.05,0.5", "--criterion", "aic", "--starts", "4",
                   "--seed", "0", "--out", out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == "rank,ratio,score,df,neg_loglik,valid,chosen,note".split(",")
    assert all(len(r) == 8 for r in rows)
    notes = {r[1]: r[7] for r in rows[1:]}
    assert notes["0.05"] == "failed: l0 cardinality 0 outside [1, 15] for mode of size 15"
    assert notes["0.5"] == ""
    # a note without a comma, quote or line break is written bare
    assert out.read_text().count('"') == 2


@pytest.mark.parametrize(
    "flags,cause",
    [(("--ranks", "5", "--starts", "4"), "failed: n_starts=4 must be at least rank=5"),
     (("--ranks", "1", "--method", "tsp", "--ratios", "0.01"),
      "failed: l1 budget 0.03872983346207417 outside [1, sqrt(15)] for mode of size 15")],
    ids=["starts-below-rank", "l1-budget-below-1"],
)
def test_cli_select_names_the_cause_when_every_cell_fails(sim_file, tmp_path, capsys, flags,
                                                          cause):
    out = tmp_path / "scores.csv"
    assert run_cli("select", "--data", sim_file, *flags, "--out", out) == 2
    assert capsys.readouterr().err == f"error: no valid grid cells to choose from ({cause})\n"
    assert not out.exists()


def test_cli_fit_converged_run_and_outputs(sim_file, tmp_path, capsys):
    out = tmp_path / "fit.model"
    rc = run_cli("fit", "--data", sim_file, "--rank", "1", "--method", "tp",
                 "--max-outer", "200", "--seed", "0", "--out", out)
    assert rc == 0
    assert "converged" in capsys.readouterr().out
    model, meta = fileio.read_model(out)
    assert model.dims == (15, 8, 6) and model.rank == 1
    assert meta["kind"] == "fit" and meta["converged"] == "true"
    report = (tmp_path / "fit.model.report.txt").read_text()
    assert "neg log-likelihood:" in report and "AIC:" in report
    assert "component  weight" in report
    # the criteria are derived from the one scored likelihood, as selection's
    x = fileio.read_binary_tensor(sim_file)
    assert f"AIC: {selection.aic(x, model):.6f}\n" in report
    assert f"BIC: {selection.bic(x, model):.6f}\n" in report


def test_cli_fit_same_seed_is_bit_identical(sim_file, tmp_path):
    outs = []
    for name in ("f1.model", "f2.model"):
        out = tmp_path / name
        rc = run_cli("fit", "--data", sim_file, "--rank", "1", "--method", "ttp",
                     "--s-ratio", "0.4", "--max-outer", "200", "--seed", "3",
                     "--out", out)
        assert rc in (0, 3)
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "f1.model.report.txt").read_bytes() == (
        tmp_path / "f2.model.report.txt"
    ).read_bytes()


def test_cli_fit_nonconvergence_still_writes_output(sim_file, tmp_path, capsys):
    out = tmp_path / "fit1.model"
    rc = run_cli("fit", "--data", sim_file, "--rank", "1", "--method", "tp",
                 "--max-outer", "1", "--seed", "0", "--out", out)
    assert rc == 3
    assert "NOT converged" in capsys.readouterr().out
    model, meta = fileio.read_model(out)
    assert meta["converged"] == "false"


def test_cli_fit_flag_validation(sim_file, tmp_path, capsys):
    out = tmp_path / "x.model"
    assert run_cli("fit", "--data", sim_file, "--rank", "1", "--method", "tp",
                   "--c-ratio", "0.5", "--out", out) == 2
    assert "--c-ratio only applies" in capsys.readouterr().err
    assert run_cli("fit", "--data", sim_file, "--rank", "1", "--method", "tsp",
                   "--out", out) == 2
    assert "needs --c-ratio" in capsys.readouterr().err
    assert run_cli("fit", "--data", sim_file, "--rank", "1", "--method", "ttp",
                   "--out", out) == 2
    assert run_cli("fit", "--data", sim_file, "--rank", "1", "--method", "als",
                   "--symmetric-uv", "--out", out) == 2
    assert run_cli("fit", "--data", tmp_path / "absent.txt", "--rank", "1",
                   "--out", out) == 2


@pytest.mark.parametrize("command", ["fit", "complete", "select"])
def test_cli_als_refuses_starts(masked_file, tmp_path, capsys, command):
    # ALS fits from one start, so a pool size is a usage error, not ignored
    out = tmp_path / "out"
    rank = ["--ranks", "1,2"] if command == "select" else ["--rank", "2"]
    rc = run_cli(command, "--data", masked_file, *rank, "--method", "als", "--starts", "1",
                 "--out", out)
    assert rc == 2
    assert capsys.readouterr().err == "error: --starts is only available for tp/tsp/ttp\n"
    assert not out.exists()


def test_cli_als_model_echoes_no_pool_settings(sim_file, tmp_path):
    out = tmp_path / "als.model"
    assert run_cli("fit", "--data", sim_file, "--rank", "2", "--method", "als",
                   "--seed", "0", "--out", out) in (0, 3)
    _, meta = fileio.read_model(out)
    assert meta["n_starts_used"] == "1"
    assert meta["config"] == ("method=als rank=2 penalty=none init=spectral "
                              "symmetric_uv=False max_outer_iters=50 seed=0")


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("method", ["als", "tp", "tsp", "ttp"])
def test_cli_fit_refuses_constant_data_and_writes_nothing(tmp_path, capsys, method, value,
                                                          masked):
    data = tmp_path / "const.txt"
    mask = np.ones((6, 5, 4), dtype=bool)
    mask[0, 0, :] = not masked
    fileio.write_tensor(data, np.full(mask.shape, float(value)), mask)
    ratio = {"tsp": ("--c-ratio", "0.5"), "ttp": ("--s-ratio", "0.5")}.get(method, ())
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", data, "--rank", "1", "--method", method, *ratio,
                   "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: every observed cell is {value}; "
                            "constant data have no finite fit\n")
    assert [f.name for f in tmp_path.iterdir()] == ["const.txt"]


@pytest.mark.parametrize(
    "flags,message",
    [(("--folds", "3"), "--folds only applies to --criterion cv"),
     (("--criterion", "deviance", "--folds", "3"), "--folds only applies to --criterion cv"),
     (("--method", "tp", "--ratios", "0.5,0.9"), "method 'tp' takes no grid.ratios"),
     (("--method", "als", "--ratios", "0.5"), "method 'als' takes no grid.ratios")],
    ids=["folds-with-bic", "folds-with-deviance", "ratios-with-tp", "ratios-with-als"],
)
def test_cli_select_refuses_flags_it_would_ignore(sim_file, tmp_path, capsys, flags, message):
    out = tmp_path / "scores.csv"
    assert run_cli("select", "--data", sim_file, "--ranks", "1", *flags, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_select_writes_score_table(sim_file, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    rc = run_cli("select", "--data", sim_file, "--ranks", "1,2",
                 "--criterion", "aic", "--starts", "4", "--seed", "0",
                 "--out", out)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "chosen rank=" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,ratio,score,df,neg_loglik,valid,chosen,note"
    assert len(lines) == 3
    assert sum(line.split(",")[6] == "1" for line in lines[1:]) == 1


def test_cli_select_with_ratios_two_stage(sim_file, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    rc = run_cli("select", "--data", sim_file, "--ranks", "1,2",
                 "--ratios", "0.4,1.0", "--method", "ttp", "--criterion", "aic",
                 "--starts", "4", "--seed", "0", "--out", out)
    assert rc == 0
    assert "ratio=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # stage 1 leftover + two stage-2 rows


def test_cli_select_deviance_notes_are_plain_floats(sim_file, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    rc = run_cli("select", "--data", sim_file, "--ranks", "1,2",
                 "--criterion", "deviance", "--starts", "4", "--seed", "0",
                 "--out", out)
    assert rc == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    notes = [row[7] for row in rows if row[5] == "1"]
    assert notes
    for note in notes:
        key, value = note.split("=")
        assert key == "marginal"
        float(value)  # a bare number, not a numpy repr


def test_cli_complete_with_model_and_holdout(sim_file, tmp_path, capsys):
    x = fileio.read_binary_tensor(sim_file)
    kept, heldout = simulate.drop_uniform(x, 0.15, seed=2)
    data = tmp_path / "masked.txt"
    hold = tmp_path / "heldout.txt"
    fileio.write_binary_tensor(data, kept)
    fileio.write_binary_tensor(hold, heldout)

    modelfile = tmp_path / "m.model"
    rc = run_cli("fit", "--data", data, "--rank", "1", "--method", "tp",
                 "--max-outer", "200", "--seed", "0", "--out", modelfile)
    assert rc == 0
    capsys.readouterr()

    out = tmp_path / "pred.csv"
    rc = run_cli("complete", "--data", data, "--model", modelfile,
                 "--holdout", hold, "--out", out)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "held-out AUC:" in printed
    assert "held-out neg log-likelihood:" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,k,prob,label"
    assert len(lines) - 1 == heldout.n_observed
    for line in lines[1:3]:
        i, j, k, prob, label = line.split(",")
        assert not kept.mask[int(i) - 1, int(j) - 1, int(k) - 1]
        assert 0.0 <= float(prob) <= 1.0 and label in ("0", "1")
    probs = fileio.read_model(modelfile)[0].probs()
    assert out.read_bytes() == predictions_per_cell(kept.mask, probs)

    # a model whose probabilities reach both ends of [0, 1], plus 0.5 and
    # about 1e-05, on the unobserved fiber (:, 1, 1)
    mask = kept.mask.copy()
    mask[:, 0, 0] = False
    data2 = tmp_path / "masked2.txt"
    fileio.write_binary_tensor(data2, BinaryTensor(kept.values, mask))
    t = np.zeros(kept.dims[0])
    t[:4] = [-700.0, 40.0, math.log(1e-5 / (1 - 1e-5)), -800.0]
    model = LogitModel(0.0, [np.linalg.norm(t)], (t / np.linalg.norm(t))[:, None],
                       *(np.eye(p, 1) for p in kept.dims[1:]))
    fileio.write_model(tmp_path / "edge.model", model)
    rc = run_cli("complete", "--data", data2, "--model", tmp_path / "edge.model", "--out", out)
    assert rc == 0
    probs = fileio.read_model(tmp_path / "edge.model")[0].probs()
    edge = probs[:5, 0, 0]
    assert 0.0 < edge[0] < 1e-300 and edge[1] == 1.0 and edge[3] == 0.0 and edge[4] == 0.5
    assert edge[2] == pytest.approx(1e-05, rel=1e-12)
    assert out.read_bytes() == predictions_per_cell(mask, probs)


def predictions_per_cell(mask, probs):
    """The predictions CSV written one unobserved cell at a time, first
    index fastest."""
    lines = ["i,j,k,prob,label"]
    for k in range(mask.shape[2]):
        for j in range(mask.shape[1]):
            for i in range(mask.shape[0]):
                if not mask[i, j, k]:
                    p = float(probs[i, j, k])
                    lines.append(f"{i + 1},{j + 1},{k + 1},{p!r},{int(p >= 0.5)}")
    return ("\n".join(lines) + "\n").encode()


def test_cli_complete_fit_flags_path(sim_file, tmp_path, capsys):
    x = fileio.read_binary_tensor(sim_file)
    kept, _ = simulate.drop_uniform(x, 0.1, seed=3)
    data = tmp_path / "masked.txt"
    fileio.write_binary_tensor(data, kept)
    out = tmp_path / "pred.csv"
    rc = run_cli("complete", "--data", data, "--rank", "1", "--method", "als",
                 "--seed", "0", "--out", out)
    assert rc in (0, 3)
    assert out.exists()


def test_cli_complete_usage_errors(sim_file, tmp_path, capsys):
    out = tmp_path / "pred.csv"
    assert run_cli("complete", "--data", sim_file, "--rank", "1", "--out", out) == 2
    assert "no missing cells" in capsys.readouterr().err
    x = fileio.read_binary_tensor(sim_file)
    kept, _ = simulate.drop_uniform(x, 0.1, seed=3)
    data = tmp_path / "masked.txt"
    fileio.write_binary_tensor(data, kept)
    assert run_cli("complete", "--data", data, "--out", out) == 2
    assert "--model or fit flags" in capsys.readouterr().err
    other = tmp_path / "other.model"
    fileio.write_model(other, small_model())
    assert run_cli("complete", "--data", data, "--model", other, "--out", out) == 2
    assert "do not match" in capsys.readouterr().err


@pytest.fixture()
def masked_file(sim_file, tmp_path):
    kept, _ = simulate.drop_uniform(fileio.read_binary_tensor(sim_file), 0.1, seed=3)
    data = tmp_path / "masked.txt"
    fileio.write_binary_tensor(data, kept)
    return data


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5", "1.5"])
def test_cli_complete_rejects_bad_threshold(masked_file, tmp_path, capsys, threshold):
    model = tmp_path / "m.model"
    assert run_cli("fit", "--data", masked_file, "--rank", "1", "--out", model) in (0, 3)
    capsys.readouterr()
    out = tmp_path / "pred.csv"
    rc = run_cli("complete", "--data", masked_file, "--model", model,
                 "--threshold", threshold, "--out", out)
    assert rc == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["threshold", "holdout"])
def test_cli_complete_checks_threshold_and_holdout_before_fitting(masked_file, tmp_path,
                                                                  capsys, monkeypatch, bad):
    def no_fit(*args, **kwargs):
        raise AssertionError("complete fitted before checking its flags")

    monkeypatch.setattr(decomp, "fit", no_fit)
    hold = tmp_path / "hold.txt"
    x = fileio.read_binary_tensor(masked_file)
    dims = (x.dims[0] + 1, *x.dims[1:]) if bad == "holdout" else x.dims
    fileio.write_tensor(hold, np.ones(dims, dtype=bool))
    threshold = "1.5" if bad == "threshold" else "0.5"
    out = tmp_path / "pred.csv"
    rc = run_cli("complete", "--data", masked_file, "--rank", "1", "--threshold", threshold,
                 "--holdout", hold, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"error: holdout dims {dims} do not match data dims {x.dims}\n"
                   if bad == "holdout" else
                   "error: threshold must be a finite number in [0, 1], got 1.5\n")
    assert not out.exists()


def test_cli_refuses_a_record_that_is_not_binary(masked_file, tmp_path, capsys):
    data = tmp_path / "two.txt"
    data.write_text(masked_file.read_text() + "15 8 6 2\n")
    line = len(data.read_text().splitlines())
    assert run_cli("fit", "--data", data, "--rank", "1", "--out", tmp_path / "m") == 2
    assert capsys.readouterr().err == f"error: {data}:{line}: value '2' is not 0 or 1\n"
    assert not (tmp_path / "m").exists()


def test_cli_names_a_data_file_that_is_not_text(masked_file, tmp_path, capsys):
    data = tmp_path / "bytes.txt"
    data.write_bytes(masked_file.read_bytes() + b"15 8 \xff 1\n")
    line = len(data.read_bytes().splitlines())
    assert run_cli("fit", "--data", data, "--rank", "1", "--out", tmp_path / "m") == 2
    assert capsys.readouterr().err == (
        f"error: {data}:{line}: not UTF-8 text: b'15 8 \\xff 1\\n'\n"
    )
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "flags",
    [["--rank", "1"], ["--c-ratio", "0.5"], ["--s-ratio", "0.2"], ["--starts", "3"],
     ["--symmetric-uv"], ["--rank", "2", "--starts", "3"], ["--method", "tp"],
     ["--init", "spectral"], ["--max-outer", "50"], ["--seed", "0"],
     ["--method", "als", "--init", "random", "--max-outer", "3", "--seed", "9"]],
)
def test_cli_complete_rejects_fit_flags_with_model(masked_file, tmp_path, capsys, flags):
    model = tmp_path / "m.model"
    fileio.write_model(model, small_model())
    out = tmp_path / "pred.csv"
    rc = run_cli("complete", "--data", masked_file, "--model", model, *flags, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot be combined with --model" in err
    assert all(f in err for f in flags if f.startswith("--"))
    assert not out.exists()


def test_cli_fit_flags_left_out_take_the_defaults(masked_file, tmp_path, capsys):
    bare, spelled = tmp_path / "bare.model", tmp_path / "spelled.model"
    assert run_cli("fit", "--data", masked_file, "--rank", "1", "--out", bare) in (0, 3)
    rc = run_cli("fit", "--data", masked_file, "--rank", "1", "--method", "tp",
                 "--init", "spectral", "--max-outer", "50", "--seed", "0", "--out", spelled)
    assert rc in (0, 3)
    assert bare.read_bytes() == spelled.read_bytes()
    meta = fileio.read_model(bare)[1]
    assert meta["method"] == "tp"
    for echo in ("init=spectral", "max_outer_iters=50", "seed=0"):
        assert echo in meta["config"].split()
    # complete fits with the same defaults when no --model is given
    out = tmp_path / "pred.csv"
    assert run_cli("complete", "--data", masked_file, "--rank", "1", "--out", out) in (0, 3)
    probs = fileio.read_model(bare)[0].probs()
    first = out.read_text().splitlines()[1].split(",")
    i, j, k = (int(v) - 1 for v in first[:3])
    assert float(first[3]) == float(probs[i, j, k])


def test_cli_report_with_truth(sim_file, tmp_path, capsys):
    modelfile = tmp_path / "m.model"
    rc = run_cli("fit", "--data", sim_file, "--rank", "1", "--method", "tp",
                 "--max-outer", "200", "--seed", "0", "--out", modelfile)
    assert rc == 0
    capsys.readouterr()
    out = tmp_path / "rep"
    rc = run_cli("report", "--model", modelfile,
                 "--truth", str(sim_file) + ".truth", "--out", out)
    assert rc == 0
    text = (tmp_path / "rep.txt").read_text()
    assert "logistic CP model report" in text
    assert "rmse vs truth:" in text
    assert "support TPR:" in text
    slice1 = tmp_path / "rep.component1.csv"
    rows = slice1.read_text().splitlines()
    assert len(rows) == 15 and len(rows[0].split(",")) == 6
    # slices are scaled to unit max magnitude
    vals = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.abs(vals).max() == pytest.approx(1.0, abs=1e-12)
    assert run_cli("report", "--model", tmp_path / "nope.model", "--out", out) == 2


@pytest.mark.parametrize("line, text", [(2, "rank "), (3, "mu "), (1, "dims 4 3 two")])
def test_cli_report_rejects_malformed_model_header(tmp_path, capsys, line, text):
    good = tmp_path / "good.model"
    fileio.write_model(good, small_model())
    lines = good.read_text().splitlines()
    lines[line] = text
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("report", "--model", bad, "--out", tmp_path / "rep") == 2
    assert f"error: {bad}:{line + 1}: bad {text.split()[0]} line" in capsys.readouterr().err
    assert not (tmp_path / "rep.txt").exists()


@pytest.mark.parametrize(
    "line, token",
    [(3, "mu nan"), (4, "d inf 0.3333333333333333"), (6, "nan -0.2161482816740278")],
)
def test_cli_report_rejects_non_finite_model(tmp_path, capsys, line, token):
    good = tmp_path / "good.model"
    fileio.write_model(good, small_model())
    lines = good.read_text().splitlines()
    lines[line] = token
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("report", "--model", bad, "--out", tmp_path / "rep") == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "rep.txt").exists()
