"""Text file formats and the command line interface."""

import re
import warnings

import numpy as np
import pytest

from logitcp import cli, fileio, simulate
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
    vals = rng.standard_normal((4, 3, 2))
    mask = rng.random((4, 3, 2)) < 0.7
    path = tmp_path / "t.txt"
    fileio.write_tensor(path, vals, mask, binary=False)
    got_vals, got_mask = fileio.read_tensor(path)
    assert np.array_equal(got_mask, mask)
    assert np.array_equal(got_vals[mask], vals[mask])
    assert np.all(got_vals[~mask] == 0.0)


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
    with pytest.raises(ValueError, match="other than 0/1"):
        fileio.read_binary_tensor(written("dims 2 2 2\n1 1 1 0.5\n"))
    for token in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f":3: non-finite value '{token}'"):
            fileio.read_tensor(written(f"dims 1 1 2\n1 1 1 0.5\n1 1 2 {token}\n"))


def reference_tensor_text(values, mask, binary):
    """The tensor file format written one cell at a time."""
    p1, p2, p3 = values.shape
    lines = [f"dims {p1} {p2} {p3}"]
    for k in range(p3):
        for j in range(p2):
            for i in range(p1):
                if mask[i, j, k]:
                    v = values[i, j, k]
                    sv = str(int(v)) if binary else repr(float(v))
                    lines.append(f"{i + 1} {j + 1} {k + 1} {sv}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("binary", [True, False])
def test_write_tensor_matches_the_cell_loop(tmp_path, binary):
    rng = np.random.default_rng(5)
    # more records than one formatting chunk, with an irregular mask
    vals = rng.standard_normal((70, 50, 40)) * 10.0 ** rng.integers(-8, 8, (70, 50, 40))
    if binary:
        vals = np.round(vals * 3.0)  # integers of both signs, and -0.0
    mask = rng.random(vals.shape) < 0.7
    path = tmp_path / "t.txt"
    fileio.write_tensor(path, vals, mask, binary=binary)
    assert path.read_text() == reference_tensor_text(vals, mask, binary)
    got_vals, got_mask = fileio.read_tensor(path)
    assert np.array_equal(got_mask, mask)
    want = np.trunc(vals) if binary else vals
    assert np.array_equal(got_vals, np.where(mask, want, 0.0))


def test_tensor_round_trips_are_byte_identical(tmp_path):
    special = [0.0, -0.0, 1.0, 1e-300, 5e-324, -5e-324, 0.1, 1e16, 1e-5, -2.5e300]
    vals = np.array(special + [1.0 / 3.0, -7.0]).reshape((3, 2, 2), order="F")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    fileio.write_tensor(a, vals, binary=False)
    assert a.read_text().splitlines()[1:6] == [
        "1 1 1 0.0", "2 1 1 -0.0", "3 1 1 1.0", "1 2 1 1e-300", "2 2 1 5e-324"
    ]
    got, mask = fileio.read_tensor(a)
    assert mask.all() and np.array_equal(got, vals)
    assert np.array_equal(np.signbit(got), np.signbit(vals))
    fileio.write_tensor(b, got, mask, binary=False)
    assert a.read_bytes() == b.read_bytes()

    rng = np.random.default_rng(2)
    mask = rng.random((60, 40, 30)) < 0.8
    x = BinaryTensor(np.where(mask, rng.random(mask.shape) < 0.5, 0.0), mask)
    fileio.write_binary_tensor(a, x)
    fileio.write_binary_tensor(b, fileio.read_binary_tensor(a))
    assert a.read_bytes() == b.read_bytes()


def test_write_tensor_rejects_a_mask_of_another_shape(tmp_path):
    vals = np.zeros((3, 2, 2))
    for shape in ((4, 2, 2), (2, 2, 2), (3, 2)):
        with pytest.raises(ValueError, match=r"mask shape .* does not match tensor shape \(3, 2, 2\)"):
            fileio.write_tensor(tmp_path / "t.txt", vals, np.ones(shape, dtype=bool))
    assert list(tmp_path.iterdir()) == []


def test_failed_tensor_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("old\n")
    vals = np.ones((256, 256, 2))
    vals[-1, -1, -1] = np.nan  # the last record, past the first chunk of records
    with pytest.raises(ValueError, match="cannot convert float NaN to integer"):
        fileio.write_tensor(path, vals, binary=True)
    assert path.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["t.txt"]


def test_read_tensor_error_messages_name_path_and_line(tmp_path):
    p = tmp_path / "bad.txt"

    def error(text):
        p.write_bytes(text.encode())
        with pytest.raises(ValueError) as info:
            fileio.read_tensor(p)
        return str(info.value)

    head = "dims 2 2 2\n1 1 1 1\n"
    assert error(head + "1 1 1\n") == f"{p}:3: expected 'i j k v', got '1 1 1\\n'"
    assert error(head + "1 1 2 1 1\n") == f"{p}:3: expected 'i j k v', got '1 1 2 1 1\\n'"
    assert error(head + "1 x 2 1\n") == f"{p}:3: bad record '1 x 2 1\\n'"
    assert error(head + "1 1 2 1.0.0\n") == f"{p}:3: bad record '1 1 2 1.0.0\\n'"
    assert error(head + "1 1 2 nan\n") == f"{p}:3: non-finite value 'nan'"
    assert error(head + "1 1 2 1e999\n") == f"{p}:3: non-finite value '1e999'"
    assert error(head + "1 3 1 1\n") == f"{p}:3: index (1,3,1) out of range (2, 2, 2)"
    assert error(head + "0 1 1 1\n") == f"{p}:3: index (0,1,1) out of range (2, 2, 2)"
    assert error(head + "1 1 1 0\n") == f"{p}:3: duplicate record for cell (1,1,1)"
    # the first fault in file order wins, whatever its class
    lines = ["dims 3 3 3", "1 1 1 1", "2 1 1 0", "3 1 1 1", "2 1 1 1",
             "1 2 1 1", "2 2 1 1", "3 2 1 inf", "1 3 1 x", "4 1 1 1"]
    assert error("\n".join(lines) + "\n") == f"{p}:5: duplicate record for cell (2,1,1)"
    # blank lines and CRLF line ends count toward line numbers
    assert error("dims 2 2 2\r\n\r\n1 1 1 1\r\n   \r\n1 1 3 1\r\n") == (
        f"{p}:5: index (1,1,3) out of range (2, 2, 2)"
    )
    assert error("dims 2 2 2\n\n\n2 2 2 1\n\t\n2 2 2 0\n") == (
        f"{p}:6: duplicate record for cell (2,2,2)"
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
    p.write_text("dims 12 2 2\n+1 1 1 1_0\n1_0 1 1 1e0\n2 +2 2 +1\n3 1 1 -0.0\n")
    vals, mask = fileio.read_tensor(p)
    assert np.array_equal(np.argwhere(mask), [[0, 0, 0], [1, 1, 1], [2, 0, 0], [9, 0, 0]])
    assert vals[0, 0, 0] == 10.0 and vals[9, 0, 0] == 1.0 and vals[1, 1, 1] == 1.0
    assert vals[2, 0, 0] == 0.0 and np.signbit(vals[2, 0, 0])
    p.write_text("dims 2 2 2\n1e0 1 1 1\n")
    with pytest.raises(ValueError, match=r"^" + re.escape(f"{p}:2: bad record '1e0 1 1 1\\n'")):
        fileio.read_tensor(p)
    big = "99999999999999999999"
    p.write_text(f"dims 2 2 2\n1 1 1 1\n{big} 1 1 1\n")
    with pytest.raises(ValueError) as info:
        fileio.read_tensor(p)
    assert str(info.value) == f"{p}:3: index ({big},1,1) out of range (2, 2, 2)"


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
    # reference: every unobserved cell, first index fastest
    probs = fileio.read_model(modelfile)[0].probs()
    want = []
    for k in range(kept.dims[2]):
        for j in range(kept.dims[1]):
            for i in range(kept.dims[0]):
                if not kept.mask[i, j, k]:
                    p = float(probs[i, j, k])
                    want.append(f"{i + 1},{j + 1},{k + 1},{p!r},{int(p >= 0.5)}")
    assert lines[1:] == want


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
