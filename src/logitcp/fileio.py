"""Plain-text file formats: tensors, fitted models, predictions.

Tensor files carry binary observations, one record per observed cell:

    dims p1 p2 p3
    i j k v

with 1-based indices and v 0 or 1, written mode-1-fastest; an absent record
means the cell is unobserved. Model files are sectioned text holding the
offset, weights, factor matrices, and metadata lines; floats are written
with shortest round-trip precision so read(write(m)) is lossless and
write(read(f)) is byte-identical. All writers go through a temp file and
atomic rename.

Tensor files are formatted a block of cells at a time and parsed from
their bytes a chunk of whole lines at a time: one vectorised scan finds the
separators, each index is built from its digits, and the records are
scattered straight into bool arrays. That path takes only canonical records
(single spaces, a newline or CRLF, an index in at most as many digits as
its dim, v a single 0 or 1), as write_tensor writes them. A file with any
other line, or with a duplicate record, is read again line by line, which
either names its first bad line or, for tokens only Python's int() and
float() accept (tabs, blank lines, +1, 1.0, 0_1), reads it. On one core of
a 2-vCPU Xeon, a 300k-record file reads in about 22 ms (62 ms with numpy's
text parser before it).
"""

import math
import os
import tempfile

import numpy as np

from .likelihood import BinaryTensor, LogitModel

__all__ = [
    "atomic_write_text",
    "write_tensor",
    "read_tensor",
    "write_binary_tensor",
    "read_binary_tensor",
    "write_model",
    "read_model",
]

MODEL_MAGIC = "logitcp-model 1"


def atomic_write_text(path, text):
    """Write text to path via a temporary file and rename. `text` is a
    string or an iterable of string chunks, written in order; if the
    iterable raises, the temporary file is removed and path is untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    umask = os.umask(0)
    os.umask(umask)
    try:
        # mkstemp makes the file 0600; give it the mode open(path, "w") would
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# cells per formatted block, and bytes per parsed chunk, of a tensor file
_CHUNK = 1 << 16
_READ = 1 << 17


def _byte_rows(strings):
    """ASCII strings as a NUL-padded (n, width) uint8 matrix."""
    table = np.array(strings, dtype="S")
    return table.view(np.uint8).reshape(table.size, table.itemsize)


_BITS = _byte_rows(["0", "1"])


def _tensor_chunks(values, mask):
    """The text of a tensor file of bool values, one block of cells at a time:
    whole mode-3 slices, or mode-2 columns of one slice, of at most _CHUNK
    cells (or one column) each, in file order."""
    p1, p2, p3 = values.shape
    yield f"dims {p1} {p2} {p3}\n"
    tables = [_byte_rows([f"{n} " for n in range(1, p + 1)]) for p in values.shape]
    cols = max(1, _CHUNK // p1)
    slices = max(1, cols // p2)
    for k0 in range(0, p3, slices):
        for j0 in range(0, p2, cols):
            block = (slice(None), slice(j0, j0 + cols), slice(k0, k0 + slices))
            # transposing makes the C-order scan run with i fastest
            k, j, i = np.nonzero(mask[block].T)
            bits = values[block].T[k, j, i].view(np.uint8)
            newline = np.full((i.size, 1), ord("\n"), dtype=np.uint8)
            rows = np.hstack([tables[0][i], tables[1][j + j0], tables[2][k + k0],
                              _BITS[bits], newline])
            yield rows[rows != 0].tobytes().decode("ascii")


def write_tensor(path, values, mask=None):
    """Write binary observations as a tensor file; cells where mask is False
    are omitted. values and mask are checked as BinaryTensor checks them
    (observed values exactly 0 or 1, at least one observed cell) before any
    file is made."""
    x = BinaryTensor.dense(values) if mask is None else BinaryTensor(values, mask)
    atomic_write_text(path, _tensor_chunks(x.values, x.mask))


def _parse_chunk(chunk, dims):
    """The flat cell indices and bool values of a chunk of whole lines, or
    None unless every line is a canonical record: 'i j k v' and a newline,
    single spaces, each index in range and written in at most as many
    digits as its dim, v exactly 0 or 1."""
    a = np.frombuffer(chunk, dtype=np.uint8)
    d = a - ord("0")  # a digit's value; every other byte wraps to 10 or more
    digit = d < 10
    ends = np.flatnonzero(~digit)
    n = ends.size // 4
    # every non-digit is a separator: per record three spaces, then a newline
    if ends.size != 4 * n or np.count_nonzero(a == ord(" ")) != 3 * n:
        return None
    ends = ends.reshape(n, 4).T.copy()
    if not ((a.take(ends[3]) == ord("\n")).all() and (ends[3] - ends[2] == 2).all()):
        return None
    v = d.take(ends[3] - 1)
    if v.max() > 1:
        return None
    d *= digit  # separators read as 0
    # the separator before each record's first field; -1 reads the chunk's
    # final newline
    before = np.concatenate(([-1], ends[3, :-1]))
    flat = np.zeros(n, dtype=np.int64)
    for end, p, stride in zip(ends, dims, (dims[1] * dims[2], dims[2], 1)):
        width = len(str(p))
        if (end - before - 1).max() > width:
            return None  # more digits than the dim has
        # each field as `width` digits, the places before it read at its
        # separator: leading zeros (an empty field reads 0, out of range)
        idx = np.zeros(n, dtype=np.int64)
        for t in range(width, 0, -1):
            idx *= 10
            idx += d.take(np.maximum(end - t, before))
        idx -= 1
        if idx.min() < 0 or idx.max() >= p:
            return None
        flat += idx * stride
        before = end
    return flat, v.view(bool)


def _scatter_records(fh, dims, values, mask):
    """Parse the records after the header from the binary file fh, a chunk
    of whole lines at a time, and scatter them into the flat bool arrays.
    Returns False, leaving the arrays partly filled, on a line that is not
    a canonical record (with either line end, and tabs or spaces between
    fields) or on a duplicate."""
    n_records = 0
    while chunk := fh.read(_READ):
        chunk += fh.readline()
        if not chunk.endswith(b"\n"):
            chunk += b"\n"  # the file's last line has no newline
        if b"\r" in chunk:  # a CRLF line end is one newline, as in the line walk
            chunk = chunk.replace(b"\r\n", b"\n")
        if b"\t" in chunk:  # a tab separates fields as a space does in the line walk
            chunk = chunk.replace(b"\t", b" ")
        records = _parse_chunk(chunk, dims)
        if records is None:
            return False
        flat, ones = records
        values[flat] = ones
        mask[flat] = True
        n_records += flat.size
    return np.count_nonzero(mask) == n_records


def _walk_records(path, dims):
    """Read the records line by line. This defines every record error and
    its message, naming the first bad line; it runs only on files that
    `_scatter_records` could not take."""
    values = np.zeros(dims, dtype=bool)
    mask = np.zeros(dims, dtype=bool)
    # bytes that are not UTF-8 come through as lone surrogates, so the
    # line that holds them can be named
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        fh.readline()
        for ln, line in enumerate(fh, start=2):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raw = line.encode("utf-8", "surrogateescape")
                raise ValueError(f"{path}:{ln}: not UTF-8 text: {raw!r}") from None
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{ln}: expected 'i j k v', got {line!r}")
            try:
                i, j, k = (int(t) for t in parts[:3])
                v = float(parts[3])
            except ValueError:
                raise ValueError(f"{path}:{ln}: bad record {line!r}") from None
            if not math.isfinite(v):
                raise ValueError(f"{path}:{ln}: non-finite value {parts[3]!r}")
            if v not in (0.0, 1.0):
                raise ValueError(f"{path}:{ln}: value {parts[3]!r} is not 0 or 1")
            if not (1 <= i <= dims[0] and 1 <= j <= dims[1] and 1 <= k <= dims[2]):
                raise ValueError(f"{path}:{ln}: index ({i},{j},{k}) out of range {dims}")
            if mask[i - 1, j - 1, k - 1]:
                raise ValueError(f"{path}:{ln}: duplicate record for cell ({i},{j},{k})")
            values[i - 1, j - 1, k - 1] = v
            mask[i - 1, j - 1, k - 1] = True
    return values, mask


def read_tensor(path):
    """Read a tensor file; returns (values, mask), both bool. Every record's
    value must be 0 or 1; a cell without a record is unobserved and False."""
    with open(path, "rb") as fh:
        # the first line ends at \r as well, as it does for the line walk
        first, _, rest = fh.readline().partition(b"\r")
        try:
            header = first.decode("utf-8").split()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if len(header) != 4 or header[0] != "dims":
            raise ValueError(f"{path}: first line must be 'dims p1 p2 p3'")
        try:
            dims = tuple(int(t) for t in header[1:])
        except ValueError:
            raise ValueError(f"{path}: bad dims line {header!r}") from None
        if min(dims) < 1:
            raise ValueError(f"{path}: dims must be positive, got {dims}")
        try:
            values = np.zeros(dims, dtype=bool)
            mask = np.zeros(dims, dtype=bool)
        except (MemoryError, ValueError):  # numpy: "array is too big" past its size limit
            raise ValueError(f"{path}: dims {dims} too large to hold in memory") from None
        if rest in (b"", b"\n") and _scatter_records(
            fh, dims, values.reshape(-1), mask.reshape(-1)
        ):
            return values, mask
    del values, mask  # the walk fills a pair of its own
    return _walk_records(path, dims)


def write_binary_tensor(path, x):
    """Write a BinaryTensor; unobserved cells are simply absent."""
    write_tensor(path, x.values, x.mask)


def read_binary_tensor(path):
    """Read a tensor file as binary observations; absent records are
    unobserved cells. BinaryTensor's own checks run on it, and their errors
    name the path; it takes the bool arrays as they are."""
    values, mask = read_tensor(path)
    try:
        return BinaryTensor(values, mask)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _matrix_lines(m):
    # tolist() gives Python floats, whose repr is shortest round-trip
    for row in m.tolist():
        yield " ".join(map(repr, row))


def write_model(path, model, meta=None):
    """Write a LogitModel plus ordered metadata key/value lines."""
    p1, p2, p3 = model.dims
    lines = [
        MODEL_MAGIC,
        f"dims {p1} {p2} {p3}",
        f"rank {model.rank}",
        f"mu {float(model.mu)!r}",
        "d " + " ".join(map(repr, model.d.tolist())),
    ]
    for name, mat in (("U", model.U), ("V", model.V), ("W", model.W)):
        lines.append(name)
        lines.extend(_matrix_lines(mat))
    for key, value in (meta or {}).items():
        key, value = str(key), str(value)
        if key.split() != [key]:
            raise ValueError(f"meta key {key!r} must be a single token")
        # read_model splits the file with str.splitlines, which breaks at
        # \n, \r and a few other separators; a value must come through whole
        if value.splitlines() not in ([], [value]):
            raise ValueError(f"meta value for {key!r} must be a single line")
        lines.append(f"meta {key} {value}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_model(path):
    """Read a model file; returns (LogitModel, meta dict preserving order)."""
    with open(path) as fh:
        try:
            raw = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not raw or raw[0] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (missing '{MODEL_MAGIC}' header)")
    pos = 1

    def expect(prefix):
        nonlocal pos
        if pos >= len(raw) or not raw[pos].startswith(prefix):
            raise ValueError(f"{path}: expected '{prefix}' at line {pos + 1}")
        line = raw[pos]
        pos += 1
        return line

    def numbers(prefix, convert, count=None):
        """The tokens after `prefix` on the next line, converted."""
        line = expect(prefix)
        try:
            out = [convert(t) for t in line.split()[1:]]
        except ValueError:
            out = None
        if out is None or count not in (None, len(out)):
            raise ValueError(f"{path}:{pos}: bad {prefix.strip()} line {line!r}")
        return out

    dims = tuple(numbers("dims ", int, 3))
    if min(dims) < 1:
        raise ValueError(f"{path}:{pos}: dims must be positive, got {dims}")
    (rank,) = numbers("rank ", int, 1)
    (mu,) = numbers("mu ", float, 1)
    d = numbers("d ", float)
    if len(d) != rank:
        raise ValueError(f"{path}: expected {rank} weights, got {len(d)}")
    mats = {}
    for name, p in zip(("U", "V", "W"), dims):
        label = expect(name)
        if label != name:
            raise ValueError(f"{path}: expected factor section {name}")
        rows = []
        for _ in range(p):
            if pos >= len(raw):
                raise ValueError(f"{path}: truncated factor section {name}")
            parts = raw[pos].split()
            pos += 1
            if len(parts) != rank:
                raise ValueError(
                    f"{path}: factor {name} row has {len(parts)} entries, expected {rank}"
                )
            try:
                rows.append([float(t) for t in parts])
            except ValueError:
                raise ValueError(f"{path}:{pos}: bad factor {name} row {raw[pos - 1]!r}") from None
        mats[name] = np.array(rows).reshape(p, rank)
    meta = {}
    while pos < len(raw):
        line = raw[pos]
        pos += 1
        if not line.strip():
            continue
        if not line.startswith("meta "):
            raise ValueError(f"{path}: unexpected trailing line {line!r}")
        parts = line.split(" ", 2)
        meta[parts[1]] = parts[2] if len(parts) > 2 else ""
    model = LogitModel(mu, np.array(d), mats["U"], mats["V"], mats["W"])
    return model, meta
