"""Plain-text file formats: tensors, fitted models, predictions.

Tensor files carry one record per stored cell:

    dims p1 p2 p3
    i j k v

with 1-based indices, written mode-1-fastest. For binary data an absent
record means the cell is unobserved. Model files are sectioned text holding
the offset, weights, factor matrices, and metadata lines; floats are written
with shortest round-trip precision so read(write(m)) is lossless and
write(read(f)) is byte-identical. All writers go through a temp file and
atomic rename.

Tensor files are parsed and formatted with numpy a chunk of records at a
time. A file that the vectorised checks do not pass is read again line by
line, which either names its first bad line or, for tokens only Python's
int() and float() accept, reads it.
"""

import itertools
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
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v):
    return repr(float(v))


# records per chunk when tensor files are parsed or formatted
_CHUNK = 1 << 16
_RECORD = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64), ("v", np.float64)])


def _byte_rows(strings):
    """ASCII strings as a NUL-padded (n, width) uint8 matrix."""
    table = np.array(strings, dtype="S")
    return table.view(np.uint8).reshape(table.size, table.itemsize)


def _value_rows(v, binary):
    if not binary:
        return _byte_rows([_fmt(x) for x in v.tolist()])
    frac = np.isfinite(v) & (np.trunc(v) != v)
    if frac.any():
        raise ValueError(f"binary tensor value {float(v[frac][0])!r} is not an integer")
    if not np.all(np.abs(v) < 2.0**63):  # also true for nan and inf
        return _byte_rows([str(int(x)) for x in v.tolist()])  # raises as int() does
    # the values are integral here, so astype is exact
    labels, which = np.unique(v.astype(np.int64), return_inverse=True)
    return _byte_rows([str(n) for n in labels.tolist()])[which]


def _tensor_chunks(values, mask, binary):
    """The text of a tensor file, one chunk of records at a time."""
    p1, p2, p3 = values.shape
    yield f"dims {p1} {p2} {p3}\n"
    tables = [_byte_rows([f"{n} " for n in range(1, p + 1)]) for p in values.shape]
    # transposing makes the C-order scan run with i fastest
    cells = np.flatnonzero(mask.T)
    for start in range(0, cells.size, _CHUNK):
        k, j, i = np.unravel_index(cells[start:start + _CHUNK], (p3, p2, p1))
        newline = np.full((i.size, 1), ord("\n"), dtype=np.uint8)
        rows = np.hstack([tables[0][i], tables[1][j], tables[2][k],
                          _value_rows(values[i, j, k], binary), newline])
        yield rows[rows != 0].tobytes().decode("ascii")


def write_tensor(path, values, mask=None, binary=True):
    """Write a tensor file; cells where mask is False are omitted. In binary
    mode every stored value must be an integer: a fractional one raises
    ValueError naming it, and NaN or inf raise as int() does. Bool values
    are formatted a chunk at a time with no float copy; any other values
    are read as floats."""
    values = np.asarray(values)
    if values.dtype != bool:
        values = values.astype(float, copy=False)
    if values.ndim != 3:
        raise ValueError(f"tensor must be 3-way, got shape {values.shape}")
    mask = np.ones(values.shape, dtype=bool) if mask is None else np.asarray(mask)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} does not match tensor shape {values.shape}")
    atomic_write_text(path, _tensor_chunks(values, mask, binary))


def _scatter_records(fh, dims, values, mask):
    """Parse the records after the header in chunks and scatter them into
    the flat arrays. Returns False, leaving the arrays partly filled, on
    anything the vectorised checks cannot pass: a line numpy's parser
    rejects, a non-finite value, an index out of range or a duplicate."""
    n_records = 0
    try:
        while lines := list(itertools.islice(fh, _CHUNK)):
            if "".join(lines).isspace():
                continue  # numpy warns on a chunk with no data
            rec = np.loadtxt(lines, dtype=_RECORD, comments=None, ndmin=1)
            idx = (rec["i"], rec["j"], rec["k"])
            if not np.isfinite(rec["v"]).all() or not all(
                ((a >= 1) & (a <= p)).all() for a, p in zip(idx, dims)
            ):
                return False
            flat = np.ravel_multi_index(tuple(a - 1 for a in idx), dims)
            values[flat] = rec["v"]
            mask[flat] = True
            n_records += rec.size
    except ValueError:  # a parser reject, or text that does not decode
        return False
    return np.count_nonzero(mask) == n_records


def _walk_records(path, dims):
    """Read the records line by line. This defines every record error and
    its message, naming the first bad line; it runs only on files that
    `_scatter_records` could not take."""
    values = np.zeros(dims)
    mask = np.zeros(dims, dtype=bool)
    with open(path) as fh:
        fh.readline()
        for ln, line in enumerate(fh, start=2):
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
            if not (1 <= i <= dims[0] and 1 <= j <= dims[1] and 1 <= k <= dims[2]):
                raise ValueError(f"{path}:{ln}: index ({i},{j},{k}) out of range {dims}")
            if mask[i - 1, j - 1, k - 1]:
                raise ValueError(f"{path}:{ln}: duplicate record for cell ({i},{j},{k})")
            values[i - 1, j - 1, k - 1] = v
            mask[i - 1, j - 1, k - 1] = True
    return values, mask


def read_tensor(path):
    """Read a tensor file; returns (values, mask). Values must be finite."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "dims":
            raise ValueError(f"{path}: first line must be 'dims p1 p2 p3'")
        try:
            dims = tuple(int(t) for t in header[1:])
        except ValueError:
            raise ValueError(f"{path}: bad dims line {header!r}") from None
        if min(dims) < 1:
            raise ValueError(f"{path}: dims must be positive, got {dims}")
        try:
            values = np.zeros(dims)
            mask = np.zeros(dims, dtype=bool)
        except MemoryError:
            raise ValueError(f"{path}: dims {dims} too large to hold in memory") from None
        if _scatter_records(fh, dims, values.reshape(-1), mask.reshape(-1)):
            return values, mask
    return _walk_records(path, dims)


def write_binary_tensor(path, x):
    """Write a BinaryTensor; unobserved cells are simply absent."""
    write_tensor(path, x.values, x.mask, binary=True)


def read_binary_tensor(path):
    """Read a tensor file as binary observations; absent records are
    unobserved cells. BinaryTensor's own checks run on it, and their errors
    name the path."""
    values, mask = read_tensor(path)
    try:
        return BinaryTensor(values, mask)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _matrix_lines(m):
    # the floats tolist() gives repr as _fmt does, without a call per value
    for row in m.tolist():
        yield " ".join(map(repr, row))


def write_model(path, model, meta=None):
    """Write a LogitModel plus ordered metadata key/value lines."""
    p1, p2, p3 = model.dims
    lines = [
        MODEL_MAGIC,
        f"dims {p1} {p2} {p3}",
        f"rank {model.rank}",
        f"mu {_fmt(model.mu)}",
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
        raw = fh.read().splitlines()
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
