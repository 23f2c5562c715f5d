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
    """Write text to path via a temporary file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v):
    return repr(float(v))


def write_tensor(path, values, mask=None, binary=True):
    """Write a tensor file; cells where mask is False are omitted."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError(f"tensor must be 3-way, got shape {values.shape}")
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    p1, p2, p3 = values.shape
    lines = [f"dims {p1} {p2} {p3}"]
    for k in range(p3):
        for j in range(p2):
            for i in range(p1):
                if not mask[i, j, k]:
                    continue
                v = values[i, j, k]
                sv = str(int(v)) if binary else _fmt(v)
                lines.append(f"{i + 1} {j + 1} {k + 1} {sv}")
    atomic_write_text(path, "\n".join(lines) + "\n")


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
        values = np.zeros(dims)
        mask = np.zeros(dims, dtype=bool)
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


def write_binary_tensor(path, x):
    """Write a BinaryTensor; unobserved cells are simply absent."""
    write_tensor(path, x.values, x.mask, binary=True)


def read_binary_tensor(path):
    """Read a tensor file as binary observations; absent records are
    unobserved cells."""
    values, mask = read_tensor(path)
    stored = values[mask]
    if not np.all((stored == 0.0) | (stored == 1.0)):
        raise ValueError(f"{path}: binary tensor holds values other than 0/1")
    return BinaryTensor(values, mask)


def _matrix_lines(m):
    for row in m:
        yield " ".join(_fmt(v) for v in row)


def write_model(path, model, meta=None):
    """Write a LogitModel plus ordered metadata key/value lines."""
    p1, p2, p3 = model.dims
    lines = [
        MODEL_MAGIC,
        f"dims {p1} {p2} {p3}",
        f"rank {model.rank}",
        f"mu {_fmt(model.mu)}",
        "d " + " ".join(_fmt(v) for v in model.d),
    ]
    for name, mat in (("U", model.U), ("V", model.V), ("W", model.W)):
        lines.append(name)
        lines.extend(_matrix_lines(mat))
    for key, value in (meta or {}).items():
        key = str(key)
        if " " in key or not key:
            raise ValueError(f"meta key {key!r} must be a single token")
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

    dims = tuple(int(t) for t in expect("dims ").split()[1:])
    if len(dims) != 3:
        raise ValueError(f"{path}: bad dims line")
    rank = int(expect("rank ").split()[1])
    mu = float(expect("mu ").split()[1])
    d_parts = expect("d").split()[1:]
    if len(d_parts) != rank:
        raise ValueError(f"{path}: expected {rank} weights, got {len(d_parts)}")
    d = np.array([float(t) for t in d_parts])
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
            rows.append([float(t) for t in parts])
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
    model = LogitModel(mu, d, mats["U"], mats["V"], mats["W"])
    return model, meta
