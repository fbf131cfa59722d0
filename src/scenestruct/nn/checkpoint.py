"""Versioned parameter checkpoints.

A checkpoint is three parts, written in one pass:

1. the format tag line, ``scenestruct-ckpt-v2``;
2. one JSON header line: the model ``kind``, the ``config`` that produced the
   parameters, and ``params``, an object that gives each parameter, in
   order, its ``shape``, ``dtype`` (a little-endian NumPy dtype string such
   as ``"<f4"``), ``offset`` and ``nbytes``, both counted in bytes from the
   end of the header line;
3. the raw little-endian parameter bytes, each in its own dtype.

The bytes depend only on the arguments to save_checkpoint, so the same
parameters always give the same file, and a load returns every value and
dtype exactly as saved.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..errors import CheckpointError

FORMAT_TAG = "scenestruct-ckpt-v2"


def save_checkpoint(path, kind: str, config: dict, params: dict) -> None:
    entries, blobs, offset = {}, [], 0
    for name, p in params.items():
        dtype = p.dtype.newbyteorder("<")
        data = p.astype(dtype, copy=False).tobytes()
        entries[name] = {"shape": list(p.shape), "dtype": dtype.str,
                         "offset": offset, "nbytes": len(data)}
        blobs.append(data)
        offset += len(data)
    header = json.dumps({"kind": kind, "config": config, "params": entries})
    Path(path).write_bytes(b"".join([f"{FORMAT_TAG}\n{header}\n".encode("utf-8"), *blobs]))


def load_checkpoint(path):
    """Returns (kind, config, params). Raises CheckpointError on problems.

    The arrays are read-only views of the file's bytes.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    raw = path.read_bytes()
    tag_line = f"{FORMAT_TAG}\n".encode("utf-8")
    if not raw.startswith(tag_line):
        raise CheckpointError(
            f"checkpoint {path} does not start with the format tag {FORMAT_TAG!r} "
            f"(older checkpoints must be retrained)"
        )
    header_end = raw.find(b"\n", len(tag_line))
    if header_end < 0:
        raise CheckpointError(f"checkpoint {path} has no complete header line")
    try:
        header = json.loads(raw[len(tag_line) : header_end])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(
            f"checkpoint {path} header must be a JSON object, not {type(header).__name__}"
        )
    if not isinstance(header.get("kind"), str) or not isinstance(header.get("params"), dict):
        raise CheckpointError(f"checkpoint {path} needs a string 'kind' and a 'params' object")
    if not isinstance(header.get("config"), dict):
        raise CheckpointError(f"checkpoint {path} needs a 'config' object")
    params = {}
    for name, entry in header["params"].items():
        arr = _param_view(path, name, entry, raw, header_end + 1)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"checkpoint {path}: parameter {name!r} holds non-finite values")
        params[name] = arr
    return header["kind"], header["config"], params


def _param_view(path, name, entry, raw: bytes, data_start: int) -> np.ndarray:
    """One parameter's array over the file bytes, after checking its header entry."""
    try:
        shape, offset, nbytes = entry["shape"], entry["offset"], entry["nbytes"]
        if not isinstance(entry["dtype"], str):
            raise TypeError(f"dtype {entry['dtype']!r} is not a string")
        dtype = np.dtype(entry["dtype"])
        if dtype.kind != "f" or dtype.byteorder == ">":
            raise ValueError(f"dtype {entry['dtype']!r} is not a little-endian float")
        if not all(_is_count(v) for v in (offset, nbytes, *shape)):
            raise ValueError("shape, offset and nbytes must be non-negative integers")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: parameter {name!r} is malformed: {exc}") from exc
    expected = math.prod(shape) * dtype.itemsize
    if nbytes != expected:
        raise CheckpointError(
            f"checkpoint {path}: parameter {name!r} has {nbytes} bytes, "
            f"shape {shape} of {dtype.name} needs {expected}"
        )
    data_len = len(raw) - data_start
    if offset + nbytes > data_len:
        raise CheckpointError(
            f"checkpoint {path}: parameter {name!r} runs past the end of the file "
            f"(bytes {offset}..{offset + nbytes} of {data_len}); the file is truncated"
        )
    return np.frombuffer(raw, dtype=dtype, count=nbytes // dtype.itemsize,
                         offset=data_start + offset).reshape(shape)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0
