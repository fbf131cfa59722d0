"""Versioned parameter checkpoints.

A checkpoint is a scenestruct.binfile container tagged
``scenestruct-ckpt-v2``, with no header padding. Its JSON header holds the
model ``kind``, the ``config`` that produced the parameters, and
``params``, an object that gives each parameter, in order, its entry with
a ``dtype`` after the shape: a little-endian NumPy float dtype string such
as ``"<f4"``, in which its bytes are stored.

The bytes depend only on the arguments to save_checkpoint, so the same
parameters always give the same file, and a load returns every value and
dtype exactly as saved.
"""

from __future__ import annotations

import numpy as np

from .. import binfile
from ..errors import CheckpointError

FORMAT_TAG = "scenestruct-ckpt-v2"


def save_checkpoint(path, kind: str, config: dict, params: dict) -> None:
    layout, entries = binfile.Layout(), {}
    for name, p in params.items():
        dtype = p.dtype.newbyteorder("<")
        entries[name] = layout.add(p, dtype, dtype=dtype.str)
    binfile.write(path, FORMAT_TAG, {"kind": kind, "config": config, "params": entries},
                  layout, align=1)


def load_checkpoint(path):
    """Returns (kind, config, params). Raises CheckpointError on problems.

    The arrays are read-only views of the file's bytes.
    """
    ckpt = binfile.BinFile(path, FORMAT_TAG, "checkpoint", "older checkpoints must be retrained",
                           CheckpointError)
    header, path = ckpt.header, ckpt.path
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
        where = f"checkpoint {path}: parameter {name!r}"
        try:
            if not isinstance(entry["dtype"], str):
                raise TypeError(f"dtype {entry['dtype']!r} is not a string")
            dtype = np.dtype(entry["dtype"])
            if dtype.kind != "f" or dtype.byteorder == ">":
                raise ValueError(f"dtype {entry['dtype']!r} is not a little-endian float")
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{where} is malformed: {exc}") from exc
        arr = ckpt.view(entry, dtype, where)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{where} holds non-finite values")
        params[name] = arr
    return header["kind"], header["config"], params
