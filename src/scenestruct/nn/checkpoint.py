"""Versioned parameter checkpoints.

A checkpoint is a JSON document with a format tag, the model kind, the
config that produced the parameters, and per-parameter shapes plus flat
value arrays. Floats are written with shortest round-trip formatting, so
save followed by load reproduces every value exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import CheckpointError

FORMAT_TAG = "scenestruct-ckpt-v1"


def save_checkpoint(path, kind: str, config: dict, params: dict) -> None:
    doc = {
        "format": FORMAT_TAG,
        "kind": kind,
        "config": config,
        "params": {
            name: {"shape": list(p.shape), "data": [float(v) for v in p.ravel()]}
            for name, p in params.items()
        },
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_checkpoint(path):
    """Returns (kind, config, params). Raises CheckpointError on problems."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(
            f"checkpoint {path} must hold a JSON object, not {type(doc).__name__}"
        )
    if doc.get("format") != FORMAT_TAG:
        raise CheckpointError(
            f"checkpoint {path} has format tag {doc.get('format')!r}, "
            f"expected {FORMAT_TAG!r}"
        )
    if not isinstance(doc.get("kind"), str) or not isinstance(doc.get("params"), dict):
        raise CheckpointError(f"checkpoint {path} needs a string 'kind' and a 'params' object")
    config = doc.get("config", {})
    dtype = np.dtype(config.get("dtype", "float32"))
    params = {}
    for name, entry in doc["params"].items():
        try:
            arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path}: parameter {name!r} is malformed: {exc}"
            ) from exc
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"checkpoint {path}: parameter {name!r} holds non-finite values")
        params[name] = arr.astype(dtype)
    return doc["kind"], config, params
