"""The tagged binary container under checkpoints and corpus records.

A file is three parts, written in one pass:

1. a format tag line, such as ``scenestruct-ckpt-v2``;
2. one JSON header line whose schema belongs to the format; every stored
   array has an entry there with its ``shape``, ``offset`` and ``nbytes``,
   both counted in bytes from the end of the header line, and spaces may
   pad the line so that the data starts aligned;
3. the arrays' raw little-endian bytes, each in C order.

Reads and writes take the format's tag and, for reads, its error type and
the name its messages give the file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


class Layout:
    """The data part of a file to be written: add each array, put the entry
    add returns into the header, then hand both to write."""

    def __init__(self):
        self.arrays, self.nbytes = [], 0

    def add(self, array, dtype: np.dtype, /, **fields) -> dict:
        """The header entry of array stored as dtype, a little-endian
        np.dtype; fields (a checkpoint's ``dtype``) go between its shape
        and its offset."""
        nbytes = array.size * dtype.itemsize
        entry = {"shape": list(array.shape), **fields, "offset": self.nbytes, "nbytes": nbytes}
        self.arrays.append((array, dtype))
        self.nbytes += nbytes
        return entry


def write(path, tag: str, header, layout: Layout, align: int) -> None:
    """Write the tag line, the header line padded so that the data starts
    at a multiple of align, then each array's bytes straight from memory."""
    head = f"{tag}\n{json.dumps(header)}".encode("utf-8")
    pad = b" " * (-(len(head) + 1) % align)
    with Path(path).open("wb") as fh:
        fh.write(head + pad + b"\n")
        for array, dtype in layout.arrays:  # copied only if strided or of another dtype
            fh.write(np.ascontiguousarray(array, dtype=dtype))


class BinFile:
    """A container file read whole: its parsed header, and read-only views
    of its arrays that check their entries first. Every problem is an error
    of the caller's type whose message names the file."""

    def __init__(self, path, tag: str, label: str, hint: str, error):
        self.path, self.error = Path(path), error
        if not self.path.exists():
            raise error(f"{label} file not found: {self.path}")
        raw = self.path.read_bytes()
        tag_line = f"{tag}\n".encode("utf-8")
        if not raw.startswith(tag_line):
            raise error(f"{label} {self.path} does not start with the format tag {tag!r} ({hint})")
        header_end = raw.find(b"\n", len(tag_line))
        if header_end < 0:
            raise error(f"{label} {self.path} has no complete header line; the file is truncated")
        try:
            self.header = json.loads(raw[len(tag_line) : header_end])
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a huge int, deep nesting
            raise error(f"{label} {self.path} header is not valid JSON: {exc}") from exc
        self._raw, self._data_start = raw, header_end + 1

    def view(self, entry, dtype: np.dtype, where: str, shape=None) -> np.ndarray:
        """The array an entry describes, as dtype. where starts every
        message; shape, if given, is the shape the entry must have, where a
        None accepts any length on that axis."""
        if not isinstance(entry, dict) or not {"shape", "offset", "nbytes"} <= entry.keys():
            raise self.error(f"{where} must be an object with 'shape', 'offset' and 'nbytes'")
        got, offset, nbytes = entry["shape"], entry["offset"], entry["nbytes"]
        if not isinstance(got, list) or not all(type(v) is int and v >= 0  # bools excluded
                                                for v in (offset, nbytes, *got)):
            raise self.error(f"{where}: shape, offset and nbytes must be non-negative integers")
        if shape is not None and (len(got) != len(shape)
                                  or any(want not in (None, n) for n, want in zip(got, shape))):
            want = ", ".join("M" if n is None else str(n) for n in shape)
            raise self.error(f"{where} has shape {got}, expected [{want}]")
        needed = math.prod(got) * dtype.itemsize
        if nbytes != needed:
            raise self.error(f"{where} has {nbytes} bytes, shape {got} of {dtype.name} needs {needed}")
        data_len = len(self._raw) - self._data_start
        if offset + nbytes > data_len:
            raise self.error(f"{where} runs past the end of the file (bytes {offset}..{offset + nbytes} "
                             f"of {data_len}); the file is truncated")
        try:
            return np.frombuffer(self._raw, dtype=dtype, count=math.prod(got),
                                 offset=self._data_start + offset).reshape(got)
        except ValueError as exc:  # over 64 axes, or an empty array with a huge axis
            raise self.error(f"{where} has shape {got}, which NumPy cannot hold: {exc}") from exc
