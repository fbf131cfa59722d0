"""Corpus loading, validation and serialization.

A corpus is a manifest JSON document plus one binary records file,
``records.bin``, in three parts written in one pass:

1. the format tag line, ``scenestruct-corpus-v2``;
2. one JSON header line, ``{"videos": [...]}``, that gives each video its
   ``video_id``, ``duration_s`` and ``scenes`` (``null`` when unlabeled,
   else a list of ``start_s``/``end_s``/``tags`` objects), and for its
   columns ``starts``, ``ends`` and ``features`` (an object with one column
   per manifest modality) a ``shape``, ``offset`` and ``nbytes``, both
   counted in bytes from the end of the header line; spaces pad the header
   line so that the column bytes start 8-byte aligned;
3. the raw column bytes, every column little-endian float64.

Header floats are shortest round-trip decimal text and columns are raw
float64, so a save/load cycle reproduces every value bit-exactly, and the
same corpus always gives the same bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..nn.checkpoint import _is_count
from .records import Corpus, CorpusManifest, SceneAnnotation, SegmentSpan, ShotTable, VideoRecord

FORMAT_TAG = "scenestruct-corpus-v2"
RECORDS_FILE = "records.bin"
COLUMN_DTYPE = np.dtype("<f8")

# Shot timelines must be contiguous to this tolerance (seconds).
SHOT_CONTIGUITY_TOL_S = 1e-3


def _positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DataError(f"{what} must be a positive integer, got {value!r}")
    return value


def load_manifest(path) -> CorpusManifest:
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or "modalities" not in doc or "num_tags" not in doc:
            raise DataError("must define 'modalities' and 'num_tags'")
        for key in ("modalities", "tag_names"):
            if not isinstance(doc.get(key, {}), dict):
                raise DataError(f"{key!r} must be a JSON object")
        dims = {str(k): _positive_int(v, f"modality {k!r} dim") for k, v in doc["modalities"].items()}
        num_tags = _positive_int(doc["num_tags"], "num_tags")
        tag_names = {int(k): str(v) for k, v in doc.get("tag_names", {}).items()}
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a tag_names key that is not an integer
        raise DataError(f"manifest {path}: malformed tag_names: {exc}") from exc
    except DataError as exc:
        raise DataError(f"manifest {path}: {exc}") from exc
    return CorpusManifest(
        modality_dims=dims,
        num_tags=num_tags,
        stats=doc.get("stats", {}),
        tag_names=tag_names,
    )


def _scene_tags(tags) -> frozenset[int]:
    if not isinstance(tags, list) or any(isinstance(t, bool) or not isinstance(t, int) for t in tags):
        raise DataError(f"malformed scene tags {tags!r}: expected a JSON list of integers")
    return frozenset(tags)


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{what} must be a number, got {value!r}")
    return float(value)


def _column(where: str, entry, shape, raw: bytes, data_start: int) -> np.ndarray:
    """A read-only float64 view of one column's bytes, after checking its
    header entry; a None in shape accepts any length on that axis."""
    if not isinstance(entry, dict) or not {"shape", "offset", "nbytes"} <= entry.keys():
        raise DataError(f"{where} must be an object with 'shape', 'offset' and 'nbytes'")
    got, offset, nbytes = entry["shape"], entry["offset"], entry["nbytes"]
    if not isinstance(got, list) or not all(_is_count(v) for v in (offset, nbytes, *got)):
        raise DataError(f"{where}: shape, offset and nbytes must be non-negative integers")
    if len(got) != len(shape) or any(want not in (None, n) for n, want in zip(got, shape)):
        want = ", ".join("M" if n is None else str(n) for n in shape)
        raise DataError(f"{where} has shape {got}, expected [{want}]")
    needed = math.prod(got) * COLUMN_DTYPE.itemsize
    if nbytes != needed:
        raise DataError(f"{where} has {nbytes} bytes, shape {got} of float64 needs {needed}")
    data_len = len(raw) - data_start
    if offset + nbytes > data_len:
        raise DataError(f"{where} runs past the end of the file (bytes {offset}..{offset + nbytes} "
                        f"of {data_len}); the file is truncated")
    return np.frombuffer(raw, dtype=COLUMN_DTYPE, count=math.prod(got),
                         offset=data_start + offset).reshape(got)


def _parse_video(doc, manifest: CorpusManifest, raw: bytes, data_start: int) -> VideoRecord:
    """One video's header entry over the file bytes; any missing, mistyped or
    out-of-range field is a DataError."""
    if not isinstance(doc, dict):
        raise DataError(f"a video must be a JSON object, got {type(doc).__name__}")
    try:
        vid = doc["video_id"]
        if not isinstance(vid, str):
            raise DataError(f"video_id must be a string, got {vid!r}")
        duration = _number(doc["duration_s"], f"video {vid!r} duration_s")
        starts = _column(f"video {vid!r} column 'starts'", doc["starts"], (None,), raw, data_start)
        if not len(starts):
            raise DataError(f"video {vid!r} has no shots")
        ends = _column(f"video {vid!r} column 'ends'", doc["ends"], (len(starts),), raw, data_start)
        feature_docs = doc["features"]
        if not isinstance(feature_docs, dict):
            raise DataError(f"video {vid!r}: 'features' must be a JSON object")
        if feature_docs.keys() != manifest.modality_dims.keys():
            raise DataError(f"video {vid!r} has feature columns {sorted(feature_docs)}, "
                            f"the manifest's modalities are {sorted(manifest.modality_dims)}")
        features = {name: _column(f"video {vid!r} column {name!r}", feature_docs[name],
                                  (len(starts), dim), raw, data_start)
                    for name, dim in manifest.modality_dims.items()}
        scenes = None
        if doc["scenes"] is not None:
            scenes = [
                SceneAnnotation(
                    span=SegmentSpan(_number(s["start_s"], "scene start_s"),
                                     _number(s["end_s"], "scene end_s")),
                    tags=_scene_tags(s["tags"]),
                )
                for s in doc["scenes"]
            ]
        return VideoRecord(video_id=vid, duration_s=duration,
                           shots=ShotTable(starts, ends, features), scenes=scenes)
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from exc
    except (TypeError, OverflowError) as exc:  # scenes not a list of objects; a huge integer
        raise DataError(f"malformed record: {exc}") from exc


def validate_video(video: VideoRecord, manifest: CorpusManifest) -> None:
    """Check a parsed video, whose table holds every manifest modality."""
    vid, shots = video.video_id, video.shots
    if not np.isfinite(video.duration_s):
        raise DataError(f"video {vid!r} has non-finite duration_s {video.duration_s}")
    for name, col in {"start_s": shots.starts, "end_s": shots.ends, **shots.features}.items():
        finite = np.isfinite(col)
        if not finite.all():
            idx = int(np.argmin(finite.reshape(len(col), -1).all(axis=1)))
            raise DataError(f"video {vid!r} shot {idx + 1} has a non-finite {name!r} value")
    short = ~(shots.ends > shots.starts)
    if short.any():
        idx = int(np.argmax(short))
        raise DataError(f"video {vid!r} shot {idx + 1} has non-positive length "
                        f"[{shots.starts[idx]}, {shots.ends[idx]}]")
    for name, dim in manifest.modality_dims.items():
        got = shots.features[name].shape[1]
        if got != dim:
            raise DataError(f"video {vid!r} shot 1: modality {name!r} has dim {got}, manifest says {dim}")
    gaps = shots.starts[1:] - shots.ends[:-1]
    apart = np.abs(gaps) > SHOT_CONTIGUITY_TOL_S
    if apart.any():
        idx = int(np.argmax(apart))
        raise DataError(f"video {vid!r}: shots {idx + 1} and {idx + 2} are not contiguous "
                        f"(gap {gaps[idx]:+.6f} s)")
    if abs(shots.starts[0]) > SHOT_CONTIGUITY_TOL_S:
        raise DataError(f"video {vid!r}: first shot starts at {shots.starts[0]}, not 0")
    if abs(shots.ends[-1] - video.duration_s) > SHOT_CONTIGUITY_TOL_S:
        raise DataError(f"video {vid!r}: last shot ends at {shots.ends[-1]}, "
                        f"duration is {video.duration_s}")
    if video.scenes is not None:
        video.scenes.sort(key=lambda s: (s.span.start_s, s.span.end_s))
        for scene in video.scenes:
            for tag in scene.tags:
                if not 1 <= tag <= manifest.num_tags:
                    raise DataError(
                        f"video {vid!r}: unknown tag id {tag} "
                        f"(vocabulary has {manifest.num_tags} tags)"
                    )
        for a, b in zip(video.scenes, video.scenes[1:]):
            if b.span.start_s < a.span.end_s - 1e-9:
                raise DataError(
                    f"video {vid!r}: scenes [{a.span.start_s}, {a.span.end_s}] and "
                    f"[{b.span.start_s}, {b.span.end_s}] overlap"
                )


def _read_header(path: Path, raw: bytes):
    """The header's video list and the offset where the column bytes start."""
    tag_line = f"{FORMAT_TAG}\n".encode("utf-8")
    if not raw.startswith(tag_line):
        raise DataError(f"records {path} does not start with the format tag {FORMAT_TAG!r} "
                        f"(JSONL corpora must be regenerated)")
    header_end = raw.find(b"\n", len(tag_line))
    if header_end < 0:
        raise DataError(f"records {path} has no complete header line; the file is truncated")
    try:
        header = json.loads(raw[len(tag_line) : header_end])
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer too long to convert
        raise DataError(f"records {path} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("videos"), list):
        raise DataError(f"records {path} header must be a JSON object with a 'videos' list")
    return header["videos"], header_end + 1


def load_corpus(manifest_path, records_path) -> Corpus:
    """Load and eagerly validate a corpus. Raises DataError on any violation.

    Shot columns are read-only views of the records file's bytes.
    """
    manifest = load_manifest(manifest_path)
    records_path = Path(records_path)
    if not records_path.exists():
        raise DataError(f"records file not found: {records_path}")
    raw = records_path.read_bytes()
    video_docs, data_start = _read_header(records_path, raw)
    videos, numbers = [], {}
    for number, doc in enumerate(video_docs, start=1):
        try:
            video = _parse_video(doc, manifest, raw, data_start)
            validate_video(video, manifest)
            first = numbers.setdefault(video.video_id, number)
            if first != number:
                raise DataError(f"video {video.video_id!r} is also video {first}")
        except DataError as exc:
            raise DataError(f"records {records_path} video {number}: {exc}") from exc
        videos.append(video)
    return Corpus(manifest=manifest, videos=videos)


def _manifest_doc(manifest: CorpusManifest) -> dict:
    doc = {
        "modalities": dict(manifest.modality_dims),
        "num_tags": manifest.num_tags,
        "stats": manifest.stats,
    }
    if manifest.tag_names:
        doc["tag_names"] = {str(k): v for k, v in manifest.tag_names.items()}
    return doc


def save_corpus(corpus: Corpus, manifest_path, records_path) -> None:
    Path(manifest_path).parent.mkdir(parents=True, exist_ok=True)
    Path(manifest_path).write_text(json.dumps(_manifest_doc(corpus.manifest)) + "\n", encoding="utf-8")
    entries, columns, offset = [], [], 0
    for video in corpus.videos:
        shots = video.shots
        refs = []
        for col in (shots.starts, shots.ends, *shots.features.values()):
            nbytes = col.size * COLUMN_DTYPE.itemsize
            refs.append({"shape": list(col.shape), "offset": offset, "nbytes": nbytes})
            columns.append(col)
            offset += nbytes
        starts, ends, *features = refs
        entries.append({
            "video_id": video.video_id,
            "duration_s": video.duration_s,
            "scenes": None if video.scenes is None else [
                {"start_s": s.span.start_s, "end_s": s.span.end_s, "tags": sorted(s.tags)}
                for s in video.scenes
            ],
            "starts": starts,
            "ends": ends,
            "features": dict(zip(shots.features, features)),
        })
    head = f"{FORMAT_TAG}\n{json.dumps({'videos': entries})}".encode("utf-8")
    pad = b" " * (-(len(head) + 1) % COLUMN_DTYPE.itemsize)
    with Path(records_path).open("wb") as fh:
        fh.write(head + pad + b"\n")
        for col in columns:  # each column's bytes as they sit in memory, copied only if strided
            fh.write(np.ascontiguousarray(col, dtype=COLUMN_DTYPE))
