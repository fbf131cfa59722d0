"""Corpus loading, validation and serialization.

A corpus is a manifest JSON document plus one binary records file,
``records.bin``: a scenestruct.binfile container tagged
``scenestruct-corpus-v2``, whose header line ``{"videos": [...]}`` gives
each video its ``video_id``, ``duration_s`` and ``scenes`` (``null`` when
unlabeled, else a list of ``start_s``/``end_s``/``tags`` objects), and the
entries of its columns ``starts``, ``ends`` and ``features`` (an object
with one column per manifest modality). Spaces pad the header line so that
the columns start 8-byte aligned; every column is little-endian float64.

Header floats are shortest round-trip decimal text and columns are raw
float64, so a save/load cycle reproduces every value bit-exactly, and the
same corpus always gives the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .. import binfile
from ..errors import DataError
from .records import Corpus, CorpusManifest, SceneTable, ShotTable, VideoRecord

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


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError(f"{what} must be a number, got {value!r}")
    return float(value)


def _scene_table(vid: str, scene_docs, num_tags: int) -> SceneTable:
    """A video's scene objects as one table; a tag id that is not an
    integer in 1..num_tags, or is listed twice in one scene, is a DataError."""
    spans, cells = [], []  # cells: flat indices of the (K, num_tags) tag matrix
    for row, doc in enumerate(scene_docs):
        spans.append((_number(doc["start_s"], "scene start_s"),
                      _number(doc["end_s"], "scene end_s")))
        tags = doc["tags"]
        if not isinstance(tags, list) or any(isinstance(t, bool) or not isinstance(t, int)
                                             for t in tags):
            raise DataError(f"malformed scene tags {tags!r}: expected a JSON list of integers")
        for tag in tags:  # before the matrix is filled: id 0 would fill the previous row
            if not 1 <= tag <= num_tags:
                raise DataError(f"video {vid!r}: unknown tag id {tag} "
                                f"(vocabulary has {num_tags} tags)")
        if len(set(tags)) < len(tags):
            raise DataError(f"video {vid!r}: a scene lists a tag id twice")
        cells += [row * num_tags + tag - 1 for tag in tags]
    matrix = np.zeros(len(spans) * num_tags, dtype=bool)
    matrix[cells] = True
    return SceneTable(spans, matrix.reshape(-1, num_tags))


def _parse_video(doc, manifest: CorpusManifest, records: binfile.BinFile) -> VideoRecord:
    """One video's header entry over the file's columns; any missing,
    mistyped or out-of-range field is a DataError."""
    if not isinstance(doc, dict):
        raise DataError(f"a video must be a JSON object, got {type(doc).__name__}")
    try:
        vid = doc["video_id"]
        if not isinstance(vid, str):
            raise DataError(f"video_id must be a string, got {vid!r}")
        duration = _number(doc["duration_s"], f"video {vid!r} duration_s")
        starts = records.view(doc["starts"], COLUMN_DTYPE, f"video {vid!r} column 'starts'", (None,))
        if not len(starts):
            raise DataError(f"video {vid!r} has no shots")
        ends = records.view(doc["ends"], COLUMN_DTYPE, f"video {vid!r} column 'ends'", (len(starts),))
        feature_docs = doc["features"]
        if not isinstance(feature_docs, dict):
            raise DataError(f"video {vid!r}: 'features' must be a JSON object")
        if feature_docs.keys() != manifest.modality_dims.keys():
            raise DataError(f"video {vid!r} has feature columns {sorted(feature_docs)}, "
                            f"the manifest's modalities are {sorted(manifest.modality_dims)}")
        features = {name: records.view(feature_docs[name], COLUMN_DTYPE,
                                       f"video {vid!r} column {name!r}", (len(starts), dim))
                    for name, dim in manifest.modality_dims.items()}
        scenes = doc["scenes"]
        if scenes is not None:
            scenes = _scene_table(vid, scenes, manifest.num_tags)
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
        spans = video.scenes.spans
        overlap = spans[1:, 0] < spans[:-1, 1] - 1e-9
        if overlap.any():
            (a_start, a_end), (b_start, b_end) = spans[np.argmax(overlap):][:2].tolist()
            raise DataError(f"video {vid!r}: scenes [{a_start}, {a_end}] and "
                            f"[{b_start}, {b_end}] overlap")


def load_corpus(manifest_path, records_path) -> Corpus:
    """Load and eagerly validate a corpus. Raises DataError on any violation.

    Shot columns are read-only views of the records file's bytes.
    """
    manifest = load_manifest(manifest_path)
    records = binfile.BinFile(records_path, FORMAT_TAG, "records",
                              "JSONL corpora must be regenerated", DataError)
    header, records_path = records.header, records.path
    if not isinstance(header, dict) or not isinstance(header.get("videos"), list):
        raise DataError(f"records {records_path} header must be a JSON object with a 'videos' list")
    videos, numbers = [], {}
    for number, doc in enumerate(header["videos"], start=1):
        try:
            video = _parse_video(doc, manifest, records)
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
    layout, entries = binfile.Layout(), []
    for video in corpus.videos:
        shots = video.shots
        entries.append({
            "video_id": video.video_id,
            "duration_s": video.duration_s,
            "scenes": None if video.scenes is None else [
                {"start_s": start, "end_s": end, "tags": (np.flatnonzero(row) + 1).tolist()}
                for (start, end), row in zip(video.scenes.spans.tolist(), video.scenes.tags)
            ],
            "starts": layout.add(shots.starts, COLUMN_DTYPE),
            "ends": layout.add(shots.ends, COLUMN_DTYPE),
            "features": {name: layout.add(col, COLUMN_DTYPE) for name, col in shots.features.items()},
        })
    binfile.write(records_path, FORMAT_TAG, {"videos": entries}, layout,
                  align=COLUMN_DTYPE.itemsize)
