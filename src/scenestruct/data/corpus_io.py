"""Corpus loading, validation and serialization.

A corpus is a manifest JSON document plus a newline-delimited records file
with one video per line. All floats are decimal text (shortest round-trip),
so a save/load cycle reproduces every value bit-exactly.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from ..errors import DataError
from .records import Corpus, CorpusManifest, SceneAnnotation, SegmentSpan, ShotTable, VideoRecord

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


def _parse_video(line: str, manifest: CorpusManifest) -> VideoRecord:
    """One records line; any missing, mistyped or ragged field is a DataError."""
    try:
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise DataError(f"a record must be a JSON object, got {type(doc).__name__}")
        vid = str(doc["video_id"])
        duration = float(doc["duration_s"])
        shot_docs = doc["shots"]
        if not shot_docs:
            raise DataError(f"video {vid!r} has no shots")
        feature_docs = list(map(itemgetter("features"), shot_docs))
        unknown = set(chain.from_iterable(feature_docs)).difference(manifest.modality_dims)
        if unknown:
            raise DataError(f"video {vid!r}: unknown modality {min(unknown)!r}")
        try:
            features = {name: np.array(list(map(itemgetter(name), feature_docs)), dtype=np.float64)
                        for name in manifest.modality_dims}
        except KeyError as exc:  # name the first shot that lacks the modality
            name = exc.args[0]
            idx = next(k for k, feats in enumerate(feature_docs, start=1) if name not in feats)
            raise DataError(f"video {vid!r} shot {idx} is missing modality {name!r}") from None
        shots = ShotTable(list(map(itemgetter("start_s"), shot_docs)),
                          list(map(itemgetter("end_s"), shot_docs)), features)
        scenes = None
        if doc.get("scenes") is not None:
            scenes = [
                SceneAnnotation(
                    span=SegmentSpan(float(s["start_s"]), float(s["end_s"])),
                    tags=_scene_tags(s["tags"]),
                )
                for s in doc["scenes"]
            ]
        return VideoRecord(video_id=vid, duration_s=duration, shots=shots, scenes=scenes)
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
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


def load_corpus(manifest_path, records_path) -> Corpus:
    """Load and eagerly validate a corpus. Raises DataError on any violation."""
    manifest = load_manifest(manifest_path)
    records_path = Path(records_path)
    if not records_path.exists():
        raise DataError(f"records file not found: {records_path}")
    videos = []
    with records_path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                video = _parse_video(line, manifest)
                validate_video(video, manifest)
            except DataError as exc:
                raise DataError(f"records {records_path} line {line_no}: {exc}") from exc
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


def _video_doc(video: VideoRecord) -> dict:
    shots = video.shots
    columns = (shots.starts, shots.ends, *shots.features.values())
    return {
        "video_id": video.video_id,
        "duration_s": video.duration_s,
        "shots": [{"start_s": start, "end_s": end, "features": dict(zip(shots.features, vectors))}
                  for start, end, *vectors in zip(*(col.tolist() for col in columns))],
        "scenes": None
        if video.scenes is None
        else [
            {
                "start_s": scene.span.start_s,
                "end_s": scene.span.end_s,
                "tags": sorted(scene.tags),
            }
            for scene in video.scenes
        ],
    }


def save_corpus(corpus: Corpus, manifest_path, records_path) -> None:
    Path(manifest_path).parent.mkdir(parents=True, exist_ok=True)
    Path(manifest_path).write_text(json.dumps(_manifest_doc(corpus.manifest)) + "\n", encoding="utf-8")
    with Path(records_path).open("w", encoding="utf-8") as fh:
        for video in corpus.videos:
            fh.write(json.dumps(_video_doc(video)) + "\n")
