"""Domain types for shot-segmented videos with scene annotations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError

# Fixed concatenation order for modality features; manifest key order is
# irrelevant everywhere in the package.
CANONICAL_MODALITIES = ("vis_r50", "vis_i3", "image", "audio", "text")


def check_spans(spans) -> np.ndarray:
    """spans as a (K, 2) float64 array of [start_s, end_s] rows; a row that
    is not finite with end > start is a DataError."""
    spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
    for start, end in spans.tolist():
        if not 0 < end - start < math.inf:  # NaN where a time is NaN, or both are inf
            raise DataError(f"segment span must be finite with end > start, got [{start}, {end}]")
    return spans


class ShotTable:
    """One video's shots by column: (M,) float64 starts and ends in seconds,
    and features mapping each modality to an (M, dim) float64 array. A slice
    or an integer or boolean row array selects rows into a new table."""

    def __init__(self, starts, ends, features):
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        self.features = {name: np.asarray(col, dtype=np.float64) for name, col in features.items()}
        shapes = {name: col.shape for name, col in self.features.items()}
        m = len(self.starts) if self.starts.ndim == 1 else -1
        if self.ends.shape != (m,) or any(len(s) != 2 or s[0] != m for s in shapes.values()):
            raise DataError("shot columns must be (M,) starts and ends and (M, dim) features, "
                            f"got {self.starts.shape}, {self.ends.shape} and {shapes}")

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, rows) -> "ShotTable":
        return ShotTable(self.starts[rows], self.ends[rows],
                         {name: col[rows] for name, col in self.features.items()})


class SceneTable:
    """One video's ground-truth scenes by row: (K, 2) float64 spans
    [start_s, end_s] sorted by start, then end, and a (K, num_tags) bool tag
    matrix whose column k - 1 holds tag id k, as in StructuredPrediction."""

    def __init__(self, spans, tags):
        spans = check_spans(spans)
        tags = np.asarray(tags, dtype=bool)
        if tags.ndim != 2 or len(tags) != len(spans):
            raise DataError(f"scene tags must be a (K, num_tags) matrix for {len(spans)} "
                            f"spans, got shape {tags.shape}")
        rows = spans.tolist()
        if rows != sorted(rows):  # a stable sort: equal spans keep their order
            order = sorted(range(len(rows)), key=rows.__getitem__)
            spans, tags = spans[order], tags[order]
        self.spans, self.tags = spans, tags

    def __len__(self) -> int:
        return len(self.spans)


@dataclass
class VideoRecord:
    """Ordered shot sequence with optional ground-truth scenes."""

    video_id: str
    duration_s: float
    shots: ShotTable
    scenes: SceneTable | None = None

    @property
    def num_shots(self) -> int:
        return len(self.shots)


@dataclass(eq=False)
class StructuredPrediction:
    """One video's predicted scenes as rows: segments (K, 2) float64
    [start_s, end_s], scene_scores (K,) with NaN where a segment has no
    confidence, and tag_scores (K, num_tags) with NaN where a tag is not
    scored (column k - 1 holds tag id k)."""

    video_id: str
    segments: np.ndarray
    scene_scores: np.ndarray
    tag_scores: np.ndarray

    def __post_init__(self):
        self.segments, self.scene_scores, self.tag_scores = (
            np.asarray(x, dtype=np.float64) for x in (self.segments, self.scene_scores, self.tag_scores))


@dataclass
class CorpusManifest:
    modality_dims: dict[str, int]
    num_tags: int
    stats: dict = field(default_factory=dict)
    tag_names: dict[int, str] = field(default_factory=dict)


@dataclass
class Corpus:
    manifest: CorpusManifest
    videos: list[VideoRecord]

    def __post_init__(self):
        self._by_id = {v.video_id: v for v in self.videos}
        if len(self._by_id) != len(self.videos):
            raise DataError("duplicate video_id in corpus")
        for v in self.videos:
            if v.scenes is not None and v.scenes.tags.shape[1] != self.manifest.num_tags:
                raise DataError(f"video {v.video_id!r}: {v.scenes.tags.shape[1]} scene tag columns "
                                f"for {self.manifest.num_tags} tags")

    def video(self, video_id: str) -> VideoRecord:
        try:
            return self._by_id[video_id]
        except KeyError:
            raise DataError(f"unknown video_id {video_id!r}") from None

    def __len__(self) -> int:
        return len(self.videos)
