"""Domain types for shot-segmented videos with scene annotations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError

# Fixed concatenation order for modality features; manifest key order is
# irrelevant everywhere in the package.
CANONICAL_MODALITIES = ("vis_r50", "vis_i3", "image", "audio", "text")


@dataclass(frozen=True)
class SegmentSpan:
    """Half-open temporal interval [start_s, end_s) in seconds."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if not (self.end_s > self.start_s and math.isfinite(self.end_s - self.start_s)):
            raise DataError(
                f"segment span must be finite with end > start, got [{self.start_s}, {self.end_s}]"
            )


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


@dataclass
class SceneAnnotation:
    span: SegmentSpan
    tags: frozenset[int]


@dataclass
class VideoRecord:
    """Ordered shot sequence with an optional ground-truth scene list."""

    video_id: str
    duration_s: float
    shots: ShotTable
    scenes: list[SceneAnnotation] | None = None

    @property
    def num_shots(self) -> int:
        return len(self.shots)


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

    def video(self, video_id: str) -> VideoRecord:
        try:
            return self._by_id[video_id]
        except KeyError:
            raise DataError(f"unknown video_id {video_id!r}") from None

    def __len__(self) -> int:
        return len(self.videos)
