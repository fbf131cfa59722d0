"""Ground-truth alignment and shot-index/time conversions."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .records import SegmentSpan, ShotTable, VideoRecord

# Default alignment tolerance, mirroring the 0.5 s boundary-F1 tolerance.
DEFAULT_BOUNDARY_TOL_S = 0.5


def interior_boundaries(spans, end_s, *, start_s=0.0, edge_tol=1e-6, merge_tol=1e-9):
    """Unique segment endpoints strictly inside (start_s, end_s), sorted.

    Endpoints within edge_tol of the video start or end are dropped; points
    closer than merge_tol are merged (a shared join between two abutting
    segments counts once).
    """
    points = []
    for span in spans:
        points.extend((span.start_s, span.end_s))
    points = sorted(p for p in points if p > start_s + edge_tol and p < end_s - edge_tol)
    merged = []
    for p in points:
        if not merged or p - merged[-1] > merge_tol:
            merged.append(p)
    return merged


def boundary_labels(video: VideoRecord, tol_s=DEFAULT_BOUNDARY_TOL_S) -> np.ndarray:
    """Binary targets for the M-1 interior shot boundaries of a video.

    Each interior ground-truth scene boundary marks the single nearest shot
    boundary (earliest on equidistant ties) as positive, provided the
    distance is strictly below tol_s; this mirrors the strict matching used
    by the boundary F1 metric.
    """
    if tol_s <= 0:
        raise ValueError(f"tol_s must be positive, got {tol_s}")
    if video.scenes is None:
        raise DataError(f"video {video.video_id!r} has no scene annotations")
    m = video.num_shots
    labels = np.zeros(max(m - 1, 0), dtype=np.float64)
    if m < 2:
        return labels
    shot_bounds = video.shots.ends[:-1]
    gt_bounds = interior_boundaries(
        (s.span for s in video.scenes),
        video.shots.ends[-1],
        start_s=video.shots.starts[0],
    )
    for g in gt_bounds:
        dist = np.abs(shot_bounds - g)
        nearest = int(np.argmin(dist))  # argmin takes the earliest on ties
        if dist[nearest] < tol_s:
            labels[nearest] = 1.0
    return labels


def span_from_shots(video: VideoRecord, i: int, j: int) -> SegmentSpan:
    """Time span of the inclusive 1-based shot range [i, j]."""
    m = video.num_shots
    if not 1 <= i <= j <= m:
        raise IndexError(f"shot range ({i}, {j}) out of range for {m} shots")
    return SegmentSpan(video.shots.starts.item(i - 1), video.shots.ends.item(j - 1))


def range_spans(video: VideoRecord, ranges) -> np.ndarray:
    """(N, 2) [start_s, end_s] rows of an (N, 2) array of inclusive 1-based
    shot ranges."""
    ranges = np.asarray(ranges, dtype=np.intp).reshape(-1, 2)
    return np.column_stack([video.shots.starts[ranges[:, 0] - 1],
                            video.shots.ends[ranges[:, 1] - 1]])


def span_array(spans) -> np.ndarray:
    """(N, 2) [start_s, end_s] rows of SegmentSpan objects."""
    return np.array([(s.start_s, s.end_s) for s in spans], dtype=np.float64).reshape(-1, 2)


def shots_in_span(video: VideoRecord, span: SegmentSpan) -> ShotTable:
    """The shots lying inside span (edges within 1e-6 s count), selected by
    time so that gaps between annotated scenes are tolerated."""
    shots = video.shots
    return shots[(shots.starts >= span.start_s - 1e-6) & (shots.ends <= span.end_s + 1e-6)]
