"""Compose the submodels into the four pipeline modes.

  a: boundary thresholding -> per-scene tag scores.
  b: dense proposals -> scalar confidences -> temporal NMS -> confidence
     times tag scores.
  c: dense proposals -> per-tag scores -> NMS on a scalarized ranking key.
  d: boundary thresholding -> per-scene confidence and tag scores ->
     confidence times tag scores (same spans as mode a by construction).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data.labels import span_from_shots
from .data.records import Corpus, SegmentSpan, VideoRecord
from .errors import ConfigError, DataError
from .metrics import tiou
from .models.boundary import boundaries_to_scenes
from .models.bundle import ModelBundle
from .models.segment import enumerate_proposals

MODES = ("a", "b", "c", "d")


@dataclass
class PipelineConfig:
    mode: str = "d"
    threshold_b: float = 0.65
    nms_tiou: float = 0.0
    max_duration_shots: int | None = None
    top_n_segments: int | None = None
    per_tag_rank: str = "max"  # scalarization of per-tag scores for NMS in mode c

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"pipeline mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.threshold_b < 1.0:
            raise ConfigError(f"threshold_b must be in (0, 1), got {self.threshold_b}")
        if not 0.0 <= self.nms_tiou < 1.0:
            raise ConfigError(f"nms_tiou must be in [0, 1), got {self.nms_tiou}")
        if self.per_tag_rank not in ("max", "mean"):
            raise ConfigError(f"per_tag_rank must be 'max' or 'mean', got {self.per_tag_rank!r}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PredictedSegment:
    span: SegmentSpan
    scene_score: float | None
    tag_scores: np.ndarray  # fused per-tag scores, length num_tags


@dataclass
class StructuredPrediction:
    video_id: str
    segments: list[PredictedSegment] = field(default_factory=list)


def nms_temporal(spans, scores, nms_tiou) -> list[int]:
    """Greedy temporal non-maximum suppression.

    Repeatedly keeps the highest-scoring remaining span and discards every
    span whose tIoU with it strictly exceeds nms_tiou; at nms_tiou = 0
    abutting spans survive and the kept set is pairwise disjoint. Returns
    indices of kept spans in descending score order (ties by earlier start,
    earlier end, input order).
    """
    order = sorted(
        range(len(spans)),
        key=lambda idx: (-scores[idx], spans[idx].start_s, spans[idx].end_s, idx),
    )
    suppressed = [False] * len(spans)
    kept = []
    for pos, idx in enumerate(order):
        if suppressed[idx]:
            continue
        kept.append(idx)
        for other in order[pos + 1 :]:
            if not suppressed[other] and tiou(spans[idx], spans[other]) > nms_tiou:
                suppressed[other] = True
    return kept


def _require(bundle: ModelBundle, cfg: PipelineConfig, *nets: str) -> None:
    for net in nets:
        if getattr(bundle, net) is None:
            raise ConfigError(f"pipeline mode {cfg.mode!r} requires the {net} net")
    if bundle.segment is not None and "segment" in nets:
        needed = "per_tag" if cfg.mode == "c" else "scalar"
        if bundle.segment.head_mode != needed:
            raise ConfigError(
                f"pipeline mode {cfg.mode!r} needs a {needed} segment head, "
                f"bundle has {bundle.segment.head_mode!r}"
            )


def _boundary_scenes(video: VideoRecord, bundle: ModelBundle, cfg: PipelineConfig):
    scores = bundle.boundary.forward_video(video)
    return boundaries_to_scenes(scores, cfg.threshold_b)


def run_pipeline(video: VideoRecord, bundle: ModelBundle, cfg: PipelineConfig) -> StructuredPrediction:
    """Structure one video: ranked scene segments with fused tag scores."""
    if cfg.mode == "a":
        _require(bundle, cfg, "boundary", "tag")
        segments = []
        for i, j in _boundary_scenes(video, bundle, cfg):
            tags = bundle.tag.forward_scene(video, i, j)
            segments.append(PredictedSegment(span_from_shots(video, i, j), None, tags))
        return StructuredPrediction(video.video_id, segments)

    if cfg.mode == "d":
        _require(bundle, cfg, "boundary", "segment", "tag")
        scene_ranges = _boundary_scenes(video, bundle, cfg)
        spans = [span_from_shots(video, i, j) for i, j in scene_ranges]
        confidences = bundle.segment.score_spans(video, spans)
        segments = []
        for (i, j), span, conf in zip(scene_ranges, spans, confidences):
            tags = bundle.tag.forward_scene(video, i, j)
            segments.append(PredictedSegment(span, float(conf), float(conf) * tags))
        return StructuredPrediction(video.video_id, segments)

    if cfg.mode == "b":
        _require(bundle, cfg, "segment", "tag")
        proposals = enumerate_proposals(video.num_shots, cfg.max_duration_shots)
        spans = [span_from_shots(video, i, j) for i, j in proposals]
        confidences = bundle.segment.forward_video(video, proposals)
        kept = nms_temporal(spans, confidences.tolist(), cfg.nms_tiou)
        if cfg.top_n_segments is not None:
            kept = kept[: cfg.top_n_segments]
        segments = []
        for idx in kept:
            i, j = proposals[idx]
            conf = float(confidences[idx])
            tags = bundle.tag.forward_scene(video, i, j)
            segments.append(PredictedSegment(spans[idx], conf, conf * tags))
        return StructuredPrediction(video.video_id, segments)

    # mode c
    _require(bundle, cfg, "segment")
    proposals = enumerate_proposals(video.num_shots, cfg.max_duration_shots)
    spans = [span_from_shots(video, i, j) for i, j in proposals]
    scores = bundle.segment.forward_video(video, proposals)
    rank_key = scores.max(axis=1) if cfg.per_tag_rank == "max" else scores.mean(axis=1)
    kept = nms_temporal(spans, rank_key.tolist(), cfg.nms_tiou)
    if cfg.top_n_segments is not None:
        kept = kept[: cfg.top_n_segments]
    segments = [PredictedSegment(spans[idx], None, scores[idx].copy()) for idx in kept]
    return StructuredPrediction(video.video_id, segments)


def predict_corpus(corpus: Corpus, bundle: ModelBundle, cfg: PipelineConfig,
                   out_path=None, video_ids=None) -> list[StructuredPrediction]:
    """Run the pipeline over corpus videos; deterministic for fixed inputs."""
    bundle.validate_for_corpus(corpus.manifest)
    videos = corpus.videos if video_ids is None else [corpus.video(v) for v in video_ids]
    predictions = [run_pipeline(video, bundle, cfg) for video in videos]
    if out_path is not None:
        write_predictions(predictions, out_path)
    return predictions


def write_predictions(predictions, path) -> None:
    """One JSON line per video; tag lists sorted by descending fused score
    (ascending id on ties)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for pred in predictions:
            doc = {
                "video_id": pred.video_id,
                "segments": [
                    {
                        "start_s": seg.span.start_s,
                        "end_s": seg.span.end_s,
                        "scene_score": seg.scene_score,
                        "tags": [
                            {"id": tag_id, "score": float(score)}
                            for tag_id, score in sorted(
                                ((k + 1, float(v)) for k, v in enumerate(seg.tag_scores)),
                                key=lambda kv: (-kv[1], kv[0]),
                            )
                        ],
                    }
                    for seg in pred.segments
                ],
            }
            fh.write(json.dumps(doc) + "\n")


@dataclass
class LoadedSegment:
    span: SegmentSpan
    scene_score: float | None
    tag_scores: dict  # tag id -> fused score (may be a subset of the vocabulary)


@dataclass
class LoadedPrediction:
    video_id: str
    segments: list[LoadedSegment]


def read_predictions(path) -> list[LoadedPrediction]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"predictions file not found: {path}")
    out = []
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"predictions line {line_no} is not valid JSON: {exc}") from exc
            segments = [
                LoadedSegment(
                    span=SegmentSpan(float(seg["start_s"]), float(seg["end_s"])),
                    scene_score=None if seg.get("scene_score") is None else float(seg["scene_score"]),
                    tag_scores={int(t["id"]): float(t["score"]) for t in seg.get("tags", [])},
                )
                for seg in doc["segments"]
            ]
            out.append(LoadedPrediction(video_id=str(doc["video_id"]), segments=segments))
    return out
