"""Compose the submodels into the four pipeline modes.

Every mode runs the same steps over inclusive 1-based shot ranges, and
models.bundle.MODE_REQUIREMENTS says which nets (and segment head) a mode
runs:

  segment  thresholded boundary scores with the boundary net (a, d), else
           dense proposals scored by the segment net and kept by temporal
           NMS (b, c; a per-tag head ranks by its maximum tag score);
  score    the scalar segment net on the boundary ranges (d), or the kept
           proposals' scores (b, c);
  tag      per-scene tag scores times the confidence where there is one
           (a, b, d); mode c emits its per-tag scores instead.

Modes a and d therefore emit the same spans.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data.labels import span_from_shots
from .data.records import Corpus, SegmentSpan, VideoRecord
from .errors import ConfigError, DataError
from .metrics import tiou
from .models.boundary import boundaries_to_scenes
from .models.bundle import MODE_REQUIREMENTS, ModelBundle
from .models.common import check_setting
from .models.segment import enumerate_proposals

MODES = tuple(MODE_REQUIREMENTS)


@dataclass
class PipelineConfig:
    mode: str = "d"
    threshold_b: float = 0.65
    nms_tiou: float = 0.0
    max_duration_shots: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"pipeline mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.threshold_b < 1.0:
            raise ConfigError(f"threshold_b must be in (0, 1), got {self.threshold_b}")
        if not 0.0 <= self.nms_tiou < 1.0:
            raise ConfigError(f"nms_tiou must be in [0, 1), got {self.nms_tiou}")
        check_setting(self.max_duration_shots, "pipeline.max_duration_shots", 1, integer=True,
                      nullable=True)

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


def segment_proposals(video: VideoRecord, segment, nms_tiou, max_duration_shots=None):
    """NMS-kept proposal ranges in descending rank order, with their score
    rows; a per-tag head ranks by its maximum tag score."""
    proposals = enumerate_proposals(video.num_shots, max_duration_shots)
    spans = [span_from_shots(video, i, j) for i, j in proposals]
    scores = segment.forward_video(video, proposals)
    rank = scores if scores.ndim == 1 else scores.max(axis=1)
    kept = nms_temporal(spans, rank.tolist(), nms_tiou)
    return [proposals[idx] for idx in kept], scores[kept]


def run_pipeline(video: VideoRecord, bundle: ModelBundle, cfg: PipelineConfig) -> StructuredPrediction:
    """Structure one video: ranked scene segments with fused tag scores."""
    needs = MODE_REQUIREMENTS[cfg.mode]
    for net, head in needs.items():
        model = getattr(bundle, net)
        if model is None:
            raise ConfigError(f"pipeline mode {cfg.mode!r} requires the {net} net")
        if head is not None and model.head_mode != head:
            raise ConfigError(f"pipeline mode {cfg.mode!r} needs a {head} {net} head, "
                              f"bundle has {model.head_mode!r}")
    if "boundary" in needs:
        ranges = boundaries_to_scenes(bundle.boundary.forward_video(video), cfg.threshold_b)
        scores = bundle.segment.forward_video(video, ranges) if "segment" in needs else None
    else:
        ranges, scores = segment_proposals(video, bundle.segment, cfg.nms_tiou,
                                           cfg.max_duration_shots)
    segments = []
    for row, (i, j) in enumerate(ranges):
        span = span_from_shots(video, i, j)
        if "tag" not in needs:
            segments.append(PredictedSegment(span, None, scores[row]))
        elif scores is None:
            segments.append(PredictedSegment(span, None, bundle.tag.forward_scene(video, i, j)))
        else:
            conf = float(scores[row])
            segments.append(PredictedSegment(span, conf, conf * bundle.tag.forward_scene(video, i, j)))
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


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise DataError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _tag_id(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"tag id must be an integer, got {value!r}")
    return value


def _parse_prediction(line: str) -> LoadedPrediction:
    """One predictions line; any missing, mistyped or non-finite field is a DataError."""
    try:
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise DataError(f"a prediction must be a JSON object, got {type(doc).__name__}")
        segments = [
            LoadedSegment(
                span=SegmentSpan(_finite(seg["start_s"], "start_s"), _finite(seg["end_s"], "end_s")),
                scene_score=None if seg.get("scene_score") is None
                else _finite(seg["scene_score"], "scene_score"),
                tag_scores={_tag_id(t["id"]): _finite(t["score"], "tag score")
                            for t in seg.get("tags", [])},
            )
            for seg in doc["segments"]
        ]
        return LoadedPrediction(video_id=str(doc["video_id"]), segments=segments)
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise DataError(f"malformed prediction: {exc}") from exc


def read_predictions(path) -> list[LoadedPrediction]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"predictions file not found: {path}")
    out, first_line = [], {}
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                pred = _parse_prediction(line)
            except DataError as exc:
                raise DataError(f"predictions {path} line {line_no}: {exc}") from exc
            seen = first_line.setdefault(pred.video_id, line_no)
            if seen != line_no:
                raise DataError(f"predictions {path} line {line_no}: video {pred.video_id!r} "
                                f"was already predicted on line {seen}")
            out.append(pred)
    return out
