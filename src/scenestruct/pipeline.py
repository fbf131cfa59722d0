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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data.labels import range_spans
from .data.records import Corpus, StructuredPrediction, VideoRecord, check_spans
from .errors import ConfigError, DataError
from .metrics import rank_predictions, tiou
from .models.boundary import boundaries_to_scenes
from .models.bundle import MODE_REQUIREMENTS, ModelBundle
from .models.common import check_setting
from .models.segment import enumerate_proposals
from .models.tag import scene_shots

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
        check_setting(self.threshold_b, "pipeline.threshold_b", 0, 1, open_low=True)
        check_setting(self.nms_tiou, "pipeline.nms_tiou", 0, 1)
        check_setting(self.max_duration_shots, "pipeline.max_duration_shots", 1, integer=True,
                      nullable=True)

    def as_dict(self) -> dict:
        return asdict(self)


def nms_temporal(spans, scores, nms_tiou) -> list[int]:
    """Greedy temporal non-maximum suppression over (N, 2) [start_s, end_s]
    spans.

    Repeatedly keeps the highest-scoring remaining span and discards every
    span whose tIoU with it strictly exceeds nms_tiou; at nms_tiou = 0
    abutting spans survive and the kept set is pairwise disjoint. Returns
    indices of kept spans in descending score order (ties by earlier start,
    earlier end, input order).
    """
    spans = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
    starts, ends = spans.T
    suppressed = np.zeros(len(spans), dtype=bool)
    kept = []
    for idx in rank_predictions(scores, spans).tolist():
        if not suppressed[idx]:
            kept.append(idx)
            row = tiou(starts[idx : idx + 1], ends[idx : idx + 1], starts, ends)[0]
            suppressed |= row > nms_tiou
    return kept


def segment_proposals(video: VideoRecord, segment, nms_tiou, max_duration_shots=None):
    """NMS-kept (K, 2) proposal ranges in descending rank order, with their
    score rows; a per-tag head ranks by its maximum tag score."""
    proposals = enumerate_proposals(video.num_shots, max_duration_shots)
    scores = segment.forward_video(video, proposals)
    rank = scores if scores.ndim == 1 else scores.max(axis=1)
    kept = nms_temporal(range_spans(video, proposals), rank, nms_tiou)
    return proposals[kept], scores[kept]


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
    if "tag" in needs:
        tags = bundle.tag.forward_scenes([scene_shots(video, i, j)
                                          for i, j in np.asarray(ranges).tolist()])
    else:  # mode c: the per-tag segment scores are the tag scores
        tags, scores = scores, None
    spans = range_spans(video, ranges)
    if scores is None:
        return StructuredPrediction(video.video_id, spans, np.full(len(spans), np.nan), tags)
    # fused in the tag net's dtype; the record widens it to float64
    return StructuredPrediction(video.video_id, spans, scores, scores.astype(tags.dtype)[:, None] * tags)


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
    """One JSON line per video; each segment lists its scored tags by
    descending score (ascending id on ties), and a NaN scene score is null."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for pred in predictions:
            segments = []
            for (start, end), conf, row in zip(pred.segments.tolist(), pred.scene_scores.tolist(),
                                               pred.tag_scores.tolist()):
                tags = sorted(((k + 1, v) for k, v in enumerate(row) if not math.isnan(v)),
                              key=lambda kv: (-kv[1], kv[0]))
                segments.append({"start_s": start, "end_s": end,
                                 "scene_score": None if math.isnan(conf) else conf,
                                 "tags": [{"id": k, "score": v} for k, v in tags]})
            fh.write(json.dumps({"video_id": pred.video_id, "segments": segments}) + "\n")


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise DataError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DataError(f"malformed prediction: {what} must be a list, got {value!r}")
    return value


def _parse_prediction(line: str):
    """One predictions line as its video_id, (K, 2) spans, (K,) scene scores
    and the segment row, tag id and score of each tag entry; a missing,
    mistyped or non-finite field is a DataError."""
    try:
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise DataError(f"a prediction must be a JSON object, got {type(doc).__name__}")
        video_id, segments = doc["video_id"], _list(doc["segments"], "segments")
        if not isinstance(video_id, str):
            raise DataError(f"video_id must be a string, got {video_id!r}")
        spans = []
        scene_scores = np.full(len(segments), np.nan)
        rows, ids, scores = [], [], []
        for row, seg in enumerate(segments):
            spans.append((_finite(seg["start_s"], "start_s"), _finite(seg["end_s"], "end_s")))
            if seg.get("scene_score") is not None:
                scene_scores[row] = _finite(seg["scene_score"], "scene_score")
            tags = _list(seg.get("tags", []), "tags")
            rows += [row] * len(tags)
            ids += [tag["id"] for tag in tags]
            scores += [tag["score"] for tag in tags]
        spans = check_spans(spans)
        wrong = [k for k in ids if type(k) is not int]  # a bool is not an id
        if wrong:
            raise DataError(f"tag id must be an integer, got {wrong[0]!r}")
        wrong = [v for v in scores if type(v) not in (int, float) or not math.isfinite(v)]
        if wrong:
            raise DataError(f"tag score must be a finite number, got {wrong[0]!r}")
        return video_id, spans, scene_scores, rows, ids, scores
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"missing key {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise DataError(f"malformed prediction: {exc}") from exc


def read_predictions(path, num_tags: int) -> list[StructuredPrediction]:
    """The predictions file as records with num_tags tag columns; a tag id
    outside 1..num_tags or listed twice in a segment, or a second line for a
    video, is a DataError."""
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
                video_id, spans, scene_scores, rows, ids, scores = _parse_prediction(line)
            except DataError as exc:
                raise DataError(f"predictions {path} line {line_no}: {exc}") from exc
            outside = [tag_id for tag_id in ids if not 1 <= tag_id <= num_tags]
            if outside:
                raise DataError(f"predictions {path}: video {video_id!r}: predicted tag id "
                                f"{outside[0]} is outside 1..{num_tags} (line {line_no})")
            tag_scores = np.full((len(spans), num_tags), np.nan)
            tag_scores[np.array(rows, dtype=np.intp), np.array(ids, dtype=np.intp) - 1] = scores
            if np.count_nonzero(~np.isnan(tag_scores)) < len(ids):
                raise DataError(f"predictions {path} line {line_no}: a segment lists a tag id twice")
            seen = first_line.setdefault(video_id, line_no)
            if seen != line_no:
                raise DataError(f"predictions {path} line {line_no}: video {video_id!r} "
                                f"was already predicted on line {seen}")
            out.append(StructuredPrediction(video_id, spans, scene_scores, tag_scores))
    return out
