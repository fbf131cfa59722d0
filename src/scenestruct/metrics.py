"""Evaluation suite: tIoU, AP, avg mAP, boundary F1, scene F1, tagging mAP.

Conventions shared with the brute-force reference evaluator used in tests:
  * score ties break by (earlier start, earlier end, input order);
  * AP is raw precision-at-true-positive summation, no interpolation;
  * classes without ground-truth instances are excluded from class means;
  * boundary and scene counts are pooled over videos before the F1;
  * boundary matching maximizes the number of matched pairs (one-to-one,
    strict |dt| < tol); scene matching is greedy by descending tIoU with
    strict tIoU > threshold.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .data.labels import interior_boundaries
from .data.records import Corpus, SegmentSpan
from .errors import DataError

TIOU_THRESHOLDS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
BOUNDARY_TOL_S = 0.5
SCENE_F1_TIOU = 0.75


def tiou(a: SegmentSpan, b: SegmentSpan) -> float:
    """Temporal intersection over union of two spans; disjoint spans give 0."""
    inter = min(a.end_s, b.end_s) - max(a.start_s, b.start_s)
    if inter <= 0:
        return 0.0
    union = a.length_s + b.length_s - inter
    return inter / union


def rank_predictions(preds):
    """Indices of preds=(group, span, score) in evaluation order.

    Descending score, ties by earlier start, earlier end, then input order.
    """
    return sorted(
        range(len(preds)),
        key=lambda idx: (-preds[idx][2], preds[idx][1].start_s, preds[idx][1].end_s, idx),
    )


def average_precision(preds, gts, tiou_thresh) -> float:
    """AP of scored spans against ground-truth spans.

    preds: list of (group, span, score); gts: list of (group, span). A
    prediction may only match an unmatched ground truth of the same group
    (group = video id), at tIoU >= tiou_thresh, taking the best-tIoU
    candidate (first on ties). AP sums precision at each true-positive rank
    divided by the number of ground truths.
    """
    if not gts:
        raise ValueError("average_precision needs at least one ground truth")
    gt_by_group: dict = {}
    for gt_idx, (group, span) in enumerate(gts):
        gt_by_group.setdefault(group, []).append((gt_idx, span))
    matched = [False] * len(gts)
    ap = 0.0
    true_positives = 0
    for rank, pred_idx in enumerate(rank_predictions(preds), start=1):
        group, span, _score = preds[pred_idx]
        best_gt = None
        best_t = 0.0
        for gt_idx, gt_span in gt_by_group.get(group, ()):
            if matched[gt_idx]:
                continue
            t = tiou(span, gt_span)
            if t >= tiou_thresh and t > best_t:
                best_t = t
                best_gt = gt_idx
        if best_gt is not None:
            matched[best_gt] = True
            true_positives += 1
            ap += true_positives / rank
    return ap / len(gts)


def avg_map(preds_by_class, gts_by_class, thresholds=TIOU_THRESHOLDS):
    """Average of mAP over the tIoU threshold sweep.

    Returns (avg, per_threshold, per_class); per-class values are averaged
    over the sweep. Classes without ground truths are excluded.
    """
    classes = sorted(k for k, gts in gts_by_class.items() if gts)
    per_threshold = {}
    per_class_acc = {k: 0.0 for k in classes}
    for thresh in thresholds:
        if not classes:
            per_threshold[thresh] = 0.0
            continue
        total = 0.0
        for k in classes:
            ap = average_precision(preds_by_class.get(k, []), gts_by_class[k], thresh)
            total += ap
            per_class_acc[k] += ap
        per_threshold[thresh] = total / len(classes)
    avg = sum(per_threshold.values()) / len(thresholds)
    per_class = {k: acc / len(thresholds) for k, acc in per_class_acc.items()}
    return avg, per_threshold, per_class


def match_boundaries(pred_times, gt_times, tol_s=BOUNDARY_TOL_S) -> int:
    """Maximum number of one-to-one matches with strict |dt| < tol_s.

    Predictions are processed in ascending time and take the earliest
    unmatched ground truth inside their window, which is optimal because
    each window is an interval of the sorted ground-truth list.
    """
    gt_sorted = sorted(gt_times)
    taken = [False] * len(gt_sorted)
    matches = 0
    cursor = 0
    for p in sorted(pred_times):
        while cursor < len(gt_sorted) and gt_sorted[cursor] <= p - tol_s:
            cursor += 1
        idx = cursor
        while idx < len(gt_sorted) and gt_sorted[idx] < p + tol_s:
            if not taken[idx] and abs(gt_sorted[idx] - p) < tol_s:
                taken[idx] = True
                matches += 1
                break
            idx += 1
    return matches


@dataclass
class F1Result:
    f1: float
    precision: float
    recall: float
    tp: int = 0
    n_pred: int = 0
    n_gt: int = 0


def f1_from_counts(tp, n_pred, n_gt) -> F1Result:
    if n_pred == 0 and n_gt == 0:
        # perfect agreement on "nothing to find"
        return F1Result(1.0, 1.0, 1.0, 0, 0, 0)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gt if n_gt else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return F1Result(f1, precision, recall, tp, n_pred, n_gt)


def boundary_f1(pred_times, gt_times, tol_s=BOUNDARY_TOL_S) -> F1Result:
    """F1 of predicted interior boundaries against ground truth."""
    tp = match_boundaries(pred_times, gt_times, tol_s)
    return f1_from_counts(tp, len(pred_times), len(gt_times))


def match_scenes(pred_spans, gt_spans, tiou_thresh=SCENE_F1_TIOU) -> int:
    """Greedy one-to-one matching by descending tIoU, strict > threshold."""
    pairs = []
    for p_idx, p in enumerate(pred_spans):
        for g_idx, g in enumerate(gt_spans):
            t = tiou(p, g)
            if t > tiou_thresh:
                pairs.append((-t, p_idx, g_idx))
    pairs.sort()
    p_used = [False] * len(pred_spans)
    g_used = [False] * len(gt_spans)
    matches = 0
    for _neg_t, p_idx, g_idx in pairs:
        if not p_used[p_idx] and not g_used[g_idx]:
            p_used[p_idx] = True
            g_used[g_idx] = True
            matches += 1
    return matches


def scene_f1(pred_spans, gt_spans, tiou_thresh=SCENE_F1_TIOU) -> float:
    tp = match_scenes(pred_spans, gt_spans, tiou_thresh)
    return f1_from_counts(tp, len(pred_spans), len(gt_spans)).f1


def tagging_map(scene_preds, num_tags) -> float:
    """Segment-free tagging mAP on ground-truth scenes.

    scene_preds: list of (tags, scores) where tags is the ground-truth tag
    set of the scene and scores maps tag id -> predicted score (missing ids
    count as no prediction). Classes without positives are excluded; score
    ties keep the input order.
    """
    aps = []
    for k in range(1, num_tags + 1):
        ranked = sorted(
            (idx for idx, (_tags, scores) in enumerate(scene_preds) if k in scores),
            key=lambda idx: (-scene_preds[idx][1][k], idx),
        )
        n_pos = sum(1 for tags, _scores in scene_preds if k in tags)
        if n_pos == 0:
            continue
        tp = 0
        ap = 0.0
        for rank, idx in enumerate(ranked, start=1):
            if k in scene_preds[idx][0]:
                tp += 1
                ap += tp / rank
        aps.append(ap / n_pos)
    return sum(aps) / len(aps) if aps else 0.0


@dataclass
class MetricReport:
    avg_map: float
    b_f1: float
    s_f1: float
    final: float
    per_threshold: dict = field(default_factory=dict)
    per_class: dict = field(default_factory=dict)
    boundary_precision: float = 0.0
    boundary_recall: float = 0.0

    def as_dict(self) -> dict:
        return {
            "avg_map": self.avg_map,
            "b_f1": self.b_f1,
            "s_f1": self.s_f1,
            "final": self.final,
            "per_threshold": {f"{t:.2f}": v for t, v in sorted(self.per_threshold.items())},
            "per_class": {str(k): v for k, v in sorted(self.per_class.items())},
            "boundary_precision": self.boundary_precision,
            "boundary_recall": self.boundary_recall,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict()) + "\n", encoding="utf-8")

    def write_csv(self, path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["section", "key", "value"])
            for key in ("avg_map", "b_f1", "s_f1", "final"):
                writer.writerow(["overall", key, getattr(self, key)])
            for t, v in sorted(self.per_threshold.items()):
                writer.writerow(["per_threshold", f"{t:.2f}", v])
            for k, v in sorted(self.per_class.items()):
                writer.writerow(["per_class", k, v])


def _segment_tag_scores(segment) -> dict:
    scores = segment.tag_scores
    if isinstance(scores, dict):
        return scores
    return {k + 1: float(v) for k, v in enumerate(scores)}


def evaluate(predictions, corpus: Corpus, *, thresholds=TIOU_THRESHOLDS,
             boundary_tol_s=BOUNDARY_TOL_S, scene_tiou=SCENE_F1_TIOU) -> MetricReport:
    """Score structured predictions against corpus ground truth.

    predictions: per-video objects with .video_id and .segments, where each
    segment has .span and .tag_scores (dense vector or tag id -> score map).
    Every predicted video must exist in the corpus and carry annotations,
    and every predicted tag id must lie in 1..num_tags.
    """
    num_tags = corpus.manifest.num_tags
    preds_by_video = {}
    for pred in predictions:
        video = corpus.video(pred.video_id)
        if video.scenes is None:
            raise DataError(f"video {pred.video_id!r} has no ground truth to evaluate against")
        preds_by_video[pred.video_id] = pred

    preds_by_class: dict[int, list] = {k: [] for k in range(1, num_tags + 1)}
    gts_by_class: dict[int, list] = {k: [] for k in range(1, num_tags + 1)}
    b_tp = b_pred = b_gt = 0
    s_tp = s_pred = s_gt = 0
    for video in corpus.videos:
        if video.scenes is None:
            continue
        gt_spans = [scene.span for scene in video.scenes]
        for scene in video.scenes:
            for k in scene.tags:
                gts_by_class[k].append((video.video_id, scene.span))
        pred = preds_by_video.get(video.video_id)
        pred_spans = []
        if pred is not None:
            for segment in pred.segments:
                pred_spans.append(segment.span)
                for k, score in _segment_tag_scores(segment).items():
                    if k not in preds_by_class:
                        raise DataError(f"video {video.video_id!r}: predicted tag id {k} "
                                        f"is outside 1..{num_tags}")
                    preds_by_class[k].append((video.video_id, segment.span, score))
        pred_bounds = interior_boundaries(pred_spans, video.duration_s)
        gt_bounds = interior_boundaries(gt_spans, video.duration_s)
        b_tp += match_boundaries(pred_bounds, gt_bounds, boundary_tol_s)
        b_pred += len(pred_bounds)
        b_gt += len(gt_bounds)
        s_tp += match_scenes(pred_spans, gt_spans, scene_tiou)
        s_pred += len(pred_spans)
        s_gt += len(gt_spans)

    avg, per_threshold, per_class = avg_map(preds_by_class, gts_by_class, thresholds)
    b_res = f1_from_counts(b_tp, b_pred, b_gt)
    s_res = f1_from_counts(s_tp, s_pred, s_gt)
    return MetricReport(
        avg_map=avg,
        b_f1=b_res.f1,
        s_f1=s_res.f1,
        final=avg * b_res.f1,
        per_threshold=per_threshold,
        per_class=per_class,
        boundary_precision=b_res.precision,
        boundary_recall=b_res.recall,
    )
