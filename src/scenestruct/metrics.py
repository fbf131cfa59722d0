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

import numpy as np

from .data.labels import interior_boundaries, span_array
from .data.records import Corpus
from .errors import DataError

TIOU_THRESHOLDS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)
BOUNDARY_TOL_S = 0.5
SCENE_F1_TIOU = 0.75


def tiou(a_starts, a_ends, b_starts, b_ends) -> np.ndarray:
    """(len(a), len(b)) temporal intersection over union of two span sets;
    disjoint and abutting pairs give 0."""
    a_starts, a_ends = (np.asarray(x, dtype=np.float64)[:, None] for x in (a_starts, a_ends))
    b_starts, b_ends = (np.asarray(x, dtype=np.float64) for x in (b_starts, b_ends))
    inter = np.minimum(a_ends, b_ends) - np.maximum(a_starts, b_starts)
    union = (a_ends - a_starts) + (b_ends - b_starts) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)


def rank_predictions(scores, spans) -> np.ndarray:
    """Indices of scored (N, 2) [start_s, end_s] spans in evaluation order:
    descending score, ties by earlier start, earlier end, then input order."""
    return np.lexsort((spans[:, 1], spans[:, 0], -np.asarray(scores)))


def average_precision(preds, num_gts) -> list[float]:
    """AP of one class at each threshold of TIOU_THRESHOLDS.

    preds: one (score, start_s, end_s, candidates) per prediction, where
    candidates lists the (ground-truth index, tIoU > 0) pairs it may match:
    the class's ground truths in its own video. The predictions are ranked
    once (rank_predictions); at each threshold each in turn takes the
    unmatched candidate of best tIoU >= the threshold (first on ties). AP
    sums precision at each true-positive rank divided by num_gts.
    """
    if not num_gts:
        raise ValueError("average_precision needs at least one ground truth")
    cols = np.array([p[:3] for p in preds], dtype=np.float64).reshape(-1, 3)
    order = rank_predictions(cols[:, 0], cols[:, 1:]).tolist()
    hits = [(rank, preds[idx][3]) for rank, idx in enumerate(order, start=1) if preds[idx][3]]
    aps = []
    for thresh in TIOU_THRESHOLDS:
        matched = set()
        ap = 0.0
        true_positives = 0
        for rank, candidates in hits:
            best_gt = None
            best_t = 0.0
            for gt_idx, t in candidates:
                if t >= thresh and t > best_t and gt_idx not in matched:
                    best_t = t
                    best_gt = gt_idx
            if best_gt is not None:
                matched.add(best_gt)
                true_positives += 1
                ap += true_positives / rank
        aps.append(ap / num_gts)
    return aps


def avg_map(preds_by_class, num_gts_by_class):
    """Average of mAP over the tIoU threshold sweep.

    preds_by_class maps a class to its average_precision predictions and
    num_gts_by_class to its ground-truth count. Returns (avg,
    per_threshold, per_class); per-class values are averaged over the
    sweep. Classes without ground truths are excluded.
    """
    classes = sorted(k for k, n in num_gts_by_class.items() if n)
    totals = [0.0] * len(TIOU_THRESHOLDS)
    per_class = {}
    for k in classes:
        aps = average_precision(preds_by_class.get(k, []), num_gts_by_class[k])
        totals = [total + ap for total, ap in zip(totals, aps)]
        per_class[k] = sum(aps) / len(TIOU_THRESHOLDS)
    per_threshold = {thresh: total / len(classes) if classes else 0.0
                     for thresh, total in zip(TIOU_THRESHOLDS, totals)}
    avg = sum(per_threshold.values()) / len(TIOU_THRESHOLDS)
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


def match_scenes(tious) -> int:
    """Greedy one-to-one matching of predicted scenes (rows) to ground-truth
    scenes (columns) of a tIoU matrix: by descending tIoU, strict >
    SCENE_F1_TIOU, ties by earlier prediction, then earlier ground truth."""
    p_idx, g_idx = np.nonzero(tious > SCENE_F1_TIOU)  # row-major order
    order = np.argsort(-tious[p_idx, g_idx], kind="stable")
    p_used, g_used = set(), set()
    for p, g in zip(p_idx[order].tolist(), g_idx[order].tolist()):
        if p not in p_used and g not in g_used:
            p_used.add(p)
            g_used.add(g)
    return len(p_used)


def scene_f1(tious) -> float:
    """F1 of the scene matching of a (predictions x ground truths) tIoU matrix."""
    return f1_from_counts(match_scenes(tious), *tious.shape).f1


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


def evaluate(predictions, corpus: Corpus) -> MetricReport:
    """Score structured predictions against corpus ground truth.

    predictions: per-video objects with .video_id and .segments, where each
    segment has .span and .tag_scores (dense vector or tag id -> score map).
    Every predicted video must exist in the corpus and carry annotations,
    and every predicted tag id must lie in 1..num_tags. Each video's
    (segments x scenes) tIoU matrix is computed once and serves the scene
    matching and every class's AP.
    """
    num_tags = corpus.manifest.num_tags
    preds_by_video = {}
    for pred in predictions:
        video = corpus.video(pred.video_id)
        if video.scenes is None:
            raise DataError(f"video {pred.video_id!r} has no ground truth to evaluate against")
        preds_by_video[pred.video_id] = pred

    preds_by_class: dict[int, list] = {k: [] for k in range(1, num_tags + 1)}
    num_gts = dict.fromkeys(preds_by_class, 0)
    b_tp = b_pred = b_gt = 0
    s_tp = s_pred = s_gt = 0
    for video in corpus.videos:
        if video.scenes is None:
            continue
        gt_spans = [scene.span for scene in video.scenes]
        class_gts: dict[int, list] = {}  # class -> (ground-truth index, scene row)
        for row, scene in enumerate(video.scenes):
            for k in scene.tags:
                class_gts.setdefault(k, []).append((num_gts[k], row))
                num_gts[k] += 1
        pred = preds_by_video.get(video.video_id)
        segments = pred.segments if pred is not None else []
        pred_spans = [segment.span for segment in segments]
        tious = tiou(*span_array(pred_spans).T, *span_array(gt_spans).T)
        for segment, row in zip(segments, tious.tolist()):
            candidates = {k: [(gt_idx, row[col]) for gt_idx, col in gts if row[col] > 0]
                          for k, gts in class_gts.items()}
            span = segment.span
            for k, score in _segment_tag_scores(segment).items():
                if k not in preds_by_class:
                    raise DataError(f"video {video.video_id!r}: predicted tag id {k} "
                                    f"is outside 1..{num_tags}")
                preds_by_class[k].append((score, span.start_s, span.end_s, candidates.get(k, [])))
        pred_bounds = interior_boundaries(pred_spans, video.duration_s)
        gt_bounds = interior_boundaries(gt_spans, video.duration_s)
        b_tp += match_boundaries(pred_bounds, gt_bounds)
        b_pred += len(pred_bounds)
        b_gt += len(gt_bounds)
        s_tp += match_scenes(tious)
        s_pred += len(pred_spans)
        s_gt += len(gt_spans)

    avg, per_threshold, per_class = avg_map(preds_by_class, num_gts)
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
