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

from .data.corpus_io import SHOT_CONTIGUITY_TOL_S
from .data.labels import interior_boundaries
from .data.records import Corpus, StructuredPrediction
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


def average_precision(scores, pairs, num_gts) -> list[float]:
    """AP of one class at each threshold of TIOU_THRESHOLDS.

    scores: (N,) prediction scores, NaN where there is no prediction, ranked
    by descending score with ties in list order (evaluate lists spans by
    earlier start, then earlier end, as rank_predictions breaks ties).
    pairs: (C, 3) rows of (prediction index, ground-truth index, tIoU > 0),
    the candidates each prediction may match: the class's ground truths in
    its own video. At each threshold each prediction with a candidate in
    turn takes the unmatched candidate of best tIoU >= the threshold (first
    listed on ties). AP sums precision at each true-positive rank divided
    by num_gts.
    """
    if not num_gts:
        raise ValueError("average_precision needs at least one ground truth")
    scored = np.flatnonzero(~np.isnan(scores))
    # descending score with ties in list order, from two quicksorts (NumPy's
    # stable sort is several times slower past a few thousand entries): the
    # second sorts distinct (score level, list position) keys
    order = np.argsort(-scores[scored])
    ranked = scores[scored][order]
    level = np.cumsum(np.r_[True, ranked[1:] != ranked[:-1]])
    order = order[np.argsort(level * len(scored) + order)]
    ranks = np.zeros(len(scores), dtype=np.intp)  # 1-based; 0 where there is no prediction
    ranks[scored[order]] = np.arange(1, len(scored) + 1)
    hits: dict[int, list] = {}  # rank -> its (ground-truth index, tIoU) candidates, as listed
    for rank, (_idx, gt_idx, t) in zip(ranks[pairs[:, 0].astype(np.intp)].tolist(), pairs.tolist()):
        if rank:
            hits.setdefault(rank, []).append((gt_idx, t))
    hits = sorted(hits.items())
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

    preds_by_class maps a class to its average_precision (scores, pairs)
    and num_gts_by_class to its ground-truth count. Returns (avg,
    per_threshold, per_class); per-class values are averaged over the
    sweep. Classes without ground truths are excluded.
    """
    classes = sorted(k for k, n in num_gts_by_class.items() if n)
    totals = [0.0] * len(TIOU_THRESHOLDS)
    per_class = {}
    for k in classes:
        aps = average_precision(*preds_by_class[k], num_gts_by_class[k])
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


def tagging_map(scores, tags) -> float:
    """Segment-free tagging mAP on ground-truth scenes.

    scores: (S, T) predicted scores, NaN where a tag is not scored; tags:
    the (S, T) bool ground-truth matrix (column k - 1 holds tag id k). Each
    class ranks its scored scenes by descending score, ties in row order,
    and sums precision at each positive in rank order. Classes without
    positives are excluded.
    """
    scores, tags = np.asarray(scores, dtype=np.float64), np.asarray(tags, dtype=bool)
    order = np.argsort(-scores, axis=0, kind="stable")  # NaN (not scored) sorts last
    cols = np.arange(scores.shape[1])
    hits = tags[order, cols] & ~np.isnan(scores[order, cols])
    ranks = np.arange(1, len(scores) + 1)[:, None]
    precision = np.where(hits, np.cumsum(hits, axis=0) / ranks, 0.0)
    # cumsum adds in rank order, as a running sum would; np.sum would pair terms
    totals = np.cumsum(np.vstack([np.zeros(len(cols)), precision]), axis=0)[-1]
    aps = [ap / n for ap, n in zip(totals.tolist(), tags.sum(axis=0).tolist()) if n]
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


def evaluate(predictions, corpus: Corpus) -> MetricReport:
    """Score StructuredPredictions against corpus ground truth.

    Every predicted video must exist in the corpus and carry annotations,
    and its tag_scores must have one column per corpus tag. Each video's
    (segments x scenes) tIoU matrix is computed once and serves the scene
    matching and every class's AP; each class's predictions are every
    segment's column of tag scores, ranked once.
    """
    num_tags = corpus.manifest.num_tags
    preds_by_video = {}
    for pred in predictions:
        video = corpus.video(pred.video_id)
        if video.scenes is None:
            raise DataError(f"video {pred.video_id!r} has no ground truth to evaluate against")
        if pred.tag_scores.shape[1] != num_tags:
            raise DataError(f"video {pred.video_id!r}: {pred.tag_scores.shape[1]} tag score "
                            f"columns for {num_tags} tags")
        preds_by_video[pred.video_id] = pred

    no_prediction = StructuredPrediction("", np.empty((0, 2)), np.empty(0), np.empty((0, num_tags)))
    spans, tag_scores = [no_prediction.segments], [no_prediction.tag_scores]  # video by video
    pairs = [np.empty((0, 4))]  # (class, segment, ground-truth index, tIoU) of each candidate pair
    seen = np.zeros(num_tags, dtype=np.intp)  # ground truths of each class in earlier videos
    offset = 0
    b_tp = b_pred = b_gt = 0
    s_tp = s_pred = s_gt = 0
    for video in corpus.videos:
        scenes = video.scenes
        if scenes is None:
            continue
        pred = preds_by_video.get(video.video_id, no_prediction)
        tious = tiou(*pred.segments.T, *scenes.spans.T)
        # each class numbers its ground truths in (video, scene) order
        gt_index = seen + np.cumsum(scenes.tags, axis=0) - 1
        seen += scenes.tags.sum(axis=0)
        rows, cols = np.nonzero(tious > 0)
        pair, k = np.nonzero(scenes.tags[cols])  # each class's pairs keep row-major order
        rows, cols = rows[pair], cols[pair]
        pairs.append(np.column_stack([k + 1, offset + rows, gt_index[cols, k], tious[rows, cols]]))
        spans.append(pred.segments)
        tag_scores.append(pred.tag_scores)
        offset += len(pred.segments)
        # a cut across a shot gap that the corpus accepts is one boundary, not two
        pred_bounds = interior_boundaries(pred.segments, video.duration_s,
                                          merge_tol=SHOT_CONTIGUITY_TOL_S)
        gt_bounds = interior_boundaries(scenes.spans, video.duration_s,
                                        merge_tol=SHOT_CONTIGUITY_TOL_S)
        b_tp += match_boundaries(pred_bounds, gt_bounds)
        b_pred += len(pred_bounds)
        b_gt += len(gt_bounds)
        s_tp += match_scenes(tious)
        s_pred += len(pred.segments)
        s_gt += len(scenes)

    spans, pairs = np.concatenate(spans), np.concatenate(pairs)
    # segments listed by earlier start, then earlier end, as rank_predictions breaks ties
    by_span = np.lexsort((spans[:, 1], spans[:, 0]))
    pairs[:, 1] = np.argsort(by_span)[pairs[:, 1].astype(np.intp)]
    columns = np.concatenate(tag_scores)[by_span].T
    num_gts = dict(enumerate(seen.tolist(), start=1))
    preds_by_class = {k: (columns[k - 1], pairs[pairs[:, 0] == k, 1:]) for k in num_gts}
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
