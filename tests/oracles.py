"""Independent brute-force reference implementations used as test oracles.

Everything here is written for clarity over speed (quadratic or cubic
loops, exhaustive matching) and deliberately avoids sharing code with the
package under test.
"""

from functools import lru_cache


def naive_tiou(a_start, a_end, b_start, b_end):
    lo = max(a_start, b_start)
    hi = min(a_end, b_end)
    if hi <= lo:
        return 0.0
    inter = hi - lo
    union = (a_end - a_start) + (b_end - b_start) - inter
    return inter / union


def max_boundary_matches(pred_times, gt_times, tol=0.5):
    """Exhaustive maximum one-to-one matching with strict |dt| < tol."""
    preds = tuple(sorted(pred_times))
    gts = tuple(sorted(gt_times))

    @lru_cache(maxsize=None)
    def best(p_idx, taken_mask):
        if p_idx == len(preds):
            return 0
        result = best(p_idx + 1, taken_mask)
        for g_idx, g in enumerate(gts):
            if taken_mask & (1 << g_idx):
                continue
            if abs(preds[p_idx] - g) < tol:
                result = max(result, 1 + best(p_idx + 1, taken_mask | (1 << g_idx)))
        return result

    out = best(0, 0)
    best.cache_clear()
    return out


def f1_from_counts(tp, n_pred, n_gt):
    if n_pred == 0 and n_gt == 0:
        return 1.0, 1.0, 1.0
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gt if n_gt else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return f1, p, r


def naive_boundary_f1(pred_times, gt_times, tol=0.5):
    tp = max_boundary_matches(pred_times, gt_times, tol)
    return f1_from_counts(tp, len(pred_times), len(gt_times))[0]


def naive_scene_matches(pred_spans, gt_spans, thresh=0.75):
    """Greedy by descending tIoU with strict > thresh, rescanning each round.

    Ties resolve to the earliest (pred index, gt index) pair.
    """
    p_used = [False] * len(pred_spans)
    g_used = [False] * len(gt_spans)
    matches = 0
    while True:
        best = None
        best_t = thresh
        for p_idx, (ps, pe) in enumerate(pred_spans):
            if p_used[p_idx]:
                continue
            for g_idx, (gs, ge) in enumerate(gt_spans):
                if g_used[g_idx]:
                    continue
                t = naive_tiou(ps, pe, gs, ge)
                if t > best_t:
                    best_t = t
                    best = (p_idx, g_idx)
        if best is None:
            return matches
        p_used[best[0]] = True
        g_used[best[1]] = True
        matches += 1


def naive_scene_f1(pred_spans, gt_spans, thresh=0.75):
    tp = naive_scene_matches(pred_spans, gt_spans, thresh)
    return f1_from_counts(tp, len(pred_spans), len(gt_spans))[0]


def rank_order(preds):
    """preds: (video, start, end, score). Same tie rule as the package."""
    return sorted(range(len(preds)), key=lambda i: (-preds[i][3], preds[i][1], preds[i][2], i))


def naive_average_precision(preds, gts, thresh):
    """preds: (video, start, end, score); gts: (video, start, end).

    Precision at each true-positive rank is recomputed from scratch.
    """
    order = rank_order(preds)
    matched_gt = set()
    is_tp = []
    for idx in order:
        video, start, end, _score = preds[idx]
        best_gt = None
        best_t = 0.0
        for g_idx, (g_video, gs, ge) in enumerate(gts):
            if g_idx in matched_gt or g_video != video:
                continue
            t = naive_tiou(start, end, gs, ge)
            if t >= thresh and t > best_t:
                best_t = t
                best_gt = g_idx
        if best_gt is not None:
            matched_gt.add(best_gt)
            is_tp.append(True)
        else:
            is_tp.append(False)
    ap = 0.0
    for rank in range(1, len(is_tp) + 1):
        if is_tp[rank - 1]:
            tp_so_far = sum(1 for flag in is_tp[:rank] if flag)
            ap += tp_so_far / rank
    return ap / len(gts)


THRESHOLDS = [0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]


def naive_avg_map(preds_by_class, gts_by_class):
    classes = [k for k in sorted(gts_by_class) if gts_by_class[k]]
    per_threshold = {}
    for thresh in THRESHOLDS:
        if not classes:
            per_threshold[thresh] = 0.0
            continue
        aps = [
            naive_average_precision(preds_by_class.get(k, []), gts_by_class[k], thresh)
            for k in classes
        ]
        per_threshold[thresh] = sum(aps) / len(aps)
    return sum(per_threshold.values()) / len(THRESHOLDS), per_threshold


def naive_interior_boundaries(spans, duration, edge_tol=1e-6, merge_tol=1e-9):
    pts = []
    for start, end in spans:
        for p in (start, end):
            if edge_tol < p < duration - edge_tol:
                pts.append(p)
    pts.sort()
    out = []
    for p in pts:
        if not out or p - out[-1] > merge_tol:
            out.append(p)
    return out


def naive_evaluate(videos):
    """Full-reference evaluation over a list of instance dicts:

    {"duration": float,
     "gt": [(start, end, tags set)],
     "pred": [(start, end, {tag: score})]}

    Returns dict with avg_map, b_f1, s_f1, final.
    """
    preds_by_class = {}
    gts_by_class = {}
    b_tp = b_pred = b_gt = 0
    s_tp = s_pred = s_gt = 0
    for v_idx, video in enumerate(videos):
        for start, end, tags in video["gt"]:
            for k in tags:
                gts_by_class.setdefault(k, []).append((v_idx, start, end))
        for start, end, scores in video["pred"]:
            for k, score in scores.items():
                preds_by_class.setdefault(k, []).append((v_idx, start, end, score))
        pred_spans = [(s, e) for s, e, _ in video["pred"]]
        gt_spans = [(s, e) for s, e, _ in video["gt"]]
        pb = naive_interior_boundaries(pred_spans, video["duration"])
        gb = naive_interior_boundaries(gt_spans, video["duration"])
        b_tp += max_boundary_matches(pb, gb)
        b_pred += len(pb)
        b_gt += len(gb)
        s_tp += naive_scene_matches(pred_spans, gt_spans)
        s_pred += len(pred_spans)
        s_gt += len(gt_spans)
    avg, per_threshold = naive_avg_map(preds_by_class, gts_by_class)
    b_f1 = f1_from_counts(b_tp, b_pred, b_gt)[0]
    s_f1 = f1_from_counts(s_tp, s_pred, s_gt)[0]
    return {
        "avg_map": avg,
        "b_f1": b_f1,
        "s_f1": s_f1,
        "final": avg * b_f1,
        "per_threshold": per_threshold,
    }


def naive_nms(spans, scores, nms_tiou):
    """Greedy NMS retraced with explicit candidate rescans."""
    remaining = list(range(len(spans)))
    kept = []
    while remaining:
        best = min(
            remaining,
            key=lambda i: (-scores[i], spans[i][0], spans[i][1], i),
        )
        kept.append(best)
        remaining = [
            i
            for i in remaining
            if i != best
            and not naive_tiou(spans[best][0], spans[best][1], spans[i][0], spans[i][1]) > nms_tiou
        ]
    return kept


def naive_tagging_ap(entries, k):
    """entries: (tags set, {tag: score}) in input order; class k AP."""
    scored = [(idx, scores[k]) for idx, (_tags, scores) in enumerate(entries) if k in scores]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    n_pos = sum(1 for tags, _ in entries if k in tags)
    if n_pos == 0:
        return None
    ap = 0.0
    tp = 0
    for rank, (idx, _score) in enumerate(scored, start=1):
        if k in entries[idx][0]:
            tp += 1
            ap += tp / rank
    return ap / n_pos


def naive_tagging_map(entries, num_tags):
    aps = [naive_tagging_ap(entries, k) for k in range(1, num_tags + 1)]
    aps = [a for a in aps if a is not None]
    return sum(aps) / len(aps) if aps else 0.0


def brute_force_proposals(m, cap):
    out = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i <= j and (j - i + 1) <= cap:
                out.append((i, j))
    return sorted(out)


def naive_proposal_tag_targets(bounds, proposals, scenes, num_tags):
    """Per-tag targets of 1-based shot ranges over shot boundaries bounds:
    the tags of the first scene of greatest tIoU, each scaled by that tIoU;
    an all-zero row where no scene overlaps. scenes: (start, end, tags)."""
    rows = []
    for i, j in proposals:
        best_tags, best_t = (), 0.0
        for start, end, tags in scenes:
            t = naive_tiou(bounds[i - 1], bounds[j], start, end)
            if t > best_t:
                best_tags, best_t = tags, t
        rows.append([best_t if k in best_tags else 0.0 for k in range(1, num_tags + 1)])
    return rows


def naive_shots_in_span(starts, ends, span_start, span_end):
    """0-based rows of the shots inside the span, edges within 1e-6 s counting."""
    return [k for k in range(len(starts))
            if starts[k] >= span_start - 1e-6 and ends[k] <= span_end + 1e-6]


def shot_span_indices(video, span, tol_s=1e-6):
    """Inverse of span_from_shots: the 1-based shot range whose edges match
    the span; the last matching shot wins on either edge. Raises DataError
    when the span is not aligned with shot boundaries. A test helper, not
    an oracle: naive_shot_span_indices below is its oracle."""
    import numpy as np

    from scenestruct.errors import DataError

    starts = np.flatnonzero(np.abs(video.shots.starts - span.start_s) <= tol_s)
    ends = np.flatnonzero(np.abs(video.shots.ends - span.end_s) <= tol_s)
    if not starts.size or not ends.size or starts[-1] > ends[-1]:
        raise DataError(
            f"video {video.video_id!r}: span [{span.start_s}, {span.end_s}] "
            f"is not aligned with shot boundaries"
        )
    return int(starts[-1]) + 1, int(ends[-1]) + 1


def naive_shot_span_indices(starts, ends, span_start, span_end, tol=1e-6):
    """1-based (i, j) of the last shot whose start and the last shot whose end
    lie within tol of the span's; None when the span is not aligned."""
    i = j = None
    for k in range(len(starts)):
        if abs(starts[k] - span_start) <= tol:
            i = k + 1
        if abs(ends[k] - span_end) <= tol:
            j = k + 1
    if i is None or j is None or i > j:
        return None
    return i, j
