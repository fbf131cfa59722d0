import numpy as np
import pytest

from scenestruct.data.records import (
    Corpus,
    CorpusManifest,
    SceneTable,
    ShotTable,
    StructuredPrediction,
    VideoRecord,
)
from scenestruct.metrics import tiou
from scenestruct.nn import BiLstm


def make_video(video_id, bounds, feature_dim=2, modalities=("vis_r50",), scenes=None, rng=None,
               num_tags=3):
    """Video with shots at the given boundary list [t0, t1, ..., tM] and,
    unless scenes is None, the (start_s, end_s, tag ids) scenes as a table
    of num_tags tag columns."""
    rng = rng or np.random.default_rng(0)
    # features are drawn shot by shot, then modality by modality
    feats = rng.normal(size=(len(bounds) - 1, len(modalities), feature_dim))
    return VideoRecord(
        video_id=video_id,
        duration_s=float(bounds[-1]),
        shots=ShotTable(bounds[:-1], bounds[1:],
                        {m: feats[:, k] for k, m in enumerate(modalities)}),
        scenes=None if scenes is None else scene_table(scenes, num_tags),
    )


def scene_table(scenes, num_tags):
    """A SceneTable of (start_s, end_s, tag ids) scenes."""
    tags = np.zeros((len(scenes), num_tags), dtype=bool)
    for row, (_start, _end, ids) in enumerate(scenes):
        tags[row, [k - 1 for k in ids]] = True
    return SceneTable([(start, end) for start, end, _ids in scenes], tags)


def make_lstm(input_dim, hidden_dim, rng=None, dtype=np.float32):
    """A standalone BiLstm with its weights drawn from rng (default seed 0)."""
    lstm = BiLstm(input_dim, hidden_dim, {}, dtype=dtype)
    lstm.draw_params(rng or np.random.default_rng(0))
    return lstm


def zeros_like_params(params):
    """A zeroed gradient dict for params, for a layer's backward to add into."""
    return {name: np.zeros_like(p) for name, p in params.items()}


def tiou_of_spans(a_spans, b_spans):
    """The tIoU matrix of two lists of (start_s, end_s) spans."""
    a, b = (np.array(spans, dtype=np.float64).reshape(-1, 2) for spans in (a_spans, b_spans))
    return tiou(*a.T, *b.T)


def ap_predictions(preds, gts):
    """average_precision's (scores, pairs) for (group, span, score) triples
    against (group, span) ground truths, each span a (start_s, end_s) pair.
    The predictions are listed by earlier start, then earlier end (a stable
    sort, as evaluate lists them); a prediction's candidates are the ground
    truths of its group with tIoU > 0."""
    preds = sorted(preds, key=lambda p: p[1])
    tious = tiou_of_spans([s for _g, s, _score in preds], [s for _g, s in gts])
    pairs = [(p, g, tious[p, g]) for p, (group, _s, _score) in enumerate(preds)
             for g, (gt_group, _gs) in enumerate(gts) if gt_group == group and tious[p, g] > 0]
    return (np.array([score for _g, _s, score in preds], dtype=np.float64),
            np.array(pairs, dtype=np.float64).reshape(-1, 3))


def map_inputs(preds_by_class, gts_by_class):
    """avg_map's arguments for classes of (group, span, score) predictions
    and (group, span) ground truths."""
    return ({k: ap_predictions(preds_by_class.get(k, []), gts) for k, gts in gts_by_class.items()},
            {k: len(gts) for k, gts in gts_by_class.items()})


def tagging_inputs(entries, num_tags):
    """tagging_map's (scores, tags) matrices of (tag ids, {tag id: score})
    scenes; unlisted tags are NaN (not scored)."""
    scores = np.full((len(entries), num_tags), np.nan)
    tags = np.zeros((len(entries), num_tags), dtype=bool)
    for row, (ids, by_id) in enumerate(entries):
        tags[row, [k - 1 for k in ids]] = True
        for tag_id, score in by_id.items():
            scores[row, tag_id - 1] = score
    return scores, tags


def make_prediction(video_id, segments, num_tags):
    """A StructuredPrediction of (start_s, end_s, {tag id: score}) segments:
    unlisted tags are NaN (not scored), and no segment has a confidence."""
    tag_scores = np.full((len(segments), num_tags), np.nan)
    for row, (_start, _end, scores) in enumerate(segments):
        for tag_id, score in scores.items():
            tag_scores[row, tag_id - 1] = score
    spans = np.array([(start, end) for start, end, _ in segments]).reshape(-1, 2)
    return StructuredPrediction(video_id, spans, np.full(len(segments), np.nan), tag_scores)


@pytest.fixture
def tiny_manifest():
    return CorpusManifest(modality_dims={"vis_r50": 2}, num_tags=3)


@pytest.fixture
def tiny_corpus(tiny_manifest):
    video = make_video(
        "v0",
        [0.0, 2.0, 4.0, 6.0],
        scenes=[(0.0, 4.0, {1}), (4.0, 6.0, {2, 3})],
    )
    return Corpus(manifest=tiny_manifest, videos=[video])
