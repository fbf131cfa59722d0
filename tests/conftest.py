import numpy as np
import pytest

from scenestruct.data.labels import span_array
from scenestruct.data.records import (
    Corpus,
    CorpusManifest,
    SceneAnnotation,
    SegmentSpan,
    ShotTable,
    VideoRecord,
)
from scenestruct.metrics import tiou


def make_video(video_id, bounds, feature_dim=2, modalities=("vis_r50",), scenes=None, rng=None):
    """Video with shots at the given boundary list [t0, t1, ..., tM]."""
    rng = rng or np.random.default_rng(0)
    # features are drawn shot by shot, then modality by modality
    feats = rng.normal(size=(len(bounds) - 1, len(modalities), feature_dim))
    return VideoRecord(
        video_id=video_id,
        duration_s=float(bounds[-1]),
        shots=ShotTable(bounds[:-1], bounds[1:],
                        {m: feats[:, k] for k, m in enumerate(modalities)}),
        scenes=scenes,
    )


def make_scene(start, end, tags):
    return SceneAnnotation(span=SegmentSpan(start, end), tags=frozenset(tags))


def tiou_of_spans(a_spans, b_spans):
    """The tIoU matrix of two lists of SegmentSpans."""
    return tiou(*span_array(a_spans).T, *span_array(b_spans).T)


def ap_predictions(preds, gts):
    """average_precision's predictions for (group, span, score) triples
    against (group, span) ground truths: a prediction's candidates are the
    ground truths of its group with tIoU > 0."""
    tious = tiou_of_spans([s for _g, s, _score in preds], [s for _g, s in gts])
    return [(score, s.start_s, s.end_s,
             [(g, tious[p, g]) for g, (gt_group, _s) in enumerate(gts)
              if gt_group == group and tious[p, g] > 0])
            for p, (group, s, score) in enumerate(preds)]


def map_inputs(preds_by_class, gts_by_class):
    """avg_map's arguments for classes of (group, span, score) predictions
    and (group, span) ground truths."""
    return ({k: ap_predictions(preds_by_class.get(k, []), gts) for k, gts in gts_by_class.items()},
            {k: len(gts) for k, gts in gts_by_class.items()})


@pytest.fixture
def tiny_manifest():
    return CorpusManifest(modality_dims={"vis_r50": 2}, num_tags=3)


@pytest.fixture
def tiny_corpus(tiny_manifest):
    video = make_video(
        "v0",
        [0.0, 2.0, 4.0, 6.0],
        scenes=[make_scene(0.0, 4.0, {1}), make_scene(4.0, 6.0, {2, 3})],
    )
    return Corpus(manifest=tiny_manifest, videos=[video])
