import numpy as np
import pytest

from scenestruct.data.records import (
    Corpus,
    CorpusManifest,
    SceneAnnotation,
    SegmentSpan,
    ShotTable,
    VideoRecord,
)


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
