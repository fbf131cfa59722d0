"""Finite-difference verification of every trainable module's backprop."""

import numpy as np
import pytest

from scenestruct.data.labels import boundary_labels, shots_in_span
from scenestruct.fusion import EncoderSpec, ModalityMask
from scenestruct.models import BoundaryNet, SegmentNet, TagNet, enumerate_proposals, proposal_tag_targets, proposal_targets
from scenestruct.synth import GeneratorConfig, build_corpus

from gradcheck import grad_check

MASK = ModalityMask.from_names(["vis_r50", "audio"])
ENCODERS = {"audio": EncoderSpec(trainable=True, dim=3)}


def tiny_corpus(seed):
    cfg = GeneratorConfig(
        num_videos=2,
        seed=seed,
        modalities={"vis_r50": 3, "audio": 2},
        signal={"vis_r50": "scene", "audio": "tag"},
        num_tags=2,
        scenes_per_video=(2, 3),
        shots_per_scene=(1, 2),
        tags_per_scene=(1, 1),
        duration_mean_s=8.0,
        duration_std_s=1.0,
        min_scene_prototype_distance=1.0,
        scene_prototype_pool=4,
    )
    return build_corpus(cfg)


def net_kwargs(seed, dropout):
    return dict(
        hidden_dim=4,
        encoders=ENCODERS,
        dropout_rate=dropout,
        dtype=np.float64,
        seed=seed,
    )


def check_model(model, items, *, rng_seed=1234, eps=1e-6):
    """Max relative error of analytic vs numeric grads, dropout mask frozen."""

    def loss_fn():
        rng = np.random.default_rng(rng_seed)
        loss, _n = model.batch_loss_and_grads(items, rng, train=True, backward=False)
        return loss

    model.zero_grads()
    rng = np.random.default_rng(rng_seed)
    model.batch_loss_and_grads(items, rng, train=True)
    analytic = {k: v.copy() for k, v in model.grads.items()}
    return grad_check(loss_fn, model.params, analytic, eps=eps)


def boundary_items(corpus):
    return [(v, boundary_labels(v)) for v in corpus.videos]


def segment_items(corpus, head_mode):
    items = []
    for video in corpus.videos:
        proposals = enumerate_proposals(video.num_shots, 3)
        i_idx = np.array([i for i, _ in proposals])
        j_idx = np.array([j for _, j in proposals])
        if head_mode == "scalar":
            targets = proposal_targets(proposals, video)
        else:
            targets = proposal_tag_targets(proposals, video)
        items.append((video, i_idx, j_idx, targets))
    return items


def tag_items(corpus):
    items = []
    for video in corpus.videos:
        for (start, end), row in zip(video.scenes.spans, video.scenes.tags):
            items.append((shots_in_span(video, start, end), row.astype(np.float64)))
    return items


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_boundary_net_gradients(seed, dropout):
    corpus = tiny_corpus(seed)
    model = BoundaryNet(MASK, corpus.manifest.modality_dims, **net_kwargs(seed, dropout))
    err = check_model(model, boundary_items(corpus))
    assert err <= 1e-4


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("head_mode", ["scalar", "per_tag"])
def test_segment_net_gradients(seed, head_mode):
    corpus = tiny_corpus(seed + 10)
    model = SegmentNet(
        MASK, corpus.manifest.modality_dims, num_tags=2, head_mode=head_mode,
        **net_kwargs(seed, 0.5),
    )
    err = check_model(model, segment_items(corpus, head_mode))
    assert err <= 1e-4


@pytest.mark.parametrize("seed", range(3))
def test_tag_net_gradients(seed):
    corpus = tiny_corpus(seed + 20)
    model = TagNet(MASK, corpus.manifest.modality_dims, 2, **net_kwargs(seed, 0.5))
    err = check_model(model, tag_items(corpus))
    assert err <= 1e-4


def test_trained_parameters_stay_finite_after_steps():
    corpus = tiny_corpus(99)
    model = BoundaryNet(MASK, corpus.manifest.modality_dims, **net_kwargs(0, 0.5))
    from scenestruct.nn import Adam

    params = model.params
    adam = Adam(params, lr=0.01)
    rng = np.random.default_rng(0)
    items = boundary_items(corpus)
    for _ in range(5):
        model.zero_grads()
        model.batch_loss_and_grads(items, rng, train=True)
        adam.step(params, model.grads)
    for name, p in params.items():
        assert np.all(np.isfinite(p)), name


def test_boundary_net_four_shot_video_finite_differences():
    cfg = GeneratorConfig(
        num_videos=1, seed=41, modalities={"vis_r50": 3, "audio": 2},
        signal={"vis_r50": "scene", "audio": "tag"}, num_tags=2,
        scenes_per_video=(2, 2), shots_per_scene=(2, 2), tags_per_scene=(1, 1),
        duration_mean_s=8.0, duration_std_s=0.5, scene_prototype_pool=3,
        min_scene_prototype_distance=1.0,
    )
    corpus = build_corpus(cfg)
    video = corpus.videos[0]
    assert video.num_shots == 4
    model = BoundaryNet(MASK, corpus.manifest.modality_dims, **net_kwargs(0, 0.5))
    err = check_model(model, [(video, boundary_labels(video))])
    assert err <= 1e-4


def test_tag_net_three_shot_scene_finite_differences():
    cfg = GeneratorConfig(
        num_videos=1, seed=43, modalities={"vis_r50": 3, "audio": 2},
        signal={"vis_r50": "scene", "audio": "tag"}, num_tags=2,
        scenes_per_video=(2, 2), shots_per_scene=(3, 3), tags_per_scene=(1, 1),
        duration_mean_s=9.0, duration_std_s=0.5, scene_prototype_pool=3,
        min_scene_prototype_distance=1.0,
    )
    corpus = build_corpus(cfg)
    video = corpus.videos[0]
    shots = shots_in_span(video, *video.scenes.spans[0])
    assert len(shots) == 3
    model = TagNet(MASK, corpus.manifest.modality_dims, 2, **net_kwargs(0, 0.5))
    err = check_model(model, [(shots, video.scenes.tags[0].astype(np.float64))])
    assert err <= 1e-4
