"""Finite-difference verification of every trainable module's backprop."""

import numpy as np
import pytest

from scenestruct.data.labels import boundary_labels, shots_in_span
from scenestruct.fusion import EncoderSpec, ModalityMask
from scenestruct.models import BoundaryNet, SegmentNet, TagNet, enumerate_proposals, proposal_tag_targets, proposal_targets
from scenestruct.synth import GeneratorConfig, build_corpus

from gradcheck import draw_head, grad_check

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
    """Max relative error of analytic vs numeric grads, dropout mask frozen,
    with a drawn head so that the fuser and LSTM gradients are not zero."""
    draw_head(model)

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


def segment_items(corpus, head_mode, max_duration_shots=3):
    items = []
    for video in corpus.videos:
        proposals = enumerate_proposals(video.num_shots, max_duration_shots)
        if head_mode == "scalar":
            targets = proposal_targets(proposals, video)
        else:
            targets = proposal_tag_targets(proposals, video)
        items.append((video, proposals[:, 0], proposals[:, 1], targets))
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


# Directional check at the widths the nets run, on two generated videos of 30
# to 36 shots: the shipped width (fused 33 = vis_r50 16 + a trainable 16-wide
# image encoder + length, H=16, 8 tags) and the paper's (fused 2049 = vis_r50
# through a trainable 2048-wide encoder + length, H=128, 82 tags).
WIDTHS = {
    "shipped": ({"vis_r50": 16, "image": 16}, "image", 16, 8),
    "paper": ({"vis_r50": 2048}, "vis_r50", 128, 82),
}
# Worst error seen over all blocks of the eight cases: 1.3e-10 (paper-width
# boundary net, lstm.l0_fwd_b). Scaling any one block's gradient by 1.001
# gives an error of at least 1.9e-9 (shipped scalar segment net,
# lstm.l0_bwd_Wh), so the check fails on it.
DIRECTIONAL_TOL = 1e-9


def long_video_corpus(dims, num_tags):
    cfg = GeneratorConfig(
        num_videos=2, seed=3, modalities=dims, signal={m: "scene" for m in dims},
        num_tags=num_tags, scenes_per_video=(6, 6), shots_per_scene=(5, 6),
        tags_per_scene=(1, 3), duration_mean_s=60.0, duration_std_s=5.0,
    )
    return build_corpus(cfg)


def directional_error(analytic, numeric):
    """grad_check's error of a pair: |a - n| / max(1, |a|, |n|)."""
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def directional_pairs(model, items, *, rng_seed=1234, eps=1e-6, direction_seed=0):
    """Per parameter block: (g.v, the central difference of the loss along
    v) for one random unit direction v, with the dropout mask frozen."""

    def loss_fn():
        rng = np.random.default_rng(rng_seed)
        loss, _n = model.batch_loss_and_grads(items, rng, train=True, backward=False)
        return loss

    model.zero_grads()
    model.batch_loss_and_grads(items, np.random.default_rng(rng_seed), train=True)
    rng = np.random.default_rng(direction_seed)
    pairs = {}
    for name, theta in model.params.items():
        v = rng.normal(size=theta.shape)
        v /= np.linalg.norm(v)
        analytic = float(np.sum(model.grads[name] * v))
        orig = theta.copy()
        theta += eps * v
        f_plus = loss_fn()
        theta[...] = orig - eps * v
        f_minus = loss_fn()
        theta[...] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        pairs[name] = (analytic, numeric)
    return pairs


def width_case(width, net, **kwargs):
    """One net at one of WIDTHS with a drawn head, and its training items on
    two long videos; the segment nets score every proposal of each video."""
    dims, _trainable, hidden_dim, num_tags = WIDTHS[width]
    corpus = long_video_corpus(dims, num_tags)
    assert max(v.num_shots for v in corpus.videos) >= 30
    mask = ModalityMask.from_names(list(dims))
    kwargs = dict(hidden_dim=hidden_dim, dropout_rate=0.5, seed=3, **kwargs)
    model_dims = corpus.manifest.modality_dims
    if net == "boundary":
        model, items = BoundaryNet(mask, model_dims, **kwargs), boundary_items(corpus)
    elif net == "tag":
        model, items = TagNet(mask, model_dims, num_tags, **kwargs), tag_items(corpus)
    else:
        head_mode = net.removeprefix("segment_")
        model = SegmentNet(mask, model_dims, num_tags=num_tags, head_mode=head_mode, **kwargs)
        items = segment_items(corpus, head_mode, None)  # ranges up to a whole video
    assert model.lstm.input_dim == {"shipped": 33, "paper": 2049}[width]
    draw_head(model)
    return model, items


def width_case_pairs(width, net):
    """directional_pairs of one net at one of WIDTHS, in float64 with its
    trainable encoder."""
    dims, trainable, _hidden_dim, _num_tags = WIDTHS[width]
    encoders = {trainable: EncoderSpec(trainable=True, dim=dims[trainable])}
    return directional_pairs(*width_case(width, net, dtype=np.float64, encoders=encoders))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("net", ["boundary", "segment_scalar", "segment_per_tag", "tag"])
def test_directional_gradients_at_run_widths(width, net):
    errors = {name: directional_error(*pair) for name, pair in width_case_pairs(width, net).items()}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= DIRECTIONAL_TOL, (worst, errors[worst])


@pytest.mark.parametrize("net", ["boundary", "segment_scalar", "segment_per_tag", "tag"])
def test_frozen_encoder_gradients_equal_the_full_backward(net, monkeypatch):
    """With every encoder frozen the net skips the input gradient and the
    fuser's backward; its gradients keep the bytes of the full backward
    (shipped width: fused 33 = vis_r50 16 + image 16 + length, H=16)."""
    model, items = width_case("shipped", net)  # float32, frozen encoders
    assert not model.fuser.param_shapes()

    def grads_bytes():
        model.zero_grads()
        model.batch_loss_and_grads(items, np.random.default_rng(1234), train=True)
        return {name: g.tobytes() for name, g in model.grads.items()}

    fuser_calls = []
    monkeypatch.setattr(model.fuser, "backward", lambda *args: fuser_calls.append(args))
    skipped = grads_bytes()
    assert not fuser_calls
    monkeypatch.undo()
    # a fuser that reports parameters takes the full backward: the input
    # gradient, then the fuser's backward row by row
    monkeypatch.setattr(model.fuser, "param_shapes", lambda: {"fuser.forced": (1,)})
    full = grads_bytes()
    assert model.grads["lstm.l0_fwd_Wx"].any()
    assert skipped == full
