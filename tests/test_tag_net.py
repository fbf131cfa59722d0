import numpy as np
import pytest

from scenestruct.data.labels import shots_in_span
from scenestruct.errors import ConfigError, DataError
from scenestruct.fusion import ModalityMask
from scenestruct.metrics import tagging_map
from scenestruct.models import TagNet
from scenestruct.models.common import TrainingHyper
from scenestruct.synth import GeneratorConfig, build_corpus
from scenestruct.experiment import tagging_map_on_gt_scenes

from conftest import make_video

MASK = ModalityMask.from_names(["audio"])
DIMS = {"audio": 4}


def small_net(**kwargs):
    defaults = dict(hidden_dim=4, dropout_rate=0.0, dtype=np.float64, seed=0)
    defaults.update(kwargs)
    return TagNet(MASK, DIMS, 3, **defaults)


class TestForward:
    def test_zero_head_gives_half_for_all_tags(self):
        net = small_net()
        video = make_video("v", [0.0, 1.0, 2.0, 3.0], feature_dim=4, modalities=("audio",))
        scores = net.forward_scene(video, 1, 3)
        assert np.array_equal(scores, np.full(3, 0.5))

    def test_single_shot_scene_defined(self):
        net = small_net()
        video = make_video("v", [0.0, 1.0], feature_dim=4, modalities=("audio",))
        scores = net.forward_scene(video, 1, 1)
        assert scores.shape == (3,)
        assert np.all(np.isfinite(scores))

    def test_output_length_fixed_regardless_of_scene_length(self):
        net = small_net(seed=2)
        video = make_video("v", list(np.arange(0.0, 8.5, 0.5)), feature_dim=4, modalities=("audio",))
        assert net.forward_scene(video, 1, 1).shape == (3,)
        assert net.forward_scene(video, 1, video.num_shots).shape == (3,)

    def test_scores_strictly_inside_unit_interval(self):
        net = small_net(seed=3)
        rng = np.random.default_rng(0)
        for p in net.params.values():
            p[...] = rng.normal(size=p.shape)
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4, modalities=("audio",))
        scores = net.forward_scene(video, 1, 2)
        assert np.all((scores > 0.0) & (scores < 1.0))

    def test_empty_scene_rejected(self):
        net = small_net()
        video = make_video("v", [0.0, 1.0], feature_dim=4, modalities=("audio",))
        with pytest.raises(DataError):
            net.forward_scene(video, 2, 2)

    def test_batch_independence(self):
        net = small_net(seed=4)
        rng = np.random.default_rng(1)
        for p in net.params.values():
            p[...] = rng.normal(size=p.shape) * 0.5
        videos = [
            make_video(f"v{k}", [0.0, 1.0, 2.0, 3.0][: k + 2], feature_dim=4,
                       modalities=("audio",), rng=np.random.default_rng(k))
            for k in range(3)
        ]
        scene_shots = [v.shots for v in videos]
        probs_joint = net.forward_scenes(scene_shots)
        for idx, shots in enumerate(scene_shots):
            assert np.array_equal(probs_joint[idx], net.forward_scenes([shots])[0])
        # the shipped tag net (vis_i3 + audio + length = 33, H=16, 8 tags) and
        # the paper's (vis_i3 + length = 1025, H=128, 82 tags), float32,
        # with up to 64 scenes of 1 to 6 shots in one call
        for modalities, dim, hidden, num_tags in ((("vis_i3", "audio"), 16, 16, 8),
                                                  (("vis_i3",), 1024, 128, 82)):
            net = TagNet(ModalityMask.from_names(modalities), dict.fromkeys(modalities, dim),
                         num_tags, hidden_dim=hidden, seed=5)
            for name in ("head.W", "head.b"):
                net.params[name][...] = rng.normal(size=net.params[name].shape) * 0.1
            video = make_video("v", list(np.arange(200.0)), feature_dim=dim,
                               modalities=modalities, rng=rng)
            for count in (2, 64):
                starts = rng.integers(1, video.num_shots - 5, size=count)
                ranges = [(i, i + n - 1) for i, n in zip(starts, rng.integers(1, 7, size=count))]
                probs_joint = net.forward_scenes([video.shots[i - 1 : j] for i, j in ranges])
                for row, (i, j) in enumerate(ranges):
                    assert np.array_equal(probs_joint[row], net.forward_scene(video, i, j)), (i, j)


class TestSceneItems:
    def test_targets_are_multihot_tag_rows(self):
        video = make_video("v", [0.0, 1.0, 2.0, 3.0], scenes=[(1.0, 3.0, {1, 3}), (0.0, 1.0, {4})],
                           num_tags=4)
        items = TagNet.training_items([video], None)
        assert [shots.starts.tolist() for shots, _target in items] == [[0.0], [1.0, 2.0]]
        assert [target.tolist() for _shots, target in items] == [[0.0, 0.0, 0.0, 1.0],
                                                                 [1.0, 0.0, 1.0, 0.0]]



class TestTaggingMapOnGtScenes:
    def test_one_call_scores_equal_per_video_scores(self):
        """tagging_map_on_gt_scenes scores every video's scenes in one
        forward_scenes call; each row has the bits of its video's scenes
        scored on their own, so the mAP is that of the per-video scores."""
        corpus = build_corpus(GeneratorConfig(
            num_videos=12, seed=21, modalities={"audio": 16}, signal={"audio": "tag"},
            num_tags=4, scenes_per_video=(2, 4), shots_per_scene=(1, 5), tags_per_scene=(1, 2),
            duration_mean_s=20.0, duration_std_s=6.0))
        net = TagNet(MASK, corpus.manifest.modality_dims, 4, hidden_dim=16, seed=5)
        rng = np.random.default_rng(3)
        for name in ("head.W", "head.b"):
            net.params[name][...] = rng.normal(size=net.params[name].shape) * 0.5
        items = TagNet.training_items(corpus.videos, None)
        joint = net.forward_scenes([shots for shots, _target in items])
        per_video = np.concatenate([
            net.forward_scenes([shots for shots, _target in TagNet.training_items([video], None)])
            for video in corpus.videos])
        assert np.array_equal(joint, per_video)
        targets = np.stack([target for _shots, target in items])
        assert tagging_map_on_gt_scenes(net, corpus.videos) == tagging_map(per_video, targets)

    def test_no_annotated_scene_gives_zero(self):
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4, modalities=("audio",))
        assert tagging_map_on_gt_scenes(small_net(), [video]) == 0.0


class TestTraining:
    def test_initial_loss_is_ln2_per_class(self):
        video = make_video(
            "v", [0.0, 1.0, 2.0], feature_dim=4, modalities=("audio",),
            scenes=[(0.0, 2.0, {1})],
        )
        net = small_net()
        items = [(video.shots, np.array([1.0, 0.0, 0.0]))]
        loss, count = net.batch_loss_and_grads(items, None, train=False)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert count == 3

    def test_overfits_single_scene(self):
        video = make_video(
            "v", [0.0, 1.0, 2.0], feature_dim=4, modalities=("audio",),
            scenes=[(0.0, 2.0, {1})], num_tags=2,
        )
        hyper = TrainingHyper(epochs=200, batch_size=4, dropout=0.0, hidden_dim=4, seed=0, patience=200)
        model, _ = TagNet.train([video], [], MASK, DIMS, hyper, num_tags=2)
        scores = model.forward_scene(video, 1, 2)
        assert scores[0] > 0.9
        assert scores[1] < 0.1

    def test_no_scenes_is_config_error(self):
        video = make_video("v", [0.0, 1.0], feature_dim=4, modalities=("audio",))
        with pytest.raises(ConfigError):
            TagNet.train([video], [], MASK, DIMS, TrainingHyper(), num_tags=3)

    def test_learns_planted_tags(self):
        cfg = GeneratorConfig(
            num_videos=60,
            seed=13,
            modalities={"audio": 8},
            signal={"audio": "tag"},
            num_tags=4,
            scenes_per_video=(2, 3),
            shots_per_scene=(1, 3),
            tags_per_scene=(1, 2),
            duration_mean_s=14.0,
            duration_std_s=3.0,
        )
        corpus = build_corpus(cfg)
        train, val = corpus.videos[:48], corpus.videos[48:]
        mask = ModalityMask.from_names(["audio"])
        hyper = TrainingHyper(epochs=60, batch_size=16, dropout=0.0, hidden_dim=8, seed=3, patience=60)
        model, _ = TagNet.train(train, val, mask, corpus.manifest.modality_dims, hyper, num_tags=4)
        with_tag = {k: [] for k in range(1, 5)}
        without_tag = {k: [] for k in range(1, 5)}
        for video in val:
            for (start, end), row in zip(video.scenes.spans, video.scenes.tags):
                probs = model.forward_scenes([shots_in_span(video, start, end)])[0]
                for k in range(1, 5):
                    (with_tag if row[k - 1] else without_tag)[k].append(probs[k - 1])
        gaps = [np.mean(with_tag[k]) - np.mean(without_tag[k]) for k in range(1, 5) if with_tag[k]]
        assert min(gaps) >= 0.3
        assert tagging_map_on_gt_scenes(model, val) >= 0.8
