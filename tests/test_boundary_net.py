import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenestruct.data.labels import boundary_labels
from scenestruct.errors import ConfigError
from scenestruct.fusion import ModalityMask
from scenestruct.models import BoundaryNet, boundaries_to_scenes
from scenestruct.models.common import TrainingHyper
from scenestruct.synth import GeneratorConfig, build_corpus

from conftest import make_video

MASK = ModalityMask.from_names(["vis_r50"])
DIMS = {"vis_r50": 4}


def small_net(**kwargs):
    defaults = dict(hidden_dim=4, dropout_rate=0.0, dtype=np.float64, seed=0)
    defaults.update(kwargs)
    return BoundaryNet(MASK, DIMS, **defaults)


class TestForward:
    def test_zero_head_gives_half_everywhere(self):
        net = small_net()
        video = make_video("v", [0.0, 1.0, 2.0, 3.5], feature_dim=4)
        scores = net.forward_video(video)
        assert np.array_equal(scores, np.full(2, 0.5))

    def test_two_shots_give_one_score(self):
        net = small_net()
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4)
        assert net.forward_video(video).shape == (1,)

    def test_single_shot_gives_empty_scores(self):
        net = small_net()
        video = make_video("v", [0.0, 2.0], feature_dim=4)
        assert net.forward_video(video).shape == (0,)

    def test_scores_in_unit_interval(self):
        net = small_net()
        for name, p in net.params.items():
            p[...] = np.random.default_rng(1).normal(size=p.shape)
        video = make_video("v", [0.0, 1.0, 2.0, 3.0, 4.5], feature_dim=4)
        scores = net.forward_video(video)
        assert np.all((scores > 0) & (scores < 1))


class TestBoundariesToScenes:
    def test_all_below_threshold_single_scene(self):
        assert boundaries_to_scenes(np.array([0.1, 0.2, 0.3]), 0.65) == [(1, 4)]

    def test_all_above_threshold_singletons(self):
        assert boundaries_to_scenes(np.array([0.9, 0.9]), 0.65) == [(1, 1), (2, 2), (3, 3)]

    def test_hand_thresholding_inclusive(self):
        scenes = boundaries_to_scenes(np.array([0.7, 0.2, 0.65, 0.64]), 0.65)
        assert scenes == [(1, 1), (2, 3), (4, 5)]

    def test_empty_scores_single_shot(self):
        assert boundaries_to_scenes(np.zeros(0), 0.65) == [(1, 1)]

    def test_threshold_validated(self):
        with pytest.raises(ConfigError):
            boundaries_to_scenes(np.array([0.5]), 1.5)

    @given(
        scores=st.lists(st.integers(0, 100).map(lambda n: n / 100.0), min_size=0, max_size=12),
        threshold=st.integers(1, 99).map(lambda n: n / 100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_partition_property(self, scores, threshold):
        scenes = boundaries_to_scenes(np.array(scores), threshold)
        m = len(scores) + 1
        covered = [shot for i, j in scenes for shot in range(i, j + 1)]
        assert covered == list(range(1, m + 1))  # tiling, no overlap, ordered
        cuts = {j for i, j in scenes[:-1]}
        assert cuts == {m_idx for m_idx, s in enumerate(scores, start=1) if s >= threshold}

    @given(scores=st.lists(st.integers(0, 100).map(lambda n: n / 100.0), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_raising_threshold_never_adds_scenes(self, scores):
        arr = np.array(scores)
        counts = [len(boundaries_to_scenes(arr, t)) for t in (0.2, 0.5, 0.8)]
        assert counts[0] >= counts[1] >= counts[2]


def planted_corpus(n_videos=24, seed=3):
    cfg = GeneratorConfig(
        num_videos=n_videos,
        seed=seed,
        modalities={"vis_r50": 6, "audio": 6},
        signal={"vis_r50": "scene", "audio": "tag"},
        num_tags=4,
        scenes_per_video=(2, 4),
        shots_per_scene=(1, 3),
        tags_per_scene=(1, 2),
        noise_std=0.05,
        duration_mean_s=20.0,
        duration_std_s=4.0,
    )
    return build_corpus(cfg)


class TestTraining:
    def test_constant_zero_targets_collapse(self):
        video = make_video(
            "v", [0.0, 1.0, 2.0, 3.0], feature_dim=4, scenes=[(0.0, 3.0, {1})]
        )
        hyper = TrainingHyper(epochs=50, batch_size=4, dropout=0.0, hidden_dim=4, seed=0, patience=50)
        model, trace = BoundaryNet.train([video], [], MASK, DIMS, hyper)
        scores = model.forward_video(video)
        assert np.all(scores < 0.5)

    def test_initial_loss_near_ln2_with_balanced_labels(self):
        video = make_video(
            "v",
            [0.0, 1.0, 2.0, 3.0],
            feature_dim=4,
            scenes=[(0.0, 1.0, {1}), (1.0, 3.0, {1})],
        )
        # labels are (1, 0): one positive, one negative
        net = small_net()
        items = [(video, boundary_labels(video))]
        loss, _count = net.batch_loss_and_grads(items, None, train=False)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_no_labeled_videos_is_config_error(self):
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4)
        with pytest.raises(ConfigError):
            BoundaryNet.train([video], [], MASK, DIMS, TrainingHyper())

    def test_learns_planted_boundaries(self):
        corpus = planted_corpus(n_videos=60)
        videos = corpus.videos
        train, val = videos[:50], videos[50:]
        mask = ModalityMask.from_names(["vis_r50"])
        hyper = TrainingHyper(epochs=60, batch_size=8, dropout=0.0, hidden_dim=8, seed=1, patience=60)
        model, trace = BoundaryNet.train(train, val, mask, corpus.manifest.modality_dims, hyper)
        first_epoch_loss = trace.rows[0][1]
        last_epoch_loss = trace.rows[-1][1]
        assert last_epoch_loss < first_epoch_loss
        pos_scores = []
        neg_scores = []
        for video in val:
            scores = model.forward_video(video)
            labels = boundary_labels(video)
            pos_scores.extend(scores[labels == 1.0])
            neg_scores.extend(scores[labels == 0.0])
        assert np.mean(pos_scores) - np.mean(neg_scores) >= 0.3

    def test_training_is_deterministic(self):
        corpus = planted_corpus(n_videos=6)
        videos = corpus.videos
        hyper = TrainingHyper(epochs=3, batch_size=4, dropout=0.5, hidden_dim=4, seed=9)
        mask = ModalityMask.from_names(["vis_r50"])
        m1, _ = BoundaryNet.train(videos, [], mask, corpus.manifest.modality_dims, hyper)
        m2, _ = BoundaryNet.train(videos, [], mask, corpus.manifest.modality_dims, hyper)
        for name, p in m1.params.items():
            assert np.array_equal(p, m2.params[name]), name


class TestPositiveWeight:
    def test_weight_scales_positive_term(self):
        video = make_video(
            "v", [0.0, 1.0, 2.0, 3.0], feature_dim=4,
            scenes=[(0.0, 1.0, {1}), (1.0, 3.0, {1})],
        )
        items = [(video, boundary_labels(video))]
        plain = small_net()
        weighted = small_net(positive_weight=2.0)
        loss_plain, _ = plain.batch_loss_and_grads(items, None, train=False)
        loss_weighted, _ = weighted.batch_loss_and_grads(items, None, train=False)
        # one positive and one negative at p = 0.5: (2+1)/2 * ln2 vs ln2
        assert loss_weighted == pytest.approx(1.5 * loss_plain, abs=1e-12)
