import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenestruct.data.labels import span_from_shots
from scenestruct.errors import ConfigError, DataError
from scenestruct.fusion import ModalityMask
from scenestruct.models import SegmentNet, enumerate_proposals, proposal_tag_targets, proposal_targets, train_segment
from scenestruct.models.common import TrainingHyper
from scenestruct.synth import GeneratorConfig, build_corpus

import oracles
from conftest import make_scene, make_video

MASK = ModalityMask.from_names(["vis_r50"])
DIMS = {"vis_r50": 4}


def small_net(**kwargs):
    defaults = dict(hidden_dim=4, dropout_rate=0.0, dtype=np.float64, seed=0, num_tags=3)
    defaults.update(kwargs)
    return SegmentNet(MASK, DIMS, **defaults)


class TestEnumerateProposals:
    def test_single_shot(self):
        assert enumerate_proposals(1).tolist() == [[1, 1]]

    def test_three_shots_dense(self):
        assert len(enumerate_proposals(3, 3)) == 6

    def test_five_shots_capped(self):
        assert len(enumerate_proposals(5, 2)) == 9

    def test_lexicographic_order(self):
        assert enumerate_proposals(3).tolist() == [[1, 1], [1, 2], [1, 3], [2, 2], [2, 3], [3, 3]]

    @given(m=st.integers(1, 20), cap=st.integers(1, 22))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_double_loop(self, m, cap):
        proposals = enumerate_proposals(m, cap)
        assert proposals.shape == (len(proposals), 2)
        assert [tuple(p) for p in proposals.tolist()] == oracles.brute_force_proposals(m, cap)


class TestProposalTargets:
    def video(self):
        return make_video(
            "v",
            [0.0, 2.0, 4.0, 6.0, 8.0],
            feature_dim=4,
            scenes=[make_scene(0.0, 4.0, {1}), make_scene(4.0, 8.0, {2, 3})],
        )

    def test_exact_scene_gets_target_one(self):
        video = self.video()
        targets = proposal_targets([(1, 2)], video)
        assert targets[0] == 1.0

    def test_disjoint_proposal_gets_zero(self):
        video = make_video(
            "v", [0.0, 2.0, 4.0, 6.0], feature_dim=4, scenes=[make_scene(0.0, 2.0, {1})]
        )
        # shots 2..3 span [2, 6], disjoint from the single scene [0, 2]
        assert proposal_targets([(2, 3)], video)[0] == 0.0

    def test_hand_intersection_over_union(self):
        # proposal [0, 4] vs scene [2, 6]: tIoU = 2/6
        video = make_video(
            "v", [0.0, 2.0, 4.0, 6.0], feature_dim=4, scenes=[make_scene(2.0, 6.0, {1})]
        )
        assert proposal_targets([(1, 2)], video)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_per_tag_targets_scale_indicators(self):
        video = self.video()
        targets = proposal_tag_targets([(1, 2), (3, 4), (1, 4)], video, 3)
        assert np.array_equal(targets[0], [1.0, 0.0, 0.0])
        assert np.array_equal(targets[1], [0.0, 1.0, 1.0])
        assert targets[2] == pytest.approx([0.5, 0.0, 0.0])  # first scene wins the tie

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_scalar_targets_match_brute_force_max(self, data):
        n = data.draw(st.integers(2, 6))
        bounds = [0.0]
        for _ in range(n):
            bounds.append(bounds[-1] + data.draw(st.integers(1, 4)) * 0.5)
        n_scenes = data.draw(st.integers(1, min(3, n)))
        cut_positions = sorted(
            data.draw(
                st.lists(
                    st.integers(1, n - 1), min_size=n_scenes - 1, max_size=n_scenes - 1,
                    unique=True,
                )
            )
        ) if n_scenes > 1 else []
        scene_edges = [0, *cut_positions, n]
        scenes = [
            make_scene(bounds[a], bounds[b], {1})
            for a, b in zip(scene_edges, scene_edges[1:])
            if bounds[b] > bounds[a]
        ]
        video = make_video("v", bounds, feature_dim=4, scenes=scenes)
        proposals = enumerate_proposals(n)
        ours = proposal_targets(proposals, video)
        for idx, (i, j) in enumerate(proposals):
            span = span_from_shots(video, i, j)
            expected = max(
                (oracles.naive_tiou(span.start_s, span.end_s, s.span.start_s, s.span.end_s)
                 for s in scenes),
                default=0.0,
            )
            assert ours[idx] == pytest.approx(expected, abs=1e-12)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_tag_targets_match_oracle(self, data):
        """Equal shot lengths make tIoU ties between scenes likely, and
        dropped scenes leave proposals that overlap no scene."""
        n = data.draw(st.integers(1, 8))
        bounds = [0.0]
        for _ in range(n):
            bounds.append(bounds[-1] + data.draw(st.sampled_from([0.5, 1.0])))
        cuts = data.draw(st.lists(st.integers(1, n - 1), unique=True)) if n > 1 else []
        edges = [0, *sorted(cuts), n]
        scenes = [
            (bounds[a], bounds[b], frozenset(data.draw(st.sets(st.integers(1, 3), min_size=1))))
            for a, b in zip(edges, edges[1:])
            if data.draw(st.booleans())
        ]
        video = make_video("v", bounds, feature_dim=4,
                           scenes=[make_scene(s, e, tags) for s, e, tags in scenes])
        proposals = enumerate_proposals(n)
        expected = oracles.naive_proposal_tag_targets(bounds, proposals.tolist(), scenes, 3)
        assert np.array_equal(proposal_tag_targets(proposals, video, 3), np.array(expected))


class TestForward:
    def test_zero_head_gives_half(self):
        net = small_net()
        video = make_video("v", [0.0, 1.0, 2.0, 3.0], feature_dim=4)
        scores = net.forward_video(video, enumerate_proposals(3))
        assert np.array_equal(scores, np.full(6, 0.5))

    def test_per_tag_shape(self):
        net = small_net(head_mode="per_tag")
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4)
        scores = net.forward_video(video, enumerate_proposals(2))
        assert scores.shape == (3, 3)

    def test_proposal_order_equivariance(self):
        net = small_net(seed=5)
        rng = np.random.default_rng(2)
        for name, p in net.parameters().items():
            p[...] = rng.normal(size=p.shape) * 0.3
        video = make_video("v", [0.0, 1.0, 2.0, 3.0], feature_dim=4)
        proposals = enumerate_proposals(3)
        base = net.forward_video(video, proposals)
        perm = [3, 0, 5, 1, 4, 2]
        permuted = net.forward_video(video, [proposals[i] for i in perm])
        assert np.array_equal(permuted, base[perm])

    def test_out_of_range_proposal_raises(self):
        net = small_net()
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4)
        with pytest.raises(DataError, match="range"):
            net.forward_video(video, [(1, 3)])

    def test_base_module_shared_between_heads(self):
        scalar = small_net(seed=3)
        per_tag = small_net(seed=3, head_mode="per_tag")
        # identical fuser + lstm weights by construction (same seed); hidden
        # states must then be bitwise identical
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4)
        from scenestruct.nn.batching import SequenceBatch

        for net in (scalar, per_tag):
            fused, _ = net.fuser.forward_shots(video.shots)
            net._hidden = net.lstm.forward(SequenceBatch.from_sequences([fused]))[0]
        assert np.array_equal(scalar._hidden, per_tag._hidden)


class TestTraining:
    def test_learns_planted_segments(self):
        cfg = GeneratorConfig(
            num_videos=100,
            seed=11,
            modalities={"vis_r50": 16},
            signal={"vis_r50": "scene"},
            num_tags=3,
            scenes_per_video=(2, 3),
            shots_per_scene=(1, 3),
            tags_per_scene=(1, 2),
            duration_mean_s=16.0,
            duration_std_s=3.0,
        )
        corpus = build_corpus(cfg)
        train, val = corpus.videos[:80], corpus.videos[80:]
        mask = ModalityMask.from_names(["vis_r50"])
        hyper = TrainingHyper(epochs=80, batch_size=16, dropout=0.0, hidden_dim=16, seed=2, patience=80)
        model, trace = train_segment(train, val, mask, corpus.manifest.modality_dims, hyper, num_tags=3)
        assert trace.rows[-1][1] < trace.rows[0][1]
        # scenes tile each video, so no proposal is fully disjoint from the
        # ground truth; low-overlap proposals stand in for disjoint ones
        matched, weak = [], []
        for video in val:
            proposals = enumerate_proposals(video.num_shots)
            targets = proposal_targets(proposals, video)
            scores = model.forward_video(video, proposals)
            matched.extend(scores[targets >= 0.9])
            weak.extend(scores[targets <= 0.3])
        assert np.mean(matched) - np.mean(weak) >= 0.3

    def test_requires_annotated_videos(self):
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4)
        with pytest.raises(ConfigError):
            train_segment([video], [], MASK, DIMS, TrainingHyper(), num_tags=3)
