import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenestruct
from scenestruct.errors import ConfigError, DataError
from scenestruct.fusion import ModalityMask
from scenestruct.nn.layers import sigmoid
from scenestruct.models import SegmentNet, enumerate_proposals, proposal_tag_targets, proposal_targets
from scenestruct.models.common import TrainingHyper
from scenestruct.synth import GeneratorConfig, build_corpus

import oracles
from conftest import make_video

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
            scenes=[(0.0, 4.0, {1}), (4.0, 8.0, {2, 3})],
        )

    def test_exact_scene_gets_target_one(self):
        video = self.video()
        targets = proposal_targets([(1, 2)], video)
        assert targets[0] == 1.0

    def test_disjoint_proposal_gets_zero(self):
        video = make_video(
            "v", [0.0, 2.0, 4.0, 6.0], feature_dim=4, scenes=[(0.0, 2.0, {1})]
        )
        # shots 2..3 span [2, 6], disjoint from the single scene [0, 2]
        assert proposal_targets([(2, 3)], video)[0] == 0.0

    def test_hand_intersection_over_union(self):
        # proposal [0, 4] vs scene [2, 6]: tIoU = 2/6
        video = make_video(
            "v", [0.0, 2.0, 4.0, 6.0], feature_dim=4, scenes=[(2.0, 6.0, {1})]
        )
        assert proposal_targets([(1, 2)], video)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_per_tag_targets_scale_indicators(self):
        video = self.video()
        targets = proposal_tag_targets([(1, 2), (3, 4), (1, 4)], video)
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
            (bounds[a], bounds[b], {1})
            for a, b in zip(scene_edges, scene_edges[1:])
            if bounds[b] > bounds[a]
        ]
        video = make_video("v", bounds, feature_dim=4, scenes=scenes)
        proposals = enumerate_proposals(n)
        ours = proposal_targets(proposals, video)
        for idx, (i, j) in enumerate(proposals):
            start, end = video.shots.starts[i - 1], video.shots.ends[j - 1]
            expected = max(
                (oracles.naive_tiou(start, end, s_start, s_end)
                 for s_start, s_end, _tags in scenes),
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
                           scenes=scenes)
        proposals = enumerate_proposals(n)
        expected = oracles.naive_proposal_tag_targets(bounds, proposals.tolist(), scenes, 3)
        assert np.array_equal(proposal_tag_targets(proposals, video), np.array(expected))


class TestForward:
    def test_zero_head_gives_half(self):
        net = small_net()
        video = make_video("v", [0.0, 1.0, 2.0, 3.0], feature_dim=4)
        scores = net.forward_video(video, enumerate_proposals(3))
        assert np.array_equal(scores, np.full(6, 0.5))
        assert net.forward_video(video, []).shape == (0,)

    def test_per_tag_shape(self):
        net = small_net(head_mode="per_tag")
        video = make_video("v", [0.0, 1.0, 2.0], feature_dim=4)
        scores = net.forward_video(video, enumerate_proposals(2))
        assert scores.shape == (3, 3)
        assert net.forward_video(video, []).shape == (0, 3)

    def test_proposal_order_equivariance(self):
        net = small_net(seed=5)
        rng = np.random.default_rng(2)
        for name, p in net.params.items():
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


class TestHeadAlgebra:
    """The factorised head against the summary-row oracle."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_logits_match_summary_rows(self, data):
        head_mode = data.draw(st.sampled_from(["scalar", "per_tag"]))
        net = small_net(head_mode=head_mode, seed=data.draw(st.integers(0, 3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for p in net.params.values():
            p[...] = rng.normal(size=p.shape) * 0.5
        shot_counts = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
        cap = data.draw(st.one_of(st.none(), st.integers(1, 13)))
        videos = [make_video(f"v{k}", np.arange(m + 1.0), feature_dim=4, rng=rng)
                  for k, m in enumerate(shot_counts)]
        proposals = [enumerate_proposals(m, cap) for m in shot_counts]
        weights, bias = net.params["head.W"], net.params["head.b"]
        # each video alone, as forward_video scores it
        for video, props in zip(videos, proposals):
            hidden, _lengths = net._infer([video.shots])
            logits = net._head_logits(hidden, 0, *props.T)
            expected = oracles.naive_segment_logits(hidden[0], weights, bias, props)
            assert np.max(np.abs(logits - expected)) <= 1e-12
            scores = net.forward_video(video, props)
            assert np.array_equal(scores, sigmoid(logits)[:, 0] if head_mode == "scalar"
                                  else sigmoid(logits))
        # the videos as one padded training batch
        hidden, _lengths, _cache = net._encode([v.shots for v in videos], train=False, rng=None)
        rows = np.repeat(np.arange(len(videos)), [len(p) for p in proposals])
        logits = net._head_logits(hidden, rows, *np.concatenate(proposals).T)
        expected = np.concatenate([
            oracles.naive_segment_logits(hidden[row, :m], weights, bias, props)
            for row, (m, props) in enumerate(zip(shot_counts, proposals))])
        assert np.max(np.abs(logits - expected)) <= 1e-12


# One gradient of each net at the shipped shape (fused 33 = vis_r50 16 +
# image 16 + length, H=16, 8 tags), printed as one sha256 per corpus, net
# and parameter block. Each net takes all of a corpus's items as one batch.
# The "mixed" corpus gives the per-tag net 1,918 uncapped proposals, above
# the ~1,650 rows from which a plain GEMM reducing over proposal rows changed
# its bits with the thread count; the "long" one holds 32 videos of 20 shots
# (two 10-shot scenes), so every net's BiLSTM reduces its weight gradients
# over 640 valid cells, more than any batch of the reference run.
THREAD_PROBE = """
import hashlib
import numpy as np
from scenestruct.fusion import ModalityMask
from scenestruct.models import BoundaryNet, SegmentNet, TagNet, TrainingHyper
from scenestruct.synth import GeneratorConfig, build_corpus

dims = {"vis_r50": 16, "image": 16}
mask = ModalityMask.from_names(list(dims))
shapes = {"mixed": dict(seed=10, scenes_per_video=(2, 5), shots_per_scene=(1, 4)),
          "long": dict(seed=11, scenes_per_video=(2, 2), shots_per_scene=(10, 10))}
nets = {"boundary": (BoundaryNet, {}),
        "segment_scalar": (SegmentNet, {"num_tags": 8, "head_mode": "scalar"}),
        "segment_per_tag": (SegmentNet, {"num_tags": 8, "head_mode": "per_tag"}),
        "tag": (TagNet, {"num_tags": 8})}
for shape, settings in shapes.items():
    corpus = build_corpus(GeneratorConfig(
        num_videos=32, modalities=dims, signal={"vis_r50": "scene", "image": "scene"},
        num_tags=8, tags_per_scene=(1, 3), duration_mean_s=42.74, duration_std_s=14.16,
        noise_std=0.05, **settings))
    for kind, (cls, kwargs) in nets.items():
        net = cls(mask, corpus.manifest.modality_dims, hidden_dim=16, seed=7, **kwargs)
        rng = np.random.default_rng(7)
        for name in ("head.W", "head.b"):
            net.params[name][...] = rng.uniform(-0.25, 0.25, size=net.params[name].shape)
        net.zero_grads()
        hyper = TrainingHyper(segment_head=kwargs.get("head_mode", "scalar"))
        items = cls.training_items(corpus.videos, hyper)
        net.batch_loss_and_grads(items, np.random.default_rng(0), train=True)
        for name, grad in net.grads.items():
            print(shape, kind, name, hashlib.sha256(grad.tobytes()).hexdigest())
"""


def test_net_gradients_do_not_depend_on_blas_threads():
    """No gradient block of any of the four nets changes its bits between one
    and two OpenBLAS threads."""
    src = str(Path(scenestruct.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 2 * 4 * 14
    assert outputs[0] == outputs[1]


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
        model, trace = SegmentNet.train(train, val, mask, corpus.manifest.modality_dims, hyper, num_tags=3)
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
            SegmentNet.train([video], [], MASK, DIMS, TrainingHyper(), num_tags=3)
