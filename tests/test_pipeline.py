import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenestruct.data.labels import range_spans
from scenestruct.data.records import Corpus, CorpusManifest
from scenestruct.errors import CheckpointError, ConfigError, DataError
from scenestruct.fusion import ModalityMask
from scenestruct.metrics import evaluate, tiou
from scenestruct.models import BoundaryNet, ModelBundle, SegmentNet, TagNet, enumerate_proposals, save_model
from scenestruct.models.boundary import boundaries_to_scenes
from scenestruct.models.bundle import MODE_REQUIREMENTS, checkpoint_filename, load_bundle
from scenestruct.pipeline import (
    MODES,
    PipelineConfig,
    nms_temporal,
    predict_corpus,
    read_predictions,
    run_pipeline,
    write_predictions,
)

import oracles
from conftest import make_video
MASK = ModalityMask.from_names(["vis_r50"])
DIMS = {"vis_r50": 4}


def nets(seed=0, num_tags=3, head_mode="scalar"):
    common = dict(hidden_dim=4, dropout_rate=0.0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    boundary = BoundaryNet(MASK, DIMS, seed=seed, **common)
    segment = SegmentNet(MASK, DIMS, seed=seed + 1, num_tags=num_tags, head_mode=head_mode, **common)
    tag = TagNet(MASK, DIMS, num_tags, seed=seed + 2, **common)
    for net in (boundary, segment, tag):
        for p in net.params.values():
            p[...] = rng.normal(size=p.shape) * 0.4
    return boundary, segment, tag


def off_diagonal_tious(spans):
    """The tIoU of every pair of distinct (N, 2) spans."""
    tious = tiou(spans[:, 0], spans[:, 1], spans[:, 0], spans[:, 1])
    return tious[~np.eye(len(spans), dtype=bool)]


class TestNmsTemporal:
    def test_single_proposal_kept(self):
        assert nms_temporal(np.array([[0, 4]]), [0.5], 0.0) == [0]

    def test_duplicate_suppression(self):
        kept = nms_temporal(np.array([[0, 4], [0, 4]]), [0.9, 0.8], 0.0)
        assert kept == [0]

    def test_hand_nms_trace(self):
        spans = np.array([[0, 4], [2, 6], [4, 8]])
        kept = nms_temporal(spans, [0.9, 0.8, 0.7], 0.0)
        assert kept == [0, 2]  # [2,6] overlaps [0,4]; [4,8] only touches

    def test_kept_order_is_descending_score(self):
        spans = np.array([[0, 2], [10, 12], [20, 22]])
        kept = nms_temporal(spans, [0.2, 0.9, 0.5], 0.0)
        assert kept == [1, 2, 0]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_greedy_oracle(self, data):
        n = data.draw(st.integers(0, 10))
        spans_raw = []
        scores = []
        for _ in range(n):
            start = data.draw(st.integers(0, 20)) * 0.5
            length = data.draw(st.integers(1, 10)) * 0.5
            spans_raw.append((start, start + length))
            scores.append(data.draw(st.integers(0, 20)) / 20.0)
        thresh = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.5]))
        ours = nms_temporal(np.array(spans_raw).reshape(-1, 2), scores, thresh)
        assert ours == oracles.naive_nms(spans_raw, scores, thresh)

    @pytest.mark.parametrize("nms_tiou", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_greedy_oracle_at_20_shots(self, seed, nms_tiou):
        """All 210 proposals of a 20-shot video, with tied scores."""
        rng = np.random.default_rng(seed)
        bounds = np.concatenate([[0.0], np.cumsum(rng.integers(1, 5, size=20) * 0.5)])
        video = make_video("v", bounds, rng=rng)
        spans = range_spans(video, enumerate_proposals(video.num_shots))
        assert spans.shape == (210, 2)
        scores = rng.integers(0, 40, size=len(spans)) / 40.0
        ours = nms_temporal(spans, scores, nms_tiou)
        assert ours == oracles.naive_nms(spans.tolist(), scores.tolist(), nms_tiou)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_zero_threshold_keeps_pairwise_disjoint(self, data):
        n = data.draw(st.integers(1, 10))
        spans_list = []
        scores = []
        for _ in range(n):
            start = data.draw(st.integers(0, 20)) * 0.5
            length = data.draw(st.integers(1, 10)) * 0.5
            spans_list.append((start, start + length))
            scores.append(data.draw(st.integers(0, 20)) / 20.0)
        spans = np.array(spans_list)
        kept = nms_temporal(spans, scores, 0.0)
        assert not off_diagonal_tious(spans[kept]).any()


def three_shot_video(seed=1):
    return make_video("v", [0.0, 1.0, 2.5, 4.0], feature_dim=4, rng=np.random.default_rng(seed),
                      scenes=[(0.0, 2.5, {1}), (2.5, 4.0, {2})])


class TestRunPipeline:
    def test_mode_a_all_below_threshold_single_segment(self):
        boundary, _seg, tag = nets()
        for name in ("head.W", "head.b"):
            boundary.params[name][...] = 0  # all scores 0.5 < 0.65
        video = three_shot_video()
        pred = run_pipeline(video, ModelBundle(boundary=boundary, tag=tag), PipelineConfig(mode="a"))
        assert pred.segments.tolist() == [[0.0, 4.0]]
        assert np.isnan(pred.scene_scores).all()
        assert pred.tag_scores.shape == (1, 3)

    def test_mode_a_tags_each_scene_as_if_scored_alone(self):
        # one forward_scenes call tags all of a video's scenes; each row must
        # keep the bits of that scene's own forward_scene call
        boundary, _seg, tag = nets(seed=11)
        video = make_video("v", list(np.arange(25.0)), feature_dim=4,
                           rng=np.random.default_rng(4))
        pred = run_pipeline(video, ModelBundle(boundary=boundary, tag=tag),
                            PipelineConfig(mode="a", threshold_b=0.5))
        ranges = [oracles.shot_span_indices(video, seg) for seg in pred.segments]
        assert len({j - i for i, j in ranges}) > 1  # scenes of different lengths share the call
        for row, (i, j) in enumerate(ranges):
            assert np.array_equal(pred.tag_scores[row], tag.forward_scene(video, i, j))

    def test_modes_a_and_d_emit_identical_spans(self):
        boundary, segment, tag = nets(seed=3)
        video = three_shot_video()
        cfg_a = PipelineConfig(mode="a", threshold_b=0.5)
        cfg_d = PipelineConfig(mode="d", threshold_b=0.5)
        pred_a = run_pipeline(video, ModelBundle(boundary=boundary, tag=tag), cfg_a)
        pred_d = run_pipeline(
            video, ModelBundle(boundary=boundary, segment=segment, tag=tag), cfg_d
        )
        assert np.array_equal(pred_a.segments, pred_d.segments)
        assert not np.isnan(pred_d.scene_scores).any()

    def test_mode_b_fuses_confidence_times_tags(self):
        _b, segment, tag = nets(seed=5)
        video = three_shot_video()
        cfg = PipelineConfig(mode="b", nms_tiou=0.0)
        pred = run_pipeline(video, ModelBundle(segment=segment, tag=tag), cfg)
        # recompute both factor streams independently through the public api
        proposals = enumerate_proposals(video.num_shots)
        confidences = segment.forward_video(video, proposals)
        assert len(pred.segments)
        for row, seg in enumerate(pred.segments):
            i, j = oracles.shot_span_indices(video, seg)
            idx = proposals.tolist().index([i, j])
            expected = confidences[idx] * tag.forward_scene(video, i, j)
            assert np.array_equal(pred.tag_scores[row], expected)
            assert pred.scene_scores[row] == confidences[idx]

    def test_mode_c_emits_per_tag_scores(self):
        _b, segment, _t = nets(seed=7, head_mode="per_tag")
        video = three_shot_video()
        cfg = PipelineConfig(mode="c", nms_tiou=0.0)
        pred = run_pipeline(video, ModelBundle(segment=segment), cfg)
        assert len(pred.segments)
        assert np.isnan(pred.scene_scores).all()
        assert pred.tag_scores.shape == (len(pred.segments), 3)
        assert not off_diagonal_tious(pred.segments).any()

    def test_mode_d_scores_its_shot_ranges_like_mode_a_cuts_them(self):
        # a 5e-7 s shot sits inside the 1e-6 s tolerance of a time-span lookup
        video = make_video("v", [0.0, 1.0, 1.0000005, 2.5, 4.0], feature_dim=4,
                           rng=np.random.default_rng(1))
        boundary, segment, tag = nets(seed=3)
        boundary.params["head.b"][...] = 10.0  # every boundary cuts
        pred_a = run_pipeline(video, ModelBundle(boundary=boundary, tag=tag), PipelineConfig(mode="a"))
        pred_d = run_pipeline(video, ModelBundle(boundary=boundary, segment=segment, tag=tag),
                              PipelineConfig(mode="d"))
        ranges = [(k, k) for k in range(1, 5)]
        assert pred_a.segments.tolist() == [[video.shots.starts[i - 1], video.shots.ends[j - 1]]
                                            for i, j in ranges]
        assert np.array_equal(pred_d.segments, pred_a.segments)
        for (i, j), conf, tags in zip(ranges, pred_d.scene_scores, pred_d.tag_scores):
            assert conf == segment.forward_video(video, [(i, j)])[0]
            assert np.array_equal(tags, conf * tag.forward_scene(video, i, j))

    def test_single_shot_video_mode_a(self):
        boundary, _seg, tag = nets()
        video = make_video("v", [0.0, 2.0], feature_dim=4)
        pred = run_pipeline(video, ModelBundle(boundary=boundary, tag=tag), PipelineConfig(mode="a"))
        assert pred.segments.tolist() == [[0.0, 2.0]]

    def test_fusion_monotone_in_scene_score(self):
        boundary, segment, tag = nets(seed=9)
        video = three_shot_video()
        cfg = PipelineConfig(mode="d", threshold_b=0.5)
        bundle = ModelBundle(boundary=boundary, segment=segment, tag=tag)
        pred = run_pipeline(video, bundle, cfg)
        assert len(pred.segments)
        for seg, conf, tags in zip(pred.segments, pred.scene_scores, pred.tag_scores):
            i, j = oracles.shot_span_indices(video, seg)
            t = tag.forward_scene(video, i, j)
            assert np.array_equal(tags, conf * t)
            # scaling the confidence by a power of two scales every fused
            # score exactly and never reorders tags within the segment
            for lam in (0.5, 0.25):
                scaled = (lam * conf) * t
                assert np.array_equal(scaled, lam * tags)
                assert np.array_equal(np.argsort(-scaled), np.argsort(-tags))


REQUIREMENT_ROWS = [(mode, net, head) for mode, needs in MODE_REQUIREMENTS.items()
                    for net, head in needs.items()]


class TestModeTable:
    @pytest.mark.parametrize("mode,net,head", REQUIREMENT_ROWS)
    def test_bundle_checked_against_mode_table(self, tmp_path, mode, net, head):
        boundary, scalar, tag = nets()
        _b, per_tag, _t = nets(head_mode="per_tag")
        needs = MODE_REQUIREMENTS[mode]
        heads = {"scalar": scalar, "per_tag": per_tag}
        have = {"boundary": boundary, "tag": tag, "segment": heads[needs.get("segment", "scalar")]}
        bundle = {name: have[name] for name in needs}
        video, cfg = three_shot_video(), PipelineConfig(mode=mode)
        assert len(run_pipeline(video, ModelBundle(**bundle), cfg).segments)

        with pytest.raises(ConfigError, match=net):
            run_pipeline(video, ModelBundle(**{**bundle, net: None}), cfg)
        if head is not None:
            wrong = heads["per_tag" if head == "scalar" else "scalar"]
            with pytest.raises(ConfigError, match=head):
                run_pipeline(video, ModelBundle(**{**bundle, net: wrong}), cfg)

        for model in (boundary, scalar, per_tag, tag):
            save_model(model, tmp_path / checkpoint_filename(model.kind, getattr(model, "head_mode", None)))
        load_bundle(tmp_path, mode)
        (tmp_path / checkpoint_filename(net, head)).unlink()
        with pytest.raises(CheckpointError, match=re.escape(checkpoint_filename(net, head))):
            load_bundle(tmp_path, mode)


class TestPredictCorpus:
    def corpus(self):
        videos = [three_shot_video(seed=k) for k in range(3)]
        for idx, v in enumerate(videos):
            v.video_id = f"v{idx}"
        return Corpus(manifest=CorpusManifest(DIMS, 3), videos=videos)

    def test_empty_corpus_empty_file(self, tmp_path):
        boundary, _s, tag = nets()
        corpus = Corpus(manifest=CorpusManifest(DIMS, 3), videos=[])
        out = tmp_path / "p.jsonl"
        preds = predict_corpus(corpus, ModelBundle(boundary=boundary, tag=tag),
                               PipelineConfig(mode="a"), out_path=out)
        assert preds == []
        assert out.read_text() == ""

    def test_two_runs_byte_identical(self, tmp_path):
        boundary, segment, tag = nets(seed=2)
        corpus = self.corpus()
        bundle = ModelBundle(boundary=boundary, segment=segment, tag=tag)
        cfg = PipelineConfig(mode="d", threshold_b=0.5)
        predict_corpus(corpus, bundle, cfg, out_path=tmp_path / "a.jsonl")
        predict_corpus(corpus, bundle, cfg, out_path=tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_round_trip_read(self, tmp_path):
        """In every mode the file read back is the in-memory record, array
        for array, and scores the same."""
        boundary, scalar, tag = nets(seed=2)
        _b, per_tag, _t = nets(seed=2, head_mode="per_tag")
        corpus = self.corpus()
        for mode in MODES:
            needs = MODE_REQUIREMENTS[mode]
            have = {"boundary": boundary, "tag": tag,
                    "segment": per_tag if needs.get("segment") == "per_tag" else scalar}
            out = tmp_path / f"{mode}.jsonl"
            preds = predict_corpus(corpus, ModelBundle(**{net: have[net] for net in needs}),
                                   PipelineConfig(mode=mode, threshold_b=0.5), out_path=out)
            loaded = read_predictions(out, 3)
            assert [p.video_id for p in loaded] == [p.video_id for p in preds]
            for mem, disk in zip(preds, loaded):
                for field in ("segments", "scene_scores", "tag_scores"):
                    assert np.array_equal(getattr(disk, field), getattr(mem, field), equal_nan=True)
            assert evaluate(loaded, corpus).as_dict() == evaluate(preds, corpus).as_dict()

    def test_tag_lists_sorted_descending(self, tmp_path):
        boundary, _s, tag = nets(seed=4)
        corpus = self.corpus()
        out = tmp_path / "p.jsonl"
        predict_corpus(corpus, ModelBundle(boundary=boundary, tag=tag),
                       PipelineConfig(mode="a", threshold_b=0.5), out_path=out)
        for line in out.read_text().splitlines():
            for seg in json.loads(line)["segments"]:
                scores = [t["score"] for t in seg["tags"]]
                assert scores == sorted(scores, reverse=True)

    def test_incompatible_manifest_rejected(self):
        boundary, _s, tag = nets()
        corpus = Corpus(manifest=CorpusManifest({"vis_r50": 9}, 3), videos=[])
        with pytest.raises(CheckpointError, match="vis_r50"):
            predict_corpus(corpus, ModelBundle(boundary=boundary, tag=tag), PipelineConfig(mode="a"))


class TestPipelineOptions:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            PipelineConfig(mode="x")

    def test_invalid_nms_threshold_rejected(self):
        with pytest.raises(ConfigError, match="nms_tiou"):
            PipelineConfig(nms_tiou=1.0)


def prediction_doc(**segment):
    seg = {"start_s": 0.0, "end_s": 4.0, "scene_score": 0.5, "tags": [{"id": 1, "score": 0.25}]}
    return {"video_id": "v0", "segments": [{**seg, **segment}]}


class TestMalformedPredictions:
    """A bad predictions line is a DataError naming the file and the line."""

    @pytest.mark.parametrize("line, detail", [
        (json.dumps({"video_id": "v0"}), "missing key 'segments'"),
        (json.dumps({"segments": []}), "missing key 'video_id'"),
        (json.dumps({"video_id": "v0", "segments": [{"start_s": 0.0}]}), "missing key 'end_s'"),
        (json.dumps([prediction_doc()]), "JSON object"),
        (json.dumps(prediction_doc(tags=5)), "malformed"),
        (json.dumps(prediction_doc(tags=[{"id": "1", "score": 0.5}])), "tag id must be an integer"),
        (json.dumps(prediction_doc(tags=[{"id": True, "score": 0.5}])), "tag id must be an integer"),
        (json.dumps(prediction_doc(scene_score=math.nan)), "scene_score must be a finite number"),
        (json.dumps(prediction_doc(tags=[{"id": 1, "score": math.inf}])), "tag score must be a finite"),
        (json.dumps(prediction_doc(end_s="4.0")), "end_s must be a finite number"),
        ("{not json", "not valid JSON"),
        (json.dumps(prediction_doc(tags=[{"id": 1, "score": 0.9}, {"id": 1, "score": 0.1}])),
         "a segment lists a tag id twice"),
        (json.dumps({"video_id": "v0", "segments": {}}), "segments must be a list, got {}"),
        (json.dumps(prediction_doc(tags={})), "tags must be a list, got {}"),
        (json.dumps({"video_id": 7, "segments": []}), "video_id must be a string, got 7"),
    ], ids=["no-segments", "no-video-id", "no-end", "list", "int-tags", "text-tag-id",
            "bool-tag-id", "nan-scene-score", "inf-tag-score", "text-end", "bad-json",
            "duplicate-tag-id", "dict-segments", "dict-tags", "int-video-id"])
    def test_names_file_and_line(self, tmp_path, line, detail):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(prediction_doc()) + "\n" + line + "\n")
        with pytest.raises(DataError, match=re.escape(f"predictions {path} line 2: ")) as info:
            read_predictions(path, 3)
        assert detail in str(info.value)

    @pytest.mark.parametrize("tag_id", [0, 4, 99])
    def test_tag_id_outside_vocabulary_names_video_and_id(self, tmp_path, tag_id):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(prediction_doc(tags=[{"id": tag_id, "score": 0.5}])) + "\n")
        with pytest.raises(DataError, match=re.escape(
                f"predictions {path}: video 'v0': predicted tag id {tag_id} is outside 1..3 (line 1)")):
            read_predictions(path, 3)

    def test_second_line_for_a_video_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        lines = [prediction_doc(), {"video_id": "v1", "segments": []}, {"video_id": "v0", "segments": []}]
        path.write_text(json.dumps(lines[0]) + "\n" + json.dumps(lines[1]) + "\n\n"
                        + json.dumps(lines[2]) + "\n")
        with pytest.raises(DataError, match=re.escape(
                f"predictions {path} line 4: video 'v0' was already predicted on line 1")):
            read_predictions(path, 3)
