import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenestruct.data.records import Corpus, CorpusManifest
from scenestruct.metrics import (
    TIOU_THRESHOLDS,
    average_precision,
    avg_map,
    boundary_f1,
    evaluate,
    match_boundaries,
    scene_f1,
    tagging_map,
    tiou,
)

import oracles
from conftest import (ap_predictions, make_prediction, make_video, map_inputs, tagging_inputs,
                      tiou_of_spans)


def span_tiou(a, b):
    return tiou_of_spans([a], [b])[0, 0]


def ap_at(preds, gts, thresh):
    """AP at one threshold of (group, span, score) against (group, span)."""
    return average_precision(*ap_predictions(preds, gts), len(gts))[TIOU_THRESHOLDS.index(thresh)]


class TestTiou:
    def test_identical(self):
        assert span_tiou((0, 4), (0, 4)) == 1.0

    def test_disjoint(self):
        assert span_tiou((0, 4), (5, 6)) == 0.0

    def test_touching_is_zero(self):
        assert span_tiou((0, 4), (4, 8)) == 0.0

    def test_hand_interval_arithmetic(self):
        assert span_tiou((0, 4), (2, 6)) == pytest.approx(2.0 / 6.0, abs=1e-15)

    @given(
        st.tuples(st.floats(0, 50), st.floats(0.1, 20)),
        st.tuples(st.floats(0, 50), st.floats(0.1, 20)),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        sa = (a[0], a[0] + a[1])
        sb = (b[0], b[0] + b[1])
        assert span_tiou(sa, sb) == span_tiou(sb, sa)
        assert 0.0 <= span_tiou(sa, sb) <= 1.0
        assert span_tiou(sa, sa) == 1.0

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 16)), max_size=8),
           st.lists(st.tuples(st.integers(0, 40), st.integers(1, 16)), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_matrix_entries_equal_pairwise_oracle(self, a, b):
        a = [(s * 0.25, (s + n) * 0.25) for s, n in a]
        b = [(s * 0.25, (s + n) * 0.25) for s, n in b]
        tious = tiou([s for s, _ in a], [e for _, e in a], [s for s, _ in b], [e for _, e in b])
        assert tious.shape == (len(a), len(b))
        for row, (a_start, a_end) in enumerate(a):
            for col, (b_start, b_end) in enumerate(b):
                assert tious[row, col] == oracles.naive_tiou(a_start, a_end, b_start, b_end)


class TestAveragePrecision:
    def test_perfect_predictions(self):
        gts = [("v", (0, 2)), ("v", (3, 5))]
        preds = [("v", (0, 2), 0.9), ("v", (3, 5), 0.8)]
        assert ap_at(preds, gts, 0.5) == 1.0

    def test_no_predictions(self):
        assert ap_at([], [("v", (0, 2))], 0.5) == 0.0

    def test_hit_miss_hit(self):
        gts = [("v", (0, 2)), ("v", (10, 12))]
        preds = [
            ("v", (0, 2), 0.9),      # hit
            ("v", (5, 7), 0.8),      # miss
            ("v", (10, 12), 0.7),    # hit
        ]
        assert ap_at(preds, gts, 0.5) == pytest.approx(
            0.8333333333333333, abs=1e-12
        )

    def test_matching_is_per_video(self):
        gts = [("a", (0, 2))]
        preds = [("b", (0, 2), 0.9)]
        assert ap_at(preds, gts, 0.5) == 0.0

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(0)
        gts = [("v", (2 * i, 2 * i + 1.5)) for i in range(6)]
        preds = [
            ("v", (2 * i + rng.integers(0, 2) * 0.5, 2 * i + 1.5), round(s, 3))
            for i, s in enumerate(rng.integers(1, 64, size=6) / 64.0)
        ]
        base = average_precision(*ap_predictions(preds, gts), len(gts))
        scaled = [(v, s, score / 4.0 + 1.0) for v, s, score in preds]
        after = average_precision(*ap_predictions(scaled, gts), len(gts))
        assert base == after


class TestAvgMap:
    def test_perfect(self):
        gts = {1: [("v", (0, 2))]}
        preds = {1: [("v", (0, 2), 1.0)]}
        avg, per_t, per_c = avg_map(*map_inputs(preds, gts))
        assert avg == 1.0
        assert all(v == 1.0 for v in per_t.values())
        assert per_c == {1: 1.0}

    def test_below_sweep_floor(self):
        gts = {1: [("v", (0, 10))]}
        preds = {1: [("v", (0, 4), 1.0)]}  # tIoU 0.4 < every threshold
        avg, _per_t, _per_c = avg_map(*map_inputs(preds, gts))
        assert avg == 0.0

    def test_single_prediction_sweep(self):
        # tIoU 0.7 passes thresholds 0.50..0.70, fails 0.75..0.95
        gts = {1: [("v", (0, 10))]}
        preds = {1: [("v", (0, 7), 1.0)]}
        avg, per_t, _per_c = avg_map(*map_inputs(preds, gts))
        assert avg == pytest.approx(0.5, abs=1e-12)
        assert per_t[0.70] == 1.0
        assert per_t[0.75] == 0.0

    def test_classes_without_gt_excluded(self):
        gts = {1: [("v", (0, 2))], 2: []}
        preds = {1: [("v", (0, 2), 1.0)], 2: [("v", (0, 2), 1.0)]}
        avg, _t, per_c = avg_map(*map_inputs(preds, gts))
        assert avg == 1.0
        assert 2 not in per_c

    def test_non_increasing_in_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gts = {1: [("v", (float(s), float(s) + float(d)))
                       for s, d in zip(rng.uniform(0, 40, 4), rng.uniform(1, 6, 4))]}
            preds = {1: [("v", (float(s), float(s) + float(d)), float(r))
                         for s, d, r in zip(rng.uniform(0, 40, 6), rng.uniform(1, 6, 6),
                                            rng.uniform(0, 1, 6))]}
            _avg, per_t, _c = avg_map(*map_inputs(preds, gts))
            values = [per_t[t] for t in TIOU_THRESHOLDS]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestBoundaryF1:
    def test_identical_sets(self):
        res = boundary_f1([2.0, 5.0], [2.0, 5.0])
        assert res.f1 == 1.0

    def test_hand_matching_case(self):
        # 5.3 matches 5.0; 9.4 misses 10.0 by 0.6; 12.0 matches nothing
        res = boundary_f1([5.3, 9.4, 12.0], [5.0, 10.0])
        assert res.precision == pytest.approx(1 / 3)
        assert res.recall == pytest.approx(1 / 2)
        assert res.f1 == pytest.approx(0.4, abs=1e-12)

    def test_empty_predictions_nonempty_gt(self):
        assert boundary_f1([], [1.0]).f1 == 0.0

    def test_both_empty_is_perfect(self):
        assert boundary_f1([], []).f1 == 1.0

    def test_tolerance_is_strict(self):
        assert boundary_f1([1.5], [1.0]).f1 == 0.0
        assert boundary_f1([1.4999], [1.0]).f1 == 1.0

    def test_matching_beats_nearest_greedy(self):
        # nearest-first greedy would bind 0.405 to 0.45 and strand 0.85
        assert match_boundaries([0.405, 0.85], [0.0, 0.45]) == 2

    @given(
        preds=st.lists(st.integers(0, 40).map(lambda n: n * 0.25), max_size=7),
        gts=st.lists(st.integers(0, 40).map(lambda n: n * 0.25), max_size=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_maximum_matching(self, preds, gts):
        assert match_boundaries(preds, gts) == oracles.max_boundary_matches(preds, gts)

    @given(
        preds=st.lists(st.integers(0, 40).map(lambda n: n * 0.25), max_size=6),
        gts=st.lists(st.integers(0, 40).map(lambda n: n * 0.25), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_swapping_sides_swaps_precision_recall(self, preds, gts):
        a = boundary_f1(preds, gts)
        b = boundary_f1(gts, preds)
        assert a.f1 == pytest.approx(b.f1, abs=1e-12)
        assert a.precision == pytest.approx(b.recall, abs=1e-12)
        assert a.recall == pytest.approx(b.precision, abs=1e-12)


class TestSceneF1:
    def test_identical(self):
        spans = [(0, 4), (4, 9)]
        assert scene_f1(tiou_of_spans(spans, spans)) == 1.0

    def test_tiou_above_threshold(self):
        assert scene_f1(tiou_of_spans([(0, 8)], [(0, 10)])) == 1.0  # 0.8 > 0.75

    def test_tiou_below_threshold(self):
        assert scene_f1(tiou_of_spans([(0, 6)], [(0, 10)])) == 0.0  # 0.6

    def test_threshold_is_strict(self):
        assert scene_f1(tiou_of_spans([(0, 3)], [(0, 4)])) == 0.0  # exactly 0.75

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_rescanning_oracle(self, data):
        def spans_strategy():
            return st.lists(
                st.tuples(st.integers(0, 20), st.integers(1, 8)).map(
                    lambda p: (p[0] * 0.5, p[0] * 0.5 + p[1] * 0.5)
                ),
                max_size=6,
            )

        preds = data.draw(spans_strategy())
        gts = data.draw(spans_strategy())
        ours = scene_f1(tiou_of_spans(preds, gts))
        assert ours == pytest.approx(oracles.naive_scene_f1(preds, gts), abs=1e-12)


class TestTaggingMap:
    def test_perfect_scores(self):
        entries = [
            ({1}, {1: 1.0, 2: 0.0}),
            ({2}, {1: 0.0, 2: 1.0}),
        ]
        assert tagging_map(*tagging_inputs(entries, 2)) == 1.0

    def test_single_positive_random_scores_vs_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            pos = int(rng.integers(0, n))
            entries = [
                ({1} if i == pos else frozenset(), {1: float(rng.integers(0, 16)) / 16.0})
                for i in range(n)
            ]
            assert tagging_map(*tagging_inputs(entries, 1)) == pytest.approx(
                oracles.naive_tagging_map(entries, 1), abs=1e-12
            )

    def test_all_scores_equal_uses_input_order(self):
        entries = [({1}, {1: 0.5}), (frozenset(), {1: 0.5}), ({1}, {1: 0.5})]
        assert tagging_map(*tagging_inputs(entries, 1)) == pytest.approx(
            oracles.naive_tagging_map(entries, 1), abs=1e-12
        )
        # ranks 1 and 3 are positive: AP = (1/1 + 2/3) / 2
        assert tagging_map(*tagging_inputs(entries, 1)) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0,
                                                                        abs=1e-12)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_with_unscored_tags_and_ties(self, data):
        """Scores on an eighth grid tie often; a tag left out of a scene's
        scores is not scored there, positive or not."""
        num_tags = data.draw(st.integers(1, 4))
        ids = st.integers(1, num_tags)
        entries = data.draw(st.lists(st.tuples(
            st.frozensets(ids),
            st.dictionaries(ids, st.integers(0, 8).map(lambda n: n / 8.0)),
        ), max_size=10))
        assert tagging_map(*tagging_inputs(entries, num_tags)) == oracles.naive_tagging_map(
            entries, num_tags)


def _corpus_and_predictions(instances):
    """Build (Corpus, predictions) from oracle-style instance dicts."""
    videos = []
    preds = []
    num_tags = 1
    for v_idx, inst in enumerate(instances):
        for _s, _e, tags in inst["gt"]:
            num_tags = max(num_tags, max(tags, default=1))
        for _s, _e, scores in inst["pred"]:
            num_tags = max(num_tags, max(scores, default=1))
    for v_idx, inst in enumerate(instances):
        vid = f"v{v_idx}"
        bounds = sorted({0.0, inst["duration"]} | {p for s, e, _ in inst["gt"] for p in (s, e)})
        videos.append(make_video(vid, bounds, scenes=inst["gt"], num_tags=num_tags))
        preds.append(make_prediction(vid, inst["pred"], num_tags))
    manifest = CorpusManifest(modality_dims={"vis_r50": 2}, num_tags=num_tags)
    return Corpus(manifest=manifest, videos=videos), preds


def random_instance(rng):
    duration = float(rng.integers(8, 30))
    n_scenes = int(rng.integers(1, 4))
    cuts = np.sort(rng.choice(np.arange(1, int(duration)), size=n_scenes - 1, replace=False)) if n_scenes > 1 else np.array([])
    bounds = [0.0, *[float(c) for c in cuts], duration]
    gt = [
        (bounds[i], bounds[i + 1], set(int(t) + 1 for t in rng.choice(6, size=rng.integers(1, 3), replace=False)))
        for i in range(n_scenes)
    ]
    n_pred = int(rng.integers(0, 8))
    pred = []
    for _ in range(n_pred):
        start = float(rng.integers(0, int(duration) - 1))
        end = start + float(rng.integers(1, max(2, int(duration) - int(start))))
        end = min(end, duration)
        scores = {
            int(k) + 1: float(rng.integers(0, 32)) / 32.0
            for k in rng.choice(6, size=rng.integers(1, 6), replace=False)
        }
        pred.append((start, end, scores))
    return {"duration": duration, "gt": gt, "pred": pred}


class TestEvaluate:
    def test_ground_truth_verbatim_scores_one(self, tiny_corpus):
        preds = []
        for video in tiny_corpus.videos:
            segments = [(start, end, {k + 1: 1.0 for k in np.flatnonzero(row)})
                        for (start, end), row in zip(video.scenes.spans, video.scenes.tags)]
            preds.append(make_prediction(video.video_id, segments, 3))
        report = evaluate(preds, tiny_corpus)
        assert report.avg_map == 1.0
        assert report.b_f1 == 1.0
        assert report.s_f1 == 1.0
        assert report.final == 1.0

    def test_empty_predictions_score_zero(self, tiny_corpus):
        report = evaluate([], tiny_corpus)
        assert report.final == 0.0
        assert report.b_f1 == 0.0

    def test_final_is_product(self, tiny_corpus):
        preds = [make_prediction("v0", [(0.0, 4.2, {1: 0.9})], 3)]
        report = evaluate(preds, tiny_corpus)
        assert report.final == pytest.approx(report.avg_map * report.b_f1, abs=1e-15)

    def test_unknown_video_rejected(self, tiny_corpus):
        from scenestruct.errors import DataError

        preds = [make_prediction("nope", [], 3)]
        with pytest.raises(DataError, match="nope"):
            evaluate(preds, tiny_corpus)

    def test_tag_columns_must_match_the_vocabulary(self, tiny_corpus):
        from scenestruct.errors import DataError

        with pytest.raises(DataError, match="video 'v0': 4 tag score columns for 3 tags"):
            evaluate([make_prediction("v0", [(0.0, 4.0, {4: 0.5})], 4)], tiny_corpus)
        with pytest.raises(DataError, match="video 'v0': 3 scene tag columns for 2 tags"):
            Corpus(CorpusManifest({"vis_r50": 2}, 2), tiny_corpus.videos)

    def test_cut_across_an_accepted_shot_gap_counts_once(self):
        """Shots [0, 5] and [5.0005, 10] load (the gap is within
        SHOT_CONTIGUITY_TOL_S); a prediction of exactly those shots is
        perfect against scenes [0, 5] and [5, 10], one boundary on each side."""
        from scenestruct.data.corpus_io import validate_video
        from scenestruct.data.labels import range_spans
        from scenestruct.data.records import ShotTable, StructuredPrediction, VideoRecord
        from conftest import scene_table

        shots = ShotTable([0.0, 5.0005], [5.0, 10.0], {"vis_r50": np.zeros((2, 2))})
        video = VideoRecord("v0", 10.0, shots, scene_table([(0.0, 5.0, {1}), (5.0, 10.0, {2})], 3))
        corpus = Corpus(CorpusManifest({"vis_r50": 2}, 3), [video])
        validate_video(video, corpus.manifest)
        spans = range_spans(video, [(1, 1), (2, 2)])
        scores = np.array([[1.0, np.nan, np.nan], [np.nan, 1.0, np.nan]])
        report = evaluate([StructuredPrediction("v0", spans, np.full(2, np.nan), scores)], corpus)
        assert (report.boundary_precision, report.boundary_recall, report.b_f1) == (1.0, 1.0, 1.0)

    def test_matches_reference_evaluator_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _trial in range(60):
            instances = [random_instance(rng) for _ in range(int(rng.integers(1, 4)))]
            corpus, preds = _corpus_and_predictions(instances)
            report = evaluate(preds, corpus)
            expected = oracles.naive_evaluate(instances)
            assert report.avg_map == pytest.approx(expected["avg_map"], abs=1e-9)
            assert report.b_f1 == pytest.approx(expected["b_f1"], abs=1e-9)
            assert report.s_f1 == pytest.approx(expected["s_f1"], abs=1e-9)
            assert report.final == pytest.approx(expected["final"], abs=1e-9)

    def test_determinism(self, tiny_corpus):
        preds = [make_prediction("v0", [(0.0, 4.0, {1: 0.7, 2: 0.7})], 3)]
        a = evaluate(preds, tiny_corpus).as_dict()
        b = evaluate(preds, tiny_corpus).as_dict()
        assert a == b


class TestReportFiles:
    def test_json_and_csv_written(self, tmp_path, tiny_corpus):
        report = evaluate([], tiny_corpus)
        report.write_json(tmp_path / "report.json")
        report.write_csv(tmp_path / "report.csv")
        import json as json_mod

        doc = json_mod.loads((tmp_path / "report.json").read_text())
        assert set(doc) >= {"avg_map", "b_f1", "s_f1", "final", "per_threshold", "per_class"}
        assert len(doc["per_threshold"]) == 10
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "section,key,value"
