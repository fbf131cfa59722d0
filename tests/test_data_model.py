import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenestruct.data import (
    SegmentSpan,
    boundary_labels,
    interior_boundaries,
    load_corpus,
    save_corpus,
    span_from_shots,
)
from scenestruct.data.corpus_io import FORMAT_TAG
from scenestruct.data.labels import shots_in_span
from scenestruct.data.records import Corpus, CorpusManifest
from scenestruct.errors import DataError
from scenestruct.synth import GeneratorConfig, build_corpus

from conftest import make_scene, make_video
from oracles import naive_shot_span_indices, naive_shots_in_span, shot_span_indices


def write_raw(path, header, data=b"", tag=FORMAT_TAG):
    """Hand-written records bytes: tag line, header line, then data."""
    path.write_bytes(f"{tag}\n{json.dumps(header)}\n".encode("utf-8") + data)


def lay_out(video_docs):
    """Header entries and column bytes for video docs whose starts, ends and
    features hold arrays; a column already given as a header entry (a dict)
    or anything that is not an array stays as it is."""
    data = bytearray()

    def entry(col):
        if isinstance(col, (dict, str)):
            return col
        arr = np.asarray(col, dtype="<f8")
        out = {"shape": list(arr.shape), "offset": len(data), "nbytes": arr.nbytes}
        data.extend(arr.tobytes())
        return out

    videos = []
    for doc in video_docs:
        if isinstance(doc, dict):
            doc = {k: entry(v) if k in ("starts", "ends") else v for k, v in doc.items()}
            if isinstance(doc.get("features"), dict):
                doc["features"] = {name: entry(col) for name, col in doc["features"].items()}
        videos.append(doc)
    return {"videos": videos}, bytes(data)


def write_corpus_files(tmp_path, manifest_doc, video_docs):
    manifest = tmp_path / "manifest.json"
    records = tmp_path / "records.bin"
    manifest.write_text(json.dumps(manifest_doc))
    write_raw(records, *lay_out(video_docs))
    return manifest, records


MANIFEST = {"modalities": {"vis_r50": 2}, "num_tags": 3, "stats": {}}


def video_doc(video_id="v0", shots=((0.0, 2.0),), scenes=None, dim=2):
    return {
        "video_id": video_id,
        "duration_s": shots[-1][1],
        "scenes": scenes,
        "starts": [a for a, _b in shots],
        "ends": [b for _a, b in shots],
        "features": {"vis_r50": [[0.5] * dim for _ in shots]},
    }


class TestLoadCorpus:
    def test_empty_records_file_is_valid(self, tmp_path):
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [])
        corpus = load_corpus(manifest, records)
        assert len(corpus) == 0

    def test_minimal_valid_video(self, tmp_path):
        doc = video_doc(shots=((0.0, 2.0),), scenes=[{"start_s": 0.0, "end_s": 2.0, "tags": [1]}])
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        corpus = load_corpus(manifest, records)
        assert corpus.video("v0").num_shots == 1
        assert corpus.video("v0").scenes[0].tags == frozenset({1})

    def test_dimension_mismatch_names_modality(self, tmp_path):
        doc = video_doc(dim=3)
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        with pytest.raises(DataError, match=re.escape(
                "video 1: video 'v0' column 'vis_r50' has shape [1, 3], expected [1, 2]")):
            load_corpus(manifest, records)

    def test_non_contiguous_shots_rejected(self, tmp_path):
        doc = video_doc(shots=((0.0, 2.0), (2.5, 4.0)))
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        with pytest.raises(DataError, match="contiguous"):
            load_corpus(manifest, records)

    def test_overlapping_scenes_rejected(self, tmp_path):
        doc = video_doc(
            shots=((0.0, 2.0), (2.0, 4.0)),
            scenes=[
                {"start_s": 0.0, "end_s": 3.0, "tags": [1]},
                {"start_s": 2.0, "end_s": 4.0, "tags": [2]},
            ],
        )
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        with pytest.raises(DataError, match="overlap"):
            load_corpus(manifest, records)

    def test_unknown_tag_id_rejected(self, tmp_path):
        doc = video_doc(shots=((0.0, 2.0),), scenes=[{"start_s": 0.0, "end_s": 2.0, "tags": [4]}])
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        with pytest.raises(DataError, match="tag id 4"):
            load_corpus(manifest, records)

    def test_missing_modality_rejected(self, tmp_path):
        doc = {**video_doc(), "features": {}}
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        with pytest.raises(DataError, match=re.escape(
                "has feature columns [], the manifest's modalities are ['vis_r50']")):
            load_corpus(manifest, records)

    def test_errors_name_the_video(self, tmp_path):
        doc = video_doc(video_id="bad-video", dim=5)
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        with pytest.raises(DataError, match="bad-video"):
            load_corpus(manifest, records)

    def test_duplicate_video_id_names_both_videos(self, tmp_path):
        manifest, records = write_corpus_files(
            tmp_path, MANIFEST, [video_doc("a"), video_doc("b"), video_doc("a")])
        with pytest.raises(DataError, match=re.escape(
                f"records {records} video 3: video 'a' is also video 1")):
            load_corpus(manifest, records)

    def test_loaded_columns_are_read_only_views(self, tmp_path):
        manifest, records = write_corpus_files(
            tmp_path, MANIFEST, [video_doc(shots=((0.0, 2.0), (2.0, 4.0)))])
        shots = load_corpus(manifest, records).video("v0").shots
        for col in (shots.starts, shots.ends, shots.features["vis_r50"]):
            assert not col.flags.writeable
            assert col.dtype == np.float64
            with pytest.raises(ValueError):
                col[0] = 1.0


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def with_column(doc, name, value):
    """doc with one column (starts, ends or a modality) replaced."""
    if name in ("starts", "ends"):
        return {**doc, name: value}
    return {**doc, "features": {**doc["features"], name: value}}


TWO_SHOTS = video_doc(shots=((0.0, 2.0), (2.0, 4.0)))


def tagged(tags):
    return video_doc(scenes=[{"start_s": 0.0, "end_s": 2.0, "tags": tags}])


TAGGED = tagged(["x"])


def with_value(col, index, value):
    """A copy of a column with one value replaced."""
    col = np.array(col, dtype=np.float64)
    col[index] = value
    return col


class TestMalformedRecords:
    """A bad video is a DataError naming the records file, the video by its
    position in the header and, where there is one, the column."""

    @pytest.mark.parametrize("doc, detail", [
        (without(video_doc(), "video_id"), "missing key 'video_id'"),
        ({**video_doc(), "starts": [], "ends": [], "features": {"vis_r50": np.zeros((0, 2))}},
         "video 'v0' has no shots"),
        ([video_doc()], "JSON object"),
        (with_column(TWO_SHOTS, "vis_r50", [[0.5, 0.5]]),
         "video 'v0' column 'vis_r50' has shape [1, 2], expected [2, 2]"),
        (with_column(TWO_SHOTS, "vis_r50", "x"),
         "video 'v0' column 'vis_r50' must be an object with 'shape', 'offset' and 'nbytes'"),
        (TAGGED, "malformed"),
        (tagged("12"), "malformed scene tags '12'"),
        (tagged([1.7]), "malformed scene tags [1.7]"),
        (tagged([True]), "malformed scene tags [True]"),
        ({**TWO_SHOTS, "features": {"audio": [[0.5, 0.5]] * 2}},
         "video 'v0' has feature columns ['audio'], the manifest's modalities are ['vis_r50']"),
    ], ids=["no-video-id", "no-shots", "list", "ragged-feature", "text-feature", "text-tag",
            "string-tags", "float-tag", "bool-tag", "shot-lacks-modality"])
    def test_names_file_and_line(self, tmp_path, doc, detail):
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [video_doc("ok"), doc])
        with pytest.raises(DataError, match=re.escape(f"{records} video 2: ")) as info:
            load_corpus(manifest, records)
        assert detail in str(info.value)

    @pytest.mark.parametrize("doc, detail", [
        (with_column(TWO_SHOTS, "vis_r50", with_value([[0.5, 0.5]] * 2, (1, 1), math.nan)),
         "shot 2 has a non-finite 'vis_r50' value"),
        (with_column(TWO_SHOTS, "vis_r50", with_value([[0.5, 0.5]] * 2, (0, 0), math.inf)),
         "shot 1 has a non-finite 'vis_r50' value"),
        (with_column(TWO_SHOTS, "ends", [math.nan, 4.0]), "shot 1 has a non-finite 'end_s' value"),
        (with_column(TWO_SHOTS, "starts", [0.0, -math.inf]),
         "shot 2 has a non-finite 'start_s' value"),
        ({**TWO_SHOTS, "duration_s": math.nan}, "non-finite duration_s"),
        ({**TWO_SHOTS, "scenes": [{"start_s": 0.0, "end_s": math.inf, "tags": [1]}]},
         "segment span must be finite"),
    ], ids=["nan-feature", "inf-feature", "nan-end", "inf-start", "nan-duration", "inf-scene"])
    def test_non_finite_values_rejected(self, tmp_path, doc, detail):
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        with pytest.raises(DataError, match=re.escape(f"{records} video 1: ")) as info:
            load_corpus(manifest, records)
        assert detail in str(info.value)

    @pytest.mark.parametrize("doc, detail", [
        ({**video_doc(), "video_id": 7}, "video_id must be a string, got 7"),
        ({**video_doc(), "duration_s": "2.0"}, "video 'v0' duration_s must be a number, got '2.0'"),
        ({**video_doc(), "duration_s": True}, "video 'v0' duration_s must be a number, got True"),
        (without(video_doc(), "starts"), "missing key 'starts'"),
        (without(video_doc(), "scenes"), "missing key 'scenes'"),
        ({**video_doc(), "features": [[0.5, 0.5]]}, "video 'v0': 'features' must be a JSON object"),
        ({**video_doc(), "scenes": [{"start_s": "0", "end_s": 2.0, "tags": [1]}]},
         "scene start_s must be a number, got '0'"),
        ({**video_doc(), "scenes": {"start_s": 0.0}}, "malformed record"),
        ({**video_doc(), "duration_s": 10**400}, "malformed record"),
        (with_column(video_doc(), "ends", {"shape": [1], "nbytes": 8}),
         "video 'v0' column 'ends' must be an object with 'shape', 'offset' and 'nbytes'"),
        (with_column(video_doc(), "ends", {"shape": [1], "offset": -8, "nbytes": 8}),
         "video 'v0' column 'ends': shape, offset and nbytes must be non-negative integers"),
        (with_column(video_doc(), "ends", {"shape": [1], "offset": 0.5, "nbytes": 8}),
         "column 'ends': shape, offset and nbytes must be non-negative integers"),
        (with_column(video_doc(), "ends", {"shape": [1], "offset": True, "nbytes": 8}),
         "column 'ends': shape, offset and nbytes must be non-negative integers"),
        (with_column(video_doc(), "ends", {"shape": [-1], "offset": 0, "nbytes": 8}),
         "column 'ends': shape, offset and nbytes must be non-negative integers"),
        (with_column(video_doc(), "ends", {"shape": 1, "offset": 0, "nbytes": 8}),
         "column 'ends': shape, offset and nbytes must be non-negative integers"),
        (with_column(video_doc(), "ends", {"shape": [1], "offset": 0, "nbytes": "8"}),
         "column 'ends': shape, offset and nbytes must be non-negative integers"),
        (with_column(video_doc(), "ends", {"shape": [1], "offset": 0, "nbytes": 4}),
         "column 'ends' has 4 bytes, shape [1] of float64 needs 8"),
        (with_column(video_doc(), "ends", {"shape": [2], "offset": 0, "nbytes": 16}),
         "column 'ends' has shape [2], expected [1]"),
        (with_column(video_doc(), "starts", {"shape": [1, 1], "offset": 0, "nbytes": 8}),
         "column 'starts' has shape [1, 1], expected [M]"),
        (with_column(video_doc(), "ends", {"shape": [1], "offset": 20, "nbytes": 8}),
         "video 'v0' column 'ends' runs past the end of the file (bytes 20..28 of 24); "
         "the file is truncated"),
    ], ids=["int-video-id", "text-duration", "bool-duration", "no-starts", "no-scenes",
            "list-features", "text-scene-start", "object-scenes", "huge-duration", "entry-no-offset",
            "negative-offset", "float-offset", "bool-offset", "negative-shape", "int-shape",
            "text-nbytes", "nbytes-not-shape", "ends-not-starts", "two-dim-starts", "past-end"])
    def test_header_entry_rejected(self, tmp_path, doc, detail):
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [doc])
        with pytest.raises(DataError, match=re.escape(f"{records} video 1: ")) as info:
            load_corpus(manifest, records)
        assert detail in str(info.value)

    @pytest.mark.parametrize("write, detail", [
        (lambda path: write_raw(path, {"videos": []}, tag="scenestruct-corpus-v1"),
         "does not start with the format tag 'scenestruct-corpus-v2'"),
        (lambda path: path.write_text(json.dumps(without(video_doc(), "starts")) + "\n"),
         "does not start with the format tag 'scenestruct-corpus-v2' "
         "(JSONL corpora must be regenerated)"),
        (lambda path: path.write_bytes(f"{FORMAT_TAG}\n{{not json\n".encode()),
         "header is not valid JSON"),
        (lambda path: path.write_bytes(f"{FORMAT_TAG}\n{{\"videos\": [{'9' * 5000}]}}\n".encode()),
         "header is not valid JSON"),
        (lambda path: write_raw(path, [video_doc()]), "header must be a JSON object with a 'videos' list"),
        (lambda path: write_raw(path, {"videos": {}}), "header must be a JSON object with a 'videos' list"),
        (lambda path: path.write_bytes(b""), "does not start with the format tag"),
    ], ids=["wrong-tag", "jsonl", "bad-json", "huge-int", "list-header", "object-videos",
            "empty-file"])
    def test_header_rejected(self, tmp_path, write, detail):
        manifest, records = write_corpus_files(tmp_path, MANIFEST, [])
        write(records)
        with pytest.raises(DataError, match=re.escape(f"records {records} {detail}")):
            load_corpus(manifest, records)

    def test_truncated_file_rejected(self, tmp_path):
        manifest, records = tmp_path / "m.json", tmp_path / "r.bin"
        video = make_video("v0", [0.0, 1.0, 2.0], scenes=[make_scene(0.0, 2.0, {1})])
        save_corpus(Corpus(CorpusManifest({"vis_r50": 2}, 3), [video]), manifest, records)
        raw = records.read_bytes()
        records.write_bytes(raw[:-1])
        with pytest.raises(DataError, match=re.escape(
                f"records {records} video 1: video 'v0' column 'vis_r50' runs past the end of "
                f"the file (bytes 32..64 of 63); the file is truncated")):
            load_corpus(manifest, records)
        records.write_bytes(raw[:len(FORMAT_TAG) + 20])
        with pytest.raises(DataError, match=re.escape(
                f"records {records} has no complete header line; the file is truncated")):
            load_corpus(manifest, records)


class TestMalformedManifest:
    """A bad manifest is a DataError naming the manifest file."""

    @pytest.mark.parametrize("doc, detail", [
        ({**MANIFEST, "modalities": [["vis_r50", 2]]}, "'modalities' must be a JSON object"),
        ({**MANIFEST, "tag_names": ["intro"]}, "'tag_names' must be a JSON object"),
        ({**MANIFEST, "tag_names": {"x": "intro"}}, "malformed tag_names"),
        ({**MANIFEST, "modalities": {"vis_r50": "x"}}, "modality 'vis_r50' dim must be a positive integer"),
        ({**MANIFEST, "modalities": {"vis_r50": 2.5}}, "modality 'vis_r50' dim must be a positive integer"),
        ({**MANIFEST, "modalities": {"vis_r50": 0}}, "modality 'vis_r50' dim must be a positive integer"),
        ({**MANIFEST, "num_tags": "x"}, "num_tags must be a positive integer"),
        ({**MANIFEST, "num_tags": True}, "num_tags must be a positive integer"),
        (without(MANIFEST, "num_tags"), "must define 'modalities' and 'num_tags'"),
        ([MANIFEST], "must define 'modalities' and 'num_tags'"),
    ], ids=["list-modalities", "list-tag-names", "text-tag-name-key", "text-dim", "float-dim",
            "zero-dim", "text-num-tags", "bool-num-tags", "no-num-tags", "list"])
    def test_names_file(self, tmp_path, doc, detail):
        manifest, records = write_corpus_files(tmp_path, doc, [video_doc()])
        with pytest.raises(DataError, match=re.escape(f"manifest {manifest}: ")) as info:
            load_corpus(manifest, records)
        assert detail in str(info.value)


class TestRoundTrip:
    def test_save_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        video = make_video(
            "v0",
            [0.0, 1.25, 3.5, 6.0],
            scenes=[make_scene(0.0, 3.5, {1, 2}), make_scene(3.5, 6.0, {3})],
            rng=rng,
        )
        corpus = Corpus(manifest=CorpusManifest({"vis_r50": 2}, 3), videos=[video])
        save_corpus(corpus, tmp_path / "m.json", tmp_path / "r.bin")
        loaded = load_corpus(tmp_path / "m.json", tmp_path / "r.bin")
        reloaded = loaded.video("v0")
        assert reloaded.duration_s == video.duration_s
        assert np.array_equal(reloaded.shots.starts, video.shots.starts)
        assert np.array_equal(reloaded.shots.ends, video.shots.ends)
        assert np.array_equal(reloaded.shots.features["vis_r50"], video.shots.features["vis_r50"])
        assert [s.span for s in reloaded.scenes] == [s.span for s in video.scenes]
        assert [s.tags for s in reloaded.scenes] == [s.tags for s in video.scenes]

    def test_double_save_is_byte_identical(self, tmp_path):
        video = make_video("v0", [0.0, 2.0, 4.0], scenes=[make_scene(0.0, 4.0, {1})])
        corpus = Corpus(manifest=CorpusManifest({"vis_r50": 2}, 3), videos=[video])
        save_corpus(corpus, tmp_path / "m1.json", tmp_path / "r1.bin")
        loaded = load_corpus(tmp_path / "m1.json", tmp_path / "r1.bin")
        save_corpus(loaded, tmp_path / "m2.json", tmp_path / "r2.bin")
        assert (tmp_path / "r1.bin").read_bytes() == (tmp_path / "r2.bin").read_bytes()

    def test_generated_corpus_round_trip_is_exact(self, tmp_path):
        cfg = GeneratorConfig(
            num_videos=12, seed=3, num_tags=4, tags_per_scene=(1, 2),
            modalities={"vis_r50": 5, "audio": 3, "text": 2},
            signal={"vis_r50": "scene", "audio": "tag", "text": "none"},
            noise_std={"vis_r50": 0.1, "audio": 0.0}, duration_mean_s=20.0, duration_std_s=4.0,
        )
        corpus = build_corpus(cfg)
        save_corpus(corpus, tmp_path / "m1.json", tmp_path / "r1.bin")
        loaded = load_corpus(tmp_path / "m1.json", tmp_path / "r1.bin")
        save_corpus(loaded, tmp_path / "m2.json", tmp_path / "r2.bin")
        for name in ("m{}.json", "r{}.bin"):
            assert (tmp_path / name.format(1)).read_bytes() == (tmp_path / name.format(2)).read_bytes()
        for made, back in zip(corpus.videos, loaded.videos):
            assert back.duration_s == made.duration_s
            made_cols = [made.shots.starts, made.shots.ends, *made.shots.features.values()]
            back_cols = [back.shots.starts, back.shots.ends, *back.shots.features.values()]
            assert list(back.shots.features) == list(made.shots.features)
            for a, b in zip(made_cols, back_cols):
                assert a.dtype == b.dtype == np.float64
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        raw = (tmp_path / "r1.bin").read_bytes()
        tag, header, data = raw.split(b"\n", 2)
        assert tag.decode() == FORMAT_TAG
        assert (len(tag) + len(header) + 2) % 8 == 0
        entries = [entry for video in json.loads(header)["videos"]
                   for entry in (video["starts"], video["ends"], *video["features"].values())]
        assert all(entry["offset"] % 8 == 0 for entry in entries)
        assert sum(entry["nbytes"] for entry in entries) == len(data)


class TestBoundaryLabels:
    def test_aligned_scenes_mark_exact_joins(self):
        video = make_video(
            "v", [0.0, 2.0, 4.0, 6.0], scenes=[make_scene(0.0, 4.0, {1}), make_scene(4.0, 6.0, {2})]
        )
        assert np.array_equal(boundary_labels(video), np.array([0.0, 1.0]))

    def test_single_scene_gives_all_zeros(self):
        video = make_video("v", [0.0, 2.0, 4.0], scenes=[make_scene(0.0, 4.0, {1})])
        assert np.array_equal(boundary_labels(video), np.zeros(1))

    def test_nearest_boundary_within_tolerance(self):
        # shot boundaries at 2 and 4; GT boundary 3.7 is 0.3 from 4, 1.7 from 2
        video = make_video(
            "v", [0.0, 2.0, 4.0, 6.0], scenes=[make_scene(0.0, 3.7, {1}), make_scene(3.7, 6.0, {2})]
        )
        assert np.array_equal(boundary_labels(video), np.array([0.0, 1.0]))

    def test_outside_tolerance_gives_no_label(self):
        video = make_video(
            "v", [0.0, 2.0, 4.0, 6.0], scenes=[make_scene(0.0, 3.0, {1}), make_scene(3.0, 6.0, {2})]
        )
        # GT at 3.0 is exactly 1.0 from both shot boundaries
        assert np.array_equal(boundary_labels(video), np.zeros(2))

    def test_equidistant_tie_marks_earlier_only(self):
        video = make_video(
            "v", [0.0, 2.0, 4.0, 6.0], scenes=[make_scene(0.0, 3.0, {1}), make_scene(3.0, 6.0, {2})]
        )
        labels = boundary_labels(video, tol_s=1.5)
        assert np.array_equal(labels, np.array([1.0, 0.0]))

    def test_single_shot_video_empty_labels(self):
        video = make_video("v", [0.0, 2.0], scenes=[make_scene(0.0, 2.0, {1})])
        assert boundary_labels(video).shape == (0,)

    @given(shift=st.integers(min_value=-1000, max_value=1000).map(lambda n: n * 0.25))
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_uniform_time_translation(self, shift):
        # quarter-second grid keeps every shifted timestamp exactly representable
        base = [0.0, 1.0, 2.25, 4.0, 7.5]
        scenes = [(0.0, 2.25, {1}), (2.25, 7.5, {2})]
        video_a = make_video("a", base, scenes=[make_scene(s, e, t) for s, e, t in scenes])
        video_b = make_video(
            "b",
            [t + shift for t in base],
            scenes=[make_scene(s + shift, e + shift, t) for s, e, t in scenes],
        )
        assert np.array_equal(boundary_labels(video_a), boundary_labels(video_b))


class TestSpanConversions:
    def test_first_shot(self):
        video = make_video("v", [0.0, 2.0, 5.0, 6.0])
        assert span_from_shots(video, 1, 1) == SegmentSpan(0.0, 2.0)

    def test_whole_video(self):
        video = make_video("v", [0.0, 2.0, 5.0, 6.0])
        assert span_from_shots(video, 1, 3) == SegmentSpan(0.0, 6.0)

    def test_hand_lookup(self):
        video = make_video("v", [0.0, 2.0, 5.0, 6.0])
        assert span_from_shots(video, 2, 3) == SegmentSpan(2.0, 6.0)

    def test_out_of_range(self):
        video = make_video("v", [0.0, 2.0])
        with pytest.raises(IndexError):
            span_from_shots(video, 1, 2)

    def test_misaligned_span_rejected(self):
        video = make_video("v", [0.0, 2.0, 5.0])
        with pytest.raises(DataError, match="aligned"):
            shot_span_indices(video, SegmentSpan(0.0, 3.0))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_recovers_indices(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        bounds = [0.0]
        for _ in range(n):
            bounds.append(bounds[-1] + data.draw(st.integers(min_value=1, max_value=8)) * 0.25)
        video = make_video("v", bounds)
        i = data.draw(st.integers(min_value=1, max_value=n))
        j = data.draw(st.integers(min_value=i, max_value=n))
        assert shot_span_indices(video, span_from_shots(video, i, j)) == (i, j)


def timeline_and_span(data):
    """A contiguous shot timeline (some shots shorter than the 1e-6 s edge
    tolerance) and a span whose edges sit at, or within a few microseconds
    of, shot edges, or anywhere in the video."""
    lengths = data.draw(st.lists(
        st.one_of(st.floats(1e-7, 3e-6), st.floats(0.05, 5.0)), min_size=1, max_size=10))
    bounds = [0.0]
    for length in lengths:
        bounds.append(bounds[-1] + length)
    edge = st.one_of(
        st.tuples(st.sampled_from(bounds), st.sampled_from([0.0, -1e-6, 1e-6, -2e-6, 2e-6]),
                  st.floats(-1e-6, 1e-6)).map(lambda t: t[0] + t[1] + t[2] * 0.5),
        st.floats(-1.0, bounds[-1] + 1.0),
    )
    a, b = data.draw(edge), data.draw(edge)
    assume(a != b)
    return bounds, SegmentSpan(min(a, b), max(a, b))


class TestSpanOracles:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_shots_in_span_matches_oracle(self, data):
        bounds, span = timeline_and_span(data)
        video = make_video("v", bounds)
        rows = naive_shots_in_span(bounds[:-1], bounds[1:], span.start_s, span.end_s)
        picked = shots_in_span(video, span)
        assert picked.starts.tolist() == [bounds[k] for k in rows]
        assert picked.ends.tolist() == [bounds[k + 1] for k in rows]
        assert np.array_equal(picked.features["vis_r50"], video.shots.features["vis_r50"][rows])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_shot_span_indices_matches_oracle(self, data):
        bounds, span = timeline_and_span(data)
        video = make_video("v", bounds)
        expected = naive_shot_span_indices(bounds[:-1], bounds[1:], span.start_s, span.end_s)
        if expected is None:
            with pytest.raises(DataError, match="aligned"):
                shot_span_indices(video, span)
        else:
            assert shot_span_indices(video, span) == expected


class TestInteriorBoundaries:
    def test_excludes_video_edges_and_merges_joins(self):
        spans = [SegmentSpan(0.0, 2.0), SegmentSpan(2.0, 5.0), SegmentSpan(5.0, 6.0)]
        assert interior_boundaries(spans, 6.0) == [2.0, 5.0]

    def test_gapped_annotations_keep_both_edges(self):
        spans = [SegmentSpan(0.0, 2.0), SegmentSpan(3.0, 6.0)]
        assert interior_boundaries(spans, 6.0) == [2.0, 3.0]
