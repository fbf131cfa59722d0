import json

import numpy as np
import pytest

from scenestruct.errors import CheckpointError
from scenestruct.fusion import EncoderSpec, ModalityMask
from scenestruct.models import BoundaryNet, SegmentNet, TagNet, load_model, save_model
from scenestruct.models.bundle import load_bundle
from scenestruct.nn import FORMAT_TAG, load_checkpoint, save_checkpoint

from conftest import make_video

MASK = ModalityMask.from_names(["vis_r50", "audio"])
DIMS = {"vis_r50": 3, "audio": 2}


class TestRawCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"W": rng.normal(size=(3, 2)).astype(np.float32), "b": rng.normal(size=2).astype(np.float32)}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "boundary", {"dtype": "float32"}, params)
        kind, config, loaded = load_checkpoint(path)
        assert kind == "boundary"
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].dtype == np.float32

    def test_format_tag_written(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "tag", {}, {"w": np.zeros(1)})
        assert json.loads(path.read_text())["format"] == FORMAT_TAG

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        doc = {"format": "something-else", "kind": "tag", "config": {}, "params": {}}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "missing.json")

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="ckpt.json.*JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["kind", "params"])
    def test_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "ckpt.json"
        doc = {"format": FORMAT_TAG, "kind": "tag", "config": {}, "params": {}}
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"ckpt.json.*'{key}'"):
            load_checkpoint(path)

    def test_data_length_not_matching_shape_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        doc = {"format": FORMAT_TAG, "kind": "tag", "config": {},
               "params": {"head.W": {"shape": [2, 2], "data": [0.0, 1.0, 2.0]}}}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="ckpt.json.*'head.W'"):
            load_checkpoint(path)

    def test_nan_value_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, "tag", {}, {"head.b": np.array([0.5, np.nan])})
        with pytest.raises(CheckpointError, match="ckpt.json.*'head.b'.*non-finite"):
            load_checkpoint(path)


class TestModelCheckpoints:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: BoundaryNet(MASK, DIMS, hidden_dim=4, seed=1,
                                encoders={"audio": EncoderSpec(trainable=True, dim=3)}),
            lambda: SegmentNet(MASK, DIMS, hidden_dim=4, seed=2, head_mode="scalar", num_tags=3),
            lambda: SegmentNet(MASK, DIMS, hidden_dim=4, seed=3, head_mode="per_tag", num_tags=3),
            lambda: TagNet(MASK, DIMS, 3, hidden_dim=4, seed=4),
        ],
    )
    def test_round_trip_preserves_outputs(self, tmp_path, build):
        model = build()
        rng = np.random.default_rng(9)
        for p in model.parameters().values():
            p[...] = rng.normal(size=p.shape).astype(p.dtype) * 0.3
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        video = make_video("v", [0.0, 1.0, 2.0, 3.0], feature_dim=3,
                           modalities=("vis_r50",), rng=np.random.default_rng(1))
        for shot in video.shots:
            shot.features["audio"] = np.random.default_rng(2).normal(size=2)
        if isinstance(model, BoundaryNet):
            assert np.array_equal(model.forward_video(video), loaded.forward_video(video))
        elif isinstance(model, SegmentNet):
            proposals = [(1, 1), (1, 3), (2, 3)]
            assert np.array_equal(
                model.forward_video(video, proposals), loaded.forward_video(video, proposals)
            )
        else:
            assert np.array_equal(
                model.forward_scene(video, 1, 3), loaded.forward_scene(video, 1, 3)
            )

    def test_kind_mismatch_rejected(self, tmp_path):
        model = TagNet(MASK, DIMS, 3, hidden_dim=4)
        path = tmp_path / "tag.json"
        save_model(model, path)
        with pytest.raises(CheckpointError, match="tag"):
            load_model(path, expected_kind="boundary")


class TestLoadBundle:
    def test_missing_checkpoint_names_net(self, tmp_path):
        save_model(BoundaryNet(MASK, DIMS, hidden_dim=4), tmp_path / "boundary.json")
        save_model(TagNet(MASK, DIMS, 3, hidden_dim=4), tmp_path / "tag.json")
        with pytest.raises(CheckpointError, match="segment"):
            load_bundle(tmp_path, "d")

    def test_head_mode_file_selection(self, tmp_path):
        save_model(SegmentNet(MASK, DIMS, hidden_dim=4, head_mode="per_tag", num_tags=3),
                   tmp_path / "segment_per_tag.json")
        bundle = load_bundle(tmp_path, "c")
        assert bundle.segment.head_mode == "per_tag"

    def test_mode_a_needs_no_segment(self, tmp_path):
        save_model(BoundaryNet(MASK, DIMS, hidden_dim=4), tmp_path / "boundary.json")
        save_model(TagNet(MASK, DIMS, 3, hidden_dim=4), tmp_path / "tag.json")
        bundle = load_bundle(tmp_path, "a")
        assert bundle.segment is None
        assert bundle.boundary is not None
