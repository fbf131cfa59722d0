import json
import re

import numpy as np
import pytest

from scenestruct.data.records import ShotTable
from scenestruct.errors import CheckpointError
from scenestruct.fusion import EncoderSpec, ModalityMask
from scenestruct.models import BoundaryNet, SegmentNet, TagNet, load_model, save_model
from scenestruct.models.bundle import load_bundle
from scenestruct.nn import FORMAT_TAG, load_checkpoint, save_checkpoint

from conftest import make_video

MASK = ModalityMask.from_names(["vis_r50", "audio"])
DIMS = {"vis_r50": 3, "audio": 2}


def write_raw(path, header, data=b"", tag=FORMAT_TAG):
    """Hand-written checkpoint bytes: tag line, header line, then data."""
    path.write_bytes(f"{tag}\n{json.dumps(header)}\n".encode("utf-8") + data)


class TestRawCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        params = {"W": rng.normal(size=(3, 2)).astype(dtype), "b": rng.normal(size=2).astype(dtype)}
        path = tmp_path / "ckpt.ckpt"
        save_checkpoint(path, "boundary", {"dtype": np.dtype(dtype).name}, params)
        kind, config, loaded = load_checkpoint(path)
        assert kind == "boundary"
        assert config == {"dtype": np.dtype(dtype).name}
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].dtype == dtype

    def test_format_tag_written(self, tmp_path):
        path = tmp_path / "ckpt.ckpt"
        save_checkpoint(path, "tag", {}, {"w": np.zeros(1)})
        tag, header, data = path.read_bytes().split(b"\n", 2)
        assert tag.decode() == FORMAT_TAG
        assert json.loads(header)["params"] == {
            "w": {"shape": [1], "dtype": "<f8", "offset": 0, "nbytes": 8}}
        assert data == np.zeros(1, dtype="<f8").tobytes()

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "ckpt.ckpt"
        write_raw(path, {"kind": "tag", "config": {}, "params": {}}, tag="something-else")
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_json_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "tag.json"
        doc = {"format": "scenestruct-ckpt-v1", "kind": "tag", "config": {}, "params": {}}
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(CheckpointError, match="tag.json.*format.*retrained"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_top_level_list_rejected(self, tmp_path):
        path = tmp_path / "ckpt.ckpt"
        write_raw(path, [1, 2])
        with pytest.raises(CheckpointError, match="ckpt.ckpt.*JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["kind", "params", "config"])
    def test_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "ckpt.ckpt"
        header = {"kind": "tag", "config": {}, "params": {}}
        del header[key]
        write_raw(path, header)
        with pytest.raises(CheckpointError, match=f"ckpt.ckpt.*'{key}'"):
            load_checkpoint(path)

    def test_data_length_not_matching_shape_rejected(self, tmp_path):
        path = tmp_path / "ckpt.ckpt"
        entry = {"shape": [2, 2], "dtype": "<f4", "offset": 0, "nbytes": 12}
        write_raw(path, {"kind": "tag", "config": {}, "params": {"head.W": entry}},
                  np.zeros(3, dtype="<f4").tobytes())
        with pytest.raises(CheckpointError, match="ckpt.ckpt.*'head.W'"):
            load_checkpoint(path)

    def test_byte_range_past_end_rejected(self, tmp_path):
        path = tmp_path / "ckpt.ckpt"
        entry = {"shape": [2], "dtype": "<f4", "offset": 4, "nbytes": 8}
        write_raw(path, {"kind": "tag", "config": {}, "params": {"head.b": entry}},
                  np.zeros(2, dtype="<f4").tobytes())
        with pytest.raises(CheckpointError, match="ckpt.ckpt.*'head.b'.*past the end"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep, message", [
        (-1, "'head.b'.*truncated"),
        (len(FORMAT_TAG) + 10, "no complete header line"),
    ])
    def test_truncated_file_rejected(self, tmp_path, keep, message):
        path = tmp_path / "ckpt.ckpt"
        save_checkpoint(path, "tag", {}, {"head.W": np.ones((2, 3)), "head.b": np.ones(3)})
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CheckpointError, match=f"ckpt.ckpt.*{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [
        {"shape": [1], "dtype": "<i4", "offset": 0, "nbytes": 4},
        {"shape": [1], "dtype": None, "offset": 0, "nbytes": 8},
        {"shape": [1], "dtype": "<f8", "offset": -8, "nbytes": 8},
        {"shape": [1], "dtype": "<f8", "nbytes": 8},
    ])
    def test_malformed_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "ckpt.ckpt"
        write_raw(path, {"kind": "tag", "config": {}, "params": {"head.b": entry}},
                  np.zeros(1, dtype="<f8").tobytes())
        with pytest.raises(CheckpointError, match="ckpt.ckpt.*'head.b'.*malformed"):
            load_checkpoint(path)

    def test_nan_value_rejected(self, tmp_path):
        path = tmp_path / "ckpt.ckpt"
        save_checkpoint(path, "tag", {}, {"head.b": np.array([0.5, np.nan])})
        with pytest.raises(CheckpointError, match="ckpt.ckpt.*'head.b'.*non-finite"):
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
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        video = make_video("v", [0.0, 1.0, 2.0, 3.0], feature_dim=3,
                           modalities=("vis_r50",), rng=np.random.default_rng(1))
        shots = video.shots
        audio = np.tile(np.random.default_rng(2).normal(size=2), (len(shots), 1))
        video.shots = ShotTable(shots.starts, shots.ends, {**shots.features, "audio": audio})
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

    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch):
        model = SegmentNet(MASK, DIMS, hidden_dim=4, seed=5, head_mode="per_tag", num_tags=3,
                           encoders={"audio": EncoderSpec(trainable=True, dim=3)})
        path = tmp_path / "segment.ckpt"
        save_model(model, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = load_model(path)
        own = loaded.parameters()
        assert list(own) == list(model.parameters())
        for name, value in model.parameters().items():
            assert own[name].dtype == value.dtype
            assert own[name].tobytes() == value.tobytes()
            assert own[name].flags.writeable

    def test_parameter_shape_mismatch_rejected(self, tmp_path):
        model = TagNet(MASK, DIMS, 3, hidden_dim=4)
        params = {**model.parameters(), "head.b": np.zeros(4, dtype=np.float32)}
        path = tmp_path / "tag.ckpt"
        save_checkpoint(path, "tag", model.config_dict(), params)
        with pytest.raises(CheckpointError, match=re.escape(
                f"checkpoint {path}: parameter head.b is float32 of shape (4,), "
                f"model expects float32 of shape (3,)")):
            load_model(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        model = TagNet(MASK, DIMS, 3, hidden_dim=4)
        path = tmp_path / "tag.ckpt"
        save_model(model, path)
        with pytest.raises(CheckpointError, match="tag"):
            load_model(path, expected_kind="boundary")


    @pytest.mark.parametrize("edit, message", [
        (lambda config: config.pop("mask"), "config lacks key 'mask'"),
        (lambda config: config.pop("num_tags"), "config lacks key 'num_tags'"),
        (lambda config: config.update(mask=["audio"]), "config is malformed"),
        (lambda config: config.update(mask={"modalities": ["smell"], "include_length": True}),
         "config is malformed.*smell"),
    ])
    def test_malformed_config_rejected(self, tmp_path, edit, message):
        model = TagNet(MASK, DIMS, 3, hidden_dim=4)
        config = model.config_dict()
        edit(config)
        path = tmp_path / "tag.ckpt"
        save_checkpoint(path, "tag", config, model.parameters())
        with pytest.raises(CheckpointError, match=f"tag.ckpt.*{message}"):
            load_model(path)

    def test_list_config_rejected(self, tmp_path):
        model = TagNet(MASK, DIMS, 3, hidden_dim=4)
        path = tmp_path / "tag.ckpt"
        save_checkpoint(path, "tag", list(model.config_dict()), model.parameters())
        with pytest.raises(CheckpointError, match="tag.ckpt.*'config' object"):
            load_model(path)

    def test_parameter_dtype_mismatch_rejected(self, tmp_path):
        model = TagNet(MASK, DIMS, 3, hidden_dim=4)
        params = {k: v.astype(np.float64) for k, v in model.parameters().items()}
        path = tmp_path / "tag.ckpt"
        save_checkpoint(path, "tag", model.config_dict(), params)
        with pytest.raises(CheckpointError, match="tag.ckpt.*float64.*expects float32"):
            load_model(path)


class TestLoadBundle:
    def test_missing_checkpoint_names_net(self, tmp_path):
        save_model(BoundaryNet(MASK, DIMS, hidden_dim=4), tmp_path / "boundary.ckpt")
        save_model(TagNet(MASK, DIMS, 3, hidden_dim=4), tmp_path / "tag.ckpt")
        with pytest.raises(CheckpointError, match="segment"):
            load_bundle(tmp_path, "d")

    def test_head_mode_file_selection(self, tmp_path):
        save_model(SegmentNet(MASK, DIMS, hidden_dim=4, head_mode="per_tag", num_tags=3),
                   tmp_path / "segment_per_tag.ckpt")
        bundle = load_bundle(tmp_path, "c")
        assert bundle.segment.head_mode == "per_tag"

    def test_mode_a_needs_no_segment(self, tmp_path):
        save_model(BoundaryNet(MASK, DIMS, hidden_dim=4), tmp_path / "boundary.ckpt")
        save_model(TagNet(MASK, DIMS, 3, hidden_dim=4), tmp_path / "tag.ckpt")
        bundle = load_bundle(tmp_path, "a")
        assert bundle.segment is None
        assert bundle.boundary is not None
