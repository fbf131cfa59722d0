import numpy as np
import pytest

from scenestruct.data.records import ShotTable
from scenestruct.errors import ConfigError, DataError
from scenestruct.fusion import EncoderSpec, ModalityMask, ShotFuser

from conftest import zeros_like_params


def shots_with(modalities, n=3, rng=None):
    rng = rng or np.random.default_rng(0)
    edges = [0.0]
    rows = {m: [] for m in modalities}
    for _ in range(n):
        edges.append(edges[-1] + float(rng.uniform(0.5, 2.0)))
        for m, d in modalities.items():
            rows[m].append(rng.normal(size=d))
    return ShotTable(edges[:-1], edges[1:], {m: np.array(r) for m, r in rows.items()})


def with_column(shots, modality, values):
    """A copy of shots with one feature column replaced."""
    return ShotTable(shots.starts, shots.ends, {**shots.features, modality: values})


class TestModalityMask:
    def test_canonical_ordering_applied(self):
        mask = ModalityMask.from_names(["audio", "vis_r50"])
        assert mask.modalities == ("vis_r50", "audio")

    def test_unknown_modality_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModalityMask.from_names(["visual"])

    def test_empty_mask_rejected(self):
        with pytest.raises(ConfigError, match="no components"):
            ModalityMask.from_names([], include_length=False)

    def test_length_only_is_valid(self):
        mask = ModalityMask.from_names([])
        assert mask.include_length


class TestFuseShot:
    def test_length_only_gives_one_dim(self):
        fuser = ShotFuser(ModalityMask.from_names([]), {}, {}, dtype=np.float64)
        shots = shots_with({"vis_r50": 4})
        fused, _ = fuser.forward_shots(shots)
        assert fused.shape == (3, 1)
        assert fused[:, 0] == pytest.approx(shots.ends - shots.starts)

    def test_published_backbone_dims(self):
        # frozen 2048-d and 1024-d visual blocks plus the length scalar
        dims = {"vis_r50": 2048, "vis_i3": 1024}
        mask = ModalityMask.from_names(["vis_r50", "vis_i3"])
        fuser = ShotFuser(mask, dims, {})
        assert fuser.fused_dim == 2048 + 1024 + 1

    def test_eval_mode_is_exact_copy_of_blocks(self):
        dims = {"vis_r50": 16, "audio": 16}
        mask = ModalityMask.from_names(["vis_r50", "audio"], include_length=False)
        fuser = ShotFuser(mask, dims, {}, dtype=np.float64)
        assert fuser.fused_dim == 32
        shots = shots_with(dims)
        fused, _ = fuser.forward_shots(shots)
        assert np.array_equal(fused[:, :16], shots.features["vis_r50"])
        assert np.array_equal(fused[:, 16:], shots.features["audio"])

    def test_missing_modality_raises(self):
        mask = ModalityMask.from_names(["vis_r50", "audio"])
        fuser = ShotFuser(mask, {"vis_r50": 4, "audio": 4}, {})
        shots = shots_with({"vis_r50": 4})
        with pytest.raises(DataError, match="audio"):
            fuser.forward_shots(shots)

    def test_block_offsets_documented_and_stable(self):
        dims = {"audio": 3, "vis_r50": 2, "text": 4}
        mask = ModalityMask.from_names(["text", "audio", "vis_r50"])
        fuser = ShotFuser(mask, dims, {})
        assert fuser.block_slices["vis_r50"] == slice(0, 2)
        assert fuser.block_slices["audio"] == slice(2, 5)
        assert fuser.block_slices["text"] == slice(5, 9)
        assert fuser.block_slices["length"] == slice(9, 10)
        # permuting dict key order changes nothing
        fuser2 = ShotFuser(mask, {"text": 4, "vis_r50": 2, "audio": 3}, {})
        assert fuser2.block_slices == fuser.block_slices

    def test_disabled_modality_has_no_influence(self):
        rng = np.random.default_rng(4)
        dims = {"vis_r50": 4, "audio": 4}
        mask = ModalityMask.from_names(["vis_r50"])
        fuser = ShotFuser(mask, dims, {}, dtype=np.float64)
        shots = shots_with(dims, rng=rng)
        fused_a, _ = fuser.forward_shots(shots)
        fused_b, _ = fuser.forward_shots(with_column(shots, "audio", rng.normal(size=(3, 4)) * 1e6))
        assert np.array_equal(fused_a, fused_b)

    def test_trainable_encoder_output_dim(self):
        dims = {"vis_r50": 8}
        mask = ModalityMask.from_names(["vis_r50"])
        fuser = ShotFuser(mask, dims, {}, encoders={"vis_r50": EncoderSpec(trainable=True, dim=5)})
        fuser.draw_params(np.random.default_rng(0))
        assert fuser.fused_dim == 5 + 1
        fused, _ = fuser.forward_shots(shots_with(dims))
        assert fused.shape == (3, 6)
        assert np.all(np.abs(fused[:, :5]) < 1.0)  # tanh range

    def test_dropout_train_mode_scales_kept_units(self):
        dims = {"vis_r50": 1000}
        mask = ModalityMask.from_names(["vis_r50"], include_length=False)
        fuser = ShotFuser(mask, dims, {}, dropout_rate=0.5, dtype=np.float64)
        shots = with_column(shots_with(dims, n=1), "vis_r50", np.ones((1, 1000)))
        fused, (_enc, drop_mask) = fuser.forward_shots(shots, train=True, rng=np.random.default_rng(0))
        kept = fused[fused != 0]
        assert np.all(kept == 2.0)
        assert 350 <= kept.size <= 650
        assert drop_mask is not None

    def test_encoder_gradients_flow(self):
        rng = np.random.default_rng(8)
        dims = {"vis_r50": 4}
        mask = ModalityMask.from_names(["vis_r50"], include_length=False)
        fuser = ShotFuser(
            mask, dims, {}, encoders={"vis_r50": EncoderSpec(trainable=True, dim=3)},
            dtype=np.float64,
        )
        fuser.draw_params(rng)
        shots = shots_with(dims, rng=rng)
        w = rng.normal(size=(3, 3))

        def loss_fn():
            fused, _ = fuser.forward_shots(shots)
            return float((fused * w).sum())

        fused, cache = fuser.forward_shots(shots)
        grads = zeros_like_params(fuser.params)
        fuser.backward(cache, w.copy(), grads)
        from gradcheck import grad_check

        assert grad_check(loss_fn, fuser.params, grads, eps=1e-6) <= 1e-9
