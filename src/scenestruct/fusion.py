"""Per-shot input assembly.

Selects modalities, optionally passes each through a small trainable
encoder, appends the shot-length scalar, concatenates in a fixed canonical
order, and applies dropout to the concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data.records import CANONICAL_MODALITIES
from .errors import ConfigError, DataError
from .nn.layers import dropout

LENGTH_KEY = "length"


@dataclass(frozen=True)
class ModalityMask:
    """Which modality blocks enter the fused shot vector.

    modalities is stored in canonical order (vis_r50, vis_i3, image, audio,
    text); the shot-length scalar is appended last when include_length is
    set. At least one component must be enabled.
    """

    modalities: tuple[str, ...]
    include_length: bool = True

    def __post_init__(self):
        unknown = [m for m in self.modalities if m not in CANONICAL_MODALITIES]
        if unknown:
            raise ConfigError(f"unknown modalities in mask: {unknown}")
        ordered = tuple(m for m in CANONICAL_MODALITIES if m in self.modalities)
        if len(set(self.modalities)) != len(self.modalities) or ordered != self.modalities:
            object.__setattr__(self, "modalities", ordered)
        if not self.modalities and not self.include_length:
            raise ConfigError("modality mask enables no components")

    @classmethod
    def from_names(cls, names, include_length=True) -> "ModalityMask":
        return cls(modalities=tuple(dict.fromkeys(names)), include_length=include_length)

    def as_dict(self) -> dict:
        return {"modalities": list(self.modalities), "include_length": self.include_length}


@dataclass(frozen=True)
class EncoderSpec:
    """frozen = pass-through; trainable = one tanh layer to dim outputs."""

    trainable: bool = False
    dim: int = 32

    def __post_init__(self):
        if self.trainable and self.dim < 1:
            raise ConfigError(f"trainable encoder dim must be >= 1, got {self.dim}")


class ShotFuser:
    """Builds fused per-shot vectors for one video (or one scene's shots).

    Block offsets are deterministic: enabled modalities in canonical order,
    then the length column. block_slices documents them.
    """

    def __init__(self, mask, dims, params, *, encoders=None, dropout_rate=0.5,
                 dtype=np.float32):
        self.mask = mask
        self.dims = dict(dims)
        self.encoders = {m: (encoders or {}).get(m, EncoderSpec()) for m in mask.modalities}
        self.dropout_rate = dropout_rate
        self.dtype = np.dtype(dtype)
        self.params = params  # the owning net's dict; this fuser reads its "fuser.*" entries
        missing = [m for m in mask.modalities if m not in self.dims]
        if missing:
            raise ConfigError(f"mask enables modalities absent from the manifest: {missing}")
        self.block_slices: dict[str, slice] = {}
        offset = 0
        for mod in mask.modalities:
            spec = self.encoders[mod]
            width = spec.dim if spec.trainable else self.dims[mod]
            self.block_slices[mod] = slice(offset, offset + width)
            offset += width
        if mask.include_length:
            self.block_slices[LENGTH_KEY] = slice(offset, offset + 1)
            offset += 1
        self.fused_dim = offset

    def param_shapes(self) -> dict:
        """Name -> shape of each trainable-encoder parameter, in draw and
        checkpoint order."""
        shapes = {}
        for mod, spec in self.encoders.items():
            if spec.trainable:
                shapes[f"fuser.enc_{mod}_W"] = (self.dims[mod], spec.dim)
                shapes[f"fuser.enc_{mod}_b"] = (spec.dim,)
        return shapes

    def draw_params(self, rng) -> None:
        """Fill params with initial weights drawn from rng: W uniform in
        +-1/sqrt(input dim), b zero."""
        for name, shape in self.param_shapes().items():
            if name.endswith("_W"):
                scale = 1.0 / np.sqrt(shape[0])
                self.params[name] = rng.uniform(-scale, scale, size=shape).astype(self.dtype)
            else:
                self.params[name] = np.zeros(shape, dtype=self.dtype)

    def forward_shots(self, shots, *, train=False, rng=None):
        """Fuse a ShotTable into (len(shots), fused_dim); returns (out, cache)."""
        if not len(shots):
            raise DataError("cannot fuse an empty shot table")
        blocks = []
        enc_cache = {}
        for mod in self.mask.modalities:
            if mod not in shots.features:
                raise DataError(f"shot table is missing modality {mod!r}")
            x = shots.features[mod].astype(self.dtype)
            if x.shape[1] != self.dims[mod]:
                raise DataError(
                    f"modality {mod!r} has dim {x.shape[1]}, manifest says {self.dims[mod]}"
                )
            spec = self.encoders[mod]
            if spec.trainable:
                act = x @ self.params[f"fuser.enc_{mod}_W"] + self.params[f"fuser.enc_{mod}_b"]
                enc = np.tanh(act)
                enc_cache[mod] = (x, enc)
                blocks.append(enc)
            else:
                blocks.append(x)
        if self.mask.include_length:
            blocks.append((shots.ends - shots.starts)[:, None].astype(self.dtype))
        fused = np.concatenate(blocks, axis=1)
        fused, drop_mask = dropout(fused, self.dropout_rate, train, rng)
        return fused, (enc_cache, drop_mask)

    def backward(self, cache, grad_fused, grads: dict) -> None:
        """Add the trainable-encoder gradients into grads; raw features are
        leaves."""
        enc_cache, drop_mask = cache
        if drop_mask is not None:
            grad_fused = grad_fused * drop_mask
        for mod, (x, enc) in enc_cache.items():
            d_enc = grad_fused[:, self.block_slices[mod]]
            d_act = d_enc * (1.0 - enc * enc)
            grads[f"fuser.enc_{mod}_W"] += x.T @ d_act
            grads[f"fuser.enc_{mod}_b"] += d_act.sum(axis=0)

    def encoder_specs_dict(self) -> dict:
        return {
            mod: {"trainable": spec.trainable, "dim": spec.dim}
            for mod, spec in self.encoders.items()
            if spec.trainable
        }
