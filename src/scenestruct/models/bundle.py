"""Saving, loading and bundling trained submodels."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import CheckpointError, ConfigError
from ..nn.checkpoint import load_checkpoint, save_checkpoint
from .boundary import BoundaryNet
from .segment import SegmentNet
from .tag import TagNet

NETS_BY_KIND = {cls.kind: cls for cls in (BoundaryNet, SegmentNet, TagNet)}

CHECKPOINT_FILES = {
    ("boundary", None): "boundary.ckpt",
    ("segment", "scalar"): "segment_scalar.ckpt",
    ("segment", "per_tag"): "segment_per_tag.ckpt",
    ("tag", None): "tag.ckpt",
}

# the nets each pipeline mode runs, with the segment head it needs; the
# pipeline's steps and the checkpoints load_bundle reads follow this table
MODE_REQUIREMENTS = {
    "a": {"boundary": None, "tag": None},
    "b": {"segment": "scalar", "tag": None},
    "c": {"segment": "per_tag"},
    "d": {"boundary": None, "segment": "scalar", "tag": None},
}


def checkpoint_filename(net: str, head_mode=None) -> str:
    key = (net, head_mode if net == "segment" else None)
    if key not in CHECKPOINT_FILES:
        raise CheckpointError(f"no checkpoint naming rule for net {net!r} head {head_mode!r}")
    return CHECKPOINT_FILES[key]


def save_model(model, path) -> None:
    save_checkpoint(path, model.kind, model.config_dict(), model.params)


def load_model(path, expected_kind=None):
    """The net a checkpoint holds, built from its config and arrays; draws
    no random numbers."""
    kind, config, params = load_checkpoint(path)
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(f"checkpoint {path} holds a {kind!r} model, expected {expected_kind!r}")
    if kind not in NETS_BY_KIND:
        raise CheckpointError(f"checkpoint {path} holds unknown model kind {kind!r}")
    try:
        return NETS_BY_KIND[kind].from_config(config, params)
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path}: config lacks key {exc.args[0]!r}") from exc
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    except (AttributeError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"checkpoint {path}: config is malformed: {exc}") from exc


@dataclass
class ModelBundle:
    """Trained submodels; segment holds whichever head the mode needs."""

    boundary: BoundaryNet | None = None
    segment: SegmentNet | None = None
    tag: TagNet | None = None

    def validate_for_corpus(self, manifest) -> None:
        for net in (self.boundary, self.segment, self.tag):
            if net is None:
                continue
            for mod in net.fuser.mask.modalities:
                have = manifest.modality_dims.get(mod)
                if have != net.fuser.dims[mod]:
                    raise CheckpointError(
                        f"{net.kind} checkpoint expects modality {mod!r} of dim "
                        f"{net.fuser.dims[mod]}, corpus manifest has {have}"
                    )
            num_tags = getattr(net, "num_tags", None)
            if num_tags and num_tags != manifest.num_tags:
                raise CheckpointError(
                    f"{net.kind} checkpoint was trained with {num_tags} tags, "
                    f"corpus manifest has {manifest.num_tags}"
                )


def load_bundle(checkpoint_dir, mode: str) -> ModelBundle:
    """Load the submodels a pipeline mode requires from a directory."""
    if mode not in MODE_REQUIREMENTS:
        raise CheckpointError(f"unknown pipeline mode {mode!r}")
    bundle = ModelBundle()
    for net, head in MODE_REQUIREMENTS[mode].items():
        path = Path(checkpoint_dir) / checkpoint_filename(net, head)
        if not path.exists():
            raise CheckpointError(
                f"mode {mode!r} requires a {net} checkpoint"
                + (f" with head {head!r}" if head else "")
                + f"; {path} not found"
            )
        model = load_model(path, expected_kind=net)
        if net == "segment" and model.head_mode != head:
            raise CheckpointError(
                f"checkpoint {path} has head mode {model.head_mode!r}, mode {mode!r} needs {head!r}"
            )
        setattr(bundle, net, model)
    return bundle
