"""Trainable submodels: boundary classifier, segment scorer, scene tagger."""

from .boundary import BoundaryNet, boundaries_to_scenes
from .bundle import ModelBundle, load_bundle, load_model, save_model
from .common import TrainingHyper
from .segment import SegmentNet, enumerate_proposals, proposal_tag_targets, proposal_targets
from .tag import TagNet

__all__ = [
    "BoundaryNet",
    "ModelBundle",
    "SegmentNet",
    "TagNet",
    "TrainingHyper",
    "boundaries_to_scenes",
    "enumerate_proposals",
    "load_bundle",
    "load_model",
    "proposal_tag_targets",
    "proposal_targets",
    "save_model",
]
