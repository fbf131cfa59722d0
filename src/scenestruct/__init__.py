"""Scene structuring for shot-based ad videos.

Learns scene boundaries, scores candidate scene segments, tags scenes with
multi-label classes, composes the submodels into four pipeline modes, and
evaluates with the avg-mAP x boundary-F1 product metric.
"""

__version__ = "0.1.0"

from .data.corpus_io import load_corpus, save_corpus
from .errors import CheckpointError, ConfigError, DataError, ScenestructError
from .experiment import split_corpus
from .fusion import EncoderSpec, ModalityMask
from .metrics import MetricReport, evaluate
from .models import (
    BoundaryNet,
    ModelBundle,
    SegmentNet,
    TagNet,
    TrainingHyper,
    load_bundle,
    load_model,
    save_model,
)
from .pipeline import PipelineConfig, StructuredPrediction, predict_corpus, run_pipeline
from .synth import GeneratorConfig, build_corpus, corpus_stats, generate_corpus

__all__ = [
    "BoundaryNet",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "EncoderSpec",
    "GeneratorConfig",
    "MetricReport",
    "ModalityMask",
    "ModelBundle",
    "PipelineConfig",
    "ScenestructError",
    "SegmentNet",
    "StructuredPrediction",
    "TagNet",
    "TrainingHyper",
    "__version__",
    "build_corpus",
    "corpus_stats",
    "evaluate",
    "generate_corpus",
    "load_bundle",
    "load_corpus",
    "load_model",
    "predict_corpus",
    "run_pipeline",
    "save_corpus",
    "save_model",
    "split_corpus",
]
