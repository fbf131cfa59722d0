"""Corpus schema, IO, ground-truth alignment and time/index conversions."""

from .corpus_io import load_corpus, save_corpus
from .labels import boundary_labels, interior_boundaries, span_from_shots
from .records import (
    CANONICAL_MODALITIES,
    Corpus,
    CorpusManifest,
    SceneAnnotation,
    SegmentSpan,
    ShotTable,
    VideoRecord,
)

__all__ = [
    "CANONICAL_MODALITIES",
    "Corpus",
    "CorpusManifest",
    "SceneAnnotation",
    "SegmentSpan",
    "ShotTable",
    "VideoRecord",
    "boundary_labels",
    "interior_boundaries",
    "load_corpus",
    "save_corpus",
    "span_from_shots",
]
