"""Corpus schema, IO, ground-truth alignment and time/index conversions."""

from .corpus_io import load_corpus, save_corpus
from .labels import boundary_labels, interior_boundaries
from .records import (
    CANONICAL_MODALITIES,
    Corpus,
    CorpusManifest,
    SceneTable,
    ShotTable,
    VideoRecord,
)

__all__ = [
    "CANONICAL_MODALITIES",
    "Corpus",
    "CorpusManifest",
    "SceneTable",
    "ShotTable",
    "VideoRecord",
    "boundary_labels",
    "interior_boundaries",
    "load_corpus",
    "save_corpus",
]
