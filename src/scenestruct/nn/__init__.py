"""Minimal neural-network engine with hand-derived gradients.

Dense layers, a two-layer bi-directional LSTM over padded sequence batches,
sigmoid, inverted dropout, masked binary cross-entropy, Adam, a central
finite-difference gradient checker, and the versioned binary checkpoint
format (scenestruct-ckpt-v2: a tag line, a JSON header line, raw
little-endian parameter bytes).
"""

from .batching import SequenceBatch
from .checkpoint import FORMAT_TAG, load_checkpoint, save_checkpoint
from .gradcheck import grad_check
from .layers import Dense, dense_forward, dropout, sigmoid
from .losses import bce_loss
from .lstm import BiLstm
from .optim import Adam

__all__ = [
    "Adam",
    "BiLstm",
    "Dense",
    "FORMAT_TAG",
    "SequenceBatch",
    "bce_loss",
    "dense_forward",
    "dropout",
    "grad_check",
    "load_checkpoint",
    "save_checkpoint",
    "sigmoid",
]
