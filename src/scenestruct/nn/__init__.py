"""Minimal neural-network engine with hand-derived gradients.

The affine map (dense_forward and its backward), a two-layer
bi-directional LSTM over padded sequence batches, sigmoid, inverted
dropout, masked binary cross-entropy, Adam, and the versioned binary
checkpoint format (scenestruct-ckpt-v2: a tag line, a JSON header line, raw
little-endian parameter bytes). No layer owns trainable state: the BiLSTM
reads its weights from the parameter dict of the net that holds it and adds
its gradients into the dict the net hands to backward.
"""

from .batching import SequenceBatch
from .checkpoint import FORMAT_TAG, load_checkpoint, save_checkpoint
from .layers import dense_backward, dense_forward, dropout, sigmoid
from .losses import bce_loss
from .lstm import BiLstm
from .optim import Adam

__all__ = [
    "Adam",
    "BiLstm",
    "FORMAT_TAG",
    "SequenceBatch",
    "bce_loss",
    "dense_backward",
    "dense_forward",
    "dropout",
    "load_checkpoint",
    "save_checkpoint",
    "sigmoid",
]
