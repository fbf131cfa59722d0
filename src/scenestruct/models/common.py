"""Shared model machinery: the fused-shot BiLSTM encoder every net builds
on, hyperparameters, and the minibatch loop."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import ConfigError
from ..fusion import EncoderSpec, ModalityMask, ShotFuser
from ..nn.batching import SequenceBatch
from ..nn.lstm import BiLstm
from ..nn.optim import Adam

log = logging.getLogger(__name__)


class SequenceNet:
    """Fused shot features -> two-layer BiLSTM -> a net-specific head.

    The fuser and then the BiLSTM draw their initial weights from rng, by
    default one seeded by seed; a subclass builds its own Dense head as
    self.head and names the constructor arguments its config_dict records
    in config_keys.
    """

    config_keys: tuple[str, ...] = ()

    def __init__(self, mask, dims, *, hidden_dim=128, encoders=None,
                 dropout_rate=0.5, dtype=np.float32, seed=0, rng=None):
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.hidden_dim = hidden_dim
        self.fuser = ShotFuser(mask, dims, encoders=encoders,
                               dropout_rate=dropout_rate, dtype=dtype, rng=rng)
        self.lstm = BiLstm(self.fuser.fused_dim, hidden_dim, rng=rng, dtype=dtype)

    @staticmethod
    def _blocks(fuser, lstm, head) -> dict:
        return {f"{prefix}.{k}": v
                for prefix, block in (("fuser", fuser), ("lstm", lstm), ("head", head))
                for k, v in block.items()}

    def parameters(self) -> dict:
        return self._blocks(self.fuser.params, self.lstm.params, self.head.params())

    def gradients(self) -> dict:
        return self._blocks(self.fuser.grads, self.lstm.grads, self.head.grads())

    def zero_grads(self) -> None:
        self.fuser.zero_grads()
        self.lstm.zero_grads()
        self.head.zero_grads()

    def config_dict(self) -> dict:
        return {
            "mask": self.fuser.mask.as_dict(),
            "encoders": self.fuser.encoder_specs_dict(),
            "dims": {m: self.fuser.dims[m] for m in self.fuser.mask.modalities},
            "hidden_dim": self.hidden_dim,
            "dropout_rate": self.fuser.dropout_rate,
            **{key: getattr(self, key) for key in self.config_keys},
            "dtype": self.lstm.dtype.name,
        }

    @classmethod
    def from_config(cls, config: dict, rng=None):
        """Rebuild an untrained net from what config_dict recorded, drawing
        its initial weights from rng if one is given. Every key config_dict
        writes is required: a missing one raises KeyError naming it."""
        mask = ModalityMask.from_names(
            config["mask"]["modalities"], include_length=config["mask"]["include_length"]
        )
        encoders = {mod: EncoderSpec(trainable=spec["trainable"], dim=spec["dim"])
                    for mod, spec in config["encoders"].items()}
        return cls(mask, config["dims"], hidden_dim=config["hidden_dim"], encoders=encoders,
                   dropout_rate=config["dropout_rate"], dtype=np.dtype(config["dtype"]), rng=rng,
                   **{key: config[key] for key in cls.config_keys})

    def _encode(self, shot_lists, *, train, rng):
        """Fuse each shot list and run them through the BiLSTM as one padded
        batch. Returns (hidden, lengths, cache) for _backprop."""
        fused, fuse_caches = [], []
        for shots in shot_lists:
            f, cache = self.fuser.forward_shots(shots, train=train, rng=rng)
            fused.append(f)
            fuse_caches.append(cache)
        batch = SequenceBatch.from_sequences(fused)
        hidden, lstm_cache = self.lstm.forward(batch)
        return hidden, batch.lengths, (batch.lengths, fuse_caches, lstm_cache)

    def _backprop(self, cache, d_hidden) -> None:
        lengths, fuse_caches, lstm_cache = cache
        d_input = self.lstm.backward(lstm_cache, d_hidden)
        for row, fuse_cache in enumerate(fuse_caches):
            self.fuser.backward(fuse_cache, d_input[row, : lengths[row]])


@dataclass
class TrainingHyper:
    """Defaults follow the published recipe: Adam at 0.01, batch 32,
    dropout 0.5 right after feature concatenation."""

    lr: float = 0.01
    batch_size: int = 32
    dropout: float = 0.5
    epochs: int = 50
    patience: int = 10
    hidden_dim: int = 128
    seed: int = 0
    positive_weight: float = 1.0
    encoder_dim: int = 32
    segment_head: str = "scalar"
    max_duration_shots: int | None = None

    def __post_init__(self):
        check_max_duration_shots(self.max_duration_shots, "training")

    def as_dict(self) -> dict:
        return asdict(self)


def check_max_duration_shots(value, section: str) -> None:
    """The proposal cap of a config section: None (no cap) or an integer >= 1."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
        raise ConfigError(f"{section}.max_duration_shots must be null or an integer >= 1, "
                          f"got {value!r}")


@dataclass
class TrainTrace:
    rows: list = field(default_factory=list)  # (epoch, train_loss, val_loss | None)

    def append(self, epoch, train_loss, val_loss):
        self.rows.append((epoch, train_loss, val_loss))

    def write_csv(self, path):
        import csv
        from pathlib import Path

        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss"])
            for epoch, train_loss, val_loss in self.rows:
                writer.writerow([epoch, train_loss, "" if val_loss is None else val_loss])


def fit(model, items, *, hyper: TrainingHyper, val_items=None) -> TrainTrace:
    """Minibatch loop with Adam and early stopping on validation loss.

    model.batch_loss_and_grads(batch, rng, train=True) runs forward +
    backward on a list of items and returns (loss, count), or None when the
    batch carries no supervision. Keeps the parameters of the best
    validation epoch. Fully deterministic for a fixed hyper.seed.
    """
    seq = np.random.SeedSequence(hyper.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    params = model.parameters()
    adam = Adam(params, lr=hyper.lr)
    trace = TrainTrace()
    best_val = np.inf
    best_params = None
    wait = 0
    for epoch in range(1, hyper.epochs + 1):
        order = shuffle_rng.permutation(len(items))
        total = 0.0
        count = 0
        for start in range(0, len(order), hyper.batch_size):
            batch = [items[i] for i in order[start : start + hyper.batch_size]]
            model.zero_grads()
            out = model.batch_loss_and_grads(batch, dropout_rng, train=True)
            if out is None:
                continue
            loss, n = out
            adam.step(params, model.gradients())
            total += loss * n
            count += n
        train_loss = total / count if count else float("nan")
        val_loss = None
        if val_items:
            out = model.batch_loss_and_grads(val_items, None, train=False)
            val_loss = out[0] if out else float("inf")
        trace.append(epoch, train_loss, val_loss)
        log.debug("epoch %d train %.5f val %s", epoch, train_loss, val_loss)
        if val_loss is not None:
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_params = {k: v.copy() for k, v in params.items()}
                wait = 0
            else:
                wait += 1
                if wait >= hyper.patience:
                    break
    if best_params is not None:
        for k, v in params.items():
            v[...] = best_params[k]
    return trace
