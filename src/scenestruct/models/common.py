"""Shared model machinery: the fused-shot BiLSTM encoder every net builds
on, hyperparameters, and the minibatch loop."""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import CheckpointError, ConfigError
from ..fusion import EncoderSpec, ModalityMask, ShotFuser
from ..nn.batching import SequenceBatch
from ..nn.lstm import BiLstm
from ..nn.optim import Adam

log = logging.getLogger(__name__)

HEAD_MODES = ("scalar", "per_tag")  # a segment net's head: one confidence, or one per tag


class SequenceNet:
    """Fused shot features -> two-layer BiLSTM -> a net-specific head.

    The net owns one parameter dict, params: the fuser's ("fuser.*"), the
    BiLSTM's ("lstm.*") and then the head's ("head.W", "head.b"), a
    summary_width * hidden_dim by num_outputs affine map. A fresh net draws
    the fuser's and then the BiLSTM's initial weights from an rng seeded by
    seed, and starts its head at zero: every output at the sigmoid
    midpoint. A net given params (from a checkpoint) draws nothing
    and copies each array once, after checking it against the shape and
    dtype its config implies. grads, with params' names, is allocated by
    the first zero_grads(). A subclass names the constructor arguments its
    config_dict records in config_keys, and builds its supervised items in
    training_items(videos, hyper).
    """

    config_keys: tuple[str, ...] = ()
    summary_width = 0  # the head's input width in units of hidden_dim

    def __init__(self, mask, dims, *, num_outputs, hidden_dim=128, encoders=None,
                 dropout_rate=0.5, dtype=np.float32, seed=0, params=None):
        self.hidden_dim = hidden_dim
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] | None = None
        self.fuser = ShotFuser(mask, dims, self.params, encoders=encoders,
                               dropout_rate=dropout_rate, dtype=dtype)
        self.lstm = BiLstm(self.fuser.fused_dim, hidden_dim, self.params, dtype=dtype)
        head = {"head.W": (self.summary_width * hidden_dim, num_outputs), "head.b": (num_outputs,)}
        if params is not None:
            self._copy_params(params, {**self.fuser.param_shapes(), **self.lstm.param_shapes(), **head})
            return
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.fuser.draw_params(rng)
        self.lstm.draw_params(rng)
        for name, shape in head.items():
            self.params[name] = np.zeros(shape, dtype=self.lstm.dtype)

    def _copy_params(self, arrays: dict, shapes: dict) -> None:
        odd = ([f"unexpected {name!r}" for name in arrays if name not in shapes]
               + [f"missing {name!r}" for name in shapes if name not in arrays])
        if odd:
            raise CheckpointError(f"parameter names do not match the model: {odd[0]}")
        dtype = self.lstm.dtype
        for name, shape in shapes.items():
            shape = tuple(map(operator.index, shape))  # a float width in the config is malformed
            value = arrays[name]
            if (value.shape, value.dtype) != (shape, dtype):
                raise CheckpointError(
                    f"parameter {name} is {value.dtype.name} of shape {value.shape}, "
                    f"model expects {dtype.name} of shape {shape}")
            # the one copy: aligned, writable and free of the file's buffer
            self.params[name] = value.copy()

    def zero_grads(self) -> None:
        if self.grads is None:
            self.grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        for g in self.grads.values():
            g[...] = 0

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
    def from_config(cls, config: dict, params: dict):
        """Rebuild a net from what config_dict recorded and its parameter
        arrays. Every key config_dict writes is required: a missing one
        raises KeyError naming it."""
        mask = ModalityMask.from_names(
            config["mask"]["modalities"], include_length=config["mask"]["include_length"]
        )
        encoders = {mod: EncoderSpec(trainable=spec["trainable"], dim=spec["dim"])
                    for mod, spec in config["encoders"].items()}
        return cls(mask, config["dims"], hidden_dim=config["hidden_dim"], encoders=encoders,
                   dropout_rate=config["dropout_rate"], dtype=np.dtype(config["dtype"]),
                   params=params, **{key: config[key] for key in cls.config_keys})

    @classmethod
    def train(cls, train_videos, val_videos, mask, dims, hyper: TrainingHyper, *, num_tags=None,
              encoders=None):
        """Fit a fresh net on training_items(train_videos), stopping early
        on training_items(val_videos); returns (model, trace). The net's
        config_keys take their values from hyper and num_tags."""
        items = cls.training_items(train_videos, hyper)
        if not items:
            raise ConfigError(f"{cls.kind} training requires videos with scene annotations")
        settings = {"positive_weight": hyper.positive_weight, "head_mode": hyper.segment_head,
                    "num_tags": num_tags}
        model = cls(mask, dims, hidden_dim=hyper.hidden_dim, encoders=encoders,
                    dropout_rate=hyper.dropout, seed=hyper.seed,
                    **{key: settings[key] for key in cls.config_keys})
        return model, fit(model, items, hyper=hyper, val_items=cls.training_items(val_videos, hyper))

    def _encode(self, shot_lists, *, train, rng):
        """Training encode: fuse each shot list and run them through
        BiLstm.forward as one padded batch. Returns (hidden, lengths, cache)
        for _backprop."""
        fused, fuse_caches = [], []
        for shots in shot_lists:
            f, cache = self.fuser.forward_shots(shots, train=train, rng=rng)
            fused.append(f)
            fuse_caches.append(cache)
        batch = SequenceBatch.from_sequences(fused)
        hidden, lstm_cache = self.lstm.forward(batch)
        return hidden, batch.lengths, (batch.lengths, fuse_caches, lstm_cache)

    def _infer(self, shot_lists):
        """Inference encode: fuse each shot list (no dropout) and run them
        through BiLstm.infer as one padded batch. Returns (hidden, lengths);
        each row has the bits of its shot list encoded alone."""
        batch = SequenceBatch.from_sequences(
            [self.fuser.forward_shots(shots)[0] for shots in shot_lists])
        return self.lstm.infer(batch), batch.lengths

    def _backprop(self, cache, d_hidden) -> None:
        """Add the BiLSTM's and the fuser's gradients into grads. With every
        encoder frozen the fuser has no parameters, so nothing reads the
        input gradient: it is neither formed nor passed to the fuser."""
        lengths, fuse_caches, lstm_cache = cache
        if not self.fuser.param_shapes():
            self.lstm.backward(lstm_cache, d_hidden, self.grads, input_grad=False)
            return
        d_input = self.lstm.backward(lstm_cache, d_hidden, self.grads)
        for row, fuse_cache in enumerate(fuse_caches):
            self.fuser.backward(fuse_cache, d_input[row, : lengths[row]], self.grads)


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
    segment_head: str = "scalar"
    max_duration_shots: int | None = None

    def __post_init__(self):
        for key in ("lr", "positive_weight"):
            check_setting(getattr(self, key), f"training.{key}", 0, open_low=True)
        for key, low in (("batch_size", 1), ("epochs", 1), ("hidden_dim", 1), ("patience", 0),
                         ("seed", 0)):
            check_setting(getattr(self, key), f"training.{key}", low, integer=True)
        check_setting(self.dropout, "training.dropout", 0, 1)
        check_setting(self.max_duration_shots, "training.max_duration_shots", 1, integer=True,
                      nullable=True)
        if self.segment_head not in HEAD_MODES:
            raise ConfigError(f"training.segment_head must be one of {HEAD_MODES}, "
                              f"got {self.segment_head!r}")

    def as_dict(self) -> dict:
        return asdict(self)


def check_setting(value, key: str, low, high=math.inf, *, integer=False, open_low=False,
                  nullable=False) -> None:
    """Raise a ConfigError naming key unless value lies in [low, high), or
    in (low, high) if open_low: an int if integer is set, else an int or a
    float, never a bool; None passes if nullable. NaN and the infinities
    lie outside every range."""
    if value is None and nullable:
        return
    kinds = int if integer else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not (low < value if open_low else low <= value) or not value < high):
        kind = "an integer" if integer else "a finite number"
        bounds = (f"{'>' if open_low else '>='} {low}" if high == math.inf
                  else f"in {'(' if open_low else '['}{low}, {high})")
        raise ConfigError(f"{key} must be {'null or ' if nullable else ''}{kind} {bounds}, "
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
    backward on a list of items, adding into model.grads after
    model.zero_grads(), and returns (loss, count), or None when the batch
    carries no supervision. Keeps the parameters of the best
    validation epoch. Fully deterministic for a fixed hyper.seed. Non-finite
    values during training (divergence) are a ConfigError naming the epoch.
    """
    seq = np.random.SeedSequence(hyper.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    params = model.params
    adam = Adam(params, lr=hyper.lr)
    trace = TrainTrace()
    best_val = np.inf
    best_params = None
    wait = 0
    try:
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
                adam.step(params, model.grads)
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
    except FloatingPointError as exc:
        raise ConfigError(f"training diverged in epoch {epoch}: {exc}; lower training.lr") from exc
    if best_params is not None:
        for k, v in params.items():
            v[...] = best_params[k]
    return trace
