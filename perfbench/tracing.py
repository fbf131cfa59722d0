"""In-memory spans around calls into the scenestruct layers.

The benchmark wraps the package's public entry points from the outside;
nothing in the package knows it is traced. A span records its name, the
benchmark stage that was running (setup, train, predict, evaluate or
latency), its start and end on the perf_counter clock and the index of the
span that was open when it started. Counters sit at the same boundaries.
"""

from __future__ import annotations

import csv
import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.stage = "setup"
        self.spans = []  # [name, stage, start, end, parent index or -1]
        self.counts = defaultdict(float)  # "stage.key" -> value
        self._open = []

    @contextmanager
    def span(self, name):
        record = [name, self.stage, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def count(self, key, value=1):
        self.counts[f"{self.stage}.{key}"] += value

    def summary(self):
        """{"stage.name": (total_s, self_s, calls)}; self time is a span's
        duration minus the durations of its direct children."""
        child_s = [0.0] * len(self.spans)
        for name, _stage, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for idx, (name, stage, start, end, _parent) in enumerate(self.spans):
            entry = out[f"{stage}.{name}"]
            entry[0] += end - start
            entry[1] += end - start - child_s[idx]
            entry[2] += 1
        return {key: tuple(v) for key, v in out.items()}

    def spans_of(self, stage, name):
        return [s for s in self.spans if s[1] == stage and s[0] == name]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "stage", "start_s", "end_s", "parent"])
            for idx, (name, stage, start, end, parent) in enumerate(self.spans):
                writer.writerow([idx, name, stage, f"{start:.9f}", f"{end:.9f}", parent])


def _wrap(tracer, owner, attr, name, on_return=None):
    """Replace owner.attr by a spanned call; returns an undo callable.

    name may be a callable of (args, kwargs) to pick the span name per call;
    on_return(tracer, args, kwargs, result) records counters.
    """
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        with tracer.span(span_name):
            result = original(*args, **kwargs)
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result

    setattr(owner, attr, traced)
    return lambda: setattr(owner, attr, original)


def _lstm_counts(tracer, args, _kwargs, _result):
    batch = args[1]
    tracer.count("nn.lstm.valid_steps", int(batch.lengths.sum()))
    tracer.count("nn.lstm.padded_steps", int(batch.data.shape[0] * batch.data.shape[1]))


def _fusion_counts(tracer, args, _kwargs, _result):
    tracer.count("fusion.rows", len(args[1]))


def _nms_counts(tracer, args, _kwargs, result):
    tracer.count("pipeline.proposals", len(args[0]))
    tracer.count("pipeline.segments_kept", len(result))


def _evaluate_counts(tracer, args, _kwargs, _result):
    tracer.count("metrics.segments_scored", sum(len(p.segments) for p in args[0]))


def _ckpt_mb(tracer, args, _kwargs, _result, key):
    tracer.count(key, os.path.getsize(args[0]) / 1e6)


def _batch_loss_name(kind):
    def pick(_args, kwargs):
        # fit's validation closure calls with train=False
        return f"models.{kind}.val_loss" if kwargs.get("train") is False else \
            f"models.{kind}.batch_loss_and_grads"
    return pick


def instrument_latency(tracer):
    """One span per video."""
    from scenestruct import pipeline

    return _wrap(tracer, pipeline, "run_pipeline", "pipeline.run_pipeline")


def instrument_plain(tracer):
    """The untraced run's wrappers: one span per video, and one per corpus
    or checkpoint load, named by the file it loads."""
    from scenestruct import experiment
    from scenestruct.models import bundle

    undo = [
        instrument_latency(tracer),
        _wrap(tracer, experiment, "load_corpus", "load.corpus"),
        _wrap(tracer, bundle, "load_checkpoint",
              lambda args, _kwargs: f"load.checkpoint.{os.path.basename(args[0])}"),
    ]
    return lambda: [fn() for fn in reversed(undo)]


def instrument(tracer):
    """Wrap every traced entry point; returns a callable that undoes it.

    Methods are wrapped on their class. Module-level functions are wrapped
    at the name their caller looks up (a `from x import f` copy is a
    separate binding from the definition).
    """
    from scenestruct import experiment, pipeline
    from scenestruct.fusion import ShotFuser
    from scenestruct.models import boundary, bundle, segment, tag
    from scenestruct.nn.lstm import BiLstm
    from scenestruct.nn.optim import Adam

    undo = [
        instrument_latency(tracer),
        _wrap(tracer, BiLstm, "forward", "nn.lstm.forward", _lstm_counts),
        _wrap(tracer, BiLstm, "backward", "nn.lstm.backward"),
        _wrap(tracer, ShotFuser, "forward_shots", "fusion.forward", _fusion_counts),
        _wrap(tracer, ShotFuser, "backward", "fusion.backward"),
        _wrap(tracer, Adam, "step", "nn.optim.step"),
        _wrap(tracer, pipeline, "nms_temporal", "pipeline.nms", _nms_counts),
        _wrap(tracer, pipeline, "write_predictions", "pipeline.write_predictions"),
        _wrap(tracer, bundle, "load_checkpoint", "nn.checkpoint.load",
              functools.partial(_ckpt_mb, key="nn.checkpoint.mb")),
        _wrap(tracer, bundle, "save_checkpoint", "nn.checkpoint.save",
              functools.partial(_ckpt_mb, key="nn.checkpoint.mb")),
        _wrap(tracer, experiment, "load_corpus", "data.load_corpus"),
        _wrap(tracer, experiment, "evaluate", "metrics.evaluate", _evaluate_counts),
        _wrap(tracer, experiment, "read_predictions", "pipeline.read_predictions"),
    ]
    for module, cls in ((boundary, boundary.BoundaryNet), (segment, segment.SegmentNet),
                        (tag, tag.TagNet)):
        kind = cls.kind
        undo.append(_wrap(tracer, module, "bce_loss", "nn.losses.bce"))
        undo.append(_wrap(tracer, cls, "batch_loss_and_grads", _batch_loss_name(kind)))
        if hasattr(cls, "forward_video"):
            undo.append(_wrap(tracer, cls, "forward_video", f"models.{kind}.forward_video"))
    undo.append(_wrap(tracer, tag.TagNet, "forward_scene", "models.tag.forward_scene"))

    def restore():
        for fn in reversed(undo):
            fn()

    return restore
