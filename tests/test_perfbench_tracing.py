"""The benchmark's tracer (perfbench/tracing.py) wraps package methods and
functions by name from outside the package. These tests pin down every name
it wraps, check that its counters still find their arguments, and check that
undoing it puts each original object back."""

import importlib.util
from pathlib import Path

import numpy as np

from scenestruct import experiment, pipeline
from scenestruct.data.labels import boundary_labels
from scenestruct.data.records import Corpus, CorpusManifest
from scenestruct.fusion import EncoderSpec, ModalityMask, ShotFuser
from scenestruct.models import boundary, bundle, segment, tag
from scenestruct.nn.lstm import BiLstm
from scenestruct.nn.optim import Adam

from conftest import make_prediction, make_video

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

OWNERS = (experiment, pipeline, bundle, boundary, segment, tag, ShotFuser, BiLstm, Adam,
          boundary.BoundaryNet, segment.SegmentNet, tag.TagNet)

WRAPPED = {
    ("scenestruct.experiment", "evaluate"),
    ("scenestruct.experiment", "load_corpus"),
    ("scenestruct.experiment", "read_predictions"),
    ("scenestruct.pipeline", "nms_temporal"),
    ("scenestruct.pipeline", "run_pipeline"),
    ("scenestruct.pipeline", "write_predictions"),
    ("scenestruct.models.bundle", "load_checkpoint"),
    ("scenestruct.models.bundle", "save_checkpoint"),
    ("scenestruct.models.boundary", "bce_loss"),
    ("scenestruct.models.segment", "bce_loss"),
    ("scenestruct.models.tag", "bce_loss"),
    ("ShotFuser", "forward_shots"),
    ("ShotFuser", "backward"),
    ("BiLstm", "forward"),
    ("BiLstm", "backward"),
    ("Adam", "step"),
    ("BoundaryNet", "batch_loss_and_grads"),
    ("BoundaryNet", "forward_video"),
    ("SegmentNet", "batch_loss_and_grads"),
    ("SegmentNet", "forward_video"),
    ("TagNet", "batch_loss_and_grads"),
    ("TagNet", "forward_scene"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_every_name_and_undo_restores_it():
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    undo_traced = tracing.instrument(tracing.Tracer())
    undo_plain = tracing.instrument_plain(tracing.Tracer())
    wrapped = {(owner.__name__, attr)
               for owner, old in zip(OWNERS, before)
               for attr, value in vars(owner).items() if value is not old.get(attr)}
    undo_plain()
    undo_traced()
    assert wrapped == WRAPPED
    for owner, old in zip(OWNERS, before):
        assert set(vars(owner)) == set(old), owner.__name__
        for attr, value in old.items():
            assert vars(owner)[attr] is value, (owner.__name__, attr)


def test_counters_find_their_arguments():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    video = make_video("v", [0.0, 1.0, 2.0, 3.0], feature_dim=3,
                       scenes=[(0.0, 2.0, {1}), (2.0, 3.0, {2})], num_tags=2)
    # a trainable encoder gives the fuser parameters, so training runs
    # ShotFuser.backward (a frozen-encoder net skips it)
    net = boundary.BoundaryNet(ModalityMask.from_names(["vis_r50"]), {"vis_r50": 3},
                               hidden_dim=2,
                               encoders={"vis_r50": EncoderSpec(trainable=True, dim=2)})
    corpus = Corpus(CorpusManifest({"vis_r50": 3}, 2), [video])
    spans = np.array([[0.0, 2.0], [1.0, 3.0], [2.0, 3.0]])
    undo = tracing.instrument(tracer)
    try:
        net.forward_video(video)
        net.zero_grads()
        net.batch_loss_and_grads([(video, boundary_labels(video))], np.random.default_rng(0))
        kept = pipeline.nms_temporal(spans, [0.9, 0.8, 0.7], 0.0)
        experiment.evaluate([make_prediction("v", [(0.0, 2.0, {1: 0.9}), (2.0, 3.0, {2: 0.7})], 2)],
                            corpus)
    finally:
        undo()
    # forward_video encodes through BiLstm.infer, which is not wrapped: only
    # the training call runs BiLstm.forward; both calls fuse the video's shots
    assert tracer.counts["setup.nn.lstm.valid_steps"] == video.num_shots
    assert tracer.counts["setup.fusion.rows"] == 2 * video.num_shots
    assert kept == [0, 2]
    assert tracer.counts["setup.pipeline.proposals"] == 3
    assert tracer.counts["setup.pipeline.segments_kept"] == 2
    assert tracer.counts["setup.metrics.segments_scored"] == 2
    names = {span[0] for span in tracer.spans}
    assert {"models.boundary.forward_video", "models.boundary.batch_loss_and_grads",
            "nn.lstm.forward", "nn.lstm.backward", "fusion.forward", "fusion.backward",
            "nn.losses.bce", "pipeline.nms", "metrics.evaluate"} <= names
