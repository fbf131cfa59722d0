"""The shared minibatch loop, driven by a stub model."""

import re

import numpy as np
import pytest

from scenestruct.errors import ConfigError
from scenestruct.models.common import TrainingHyper, fit


class StubModel:
    """One scalar parameter with a constant unit gradient.

    Training batches return (1.0, 1), or None when supervise is False.
    Validation calls pop the next scripted loss and record the parameter
    value they saw.
    """

    def __init__(self, val_losses=(), supervise=True):
        self.w = np.zeros(1)
        self.g = np.zeros(1)
        self.params = {"w": self.w}
        self.grads = {"w": self.g}
        self.val_losses = list(val_losses)
        self.supervise = supervise
        self.val_calls = []
        self.seen_w = []

    def zero_grads(self):
        self.g[...] = 0.0

    def batch_loss_and_grads(self, items, rng, **kwargs):
        if kwargs.get("train") is False:
            self.val_calls.append((items, rng, kwargs))
            self.seen_w.append(self.w.copy())
            return self.val_losses.pop(0), 1
        self.g[...] = 1.0
        return (1.0, 1) if self.supervise else None


def hyper(**kwargs):
    defaults = dict(epochs=20, patience=3, batch_size=2, lr=0.1, seed=0)
    defaults.update(kwargs)
    return TrainingHyper(**defaults)


ITEMS = list(range(4))


def test_stops_after_patience_epochs_without_improvement():
    model = StubModel(val_losses=[3.0, 2.0, 2.5, 2.6, 2.7] + [9.0] * 15)
    trace = fit(model, ITEMS, hyper=hyper(patience=3), val_items=["v"])
    assert [row[0] for row in trace.rows] == [1, 2, 3, 4, 5]
    assert len(model.val_calls) == 5


def test_restores_best_epoch_parameters():
    model = StubModel(val_losses=[3.0, 1.0, 2.0, 2.5, 2.6])
    fit(model, ITEMS, hyper=hyper(patience=3), val_items=["v"])
    assert not np.array_equal(model.seen_w[1], model.seen_w[-1])
    assert np.array_equal(model.w, model.seen_w[1])


def test_unsupervised_batch_takes_no_adam_step():
    model = StubModel(supervise=False)
    trace = fit(model, ITEMS, hyper=hyper(epochs=3))
    assert np.array_equal(model.w, np.zeros(1))
    assert all(np.isnan(train_loss) for _epoch, train_loss, _val in trace.rows)


def test_supervised_batches_do_step():
    model = StubModel()
    fit(model, ITEMS, hyper=hyper(epochs=1))
    assert model.w[0] < 0.0


def test_validation_calls_pass_train_false_by_keyword():
    val_items = ["a", "b"]
    model = StubModel(val_losses=[1.0, 0.5])
    trace = fit(model, ITEMS, hyper=hyper(epochs=2), val_items=val_items)
    assert model.val_calls == [(val_items, None, {"train": False})] * 2
    assert [row[2] for row in trace.rows] == [1.0, 0.5]


@pytest.mark.parametrize("val_items", [None, []])
def test_no_validation_keeps_final_parameters(val_items):
    model = StubModel()
    trace = fit(model, ITEMS, hyper=hyper(epochs=2), val_items=val_items)
    assert model.val_calls == []
    assert all(val is None for _epoch, _train, val in trace.rows)


def test_divergence_is_config_error_naming_epoch():
    class Diverging(StubModel):
        """The third training batch, the first of epoch 2, gives a NaN gradient."""

        calls = 0

        def batch_loss_and_grads(self, items, rng, **kwargs):
            out = super().batch_loss_and_grads(items, rng, **kwargs)
            self.calls += 1
            if self.calls == 3:
                self.g[...] = np.nan
            return out

    with pytest.raises(ConfigError, match=re.escape(
            "training diverged in epoch 2: non-finite gradient in parameter block 'w'; "
            "lower training.lr")) as info:
        fit(Diverging(), ITEMS, hyper=hyper(epochs=3))
    assert isinstance(info.value.__cause__, FloatingPointError)
