"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np


def draw_head(model):
    """Fill the head with fixed draws in +-1/sqrt(fan-in): a fresh net's head
    is zero, which leaves every gradient below it zero."""
    head_rng = np.random.default_rng(7)
    scale = 1.0 / np.sqrt(model.params["head.W"].shape[0])
    for name in ("head.W", "head.b"):
        model.params[name][...] = head_rng.uniform(-scale, scale, size=model.params[name].shape)


def grad_check(loss_fn, params, analytic_grads, eps=1e-5):
    """Compare analytic gradients against central differences.

    loss_fn recomputes the scalar loss from the current contents of params
    (including any fixed stochastic state such as a frozen dropout mask).
    Each parameter entry is perturbed by +-eps in place and restored.
    Returns the worst relative error, where the relative error of a pair
    (a, n) is |a - n| / max(1, |a|, |n|). Run with float64 parameters;
    finite differences are unreliable at single precision.
    """
    worst = 0.0
    for name, theta in params.items():
        if not theta.flags["C_CONTIGUOUS"]:
            raise ValueError(f"parameter {name!r} is not contiguous")
        flat = theta.ravel()  # contiguous: a mutable view
        analytic = analytic_grads[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = loss_fn()
            flat[idx] = orig - eps
            f_minus = loss_fn()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[idx])
            denom = max(1.0, abs(a), abs(numeric))
            worst = max(worst, abs(a - numeric) / denom)
    return worst
