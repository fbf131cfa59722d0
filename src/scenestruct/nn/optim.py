"""Adam over dictionaries of parameter arrays."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with bias correction; updates parameters in place, and only
    with finite steps: a non-finite step raises FloatingPointError and
    leaves the parameters as they were.

    First and second moment accumulators are zero-initialized with the same
    shapes as the parameters; the step counter increases by one per step.
    """

    def __init__(self, params, *, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}

    def step(self, params, grads) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in parameter block {name!r}")
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            with np.errstate(over="ignore", invalid="ignore"):
                step = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if not np.all(np.isfinite(step)):
                raise FloatingPointError(
                    f"non-finite values in the step of parameter block {name!r}")
            p -= step
