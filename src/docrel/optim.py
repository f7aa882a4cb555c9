"""Adaptive-moment optimizer with decoupled weight decay and linear warmup."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = ["AdamW", "warmup_lr"]


def warmup_lr(base_lr: float, step: int, total_steps: int, warmup_ratio: float) -> float:
    """Linear ramp over the first warmup_ratio of steps, then constant."""
    warmup_steps = int(warmup_ratio * total_steps)
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    return base_lr


@dataclass(eq=False)
class AdamW:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)
    _t: int = 0

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("moment decays must be in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """In-place update of one parameter vector, such as ``HeadParams.flat``."""
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grads
        v *= self.beta2
        v += (1.0 - self.beta2) * (grads * grads)
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        params -= lr * (update + self.weight_decay * params)


def clip_gradients(grads: np.ndarray, max_norm: float) -> float:
    """Scale a gradient vector in place so its L2 norm is at most max_norm;
    returns the norm before clipping."""
    norm = float(np.sqrt(grads @ grads))
    if norm > max_norm and norm > 0:
        grads *= max_norm / norm
    return norm
