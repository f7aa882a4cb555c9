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
    _state: np.ndarray | None = field(default=None, repr=False)  # m, v, two scratch rows
    _t: int = 0

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("moment decays must be in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """In-place update of one parameter vector, such as ``HeadParams.flat``,
        that allocates nothing after the first step; ``grads`` is left unchanged."""
        if self._state is None:
            self._state = np.zeros((4, *params.shape))
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        m, v, a, b = self._state
        m *= self.beta1
        m += np.multiply(grads, 1.0 - self.beta1, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(grads, grads, out=a), 1.0 - self.beta2, out=a)
        # update = (m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * params
        denom = np.add(np.sqrt(np.divide(v, bc2, out=a), out=a), self.eps, out=a)
        update = np.divide(np.divide(m, bc1, out=b), denom, out=b)
        update += np.multiply(params, self.weight_decay, out=a)
        params -= np.multiply(update, lr, out=b)


def clip_gradients(grads: np.ndarray, max_norm: float) -> float:
    """Scale a gradient vector in place so its L2 norm is at most max_norm;
    returns the norm before clipping."""
    norm = float(np.sqrt(grads @ grads))
    if norm > max_norm and norm > 0:
        grads *= max_norm / norm
    return norm
