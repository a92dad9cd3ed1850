"""AdamW with decoupled weight decay, plus a cosine annealing schedule."""
from __future__ import annotations

import math

import numpy as np

from .errors import StepOutOfRange


class AdamW:
    """Adam with weight decay applied directly to the weights.

    Decay shrinks each parameter by lr*weight_decay*param before the
    moment-based update, so decay strength does not pass through the
    adaptive denominators. `vector` (a ParamSet's) is updated in place,
    one whole-vector operation at a time.
    """

    def __init__(self, vector: np.ndarray, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.vector = vector
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = np.zeros_like(vector)
        self._v = np.zeros_like(vector)

    def step(self, lr: float, grads: np.ndarray) -> None:
        """One update from `grads`, laid out as `vector`."""
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        p, m, v = self.vector, self._m, self._v
        if self.weight_decay:
            p -= lr * self.weight_decay * p
        m *= self.beta1
        m += (1.0 - self.beta1) * grads
        v *= self.beta2
        v += (1.0 - self.beta2) * (grads * grads)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def cosine_lr(step: int, total: int, lr_max: float, lr_min: float) -> float:
    """Cosine anneal from lr_max (step 0) to lr_min (step == total)."""
    if total <= 0:
        raise StepOutOfRange(f"total must be positive, got {total}")
    if not 0 <= step <= total:
        raise StepOutOfRange(f"step {step} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total))
