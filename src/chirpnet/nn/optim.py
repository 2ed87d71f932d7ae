"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import NumericError, ParameterError
from .tensor import Tensor

# Moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the shared step count."""

    m: np.ndarray
    v: np.ndarray


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    t: int,
    lr: float = 1e-3,
) -> np.ndarray:
    """One Adam update; mutates ``state`` and returns the new parameter value.

    ``t`` is the 1-based step count used for bias correction.
    """
    if t < 1:
        raise ParameterError("step count t must be >= 1")
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * (grad * grad)
    m_hat = state.m / (1.0 - BETA1 ** t)
    v_hat = state.v / (1.0 - BETA2 ** t)
    return param - lr * m_hat / (np.sqrt(v_hat) + EPS)


class Adam:
    """Tracks moments for a fixed list of parameter tensors."""

    def __init__(self, params: List[Tensor], lr: float = 1e-3):
        if lr <= 0:
            raise ParameterError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._state: Dict[int, AdamState] = {
            id(p): AdamState(np.zeros_like(p.data), np.zeros_like(p.data))
            for p in self.params
        }

    def step(self) -> None:
        """Apply one update using each parameter's accumulated gradient."""
        self.t += 1
        for p in self.params:
            if p.grad is None:
                continue
            if not np.all(np.isfinite(p.grad)):
                raise NumericError("non-finite gradient in Adam step")
            st = self._state[id(p)]
            p.data = adam_step(p.data, p.grad, st, self.t, lr=self.lr).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
