"""Layer objects: thin stateful wrappers over the functional ops.

Each layer exposes __call__(x) -> Tensor and params() -> list[Tensor].
Weights are float32; kernels use a uniform fan-based init and biases start
at zero. Layers that behave differently during training (dropout) read the
``train_mode`` flag set by the model.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import ParameterError
from . import functional as F
from .tensor import Tensor, parameter


def _uniform_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Conv2d:
    """3x3 or 1x1 same-padding convolution with bias."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: Optional[np.random.Generator] = None):
        if in_channels < 1 or out_channels < 1:
            raise ParameterError("channel counts must be positive")
        rng = rng or np.random.default_rng()
        k = kernel_size
        fan_in = in_channels * k * k
        fan_out = out_channels * k * k
        self.kernels = parameter(
            _uniform_init(rng, (out_channels, in_channels, k, k), fan_in, fan_out)
        )
        self.bias = parameter(np.zeros(out_channels))
        self.kernel_size = k
        self.in_channels = in_channels
        self.out_channels = out_channels

    def __call__(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.kernels, self.bias, same_padding=True)

    def params(self) -> List[Tensor]:
        return [self.kernels, self.bias]


class Activation:
    """Fixed nonlinearity: 'relu' or 'tanh'."""

    # relu and tanh are monotone non-decreasing, so they commute with max pooling
    monotone = True

    def __init__(self, kind: str):
        if kind not in ("relu", "tanh"):
            raise ParameterError(f"unknown fixed activation {kind!r}")
        self.kind = kind

    def __call__(self, x: Tensor) -> Tensor:
        return F.activate(x, self.kind)

    def params(self) -> List[Tensor]:
        return []


class AdaptiveActivation:
    """tanh(n * a * x) with one trainable slope per layer.

    The slope starts at 1 / n so n * a = 1 and the activation matches tanh
    at the first step.
    """

    n = 10.0

    def __init__(self):
        self.slope = parameter(np.asarray(0.1))

    @property
    def monotone(self) -> bool:
        """True while n * a > 0, where tanh(n * a * x) is non-decreasing in x.

        The slope is trained, so this is read afresh on every forward pass.
        """
        return self.n * float(self.slope.data.reshape(())) > 0

    def __call__(self, x: Tensor) -> Tensor:
        return F.adaptive(x, self.slope, self.n)

    def params(self) -> List[Tensor]:
        return [self.slope]


class Dropout:
    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng or np.random.default_rng()
        self.train_mode = False

    def __call__(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.train_mode, self.rng)

    def params(self) -> List[Tensor]:
        return []


class Dense:
    """Fully connected layer for the dense-head comparison model."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        if in_features < 1 or out_features < 1:
            raise ParameterError("feature counts must be positive")
        rng = rng or np.random.default_rng()
        self.weights = parameter(
            _uniform_init(rng, (in_features, out_features), in_features, out_features)
        )
        self.bias = parameter(np.zeros(out_features))
        self.in_features = in_features
        self.out_features = out_features

    def __call__(self, x: Tensor) -> Tensor:
        return F.dense(x, self.weights, self.bias)

    def params(self) -> List[Tensor]:
        return [self.weights, self.bias]
