"""Reverse-mode autodiff tensors, layers, and the Adam optimizer."""

from . import functional
from .gradcheck import GradCheckReport, gradient_check, pool_tie_margin, relu_kink_margin
from .layers import (
    Activation,
    AdaptiveActivation,
    Conv2d,
    Dense,
    Dropout,
)
from .optim import Adam, AdamState, adam_step
from .tensor import Tensor, no_grad, parameter

__all__ = [
    "Tensor",
    "no_grad",
    "parameter",
    "functional",
    "Activation",
    "AdaptiveActivation",
    "Conv2d",
    "Dense",
    "Dropout",
    "Adam",
    "AdamState",
    "adam_step",
    "GradCheckReport",
    "gradient_check",
    "relu_kink_margin",
    "pool_tie_margin",
]
