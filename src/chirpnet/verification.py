"""Gradient-verification scenarios shared by the test suite and the CLI.

Each scenario builds a scalar loss over seeded float64 parameters for one
layer type (or the composed toy network) and is checked against central
finite differences. Inputs are re-drawn until they sit safely away from
the non-smooth points of relu and maxpool, where finite differences are
meaningless.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .nn import functional as F
from .nn.gradcheck import (
    GradCheckReport,
    gradient_check,
    pool_tie_margin,
    relu_kink_margin,
)
from .nn.tensor import Tensor, parameter

KINK_MARGIN = 1e-4


def _f64(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape)


def _safe_draw(rng: np.random.Generator, shape, margin_fn: Callable) -> np.ndarray:
    for _ in range(100):
        x = rng.standard_normal(shape)
        if margin_fn(x) > KINK_MARGIN:
            return x
    raise RuntimeError("could not draw an input clear of non-smooth points")


def _ce_loss(probs: Tensor, target: int = 0) -> Tensor:
    return F.cross_entropy_mean(probs, [target])


def scenario_conv3(seed: int = 11):
    rng = np.random.default_rng(seed)
    x = Tensor(_f64(rng, 5, 6, 2))
    k = parameter(_f64(rng, 3, 2, 3, 3) * 0.4, dtype=np.float64)
    b = parameter(_f64(rng, 3) * 0.1, dtype=np.float64)

    def loss():
        return F.tsum(F.conv2d(x, k, b))

    return "conv 3x3", loss, [k, b]


def scenario_conv1(seed: int = 12):
    rng = np.random.default_rng(seed)
    x = Tensor(_f64(rng, 4, 5, 3))
    k = parameter(_f64(rng, 2, 3, 1, 1) * 0.4, dtype=np.float64)
    b = parameter(_f64(rng, 2) * 0.1, dtype=np.float64)

    def loss():
        return F.tsum(F.conv2d(x, k, b))

    return "conv 1x1", loss, [k, b]


def scenario_maxpool(seed: int = 13):
    rng = np.random.default_rng(seed)
    xdata = _safe_draw(rng, (6, 6, 2), pool_tie_margin)
    x = parameter(xdata, dtype=np.float64)

    def loss():
        return F.tsum(F.maxpool2(x))

    return "maxpool 2x2", loss, [x]


def scenario_gap(seed: int = 14):
    rng = np.random.default_rng(seed)
    x = parameter(_f64(rng, 4, 6, 3), dtype=np.float64)

    def loss():
        return F.tsum(F.global_avg_pool(x))

    return "global average pool", loss, [x]


def scenario_relu(seed: int = 15):
    rng = np.random.default_rng(seed)
    xdata = _safe_draw(rng, (5, 4, 2), relu_kink_margin)
    x = parameter(xdata, dtype=np.float64)

    def loss():
        return F.tsum(F.relu(x))

    return "relu", loss, [x]


def scenario_tanh(seed: int = 16):
    rng = np.random.default_rng(seed)
    x = parameter(_f64(rng, 5, 4, 2), dtype=np.float64)

    def loss():
        return F.tsum(F.tanh(x))

    return "tanh", loss, [x]


def scenario_adaptive(seed: int = 17):
    rng = np.random.default_rng(seed)
    x = parameter(_f64(rng, 5, 4, 2), dtype=np.float64)
    a = parameter(np.asarray(0.1), dtype=np.float64)

    def loss():
        return F.tsum(F.adaptive(x, a, n=10.0))

    return "adaptive activation (x and slope)", loss, [x, a]


def scenario_dropout_off(seed: int = 18):
    rng = np.random.default_rng(seed)
    x = parameter(_f64(rng, 5, 4, 2), dtype=np.float64)

    def loss():
        return F.tsum(F.dropout(x, 0.4, train_mode=False))

    return "dropout (eval mode)", loss, [x]


def scenario_softmax_ce(seed: int = 19):
    rng = np.random.default_rng(seed)
    logits = parameter(_f64(rng, 7), dtype=np.float64)

    def loss():
        return _ce_loss(F.softmax(logits), target=2)

    return "softmax + cross entropy", loss, [logits]


def scenario_dense(seed: int = 20):
    rng = np.random.default_rng(seed)
    x = Tensor(_f64(rng, 3, 6))
    w = parameter(_f64(rng, 6, 4) * 0.4, dtype=np.float64)
    b = parameter(_f64(rng, 4) * 0.1, dtype=np.float64)

    def loss():
        return F.tsum(F.dense(x, w, b))

    return "dense", loss, [w, b]


def _toy_network_params(rng: np.random.Generator, widths=(4, 8, 4, 3)):
    """Float64 parameters for a small conv stack ending in a 1x1 projection."""
    params = []
    in_ch = 1
    for i, width in enumerate(widths):
        ksize = 1 if i == len(widths) - 1 else 3
        fan = in_ch * ksize * ksize + width * ksize * ksize
        limit = np.sqrt(6.0 / fan)
        k = parameter(rng.uniform(-limit, limit, (width, in_ch, ksize, ksize)),
                      dtype=np.float64)
        b = parameter(rng.uniform(-0.05, 0.05, width), dtype=np.float64)
        params.append((k, b))
        in_ch = width
    slopes = [parameter(np.asarray(0.1), dtype=np.float64) for _ in widths[:-1]]
    return params, slopes


def scenario_toy_network(seed: int = 21, activation: str = "adaptive"):
    """The full stack at toy width: conv blocks, pooling, GAP, softmax, CE."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((16, 12, 1)))
    convs, slopes = _toy_network_params(rng)

    def loss():
        h = x
        for i, (k, b) in enumerate(convs):
            h = F.conv2d(h, k, b)
            if i < len(convs) - 1:
                if activation == "adaptive":
                    h = F.adaptive(h, slopes[i], n=10.0)
                else:
                    h = F.activate(h, activation)
                h = F.maxpool2(h)
        h = F.global_avg_pool(h)
        return _ce_loss(F.softmax(h), target=1)

    params = [t for pair in convs for t in pair]
    if activation == "adaptive":
        params += slopes
    return f"toy network ({activation})", loss, params


ALL_SCENARIOS = (
    scenario_conv3,
    scenario_conv1,
    scenario_maxpool,
    scenario_gap,
    scenario_relu,
    scenario_tanh,
    scenario_adaptive,
    scenario_dropout_off,
    scenario_softmax_ce,
    scenario_dense,
    scenario_toy_network,
)


def run_all(tol: float = 1e-4) -> list[tuple[str, GradCheckReport]]:
    """Run every scenario; returns (name, report) pairs."""
    results = []
    for build in ALL_SCENARIOS:
        name, loss, params = build()
        report = gradient_check(loss, params, tol=tol)
        results.append((name, report))
    return results
