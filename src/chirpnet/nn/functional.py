"""Differentiable operations for the network.

All ops accept either a single feature map (H, W, C) or a batch (B, H, W, C);
vector ops accept (C,) or (B, C). Convolutions use stride 1 with optional
same padding and are implemented as im2col + GEMM so training stays fast on
CPU. Each op wires a backward closure into the graph, accumulating gradients
only into tensors that need them; under ``no_grad()`` none does, and a
convolution then builds its im2col columns a band of output rows at a time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import (
    DegenerateInputError,
    NumericError,
    ParameterError,
    ShapeError,
)
from . import tensor as _tensor
from .tensor import Tensor

PROB_FLOOR = 1e-12  # clamp for log of predicted probabilities

# im2col buffer of a convolution that needs no gradient: output rows are
# processed in bands whose columns fit in this many bytes (at least one row)
CONV_BAND_BYTES = 4 << 20


def _needs(t: Tensor) -> bool:
    return _tensor.grad_enabled and (t.requires_grad or t._backward_fn is not None)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _batched(data: np.ndarray, want_ndim: int):
    """Promote unbatched input to a batch of one. Returns (array, was_unbatched)."""
    if data.ndim == want_ndim:
        return data, False
    if data.ndim == want_ndim - 1:
        return data[None], True
    raise ShapeError(f"expected {want_ndim - 1}- or {want_ndim}-d input, got shape {data.shape}")


# -- convolution ---------------------------------------------------------------


def _pad_hw(x: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad both spatial axes of (B, H, W, C) by p on each side (cheaper than np.pad)."""
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xp[:, p : p + h, p : p + w] = x
    return xp


def _im2col(xp: np.ndarray, kh: int, kw: int, buf: Optional[np.ndarray] = None) -> np.ndarray:
    """(B, H, W, C) -> columns (B*OH*OW, kh*kw*C) of every valid kh x kw window.

    The columns are written into the front of the flat ``buf`` when one is
    given. With one channel they are built tap-major, one long contiguous
    copy per tap, and returned as the transposed view of a (kh*kw, B*OH*OW)
    array.
    """
    b, hp, wp, c = xp.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    n, k = b * oh * ow, kh * kw * c
    flat = np.empty(n * k, dtype=xp.dtype) if buf is None else buf[: n * k]
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (B, OH, OW, C, kh, kw)
    if c == 1:
        np.copyto(flat.reshape(kh, kw, b, oh, ow), win[:, :, :, 0].transpose(3, 4, 0, 1, 2))
        return flat.reshape(k, n).T
    np.copyto(flat.reshape(b, oh, ow, kh, kw, c), win.transpose(0, 1, 2, 4, 5, 3))
    return flat.reshape(n, k)


def _bias_grad(gflat: np.ndarray) -> np.ndarray:
    """Column sums of an (N, C) gradient as one GEMV.

    ``sum(axis=0)`` adds one row at a time, which is several times slower on
    the tall, narrow gradients of a conv layer.
    """
    return np.ones(gflat.shape[0], gflat.dtype) @ gflat


def conv2d(x, kernels, bias, same_padding: bool = True) -> Tensor:
    """2-D cross-correlation over (B, H, W, Cin) with kernels (Cout, Cin, kh, kw).

    Same padding keeps the spatial extents; kernel sizes are square, 1 or 3.
    When an operand needs a gradient, the whole batch is one GEMM and its
    columns stay alive for the kernel gradient. Otherwise each image is
    done in bands of output rows whose columns fit in CONV_BAND_BYTES, all
    written into one reused buffer, so the columns never exceed it.
    """
    x = _as_tensor(x)
    kernels = _as_tensor(kernels)
    bias = _as_tensor(bias)
    xd, squeeze = _batched(x.data, 4)
    cout, cin, kh, kw = kernels.shape
    if kh != kw or kh not in (1, 3):
        raise ParameterError(f"kernel must be square with size 1 or 3, got {kh}x{kw}")
    if xd.shape[3] != cin:
        raise ShapeError(f"input has {xd.shape[3]} channels, kernels expect {cin}")
    if xd.shape[1] < 1 or xd.shape[2] < 1:
        raise DegenerateInputError("conv2d input has an empty spatial extent")

    b, h, w, _ = xd.shape
    pad = (kh - 1) // 2 if same_padding else 0
    if not same_padding and (h < kh or w < kw):
        raise DegenerateInputError("input smaller than kernel without padding")
    xp = _pad_hw(xd, pad) if pad else xd
    oh, ow = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1

    wmat = kernels.data.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
    out = np.empty((b, oh, ow, cout), dtype=np.result_type(xp, wmat))
    tracked = _needs(x) or _needs(kernels) or _needs(bias)
    if tracked:
        images, rows, buf = [slice(0, b)], oh, None
    else:
        row_bytes = ow * kh * kw * cin * xp.itemsize
        images = [slice(i, i + 1) for i in range(b)]
        rows = min(oh, max(1, CONV_BAND_BYTES // row_bytes))
        buf = np.empty(rows * ow * kh * kw * cin, dtype=xp.dtype)
    for img in images:
        for r in range(0, oh, rows):
            band = slice(r, min(r + rows, oh))
            cols = _im2col(xp[img, r : band.stop + kh - 1], kh, kw, buf)
            np.matmul(cols, wmat, out=out[img, band].reshape(-1, cout))
    out += bias.data

    result_data = out[0] if squeeze else out
    if not tracked:
        return Tensor(result_data)

    def backward(g: np.ndarray) -> None:
        gd = g if not squeeze else g[None]
        gflat = gd.reshape(b * oh * ow, cout)
        if _needs(kernels):
            dw = (cols.T @ gflat).reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1)
            kernels._own_grad(dw)
        if _needs(bias):
            bias._own_grad(_bias_grad(gflat))
        if _needs(x):
            # correlate the gradient, padded to full size, with the flipped kernels
            q = kh - 1 - pad
            gp = _pad_hw(gd, q) if q else gd
            wflip = kernels.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
            dx = (_im2col(gp, kh, kw) @ wflip).reshape(b, h, w, cin)
            x._own_grad(dx[0] if squeeze else dx)

    return Tensor(result_data, parents=(x, kernels, bias), backward_fn=backward)


# -- pooling ---------------------------------------------------------------


def maxpool2(x) -> Tensor:
    """Non-overlapping 2x2 max pooling; a trailing odd row/column is dropped.

    The four cells of each window are the strided views ``xd[:, i::2, j::2]``
    taken in row-major order (0,0), (0,1), (1,0), (1,1). The gradient goes to
    the first cell scanned that holds the maximum.
    """
    x = _as_tensor(x)
    xd, squeeze = _batched(x.data, 4)
    b, h, w, c = xd.shape
    if h < 2 or w < 2:
        raise DegenerateInputError(f"maxpool2 needs at least 2x2 spatial input, got {h}x{w}")
    oh, ow = h // 2, w // 2
    cells = [(slice(i, 2 * oh, 2), slice(j, 2 * ow, 2)) for i in (0, 1) for j in (0, 1)]
    out = np.maximum(xd[:, cells[0][0], cells[0][1]], xd[:, cells[1][0], cells[1][1]])
    for rows, cols in cells[2:]:
        np.maximum(out, xd[:, rows, cols], out=out)

    result_data = out[0] if squeeze else out
    if not _needs(x):
        return Tensor(result_data)

    def backward(g: np.ndarray) -> None:
        gd = g if not squeeze else g[None]
        dx = np.empty_like(xd)
        dx[:, 2 * oh :] = 0
        dx[:, :, 2 * ow :] = 0
        taken = np.zeros(out.shape, dtype=bool)
        for rows, cols in cells:
            hit = xd[:, rows, cols] == out
            hit &= ~taken
            # a product, not np.copyto(where=), which is several times slower on strided views
            np.multiply(gd, hit, out=dx[:, rows, cols])
            taken |= hit
        x._own_grad(dx[0] if squeeze else dx)

    return Tensor(result_data, parents=(x,), backward_fn=backward)


def global_avg_pool(x) -> Tensor:
    """Mean over both spatial axes: (B, H, W, C) -> (B, C)."""
    x = _as_tensor(x)
    xd, squeeze = _batched(x.data, 4)
    b, h, w, c = xd.shape
    if h < 1 or w < 1:
        raise DegenerateInputError("global_avg_pool input has an empty spatial extent")
    out = xd.mean(axis=(1, 2))

    result_data = out[0] if squeeze else out
    if not _needs(x):
        return Tensor(result_data)

    def backward(g: np.ndarray) -> None:
        gd = g if not squeeze else g[None]
        dx = np.broadcast_to(gd[:, None, None, :] / (h * w), xd.shape).astype(xd.dtype)
        x._own_grad(dx[0] if squeeze else dx)

    return Tensor(result_data, parents=(x,), backward_fn=backward)


# -- activations ---------------------------------------------------------------


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0)
    if not _needs(x):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        x._own_grad(g * (x.data > 0))

    return Tensor(out, parents=(x,), backward_fn=backward)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out = np.tanh(x.data)
    if not _needs(x):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        x._own_grad(g * (1.0 - out * out))

    return Tensor(out, parents=(x,), backward_fn=backward)


def adaptive(x, a, n: float) -> Tensor:
    """Trainable-slope activation tanh(n * a * x) with scalar slope ``a``."""
    x = _as_tensor(x)
    a = _as_tensor(a)
    if a.size != 1:
        raise ShapeError("adaptive slope must be a scalar")
    if n <= 0:
        raise ParameterError("slope scale n must be positive")
    aval = float(a.data.reshape(()))
    out = np.tanh(n * aval * x.data)
    if not (_needs(x) or _needs(a)):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        gb = g * (1.0 - out * out)
        if _needs(x):
            x._own_grad(gb * (n * aval))
        if _needs(a):
            da = np.sum(gb * n * x.data)
            a._own_grad(np.asarray(da, dtype=a.dtype).reshape(a.shape))

    return Tensor(out, parents=(x, a), backward_fn=backward)


def activate(x, kind: str) -> Tensor:
    """Dispatch helper for the fixed activations: kind is 'relu' or 'tanh'."""
    if kind == "relu":
        return relu(x)
    if kind == "tanh":
        return tanh(x)
    raise ParameterError(f"unknown activation kind {kind!r}")


# -- classification head -------------------------------------------------------


def softmax(logits) -> Tensor:
    """Stable softmax along the last axis. Rejects non-finite logits.

    Normalization runs in double precision so the outputs always sum to 1
    well inside 1e-9, whatever the network's working dtype.
    """
    x = _as_tensor(logits)
    if x.data.shape[-1] < 1:
        raise ShapeError("softmax needs at least one logit")
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax input contains NaN or Inf")
    xd = x.data.astype(np.float64, copy=False)
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    if not _needs(x):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        inner = np.sum(g * out, axis=-1, keepdims=True)
        x._own_grad((g - inner) * out)

    return Tensor(out, parents=(x,), backward_fn=backward)


def cross_entropy_mean(pred, targets) -> Tensor:
    """Mean NLL over a batch: pred (B, C), targets (B,) int class indices.

    A single probability vector (C,) is a batch of one. Each probability is
    clamped below at PROB_FLOOR so the loss stays finite.
    """
    pred = _as_tensor(pred)
    pd, squeeze = _batched(pred.data, 2)
    targets = np.asarray(targets, dtype=np.intp)
    b, c = pd.shape
    if targets.shape != (b,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch size {b}")
    if targets.min() < 0 or targets.max() >= c:
        raise IndexError("target class index out of range")
    picked = pd[np.arange(b), targets]
    clamped = np.maximum(picked, PROB_FLOOR)
    out = np.asarray(-np.log(clamped).mean(), dtype=pred.dtype)
    if not _needs(pred):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        dp = np.zeros_like(pd)
        live = picked >= PROB_FLOOR
        rows = np.arange(b)[live]
        dp[rows, targets[live]] = -float(g) / (b * clamped[live])
        pred._own_grad(dp[0] if squeeze else dp)

    return Tensor(out, parents=(pred,), backward_fn=backward)


# -- regularization -------------------------------------------------------------


def dropout(x, rate: float, train_mode: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); identity in eval mode."""
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not train_mode or rate == 0.0:
        out = x.data
        if not _needs(x):
            return Tensor(out.copy())

        def backward_id(g: np.ndarray) -> None:
            x.accumulate_grad(g)

        return Tensor(out, parents=(x,), backward_fn=backward_id)

    if rng is None:
        raise ParameterError("train-mode dropout needs an rng")
    mask = (rng.random(x.data.shape) >= rate).astype(x.dtype)
    scale = 1.0 / (1.0 - rate)
    out = x.data * mask * scale
    if not _needs(x):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        x._own_grad(g * mask * scale)

    return Tensor(out, parents=(x,), backward_fn=backward)


# -- dense head and shape ops (CNN comparison variant) ---------------------------


def flatten(x) -> Tensor:
    """(B, H, W, C) -> (B, H*W*C); a single map flattens to a vector."""
    x = _as_tensor(x)
    xd, squeeze = _batched(x.data, 4)
    b = xd.shape[0]
    out = xd.reshape(b, -1)
    result_data = out[0] if squeeze else out
    if not _needs(x):
        return Tensor(result_data)

    def backward(g: np.ndarray) -> None:
        gd = g if not squeeze else g[None]
        x.accumulate_grad(gd.reshape(xd.shape)[0] if squeeze else gd.reshape(xd.shape))

    return Tensor(result_data, parents=(x,), backward_fn=backward)


def dense(x, weights, bias) -> Tensor:
    """Affine map x @ W + b with x (B, F) or (F,), W (F, O)."""
    x = _as_tensor(x)
    weights = _as_tensor(weights)
    bias = _as_tensor(bias)
    xd, squeeze = _batched(x.data, 2)
    f, o = weights.shape
    if xd.shape[1] != f:
        raise ShapeError(f"dense input has {xd.shape[1]} features, weights expect {f}")
    out = xd @ weights.data + bias.data
    result_data = out[0] if squeeze else out
    if not (_needs(x) or _needs(weights) or _needs(bias)):
        return Tensor(result_data)

    def backward(g: np.ndarray) -> None:
        gd = g if not squeeze else g[None]
        if _needs(weights):
            weights._own_grad(xd.T @ gd)
        if _needs(bias):
            bias._own_grad(_bias_grad(gd))
        if _needs(x):
            dx = gd @ weights.data.T
            x._own_grad(dx[0] if squeeze else dx)

    return Tensor(result_data, parents=(x, weights, bias), backward_fn=backward)


def tsum(x) -> Tensor:
    """Sum of all elements (handy as a toy loss)."""
    x = _as_tensor(x)
    out = np.asarray(x.data.sum(), dtype=x.dtype)
    if not _needs(x):
        return Tensor(out)

    def backward(g: np.ndarray) -> None:
        x._own_grad(np.full_like(x.data, float(g)))

    return Tensor(out, parents=(x,), backward_fn=backward)

