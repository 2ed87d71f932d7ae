"""Discrete Fourier transforms written directly on numpy arrays.

Forward convention: X[k] = sum_n x[n] exp(-2j*pi*n*k/N), no normalization.
Lengths must be powers of two. One kernel serves every size: the
Cooley-Tukey four-step factorisation N = n1*n2 (Bailey, "FFTs in External
or Hierarchical Memory", 1990) applies dense n1- and n2-point DFT matrices
as matrix products with a twiddle multiply between them, recursing on the
n2-point step once N exceeds 64*64. Real frames start from real input
(Sorensen et al., "Real-valued fast Fourier transform algorithms", 1987):
the n1-point step is one real matrix product over a block of frames, kept
for k1 = 0..n1/2 only, since the other half are complex conjugates, and
|X[k]| = |X[N-k]| fills the bins that half leaves out.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DegenerateInputError, ParameterError

# Largest dense DFT matrix; 64*64 covers every fft_size up to 4096 in one step.
_MAX_FACTOR = 64
# Frames per power_spectrum block. On calls of 256 1024-point frames (the
# feature front end's block) 16 and 32 ran fastest; 64 and 128, whose work
# arrays outgrow a 2 MiB L2 cache, took about 1.15x and 1.7x as long.
_BLOCK = 32


def _check_length(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ParameterError(f"transform length {n} is not a power of two")


def _roots(numerators: np.ndarray, n: int) -> np.ndarray:
    """exp(-2j*pi*m/n) with m reduced mod n exactly; read-only, as caches share it."""
    out = np.exp(-2j * np.pi * (numerators % n) / n)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _dft_matrix(n: int) -> np.ndarray:
    """F[j, k] = exp(-2j*pi*j*k/n), symmetric."""
    k = np.arange(n)
    return _roots(np.outer(k, k), n)


@lru_cache(maxsize=None)
def _twiddles(n1: int, n2: int) -> np.ndarray:
    """T[k1, j2] = exp(-2j*pi*k1*j2/(n1*n2))."""
    return _roots(np.outer(np.arange(n1), np.arange(n2)), n1 * n2)


def _factors(n: int) -> tuple[int, int]:
    """N = n1*n2 with n1 <= n2 and n1 at most _MAX_FACTOR."""
    n1 = min(1 << ((n.bit_length() - 1) // 2), _MAX_FACTOR)
    return n1, n // n1


def _fft_rows(a: np.ndarray) -> np.ndarray:
    """Forward transform of every row of a (rows, N) complex array, N a power of two."""
    rows, n = a.shape
    if n <= _MAX_FACTOR:
        return a @ _dft_matrix(n)
    n1, n2 = _factors(n)
    # Input index j = n2*j1 + j2 and output index k = k1 + n1*k2 give
    # X[k] = sum_j2 W_n2^(j2*k2) W_N^(k1*j2) sum_j1 W_n1^(j1*k1) x[j].
    y = np.matmul(_dft_matrix(n1), a.reshape(rows, n1, n2))
    y *= _twiddles(n1, n2)
    z = _fft_rows(y.reshape(rows * n1, n2)).reshape(rows, n1, n2)
    return z.transpose(0, 2, 1).reshape(rows, n)


def fft(x: np.ndarray) -> np.ndarray:
    """Full forward transform along the last axis; the length must be a power of two."""
    x = np.asarray(x)
    if x.size == 0:
        raise DegenerateInputError("cannot transform an empty signal")
    n = x.shape[-1]
    _check_length(n)
    rows = x.astype(np.complex128).reshape(-1, n)
    return _fft_rows(rows).reshape(x.shape)


@lru_cache(maxsize=None)
def _real_plan(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-1 matrix (cos rows, then -sin rows) and twiddles for k1 = 0..n1/2, and bin map.

    A frame's stage-2 output holds k = k1 + n1*k2 for k1 <= n1/2 only; the map
    sends bin k = 0..N/2 there, or to its mirror N - k, as |X[k]| = |X[N-k]|.
    """
    half, n = n1 // 2 + 1, n1 * n2
    w = _dft_matrix(n1)[:half]
    k = np.arange(n // 2 + 1)
    k = np.where(k % n1 > n1 // 2, n - k, k)
    plan = np.concatenate([w.real, w.imag]), _twiddles(n1, n2)[:half], (k % n1) * n2 + k // n1
    for a in plan:
        a.setflags(write=False)
    return plan


def power_spectrum(frame: np.ndarray) -> np.ndarray:
    """|X_k|^2 over bins 0..N/2 of a real frame (N,) or batch of frames (B, N).

    Frames are transformed in fixed blocks so temporaries stay small.
    """
    x = np.asarray(frame, dtype=np.float64)
    if x.size == 0:
        raise DegenerateInputError("cannot transform an empty signal")
    squeeze = x.ndim == 1
    xm = x[None] if squeeze else x
    n = xm.shape[-1]
    _check_length(n)
    if n == 1:
        out = xm * xm
        return out[0] if squeeze else out
    n1, n2 = _factors(n)
    half = n1 // 2 + 1
    stage1, twiddles, bins = _real_plan(n1, n2)
    out = np.empty((xm.shape[0], n // 2 + 1))
    for s in range(0, xm.shape[0], _BLOCK):
        block = xm[s : s + _BLOCK]
        b = block.shape[0]
        # j1 first, so stage 1 is one (2*half, n1) x (n1, b*n2) product
        cols = np.ascontiguousarray(block.reshape(b, n1, n2).transpose(1, 0, 2))
        y = (stage1 @ cols.reshape(n1, b * n2)).reshape(2, half, b, n2)
        z = np.empty((b, half, n2), dtype=np.complex128)
        z.real, z.imag = y[0].transpose(1, 0, 2), y[1].transpose(1, 0, 2)
        z *= twiddles
        spec = _fft_rows(z.reshape(b * half, n2)).reshape(b, half * n2)
        v = np.take(spec, bins, axis=1).view(np.float64)
        v *= v
        np.add(v[:, 0::2], v[:, 1::2], out=out[s : s + b])
    return out[0] if squeeze else out
