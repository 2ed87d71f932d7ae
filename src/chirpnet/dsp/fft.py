"""Discrete Fourier transforms written directly on numpy arrays.

Forward convention: X[k] = sum_n x[n] exp(-2j*pi*n*k/N), no normalization.
Lengths must be powers of two. One kernel serves every size: the
Cooley-Tukey four-step factorisation N = n1*n2 (Bailey, "FFTs in External
or Hierarchical Memory", 1990) applies dense n1- and n2-point DFT matrices
as complex matrix products with a twiddle multiply between them, recursing
on the n2-point step once N exceeds 64*64. A real frame of N samples is
transformed as N/2 complex points and split into its half spectrum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DegenerateInputError, ParameterError

# Largest dense DFT matrix; 64*64 covers every fft_size up to 4096 in one step.
_MAX_FACTOR = 64
# Frames per power_spectrum block. On 1024-point frames 32 and 64 ran
# fastest (the temporaries stay in the L2 cache), and blocks of 64 or more
# raised peak RSS by 1-3 MB in cross-validation runs.
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


def _fft_rows(a: np.ndarray) -> np.ndarray:
    """Forward transform of every row of a (rows, N) complex array, N a power of two."""
    rows, n = a.shape
    if n <= _MAX_FACTOR:
        return a @ _dft_matrix(n)
    n1 = min(1 << ((n.bit_length() - 1) // 2), _MAX_FACTOR)
    n2 = n // n1
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
def _split_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(1 - iW^k)/2 and (1 + iW^k)/2 for k = 0..n/2, W = exp(-2j*pi/n)."""
    w = _roots(np.arange(n // 2 + 1), n)
    lo, hi = 0.5 * (1.0 - 1j * w), 0.5 * (1.0 + 1j * w)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def power_spectrum(frame: np.ndarray) -> np.ndarray:
    """|X_k|^2 over bins 0..N/2 of a real frame (N,) or batch of frames (B, N).

    Each frame's even and odd samples form the real and imaginary parts of
    one N/2-point complex row Z. With Z[N/2] = Z[0], the half spectrum is
    X[k] = (Z[k] + conj(Z[N/2-k]))/2 - i W^k (Z[k] - conj(Z[N/2-k]))/2.
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
    lo, hi = _split_weights(n)
    out = np.empty((xm.shape[0], n // 2 + 1))
    for s in range(0, xm.shape[0], _BLOCK):
        packed = np.ascontiguousarray(xm[s : s + _BLOCK]).view(np.complex128)
        z = _fft_rows(packed)
        z = np.concatenate([z, z[:, :1]], axis=1)
        half = lo * z + hi * np.conj(z[:, ::-1])
        out[s : s + _BLOCK] = half.real * half.real + half.imag * half.imag
    return out[0] if squeeze else out
