"""Second routes to the program's outputs, built without importing chirpnet.

Features use ``numpy.fft.rfft`` instead of the package's radix-2 transform
and build the mel filterbank from its definition. The network reference is a
float64 forward pass whose convolutions are direct shifted sums over the
kernel taps, not the package's im2col + GEMM. The WAV writer packs the RIFF
bytes by hand, so the decode check knows exactly which samples were written.
"""

from __future__ import annotations

import struct

import numpy as np

ENERGY_FLOOR = 1e-10
DB_FLOOR = -100.0


# -- WAV files -----------------------------------------------------------------


def write_wav_bytes(path, channels_data: np.ndarray, rate: int, float32: bool) -> np.ndarray:
    """Write (n,) or (n, ch) data in [-1, 1]; return the stored samples.

    PCM16 files store round(x * 32767) as int16, so the returned array is
    the exact integer payload; float32 files return the float32 payload.
    """
    x = np.asarray(channels_data, dtype=np.float64)
    channels = 1 if x.ndim == 1 else x.shape[1]
    if float32:
        stored = x.astype("<f4")
        code, bits = 3, 32
    else:
        stored = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")
        code, bits = 1, 16
    payload = stored.tobytes()
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", code, channels, rate, rate * block, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    return stored


# -- features --------------------------------------------------------------------


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def filterbank(n_mels: int, fft_size: int, rate: int) -> np.ndarray:
    """Unit-area triangles equally spaced on the mel axis, 0 Hz to Nyquist."""
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(rate / 2.0), n_mels + 2))
    df = rate / fft_size
    f = np.arange(fft_size // 2 + 1) * df
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    w = np.clip(np.minimum((f - lo) / (mid - lo), (hi - f) / (hi - mid)), 0.0, None)
    area = (w[:, :-1] + w[:, 1:]).sum(axis=1) * df / 2.0
    live = area > 0
    w[live] /= area[live, None]
    return w


def _power_frames(x: np.ndarray, window_len: int, hop: int, fft_size: int) -> np.ndarray:
    n_frames = 1 + (x.shape[0] - window_len) // hop
    starts = np.arange(n_frames) * hop
    frames = x[starts[:, None] + np.arange(window_len)]
    i = np.arange(window_len)
    frames = frames * (0.54 - 0.46 * np.cos(2.0 * np.pi * i / (window_len - 1)))
    spec = np.fft.rfft(frames, n=fft_size, axis=1)
    return spec.real**2 + spec.imag**2


def mel_db(x, rate, n_mels=128, window_len=882, hop=441, fft_size=1024) -> np.ndarray:
    """(n_mels, frames) peak-normalised log-mel energies floored at -100 dB."""
    w = filterbank(n_mels, fft_size, rate)
    e = _power_frames(np.asarray(x, dtype=np.float64), window_len, hop, fft_size) @ (w * w).T
    db = 10.0 * np.log10(np.maximum(e, ENERGY_FLOOR))
    peak = db.max()
    if peak > DB_FLOOR:
        db = np.maximum(db - peak, DB_FLOOR)
    return db.T


def mfcc(x, rate, n_mfcc=20, n_mels=128, b=0.97, window_len=882, hop=441, fft_size=1024) -> np.ndarray:
    """(n_mfcc, frames) DCT-II coefficients 1..n_mfcc of the log mel energies."""
    x = np.asarray(x, dtype=np.float64)
    y = np.concatenate([x[:1], x[1:] - b * x[:-1]])
    w = filterbank(n_mels, fft_size, rate)
    log_e = np.log(np.maximum(_power_frames(y, window_len, hop, fft_size) @ (w * w).T, ENERGY_FLOOR))
    k = np.arange(n_mels)
    basis = np.cos(np.outer(np.arange(1, n_mfcc + 1), (k + 0.5) * np.pi / n_mels))
    return (log_e @ basis.T).T


# -- network -----------------------------------------------------------------------


def conv_shifted_sum(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation of (H, W, Cin) by (Cout, Cin, k, k)."""
    h, w, cin = x.shape
    k = kernels.shape[2]
    p = (k - 1) // 2
    xp = np.pad(x, ((p, p), (p, p), (0, 0)))
    out = np.zeros((h * w, kernels.shape[0]))
    for a in range(k):
        for b in range(k):
            shifted = np.ascontiguousarray(xp[a : a + h, b : b + w, :]).reshape(h * w, cin)
            out += shifted @ kernels[:, :, a, b].T
    return (out + bias).reshape(h, w, -1)


def fcn_forward(features: np.ndarray, layers: list, slope_scale: float) -> np.ndarray:
    """Probabilities of the gap-head FCN in eval mode.

    ``layers`` holds (kernels, bias, slope) per conv block; the last entry
    is the 1x1 projection, whose slope is None. Blocks apply tanh(n*a*x),
    then 2x2 max pooling that drops a trailing odd row or column.
    """
    h = np.asarray(features, dtype=np.float64)[:, :, None]
    for kernels, bias, slope in layers:
        h = conv_shifted_sum(h, np.asarray(kernels, np.float64), np.asarray(bias, np.float64))
        if slope is None:
            break
        h = np.tanh(slope_scale * float(slope) * h)
        r, c = h.shape[0] // 2 * 2, h.shape[1] // 2 * 2
        h = np.maximum.reduce([h[0:r:2, 0:c:2], h[0:r:2, 1:c:2], h[1:r:2, 0:c:2], h[1:r:2, 1:c:2]])
    logits = h.mean(axis=(0, 1))
    e = np.exp(logits - logits.max())
    return e / e.sum()
