"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (explicit loops, direct
formulas) on purpose: these are the second route that the fast vectorized
code must agree with. Nothing in this module imports from chirpnet.
"""

import numpy as np


# -- transforms -----------------------------------------------------------------


def dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def naive_dft(frame: np.ndarray) -> np.ndarray:
    """Full-length DFT by direct matrix product."""
    x = np.asarray(frame, dtype=np.complex128)
    return dft_matrix(x.shape[0]) @ x


def naive_dft_bins(frame: np.ndarray, bins) -> np.ndarray:
    """Selected DFT bins by direct summation, for lengths too long for a full matrix."""
    x = np.asarray(frame, dtype=np.complex128)
    n = x.shape[0]
    angles = np.outer(np.asarray(bins), np.arange(n)) % n
    return np.exp(-2j * np.pi * angles / n) @ x


def naive_half_spectrum(frame: np.ndarray) -> np.ndarray:
    n = len(frame)
    return naive_dft(frame)[: n // 2 + 1]


def naive_power_spectrum(frame: np.ndarray) -> np.ndarray:
    spec = naive_half_spectrum(frame)
    return (spec.real**2 + spec.imag**2).astype(np.float64)


def naive_dct2(values: np.ndarray, n_out: int) -> np.ndarray:
    """Type-II cosine transform, coefficients 1..n_out, by double loop."""
    m_total = len(values)
    out = np.zeros(n_out)
    for m in range(1, n_out + 1):
        acc = 0.0
        for k in range(m_total):
            acc += values[k] * np.cos(m * (k + 0.5) * np.pi / m_total)
        out[m - 1] = acc
    return out


# -- framing and windowing --------------------------------------------------------


def naive_preemphasis(x: np.ndarray, b: float) -> np.ndarray:
    y = np.zeros(len(x))
    y[0] = x[0]
    for n in range(1, len(x)):
        y[n] = x[n] - b * x[n - 1]
    return y


def naive_hamming(length: int) -> np.ndarray:
    if length == 1:
        return np.ones(1)
    i = np.arange(length)
    return 0.54 - 0.46 * np.cos(2 * np.pi * i / (length - 1))


def naive_frames(x: np.ndarray, window_len: int, hop: int) -> list[np.ndarray]:
    frames = []
    start = 0
    while start + window_len <= len(x):
        frames.append(np.array(x[start : start + window_len]))
        start += hop
    return frames


# -- mel filterbank ----------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def trapezoid_area(y: np.ndarray, dx: float) -> float:
    acc = 0.0
    for i in range(len(y) - 1):
        acc += 0.5 * (y[i] + y[i + 1]) * dx
    return acc


def naive_filterbank(n_mels: int, fft_size: int, sample_rate: float,
                     fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """Triangular filters on the mel scale, each normalized to unit area."""
    if fmax is None:
        fmax = sample_rate / 2.0
    edges_mel = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    weights = np.zeros((n_mels, len(bin_hz)))
    for m in range(n_mels):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        for k, f in enumerate(bin_hz):
            if lo < f < hi:
                rise = (f - lo) / (mid - lo) if mid > lo else 0.0
                fall = (hi - f) / (hi - mid) if hi > mid else 0.0
                weights[m, k] = max(0.0, min(rise, fall))
        area = trapezoid_area(weights[m], sample_rate / fft_size)
        if area > 0:
            weights[m] /= area
    return weights


def naive_mfcc(samples: np.ndarray, sample_rate: float, b: float,
               window_len: int, hop: int, fft_size: int,
               n_mels: int, n_mfcc: int) -> np.ndarray:
    """The whole pipeline, one slow stage at a time: (n_mfcc, frames)."""
    emphasized = naive_preemphasis(samples, b)
    window = naive_hamming(window_len)
    fb = naive_filterbank(n_mels, fft_size, sample_rate)
    cols = []
    for frame in naive_frames(emphasized, window_len, hop):
        padded = np.zeros(fft_size)
        padded[:window_len] = frame * window
        power = naive_power_spectrum(padded)
        energies = np.array([np.sum(power * fb[m] ** 2) for m in range(n_mels)])
        logs = np.log(np.maximum(energies, 1e-10))
        cols.append(naive_dct2(logs, n_mfcc))
    return np.stack(cols, axis=1)


def naive_mel_db(samples: np.ndarray, sample_rate: float,
                 window_len: int, hop: int, fft_size: int,
                 n_mels: int) -> np.ndarray:
    """Log mel spectrogram rescaled so the peak sits at 0 dB, floor -100."""
    window = naive_hamming(window_len)
    fb = naive_filterbank(n_mels, fft_size, sample_rate)
    cols = []
    for frame in naive_frames(samples, window_len, hop):
        padded = np.zeros(fft_size)
        padded[:window_len] = frame * window
        power = naive_power_spectrum(padded)
        energies = np.array([np.sum(power * fb[m] ** 2) for m in range(n_mels)])
        cols.append(10.0 * np.log10(np.maximum(energies, 1e-10)))
    db = np.stack(cols, axis=1)
    peak = db.max()
    if peak > -100.0:
        db = np.maximum(db - peak, -100.0)
    return db


# -- network pieces ------------------------------------------------------------------


def naive_conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                 same_padding: bool = True) -> np.ndarray:
    """Cross-correlation with quadruple loops; x (H, W, Cin) -> (H', W', Cout)."""
    h, w, cin = x.shape
    cout, cin_k, kh, kw = kernels.shape
    assert cin == cin_k
    pad = (kh - 1) // 2 if same_padding else 0
    xp = np.zeros((h + 2 * pad, w + 2 * pad, cin))
    xp[pad : pad + h, pad : pad + w, :] = x
    oh, ow = xp.shape[0] - kh + 1, xp.shape[1] - kw + 1
    out = np.zeros((oh, ow, cout))
    for o in range(cout):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(cin):
                    for a in range(kh):
                        for bb in range(kw):
                            acc += xp[i + a, j + bb, c] * kernels[o, c, a, bb]
                out[i, j, o] = acc + bias[o]
    return out


def naive_maxpool2(x: np.ndarray) -> np.ndarray:
    h, w, c = x.shape
    oh, ow = h // 2, w // 2
    out = np.zeros((oh, ow, c))
    for i in range(oh):
        for j in range(ow):
            for ch in range(c):
                out[i, j, ch] = max(
                    x[2 * i, 2 * j, ch], x[2 * i, 2 * j + 1, ch],
                    x[2 * i + 1, 2 * j, ch], x[2 * i + 1, 2 * j + 1, ch],
                )
    return out


def naive_gap(x: np.ndarray) -> np.ndarray:
    h, w, c = x.shape
    out = np.zeros(c)
    for ch in range(c):
        out[ch] = x[:, :, ch].sum() / (h * w)
    return out


def naive_softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def adam_unroll(param0: float, grads: list[float], lr: float = 1e-3,
                beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8) -> list[float]:
    """Scalar Adam stepped by hand; returns the parameter after each step."""
    m = 0.0
    v = 0.0
    p = param0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(p)
    return out
