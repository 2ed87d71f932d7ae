"""AudioClip container, decoding, and sample-rate conversion."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import FormatError, NumericError, ParameterError
from .wavio import read_wav

CANONICAL_RATE = 44100
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 8.6
# Longest kernel resample builds: 2**22 taps, 32 MiB of float64. It admits
# every ratio whose reduced terms are both below 65536 (8-384 kHz to 44.1 kHz,
# 44056 Hz, 47952 Hz); a corrupt 2 GHz header rate would need 1.28e9 taps.
RESAMPLE_MAX_TAPS = 1 << 22
# Outputs per polyphase GEMM, and window rows per GEMM call, at most. numpy
# copies the overlapping windows before each GEMM; 512 rows of 48 kHz input
# copy 0.6 MiB. When down/up is large a window spans many taps, so both shrink
# until the tap matrix and the copied windows hold _BLOCK_VALUES floats each
# (4 MiB), down to one output and one row. Resampling to 44.1 kHz, they shrink
# only from about 945 kHz up.
_GROUP = 128
_ROWS = 512
_BLOCK_VALUES = 1 << 19
# Taps per slice while building the resampling kernel.
_KERNEL_SLICE = 1 << 16


@dataclass(frozen=True)
class AudioClip:
    """Mono samples in [-1, 1] at a single sample rate."""

    samples: np.ndarray
    sample_rate: int = CANONICAL_RATE
    source_id: str = ""
    species: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ParameterError(f"clip samples must be 1-d, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("clip contains non-finite samples")
        if self.sample_rate < 1:
            raise ParameterError("sample rate must be positive")
        object.__setattr__(self, "samples", arr)

    @property
    def duration(self) -> float:
        return self.samples.shape[0] / self.sample_rate

    def __len__(self) -> int:
        return self.samples.shape[0]

    def with_samples(self, samples: np.ndarray) -> "AudioClip":
        return replace(self, samples=samples)


def _kaiser_sinc_kernel(up: int, down: int) -> np.ndarray:
    """Linear-phase lowpass at the up-sampled rate, gain ``up``.

    Cutoff sits at half the narrower of the two Nyquist bands; length gives
    RESAMPLE_TAPS_PER_PHASE taps per polyphase branch, forced odd so the
    group delay is an integer.
    """
    cutoff = 0.5 / max(up, down)
    length = RESAMPLE_TAPS_PER_PHASE * max(up, down)
    if length % 2 == 0:
        length += 1
    centre = (length - 1) / 2
    kernel = np.empty(length)
    # np.sinc and np.i0 hold about ten temporaries the size of their input,
    # so the taps are computed _KERNEL_SLICE at a time (values as np.kaiser's).
    for a in range(0, length, _KERNEL_SLICE):
        n = np.arange(a, min(a + _KERNEL_SLICE, length)) - centre
        window = np.i0(RESAMPLE_KAISER_BETA * np.sqrt(1 - (n / centre) ** 2.0))
        kernel[a : a + n.shape[0]] = (
            2.0 * cutoff * np.sinc(2.0 * cutoff * n) * (window / np.i0(RESAMPLE_KAISER_BETA))
        )
    kernel *= up / kernel.sum()  # unit DC gain after the up-sampling dilution
    return kernel


def _polyphase(x: np.ndarray, kernel: np.ndarray, up: int, down: int, n_out: int) -> np.ndarray:
    """``y[i] = sum_n x[n] * kernel[d + i*down - n*up]``, ``d`` the kernel's centre.

    Output ``i + q*up`` reads the inputs of output ``i`` shifted by ``q*down``,
    so each group of at most _GROUP consecutive outputs within a period of
    ``q*up`` is one GEMM: rows are windows of the zero-padded input, ``q*down``
    apart, and columns the taps those outputs apply to the window.
    """
    taps = kernel.shape[0]
    d = (taps - 1) // 2
    q = -(-_GROUP // up)
    period, stride = q * up, q * down
    n_rows = -(-n_out // period)
    used = min(period, n_out)  # a single short period needs only its first outputs
    span = (taps - 1 + (_GROUP - 1) * down) // up + 1  # widest window of _GROUP outputs
    n_groups = -(-used // max(1, min(_GROUP, _BLOCK_VALUES // span)))
    bounds = [g * used // n_groups for g in range(n_groups + 1)]
    lpad = d // up
    last = (d + (used - 1) * down) // up  # last input read in the first period
    xp = np.zeros(lpad + last + (n_rows - 1) * stride + 1)
    xp[lpad : lpad + x.shape[0]] = x
    y = np.empty((n_rows, period))
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        first = -((d - g0 * down) // up)  # ceil((g0*down - d) / up)
        width = (d + (g1 - 1) * down) // up - first + 1
        idx = d + np.arange(g0, g1) * down - (first + np.arange(width))[:, None] * up
        inside = (idx >= 0) & (idx < taps)
        tap_matrix = np.where(inside, kernel[np.where(inside, idx, 0)], 0.0)
        windows = sliding_window_view(xp, width)[lpad + first :: stride][:n_rows]
        rows = max(1, min(_ROWS, _BLOCK_VALUES // width))
        for r in range(0, n_rows, rows):
            y[r : r + rows, g0:g1] = windows[r : r + rows] @ tap_matrix
    return y.reshape(-1)[:n_out]


def resample(samples: np.ndarray, sr_from: int, sr_to: int) -> np.ndarray:
    """Windowed-sinc rational-ratio resampling.

    The conversion ratio reduces exactly via integer arithmetic; the kernel
    is our own Kaiser-windowed sinc, executed as a polyphase filter whose
    group delay is centred on the output grid. The output holds
    ``ceil(n * sr_to / sr_from)`` samples.
    """
    if sr_from < 1 or sr_to < 1:
        raise ParameterError("sample rates must be positive")
    x = np.asarray(samples, dtype=np.float64)
    if sr_from == sr_to:
        return x.copy()
    ratio = Fraction(sr_to, sr_from)
    up, down = ratio.numerator, ratio.denominator
    if RESAMPLE_TAPS_PER_PHASE * max(up, down) > RESAMPLE_MAX_TAPS:
        raise ParameterError(
            f"resampling {sr_from} Hz to {sr_to} Hz needs a kernel of more than "
            f"{RESAMPLE_MAX_TAPS} taps"
        )
    if x.shape[0] == 0:
        return x.copy()
    n_out = -(-x.shape[0] * up // down)
    return _polyphase(x, _kaiser_sinc_kernel(up, down), up, down, n_out)


def decode_audio(path) -> AudioClip:
    """Decode a WAV file into a normalized clip at the canonical rate.

    Stereo is averaged to mono; other sample rates are resampled; values
    are clipped to [-1, 1] to absorb filter overshoot. A header rate too far
    from the canonical one to resample raises FormatError.
    """
    samples, rate = read_wav(path)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if rate != CANONICAL_RATE:
        try:
            samples = resample(samples, rate, CANONICAL_RATE)
        except ParameterError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    samples = np.clip(samples, -1.0, 1.0)
    return AudioClip(samples=samples, sample_rate=CANONICAL_RATE, source_id=Path(path).name)
