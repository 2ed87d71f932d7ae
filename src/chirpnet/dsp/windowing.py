"""Pre-emphasis, frame slicing, and the Hamming window."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DegenerateInputError, ParameterError

PREEMPHASIS_MIN = 0.4
PREEMPHASIS_MAX = 1.0


@dataclass(frozen=True)
class FrameParams:
    """Short-time analysis geometry.

    Defaults give 20 ms windows with a 10 ms hop at 44100 Hz, zero-padded
    to a 1024-point transform.
    """

    window_len: int = 882
    hop: int = 441
    fft_size: int = 1024

    def __post_init__(self):
        if self.window_len < 1 or self.hop < 1:
            raise ParameterError("window_len and hop must be positive")
        if self.hop > self.window_len:
            raise ParameterError(f"hop {self.hop} exceeds window_len {self.window_len}")
        if self.fft_size < self.window_len:
            raise ParameterError(
                f"fft_size {self.fft_size} smaller than window_len {self.window_len}"
            )
        if self.fft_size & (self.fft_size - 1):
            raise ParameterError(f"fft_size {self.fft_size} is not a power of two")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def n_frames(self, num_samples: int) -> int:
        if num_samples < self.window_len:
            return 0
        return 1 + (num_samples - self.window_len) // self.hop

    def min_samples(self, frames: int) -> int:
        """The fewest samples that hold `frames` frames (frames >= 1); inverts n_frames."""
        return self.window_len + (frames - 1) * self.hop


def preemphasis(samples: np.ndarray, b: float = 0.97) -> np.ndarray:
    """First-order high-pass y[n] = x[n] - b*x[n-1], y[0] = x[0]."""
    if not PREEMPHASIS_MIN <= b <= PREEMPHASIS_MAX:
        raise ParameterError(
            f"preemphasis coefficient must lie in [{PREEMPHASIS_MIN}, {PREEMPHASIS_MAX}], got {b}"
        )
    x = np.asarray(samples, dtype=np.float64)
    y = x.copy()
    y[1:] -= b * x[:-1]
    return y


def hamming(length: int) -> np.ndarray:
    """Symmetric Hamming window 0.54 - 0.46*cos(2*pi*i/(L-1))."""
    if length < 1:
        raise ParameterError("window length must be positive")
    if length == 1:
        return np.ones(1)
    i = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * i / (length - 1))


def frame_and_window(samples: np.ndarray, fp: FrameParams) -> np.ndarray:
    """Hamming-windowed frames zero-padded to fft_size: (n_frames, fft_size).

    Frame i holds samples [i*hop, i*hop + window_len).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("expected a 1-d sample buffer")
    if x.shape[0] < fp.window_len:
        raise DegenerateInputError(
            f"signal of {x.shape[0]} samples is shorter than one {fp.window_len}-sample window"
        )
    view = sliding_window_view(x, fp.window_len)[:: fp.hop]
    frames = np.zeros((view.shape[0], fp.fft_size))
    np.multiply(view, hamming(fp.window_len), out=frames[:, : fp.window_len])
    return frames
