"""Feature matrices: mel spectrogram in dB and cepstral coefficients.

Both descriptors share the same short-time front end (framing, Hamming
window, power spectrum, triangular filterbank), run on blocks of frames.
Matrices are (bands x frames) and carry their framing parameters so
downstream consumers can convert frame indices to seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import CorruptionError, ParameterError, ShapeError
from .fft import power_spectrum
from .mel import MelFilterbank, build_filterbank, filterbank_energies
from .windowing import FrameParams, frame_and_window, preemphasis

DB_FLOOR = -100.0
ENERGY_FLOOR = 1e-10
KINDS = ("mel-db", "mfcc")
# Frames per front-end block: a long clip's frames and spectra are never built whole
_FRAME_BLOCK = 256


@dataclass(frozen=True)
class FeatureMatrix:
    """(bands x frames) descriptor with its framing geometry."""

    values: np.ndarray
    kind: str
    frame_params: FrameParams
    sample_rate: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.values.ndim != 2:
            raise ShapeError(f"feature values must be 2-d, got shape {self.values.shape}")

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]


@lru_cache(maxsize=8)
def default_filterbank(n_mels: int, fp: FrameParams, sample_rate: int) -> MelFilterbank:
    return build_filterbank(n_mels, fp, sample_rate)


def _extract(clip, sample_rate):
    """Accept an object with .samples/.sample_rate or a bare array + rate."""
    samples = getattr(clip, "samples", clip)
    sr = getattr(clip, "sample_rate", sample_rate)
    if sr is None:
        raise ParameterError("sample_rate required when passing a bare sample array")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("expected a 1-d sample buffer")
    return x, int(sr)


def _band_energies(samples: np.ndarray, fp: FrameParams, fb: MelFilterbank) -> np.ndarray:
    """Filterbank energies (frames, n_mels), _FRAME_BLOCK frames at a time.

    A clip shorter than one window makes one call, which raises DegenerateInputError.
    """
    n = max(fp.n_frames(samples.shape[0]), 1)
    span = (_FRAME_BLOCK - 1) * fp.hop + fp.window_len
    out = np.empty((n, fb.n_mels))
    for s in range(0, n, _FRAME_BLOCK):
        frames = frame_and_window(samples[s * fp.hop : s * fp.hop + span], fp)
        out[s : s + _FRAME_BLOCK] = filterbank_energies(power_spectrum(frames), fb)
    return out


def dct_cepstrum(log_energies: np.ndarray, n_mfcc: int) -> np.ndarray:
    """Cepstral coefficients C[m] = sum_k logE[k] * cos(m*(k+1/2)*pi/M).

    Coefficients run m = 1..n_mfcc; the constant m = 0 term is excluded.
    Accepts (M,) or (frames, M) input.
    """
    e = np.asarray(log_energies, dtype=np.float64)
    squeeze = e.ndim == 1
    em = e[None] if squeeze else e
    m_bands = em.shape[-1]
    if not 1 <= n_mfcc <= m_bands:
        raise ParameterError(f"n_mfcc must lie in [1, {m_bands}], got {n_mfcc}")
    k = np.arange(m_bands)
    m = np.arange(1, n_mfcc + 1)
    basis = np.cos(np.outer(m, (k + 0.5) * np.pi / m_bands))
    out = em @ basis.T
    return out[0] if squeeze else out


def mel_spectrogram(
    clip,
    fp: FrameParams | None = None,
    fb: MelFilterbank | None = None,
    n_mels: int = 128,
    sample_rate: int | None = None,
) -> FeatureMatrix:
    """Power spectrogram projected on the filterbank, in rescaled decibels.

    Energies convert as 10*log10(max(E, 1e-10)); the matrix then shifts so
    its maximum sits at 0 dB, floored at -100 dB. A clip of digital silence
    stays at the floor rather than being rescaled.
    """
    samples, sr = _extract(clip, sample_rate)
    fp = fp or FrameParams()
    fb = fb or default_filterbank(n_mels, fp, sr)
    energies = _band_energies(samples, fp, fb)
    db = 10.0 * np.log10(np.maximum(energies, ENERGY_FLOOR))
    peak = db.max()
    if peak > DB_FLOOR:
        db = np.maximum(db - peak, DB_FLOOR)
    return FeatureMatrix(values=db.T, kind="mel-db", frame_params=fp, sample_rate=sr)


def mfcc(
    clip,
    fp: FrameParams | None = None,
    fb: MelFilterbank | None = None,
    b: float = 0.97,
    n_mfcc: int = 20,
    n_mels: int = 128,
    sample_rate: int | None = None,
) -> FeatureMatrix:
    """Cepstral pipeline: preemphasis, window, spectrum, filterbank, log, DCT."""
    samples, sr = _extract(clip, sample_rate)
    fp = fp or FrameParams()
    fb = fb or default_filterbank(n_mels, fp, sr)
    energies = _band_energies(preemphasis(samples, b), fp, fb)
    log_e = np.log(np.maximum(energies, ENERGY_FLOOR))
    coeffs = dct_cepstrum(log_e, n_mfcc)
    return FeatureMatrix(values=coeffs.T, kind="mfcc", frame_params=fp, sample_rate=sr)


def extract_features(clip, kind: str, **kwargs) -> FeatureMatrix:
    if kind == "mel-db":
        return mel_spectrogram(clip, **kwargs)
    if kind == "mfcc":
        return mfcc(clip, **kwargs)
    raise ParameterError(f"unknown feature kind {kind!r}")


class Standardizer:
    """Per-band zero-mean unit-variance scaling fit on a training set."""

    def __init__(self):
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, matrices) -> "Standardizer":
        """Fit on FeatureMatrix objects or bare (bands x frames) arrays."""
        mats = [getattr(m, "values", m) for m in matrices]
        if not mats:
            raise ParameterError("cannot fit a standardizer on zero matrices")
        stacked = np.concatenate(mats, axis=1)
        self.mean = stacked.mean(axis=1)
        std = stacked.std(axis=1)
        self.std = np.where(std < 1e-8, 1.0, std)
        return self

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Scale a bare (bands x frames) array."""
        if self.mean is None:
            raise ParameterError("standardizer not fitted")
        if values.shape[0] != self.mean.shape[0]:
            raise ShapeError(
                f"standardizer fit on {self.mean.shape[0]} bands, got {values.shape[0]}"
            )
        return (values - self.mean[:, None]) / self.std[:, None]

    def state(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "Standardizer":
        """Rebuild from state(); rejects statistics no fit could produce."""
        try:
            mean = np.asarray(state["mean"], dtype=np.float64)
            std = np.asarray(state["std"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptionError(f"unreadable standardizer state: {exc}") from exc
        if mean.ndim != 1 or mean.shape != std.shape or mean.size == 0:
            raise CorruptionError("standardizer mean and std must be equal-length vectors")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise CorruptionError("standardizer statistics must be finite with std > 0")
        s = cls()
        s.mean, s.std = mean, std
        return s

