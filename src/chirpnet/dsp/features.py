"""Feature matrices: mel spectrogram in dB and cepstral coefficients.

Both descriptors share the same short-time front end (framing, Hamming
window, power spectrum, triangular filterbank). Matrices are (bands x
frames) and carry their framing parameters so downstream consumers can
convert frame indices to seconds.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import CorruptionError, FormatError, ParameterError, ShapeError
from .fft import power_spectrum
from .mel import MelFilterbank, build_filterbank, filterbank_energies
from .windowing import FrameParams, frame_and_window, preemphasis

DB_FLOOR = -100.0
ENERGY_FLOOR = 1e-10
KINDS = ("mel-db", "mfcc")
_CACHE_MAGIC = b"CHFT"
_CACHE_VERSION = 1


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

    def frame_time(self, frame_index: int) -> float:
        """Start time in seconds of the given frame."""
        return frame_index * self.frame_params.hop / self.sample_rate


@lru_cache(maxsize=8)
def default_filterbank(n_mels: int, fp: FrameParams, sample_rate: int) -> MelFilterbank:
    return build_filterbank(n_mels, fp, sample_rate)


def _extract(clip, sample_rate):
    """Accept an object with .samples/.sample_rate or a bare array + rate."""
    samples = getattr(clip, "samples", clip)
    sr = getattr(clip, "sample_rate", sample_rate)
    if sr is None:
        raise ParameterError("sample_rate required when passing a bare sample array")
    return np.asarray(samples, dtype=np.float64), int(sr)


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
    frames = frame_and_window(samples, fp)
    energies = filterbank_energies(power_spectrum(frames), fb)
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
    emphasized = preemphasis(samples, b)
    frames = frame_and_window(emphasized, fp)
    energies = filterbank_energies(power_spectrum(frames), fb)
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

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        return FeatureMatrix(
            values=self.apply(matrix.values),
            kind=matrix.kind,
            frame_params=matrix.frame_params,
            sample_rate=matrix.sample_rate,
        )

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


# -- cache files ---------------------------------------------------------------


def save_features(matrix: FeatureMatrix, path) -> None:
    """Write a feature matrix: magic, version, JSON header, float32 rows."""
    header = {
        "kind": matrix.kind,
        "bands": matrix.bands,
        "frames": matrix.frames,
        "window_len": matrix.frame_params.window_len,
        "hop": matrix.frame_params.hop,
        "fft_size": matrix.frame_params.fft_size,
        "sample_rate": matrix.sample_rate,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_CACHE_MAGIC)
        f.write(struct.pack("<B", _CACHE_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(np.ascontiguousarray(matrix.values, dtype="<f4").tobytes())


def load_features(path) -> FeatureMatrix:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 9 or raw[:4] != _CACHE_MAGIC:
        raise FormatError(f"{path}: not a feature cache file")
    version = raw[4]
    if version != _CACHE_VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}")
    (hlen,) = struct.unpack_from("<I", raw, 5)
    if len(raw) < 9 + hlen:
        raise CorruptionError(f"{path}: truncated header")
    header = json.loads(raw[9 : 9 + hlen].decode("utf-8"))
    bands, frames = header["bands"], header["frames"]
    body = raw[9 + hlen :]
    expected = bands * frames * 4
    if len(body) != expected:
        raise CorruptionError(
            f"{path}: payload holds {len(body)} bytes, header implies {expected}"
        )
    values = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(bands, frames)
    fp = FrameParams(
        window_len=header["window_len"], hop=header["hop"], fft_size=header["fft_size"]
    )
    return FeatureMatrix(
        values=values, kind=header["kind"], frame_params=fp, sample_rate=header["sample_rate"]
    )


def cache_key(source_path, kind: str, fp: FrameParams, **params) -> str:
    """Content hash of the source file plus every extraction parameter."""
    h = hashlib.sha256()
    with open(source_path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    tag = {"kind": kind, "window_len": fp.window_len, "hop": fp.hop, "fft_size": fp.fft_size}
    tag.update(params)
    h.update(json.dumps(tag, sort_keys=True).encode("utf-8"))
    return h.hexdigest()
