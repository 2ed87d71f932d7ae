"""Silence trimming, duration capping, and training-time padding."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import EmptyResultError, ParameterError
from .clip import AudioClip

TRIM_FRAME = 2048
TRIM_HOP = 512
DEFAULT_TOP_DB = 60.0
DEFAULT_MAX_SECONDS = 20.0


def frame_powers(samples: np.ndarray, frame: int = TRIM_FRAME, hop: int = TRIM_HOP) -> np.ndarray:
    """Mean squared amplitude per analysis frame; short clips give one frame."""
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[0] == 0:
        raise ParameterError("cannot compute frame powers of an empty buffer")
    if x.shape[0] < frame:
        return np.array([np.mean(x * x)])
    return np.mean(sliding_window_view(x * x, frame)[::hop], axis=1)


def silence_mask(samples: np.ndarray, top_db: float = DEFAULT_TOP_DB) -> np.ndarray:
    """True for frames within top_db of the loudest frame.

    Raises EmptyResultError when every frame is digital silence, since no
    relative threshold exists.
    """
    powers = frame_powers(samples)
    peak = powers.max()
    if peak <= 0.0:
        raise EmptyResultError("clip is entirely silent")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(powers)
    return db > 10.0 * np.log10(peak) - top_db


def keep_intervals(mask: np.ndarray, n_samples: int,
                   frame: int = TRIM_FRAME, hop: int = TRIM_HOP) -> list[tuple[int, int]]:
    """Sample spans covered by runs of kept frames.

    A run of frames [f0, f1] spans samples [f0*hop, f1*hop + frame); a run
    ending at the final frame extends to the end of the clip so trailing
    sub-hop samples are never orphaned.
    """
    n_frames = mask.shape[0]
    spans = []
    start = None
    for t in range(n_frames):
        if mask[t] and start is None:
            start = t
        if start is not None and (t == n_frames - 1 or not mask[t + 1]):
            end = n_samples if t == n_frames - 1 else min(t * hop + frame, n_samples)
            spans.append((start * hop, end))
            start = None
    return spans


def trim_silence(clip: AudioClip, top_db: float = DEFAULT_TOP_DB) -> AudioClip:
    """Drop frames more than top_db below the loudest frame, keep the rest.

    Surviving intervals are concatenated in order. An entirely silent clip
    raises EmptyResultError so callers can skip the file.
    """
    if top_db <= 0:
        raise ParameterError("top_db must be positive")
    if len(clip) == 0:
        raise EmptyResultError("clip has no samples")
    mask = silence_mask(clip.samples, top_db)
    if mask.all():
        return clip
    spans = keep_intervals(mask, len(clip))
    pieces = [clip.samples[a:b] for a, b in spans]
    return clip.with_samples(np.concatenate(pieces) if pieces else np.empty(0))


def cap_duration(clip: AudioClip, max_seconds: float = DEFAULT_MAX_SECONDS) -> AudioClip:
    """Keep at most the first max_seconds of the clip."""
    if max_seconds <= 0:
        raise ParameterError("max_seconds must be positive")
    limit = int(round(max_seconds * clip.sample_rate))
    if len(clip) <= limit:
        return clip
    return clip.with_samples(clip.samples[:limit])


def pad_to_length(clip: AudioClip, target_samples: int) -> AudioClip:
    """Append zeros up to target_samples."""
    if target_samples < len(clip):
        raise ParameterError(
            f"target {target_samples} is shorter than the clip's {len(clip)} samples"
        )
    if target_samples == len(clip):
        return clip
    padded = np.concatenate([clip.samples, np.zeros(target_samples - len(clip))])
    return clip.with_samples(padded)
