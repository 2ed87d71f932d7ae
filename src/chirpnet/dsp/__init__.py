"""Short-time spectral analysis: transforms, windowing, mel filterbank, features."""

from .features import (
    DB_FLOOR,
    ENERGY_FLOOR,
    FeatureMatrix,
    Standardizer,
    cache_key,
    dct_cepstrum,
    default_filterbank,
    extract_features,
    load_features,
    mel_spectrogram,
    mfcc,
    save_features,
)
from .fft import fft, power_spectrum
from .mel import MelFilterbank, build_filterbank, filterbank_energies, mel_scale, mel_to_hz
from .windowing import (
    FrameParams,
    frame_and_window,
    frame_signal,
    hamming,
    preemphasis,
)

__all__ = [
    "DB_FLOOR",
    "ENERGY_FLOOR",
    "FeatureMatrix",
    "Standardizer",
    "cache_key",
    "dct_cepstrum",
    "default_filterbank",
    "extract_features",
    "load_features",
    "mel_spectrogram",
    "mfcc",
    "save_features",
    "fft",
    "power_spectrum",
    "MelFilterbank",
    "build_filterbank",
    "filterbank_energies",
    "mel_scale",
    "mel_to_hz",
    "FrameParams",
    "frame_and_window",
    "frame_signal",
    "hamming",
    "preemphasis",
]
