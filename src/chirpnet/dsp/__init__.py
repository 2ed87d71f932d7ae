"""Short-time spectral analysis: transforms, windowing, mel filterbank, features."""

from .features import (
    DB_FLOOR,
    ENERGY_FLOOR,
    FeatureMatrix,
    Standardizer,
    dct_cepstrum,
    default_filterbank,
    extract_features,
    mel_spectrogram,
    mfcc,
)
from .fft import fft, power_spectrum
from .mel import MelFilterbank, build_filterbank, filterbank_energies, mel_scale, mel_to_hz
from .windowing import (
    FrameParams,
    frame_and_window,
    hamming,
    preemphasis,
)

__all__ = [
    "DB_FLOOR",
    "ENERGY_FLOOR",
    "FeatureMatrix",
    "Standardizer",
    "dct_cepstrum",
    "default_filterbank",
    "extract_features",
    "mel_spectrogram",
    "mfcc",
    "fft",
    "power_spectrum",
    "MelFilterbank",
    "build_filterbank",
    "filterbank_energies",
    "mel_scale",
    "mel_to_hz",
    "FrameParams",
    "frame_and_window",
    "hamming",
    "preemphasis",
]
