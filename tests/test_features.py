"""Feature extraction pipelines against the composed naive references."""

import tracemalloc

import numpy as np
import pytest

import oracles
from chirpnet.dsp import features
from chirpnet.dsp.features import (
    FeatureMatrix,
    Standardizer,
    dct_cepstrum,
    extract_features,
    mel_spectrogram,
    mfcc,
)
from chirpnet.dsp.mel import build_filterbank
from chirpnet.dsp.windowing import FrameParams
from chirpnet.errors import CorruptionError, DegenerateInputError, ParameterError, ShapeError

FP = FrameParams()


def tone(freq: float, seconds: float = 0.25, sr: int = 44100,
         amplitude: float = 0.4) -> np.ndarray:
    t = np.arange(int(seconds * sr)) / sr
    return amplitude * np.sin(2 * np.pi * freq * t)


class TestDct:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            values = rng.standard_normal(32)
            got = dct_cepstrum(values, 12)
            np.testing.assert_allclose(got, oracles.naive_dct2(values, 12), atol=1e-10)

    def test_constant_input_gives_all_zeros(self):
        """Constant log energies have no non-zero cepstral content above m=0."""
        out = dct_cepstrum(np.full(32, 3.7), 20)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            dct_cepstrum(np.ones(16), 0)
        with pytest.raises(ParameterError):
            dct_cepstrum(np.ones(16), 17)

    def test_batch_rows_match_singles(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((4, 24))
        batch = dct_cepstrum(block, 10)
        for i in range(4):
            np.testing.assert_allclose(batch[i], dct_cepstrum(block[i], 10))


class TestMelSpectrogram:
    def test_matches_composed_reference(self):
        rng = np.random.default_rng(2)
        x = tone(2500.0) + 0.01 * rng.standard_normal(int(0.25 * 44100))
        got = mel_spectrogram(x, fp=FP, n_mels=20, sample_rate=44100)
        want = oracles.naive_mel_db(x, 44100, 882, 441, 1024, 20)
        np.testing.assert_allclose(got.values, want, atol=1e-8)

    def test_peak_sits_at_zero_db(self):
        mat = mel_spectrogram(tone(3000.0), fp=FP, n_mels=20, sample_rate=44100)
        assert mat.values.max() == pytest.approx(0.0, abs=1e-9)
        assert mat.values.min() >= -100.0

    def test_digital_silence_stays_at_floor(self):
        mat = mel_spectrogram(np.zeros(44100), fp=FP, n_mels=20, sample_rate=44100)
        np.testing.assert_array_equal(mat.values, -100.0)

    def test_tone_energy_lands_in_matching_band(self):
        fb = build_filterbank(20, FP, 44100)
        mat = mel_spectrogram(tone(5000.0), fp=FP, fb=fb, sample_rate=44100)
        hot_band = int(np.argmax(mat.values.mean(axis=1)))
        assert abs(fb.centers_hz[hot_band] - 5000.0) < 1500.0

    def test_shape_and_metadata(self):
        mat = mel_spectrogram(tone(1000.0, seconds=0.5), fp=FP, n_mels=24,
                              sample_rate=44100)
        assert mat.bands == 24
        assert mat.frames == FP.n_frames(int(0.5 * 44100))
        assert mat.kind == "mel-db"


class TestMfcc:
    def test_matches_composed_reference(self):
        rng = np.random.default_rng(3)
        x = tone(2000.0) + 0.3 * tone(7000.0) + 0.01 * rng.standard_normal(11025)
        got = mfcc(x, fp=FP, b=0.97, n_mfcc=13, n_mels=26, sample_rate=44100)
        want = oracles.naive_mfcc(x, 44100, 0.97, 882, 441, 1024, 26, 13)
        assert got.values.shape == want.shape == (13, FP.n_frames(11025))
        np.testing.assert_allclose(got.values, want, atol=1e-8)

    def test_coefficient_count(self):
        mat = mfcc(tone(2000.0), fp=FP, n_mfcc=20, n_mels=40, sample_rate=44100)
        assert mat.bands == 20
        assert mat.kind == "mfcc"

    def test_spectrally_distinct_signals_differ(self):
        a = mfcc(tone(1500.0), fp=FP, n_mels=26, sample_rate=44100).values
        b = mfcc(tone(6500.0), fp=FP, n_mels=26, sample_rate=44100).values
        assert np.linalg.norm(a.mean(axis=1) - b.mean(axis=1)) > 1.0


class TestExtractDispatch:
    def test_kinds(self):
        x = tone(2000.0)
        assert extract_features(x, "mel-db", fp=FP, n_mels=20,
                                sample_rate=44100).kind == "mel-db"
        assert extract_features(x, "mfcc", fp=FP, n_mels=26,
                                sample_rate=44100).kind == "mfcc"
        with pytest.raises(ParameterError):
            extract_features(x, "plp", sample_rate=44100)

    def test_bare_array_needs_sample_rate(self):
        with pytest.raises(ParameterError):
            mel_spectrogram(tone(2000.0), fp=FP, n_mels=20)


class TestBlockedFrontEnd:
    """Features are framed and transformed _FRAME_BLOCK frames at a time."""

    B = features._FRAME_BLOCK

    @pytest.mark.parametrize("kind", ["mel-db", "mfcc"])
    @pytest.mark.parametrize("n_frames", sorted({1, B - 1, B, B + 1, 2 * B + 1}))
    def test_blocks_match_the_whole_clip(self, monkeypatch, kind, n_frames):
        n = FP.window_len + (n_frames - 1) * FP.hop
        x = np.random.default_rng(n_frames).uniform(-1, 1, n)
        blocked = extract_features(x, kind, fp=FP, n_mels=40, sample_rate=44100).values
        monkeypatch.setattr(features, "_FRAME_BLOCK", n_frames + 1)
        whole = extract_features(x, kind, fp=FP, n_mels=40, sample_rate=44100).values
        assert blocked.shape[1] == n_frames
        np.testing.assert_allclose(blocked, whole, rtol=1e-12)

    def test_long_clip_builds_no_whole_clip_frames(self):
        """30 s: its frames alone would be 2999 x 1024 floats, 23.4 MiB."""
        x = np.random.default_rng(9).uniform(-1, 1, 30 * 44100)
        whole_frames = FP.n_frames(x.shape[0]) * FP.fft_size * 8
        mel_spectrogram(x[:44100], fp=FP, n_mels=64, sample_rate=44100)
        tracemalloc.start()
        try:
            mel_spectrogram(x, fp=FP, n_mels=64, sample_rate=44100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole_frames

    @pytest.mark.parametrize("kind", ["mel-db", "mfcc"])
    def test_clip_shorter_than_one_window_rejected(self, kind):
        with pytest.raises(DegenerateInputError):
            extract_features(np.ones(FP.window_len - 1), kind, fp=FP, n_mels=40,
                             sample_rate=44100)

    @pytest.mark.parametrize("kind", ["mel-db", "mfcc"])
    @pytest.mark.parametrize("shape", [(), (2000, 2)])
    def test_samples_must_be_one_dimensional(self, kind, shape):
        with pytest.raises(ParameterError, match="1-d"):
            extract_features(np.ones(shape), kind, fp=FP, n_mels=40, sample_rate=44100)


class TestStandardizer:
    def _mats(self):
        rng = np.random.default_rng(4)
        return [
            FeatureMatrix(values=rng.normal(5.0, 3.0, (8, 30)), kind="mel-db",
                          frame_params=FP, sample_rate=44100)
            for _ in range(4)
        ]

    def test_fitted_stats_normalize_the_training_set(self):
        mats = self._mats()
        s = Standardizer().fit(mats)
        stacked = np.concatenate([s.apply(m.values) for m in mats], axis=1)
        np.testing.assert_allclose(stacked.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(stacked.std(axis=1), 1.0, atol=1e-10)

    def test_constant_band_keeps_unit_divisor(self):
        mat = FeatureMatrix(values=np.full((3, 10), 7.0), kind="mel-db",
                            frame_params=FP, sample_rate=44100)
        s = Standardizer().fit([mat])
        np.testing.assert_array_equal(s.apply(mat.values), 0.0)

    def test_state_round_trip(self):
        mats = self._mats()
        s = Standardizer().fit(mats)
        restored = Standardizer.from_state(s.state())
        np.testing.assert_allclose(restored.apply(mats[0].values), s.apply(mats[0].values))

    def test_unfitted_transform_rejected(self):
        with pytest.raises(ParameterError):
            Standardizer().apply(self._mats()[0].values)

    def test_empty_fit_rejected(self):
        with pytest.raises(ParameterError):
            Standardizer().fit([])

    def test_bare_arrays_match_matrices(self):
        mats = self._mats()
        a = Standardizer().fit(mats)
        b = Standardizer().fit([m.values for m in mats])
        np.testing.assert_array_equal(a.apply(mats[1].values), b.apply(mats[1].values))

    def test_band_count_mismatch_rejected(self):
        s = Standardizer().fit(self._mats())
        with pytest.raises(ShapeError):
            s.apply(np.zeros((5, 3)))

    @pytest.mark.parametrize("state", [
        {},
        {"mean": [0.0, 1.0], "std": [1.0]},
        {"mean": [0.0], "std": [0.0]},
        {"mean": [float("nan")], "std": [1.0]},
        {"mean": "zero", "std": [1.0]},
        {"mean": [[0.0]], "std": [[1.0]]},
    ])
    def test_malformed_state_rejected(self, state):
        with pytest.raises(CorruptionError):
            Standardizer.from_state(state)

