"""Pre-emphasis, framing, and the analysis window."""

import numpy as np
import pytest

import oracles
from chirpnet.dsp.windowing import (
    FrameParams,
    frame_and_window,
    hamming,
    preemphasis,
)
from chirpnet.errors import DegenerateInputError, ParameterError


class TestPreemphasis:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(rng.integers(2, 400))
            b = rng.uniform(0.4, 1.0)
            np.testing.assert_allclose(
                preemphasis(x, b), oracles.naive_preemphasis(x, b), atol=1e-12
            )

    def test_first_sample_passes_through(self):
        x = np.array([3.0, 3.0, 3.0])
        y = preemphasis(x, 0.97)
        assert y[0] == 3.0
        np.testing.assert_allclose(y[1:], 3.0 - 0.97 * 3.0)

    def test_constant_signal_becomes_near_zero_tail(self):
        """With b=1 a DC signal keeps only its first sample."""
        y = preemphasis(np.full(100, 0.5), 1.0)
        np.testing.assert_allclose(y[1:], 0.0, atol=1e-15)
        assert y[0] == 0.5

    def test_coefficient_range_enforced(self):
        x = np.ones(10)
        for b in (0.39, 1.01, -0.5):
            with pytest.raises(ParameterError):
                preemphasis(x, b)
        # the boundary values are legal
        preemphasis(x, 0.4)
        preemphasis(x, 1.0)

    def test_boosts_high_frequencies(self):
        n = np.arange(4410)
        low = np.sin(2 * np.pi * 100 * n / 44100)
        high = np.sin(2 * np.pi * 10_000 * n / 44100)
        gain_low = np.sum(preemphasis(low, 0.97) ** 2) / np.sum(low**2)
        gain_high = np.sum(preemphasis(high, 0.97) ** 2) / np.sum(high**2)
        assert gain_high > gain_low


class TestHamming:
    def test_matches_formula(self):
        for length in (2, 3, 441, 882):
            np.testing.assert_allclose(
                hamming(length), oracles.naive_hamming(length), atol=1e-12
            )

    def test_endpoints_are_0_08(self):
        w = hamming(882)
        np.testing.assert_allclose(w[0], 0.08, atol=1e-12)
        np.testing.assert_allclose(w[-1], 0.08, atol=1e-12)

    def test_peak_is_one_for_odd_length(self):
        w = hamming(883)
        np.testing.assert_allclose(w[441], 1.0, atol=1e-12)

    def test_symmetry(self):
        w = hamming(882)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    def test_length_one_is_unity(self):
        np.testing.assert_array_equal(hamming(1), [1.0])


class TestFrameParams:
    def test_defaults(self):
        fp = FrameParams()
        assert (fp.window_len, fp.hop, fp.fft_size) == (882, 441, 1024)
        assert fp.n_bins == 513

    def test_validation(self):
        with pytest.raises(ParameterError):
            FrameParams(window_len=0)
        with pytest.raises(ParameterError):
            FrameParams(hop=883)
        with pytest.raises(ParameterError):
            FrameParams(fft_size=512)  # smaller than the window
        with pytest.raises(ParameterError):
            FrameParams(window_len=400, hop=200, fft_size=500)  # not a power of two

    def test_frame_count_formula(self):
        fp = FrameParams()
        assert fp.n_frames(881) == 0
        assert fp.n_frames(882) == 1
        assert fp.n_frames(882 + 441) == 2
        assert fp.n_frames(44100) == 1 + (44100 - 882) // 441

    @pytest.mark.parametrize("fp", [
        FrameParams(),
        FrameParams(window_len=400, hop=160, fft_size=512),
        FrameParams(window_len=1024, hop=1, fft_size=1024),
    ])
    def test_min_samples_inverts_frame_count(self, fp):
        for k in range(1, 65):
            assert fp.n_frames(fp.min_samples(k)) == k
            assert fp.n_frames(fp.min_samples(k) - 1) == k - 1


class TestFraming:
    def test_frames_match_loop_reference(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5000)
        fp = FrameParams(window_len=400, hop=160, fft_size=512)
        got = frame_and_window(x, fp)
        want = oracles.naive_frames(x, 400, 160)
        assert got.shape == (len(want), 512)
        for i, frame in enumerate(want):
            np.testing.assert_array_equal(got[i, :400], frame * hamming(400))

    def test_frames_are_copies(self):
        x = np.zeros(2000)
        fp = FrameParams(window_len=400, hop=160, fft_size=512)
        frames = frame_and_window(x, fp)
        frames[0, 0] = 42.0
        assert x[0] == 0.0

    def test_too_short_signal_rejected(self):
        with pytest.raises(DegenerateInputError):
            frame_and_window(np.zeros(881), FrameParams())

    def test_frame_and_window_pads_to_fft_size(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3000)
        fp = FrameParams()
        out = frame_and_window(x, fp)
        assert out.shape == (fp.n_frames(3000), 1024)
        np.testing.assert_array_equal(out[:, 882:], 0.0)

    def test_frame_and_window_applies_hamming(self):
        x = np.ones(882)
        out = frame_and_window(x, FrameParams())
        np.testing.assert_allclose(out[0, :882], hamming(882), atol=1e-12)

    @pytest.mark.parametrize("fp", [
        FrameParams(),
        FrameParams(window_len=400, hop=160, fft_size=512),
        FrameParams(window_len=1024, hop=512, fft_size=1024),
    ])
    def test_frame_and_window_equals_two_step_construction(self, fp):
        """Bitwise equal to windowing a copy of the frames, then appending a zero block."""
        rng = np.random.default_rng(3)
        for n in (fp.window_len, fp.window_len + 1, fp.window_len + fp.hop, 5000, 44100):
            x = rng.standard_normal(n)
            frames = np.array(oracles.naive_frames(x, fp.window_len, fp.hop))
            frames *= hamming(fp.window_len)
            if fp.fft_size > fp.window_len:
                pad = np.zeros((frames.shape[0], fp.fft_size - fp.window_len))
                frames = np.concatenate([frames, pad], axis=1)
            got = frame_and_window(x, fp)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, frames)
