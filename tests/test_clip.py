"""AudioClip invariants, rational resampling, and file decoding."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from chirpnet.audio import clip as clip_module
from chirpnet.audio.clip import CANONICAL_RATE, AudioClip, decode_audio, resample
from chirpnet.audio.wavio import write_wav
from chirpnet.errors import FormatError, NumericError, ParameterError

ODD_RATES = [48000, 22050, 16000, 8000, 96000, 384000, 44056, 47952, 44099]


def tone(freq, n, rate):
    return 0.5 * np.sin(2 * np.pi * freq * np.arange(n) / rate)


class TestAudioClip:
    def test_coerces_to_float64(self):
        clip = AudioClip(samples=np.array([1, 2, 3], dtype=np.int16), sample_rate=8000)
        assert clip.samples.dtype == np.float64
        assert len(clip) == 3

    def test_duration(self):
        clip = AudioClip(samples=np.zeros(22050), sample_rate=44100)
        assert clip.duration == 0.5

    def test_rejects_2d(self):
        with pytest.raises(ParameterError, match="1-d"):
            AudioClip(samples=np.zeros((10, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError, match="non-finite"):
            AudioClip(samples=np.array([0.0, np.nan]))
        with pytest.raises(NumericError, match="non-finite"):
            AudioClip(samples=np.array([np.inf, 0.0]))

    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError, match="positive"):
            AudioClip(samples=np.zeros(4), sample_rate=0)

    def test_with_samples_keeps_metadata(self):
        clip = AudioClip(
            samples=np.zeros(4), sample_rate=8000, source_id="x.wav", species="wren"
        )
        out = clip.with_samples(np.ones(6))
        assert out.source_id == "x.wav"
        assert out.species == "wren"
        assert out.sample_rate == 8000
        assert len(out) == 6


class TestResample:
    def test_identity_returns_copy(self):
        x = np.ones(100)
        y = resample(x, 44100, 44100)
        assert y is not x
        np.testing.assert_array_equal(y, x)
        y[0] = 99.0
        assert x[0] == 1.0

    def test_output_lengths(self):
        assert resample(np.zeros(1000), 44100, 22050).shape == (500,)
        assert resample(np.zeros(1000), 22050, 44100).shape == (2000,)
        assert resample(np.zeros(44100), 44100, 16000).shape == (16000,)
        assert resample(np.zeros(999), 44100, 22050).shape == (500,)

    def test_empty_stays_empty(self):
        assert resample(np.zeros(0), 8000, 44100).shape == (0,)

    def test_downsample_preserves_tone(self):
        n = 8192
        x = tone(1000.0, n, 44100)
        y = resample(x, 44100, 22050)
        want = tone(1000.0, y.shape[0], 22050)
        # edges carry filter transients; judge the interior
        np.testing.assert_allclose(y[200:-200], want[200:-200], atol=1e-3)

    def test_upsample_preserves_tone(self):
        n = 4096
        x = tone(2000.0, n, 22050)
        y = resample(x, 22050, 44100)
        want = tone(2000.0, y.shape[0], 44100)
        np.testing.assert_allclose(y[200:-200], want[200:-200], atol=1e-3)

    def test_unit_dc_gain(self):
        # per-branch coefficient sums ripple a little around the mean
        y = resample(np.ones(5000), 44100, 32000)
        np.testing.assert_allclose(y[300:-300], 1.0, atol=1e-5)

    def test_rejects_bad_rates(self):
        with pytest.raises(ParameterError, match="positive"):
            resample(np.zeros(10), 0, 44100)
        with pytest.raises(ParameterError, match="positive"):
            resample(np.zeros(10), 44100, -1)

    def test_kernel_build_stays_near_the_kernel_size(self):
        """44099 Hz reduces to 44100/44099: a 2,822,401-tap kernel of 22.6 MB."""
        kernel_bytes = 8 * (clip_module.RESAMPLE_TAPS_PER_PHASE * CANONICAL_RATE + 1)
        tracemalloc.start()
        try:
            resample(np.zeros(44099), 44099, CANONICAL_RATE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * kernel_bytes


class TestPolyphaseMatchesDirectForm:
    """The GEMM executor against zero-stuff, convolve, decimate (tests/oracles.py)."""

    @pytest.mark.parametrize("sr_to", [44100, 22050, 16000])
    @pytest.mark.parametrize("sr_from", ODD_RATES)
    def test_short_inputs(self, sr_from, sr_to):
        ratio = Fraction(sr_to, sr_from)
        kernel = clip_module._kaiser_sinc_kernel(ratio.numerator, ratio.denominator)
        rng = np.random.default_rng(sr_from + sr_to)
        for n in (0, 1, 2, 5, 37):
            x = rng.uniform(-1, 1, n)
            want = oracles.naive_resample(x, ratio.numerator, ratio.denominator, kernel)
            got = resample(x, sr_from, sr_to)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # 44.1 MHz reduces to 1/1000: windows span tens of thousands of inputs, so
    # groups shrink to 2 outputs and row chunks to 8 rows
    @pytest.mark.parametrize("sr_from, n", [(22050, 40000), (48000, 3001), (8000, 1500),
                                            (44_100_000, 1_200_000)])
    def test_many_periods_and_row_chunks(self, sr_from, n):
        ratio = Fraction(CANONICAL_RATE, sr_from)
        kernel = clip_module._kaiser_sinc_kernel(ratio.numerator, ratio.denominator)
        x = np.random.default_rng(n).uniform(-1, 1, n)
        want = oracles.naive_resample(x, ratio.numerator, ratio.denominator, kernel)
        np.testing.assert_allclose(resample(x, sr_from, CANONICAL_RATE), want, rtol=0, atol=1e-12)

    # 44056 Hz reduces to 11025/11014: one tap matrix per period would be ~1 GB.
    # 44.1 MHz reduces to 1/1000: a group of 128 outputs would read 191,001
    # inputs, a 196 MB tap matrix.
    @pytest.mark.parametrize("sr_from, n", [(44056, 44056), (44099, 44099),
                                            (44_100_000, 128_000)])
    def test_memory_stays_bounded(self, sr_from, n):
        ratio = Fraction(CANONICAL_RATE, sr_from)
        up, down = ratio.numerator, ratio.denominator
        kernel = clip_module._kaiser_sinc_kernel(up, down)
        x = np.random.default_rng(0).uniform(-1, 1, n)
        tracemalloc.start()
        try:
            clip_module._polyphase(x, kernel, up, down, -(-len(x) * up // down))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestDecodeAudio:
    def test_native_rate_pcm(self, tmp_path):
        x = tone(880.0, 4410, 44100)
        p = tmp_path / "native.wav"
        write_wav(p, x, 44100)
        clip = decode_audio(p)
        assert clip.sample_rate == CANONICAL_RATE
        assert clip.source_id == "native.wav"
        assert len(clip) == 4410
        np.testing.assert_allclose(clip.samples, x, atol=1.5 / 32768)

    def test_stereo_averages_to_mono(self, tmp_path):
        x = tone(440.0, 2000, 44100)
        stereo = np.stack([x, -x], axis=1)
        p = tmp_path / "cancel.wav"
        write_wav(p, stereo, 44100, float_format=True)
        clip = decode_audio(p)
        assert clip.samples.ndim == 1
        assert np.all(clip.samples == 0.0)

    def test_resamples_to_canonical_rate(self, tmp_path):
        x = tone(1000.0, 22050, 22050)
        p = tmp_path / "low.wav"
        write_wav(p, x, 22050, float_format=True)
        clip = decode_audio(p)
        assert clip.sample_rate == CANONICAL_RATE
        assert len(clip) == 44100
        assert clip.duration == pytest.approx(1.0)
        want = tone(1000.0, 44100, 44100)
        np.testing.assert_allclose(clip.samples[500:-500], want[500:-500], atol=1e-3)

    # 441 MHz passes too (640,001 taps): the polyphase blocks, not the cap,
    # bound its memory
    @pytest.mark.parametrize("rate", [8000, 16000, 32000, 44056, 47952, 96000, 192000, 384000,
                                      441_000_000])
    def test_rates_under_the_kernel_cap_decode(self, tmp_path, rate):
        p = tmp_path / "empty.wav"
        write_wav(p, np.zeros(0), rate)
        assert len(decode_audio(p)) == 0

    def test_absurd_header_rate_is_bad_data(self, tmp_path):
        p = tmp_path / "absurd.wav"
        write_wav(p, np.zeros(0), 2_000_000_000)  # header only; its byte rate still fits a u32
        with pytest.raises(FormatError, match="2000000000 Hz"):
            decode_audio(p)

    def test_clips_filter_overshoot(self, tmp_path):
        p = tmp_path / "hot.wav"
        write_wav(p, np.full(1000, 1.5), 22050, float_format=True)
        clip = decode_audio(p)
        assert clip.samples.max() <= 1.0
        assert clip.samples.min() >= -1.0
