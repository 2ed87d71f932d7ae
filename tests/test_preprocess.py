"""Silence trimming, capping, and padding behavior."""

import numpy as np
import pytest

from chirpnet.audio.clip import AudioClip
from chirpnet.audio.preprocess import (
    TRIM_FRAME,
    TRIM_HOP,
    cap_duration,
    frame_powers,
    keep_intervals,
    pad_to_length,
    silence_mask,
    trim_silence,
)
from chirpnet.errors import EmptyResultError, ParameterError

RATE = 44100


def tone(seconds, freq=2000.0, amp=0.5):
    n = int(round(seconds * RATE))
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / RATE)


def gappy_clip():
    """Tone, half a second of digital silence, tone."""
    x = np.concatenate([tone(0.3), np.zeros(int(0.5 * RATE)), tone(0.3)])
    return AudioClip(samples=x, sample_rate=RATE)


class TestFramePowers:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=9000)
        got = frame_powers(x)
        n_frames = 1 + (9000 - TRIM_FRAME) // TRIM_HOP
        want = np.array(
            [np.mean(x[t * TRIM_HOP : t * TRIM_HOP + TRIM_FRAME] ** 2) for t in range(n_frames)]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_short_buffer_gives_one_frame(self):
        x = np.full(100, 0.5)
        got = frame_powers(x)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(0.25)

    def test_custom_geometry(self):
        x = np.arange(10, dtype=np.float64)
        got = frame_powers(x, frame=4, hop=2)
        want = [np.mean(x[i : i + 4] ** 2) for i in (0, 2, 4, 6)]
        np.testing.assert_allclose(got, want)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            frame_powers(np.zeros(0))

    @pytest.mark.parametrize("n", [
        1, 100, TRIM_FRAME - 1,              # short clips: one frame over the whole buffer
        TRIM_FRAME, TRIM_FRAME + TRIM_HOP - 1,  # exactly one frame
        TRIM_FRAME + TRIM_HOP, 9000, 3 * RATE,
        int(62.5 * RATE),                    # the detection benchmark's recording
    ])
    def test_bitwise_equal_to_fancy_index_gather(self, n):
        x = np.random.default_rng(n).normal(scale=0.3, size=n)
        if n < TRIM_FRAME:
            want = np.array([np.mean(x * x)])
        else:
            n_frames = 1 + (n - TRIM_FRAME) // TRIM_HOP
            idx = np.arange(TRIM_FRAME)[None, :] + TRIM_HOP * np.arange(n_frames)[:, None]
            want = np.mean(x[idx] * x[idx], axis=1)
        np.testing.assert_array_equal(frame_powers(x), want)


class TestSilenceMask:
    def test_quiet_frames_flagged(self):
        clip = gappy_clip()
        mask = silence_mask(clip.samples)
        assert mask[0] and mask[-1]
        assert not mask.all()
        # the gap's interior frames carry zero energy
        mid = mask.shape[0] // 2
        assert not mask[mid]

    def test_threshold_is_relative(self):
        # -40 dB frame survives top_db=60 but not top_db=30
        x = np.concatenate([np.full(TRIM_FRAME, 0.5), np.full(TRIM_FRAME * 2, 0.005)])
        assert silence_mask(x, top_db=60.0).all()
        loose = silence_mask(x, top_db=30.0)
        assert loose[0]
        assert not loose[-1]

    def test_all_silent_rejected(self):
        with pytest.raises(EmptyResultError, match="silent"):
            silence_mask(np.zeros(10000))


class TestKeepIntervals:
    def test_single_run(self):
        mask = np.array([False, True, True, False, False])
        spans = keep_intervals(mask, n_samples=5000, frame=100, hop=50)
        assert spans == [(50, 200)]

    def test_final_run_extends_to_end(self):
        mask = np.array([False, False, True, True])
        spans = keep_intervals(mask, n_samples=777, frame=100, hop=50)
        assert spans == [(100, 777)]

    def test_two_runs(self):
        mask = np.array([True, False, False, True, False])
        spans = keep_intervals(mask, n_samples=10000, frame=100, hop=50)
        assert spans == [(0, 100), (150, 250)]

    def test_all_false(self):
        assert keep_intervals(np.zeros(6, dtype=bool), 1000) == []


class TestTrimSilence:
    def test_removes_gap_keeps_signal(self):
        clip = gappy_clip()
        out = trim_silence(clip)
        assert len(out) < len(clip)
        # every nonzero sample survives; only interior silence is dropped
        assert np.count_nonzero(out.samples) == np.count_nonzero(clip.samples)
        # most of the half-second gap goes away
        assert len(clip) - len(out) > int(0.35 * RATE)

    def test_loud_clip_untouched(self):
        clip = AudioClip(samples=tone(0.5), sample_rate=RATE)
        assert trim_silence(clip) is clip

    def test_idempotent(self):
        once = trim_silence(gappy_clip())
        twice = trim_silence(once)
        np.testing.assert_array_equal(twice.samples, once.samples)

    def test_all_zero_rejected(self):
        clip = AudioClip(samples=np.zeros(RATE), sample_rate=RATE)
        with pytest.raises(EmptyResultError, match="silent"):
            trim_silence(clip)

    def test_empty_rejected(self):
        clip = AudioClip(samples=np.zeros(0), sample_rate=RATE)
        with pytest.raises(EmptyResultError, match="no samples"):
            trim_silence(clip)

    def test_bad_top_db(self):
        with pytest.raises(ParameterError, match="top_db"):
            trim_silence(gappy_clip(), top_db=0.0)

    def test_preserves_metadata(self):
        clip = AudioClip(
            samples=gappy_clip().samples, sample_rate=RATE, source_id="a.wav", species="finch"
        )
        out = trim_silence(clip)
        assert out.source_id == "a.wav"
        assert out.species == "finch"


class TestCapDuration:
    def test_caps_long_clip(self):
        clip = AudioClip(samples=np.ones(3 * RATE), sample_rate=RATE)
        out = cap_duration(clip, max_seconds=2.0)
        assert len(out) == 2 * RATE

    def test_short_clip_untouched(self):
        clip = AudioClip(samples=np.ones(RATE), sample_rate=RATE)
        assert cap_duration(clip, max_seconds=2.0) is clip

    def test_keeps_prefix(self):
        x = np.arange(1000, dtype=np.float64) / 1000.0
        clip = AudioClip(samples=x, sample_rate=100)
        out = cap_duration(clip, max_seconds=5.0)
        np.testing.assert_array_equal(out.samples, x[:500])

    def test_bad_seconds(self):
        clip = AudioClip(samples=np.ones(10), sample_rate=100)
        with pytest.raises(ParameterError, match="positive"):
            cap_duration(clip, max_seconds=0.0)


class TestPadToLength:
    def test_pads_with_zeros(self):
        clip = AudioClip(samples=np.ones(5), sample_rate=100)
        out = pad_to_length(clip, 8)
        np.testing.assert_array_equal(out.samples, [1, 1, 1, 1, 1, 0, 0, 0])

    def test_equal_length_untouched(self):
        clip = AudioClip(samples=np.ones(5), sample_rate=100)
        assert pad_to_length(clip, 5) is clip

    def test_shorter_target_rejected(self):
        clip = AudioClip(samples=np.ones(5), sample_rate=100)
        with pytest.raises(ParameterError, match="shorter"):
            pad_to_length(clip, 4)
