"""Chunked detection: stream slicing, events, merging, co-occurrence."""

import numpy as np
import pytest

from chirpnet.audio.clip import AudioClip
from chirpnet.detect import (
    ChunkParams,
    DetectionEvent,
    chunk_stream,
    detect,
    format_timeline,
    merge_events,
    multispecies_eval,
)
from chirpnet.errors import DegenerateInputError, OrderingError, ParameterError
from chirpnet.model import FcnModel
from chirpnet.synth import make_clip, signature_wave
from chirpnet.training import FeatureSpec

RATE = 44100
SPEC = FeatureSpec(kind="mel-db", n_mels=32)


def tone_clip(kind, seconds, seed=0):
    return make_clip(kind, duration=seconds, rng=np.random.default_rng(seed))


class TestChunkParams:
    def test_defaults(self):
        cp = ChunkParams()
        assert (cp.chunk_seconds, cp.hop_seconds) == (3.0, 1.0)

    def test_hop_cannot_exceed_chunk(self):
        with pytest.raises(ParameterError, match="exceeds"):
            ChunkParams(chunk_seconds=2.0, hop_seconds=3.0)

    def test_positive_durations(self):
        with pytest.raises(ParameterError, match="positive"):
            ChunkParams(chunk_seconds=0.0, hop_seconds=0.0)

    def test_nonnegative_confidence(self):
        with pytest.raises(ParameterError, match="min_confidence"):
            ChunkParams(min_confidence=-0.5)


class TestDetectionEvent:
    def test_span_must_be_positive(self):
        with pytest.raises(ParameterError, match="positive time"):
            DetectionEvent(t_start=3.0, t_end=3.0, species="x", confidence=0.5)


class TestChunkStream:
    def test_even_tiling(self):
        clip = tone_clip("tone-low", 10.0)
        spans = chunk_stream(clip, ChunkParams(chunk_seconds=3.0, hop_seconds=1.0), SPEC)
        assert spans == [(s * RATE, (s + 3) * RATE) for s in range(8)]

    def test_partial_tail_kept_when_large_enough(self):
        clip = tone_clip("tone-low", 10.5)
        spans = chunk_stream(clip, ChunkParams(chunk_seconds=3.0, hop_seconds=1.0), SPEC)
        assert spans[-1] == (8 * RATE, len(clip))
        assert len(clip) == 10.5 * RATE

    def test_tiny_tail_stretches_last_chunk(self):
        clip = tone_clip("tone-low", 3.05)
        spans = chunk_stream(clip, ChunkParams(chunk_seconds=3.0, hop_seconds=3.0), SPEC)
        assert spans == [(0, len(clip))]
        assert len(clip) / RATE == pytest.approx(3.05, abs=1e-4)

    def test_short_clip_single_chunk(self):
        clip = tone_clip("tone-low", 2.0)
        spans = chunk_stream(clip, ChunkParams(chunk_seconds=3.0, hop_seconds=1.0), SPEC)
        assert spans == [(0, 2 * RATE)]

    def test_clip_below_minimum_rejected(self):
        clip = AudioClip(samples=np.ones(3000), sample_rate=RATE)
        with pytest.raises(DegenerateInputError, match="minimum"):
            chunk_stream(clip, ChunkParams(), SPEC, min_frames=8)

    def test_chunk_too_small_for_frames(self):
        clip = tone_clip("tone-low", 1.0)
        cp = ChunkParams(chunk_seconds=0.05, hop_seconds=0.05)
        with pytest.raises(ParameterError, match="fewer than"):
            chunk_stream(clip, cp, SPEC, min_frames=8)


class TestMergeEvents:
    def ev(self, t0, t1, species="A", conf=0.5, low=False):
        return DetectionEvent(t_start=t0, t_end=t1, species=species,
                              confidence=conf, low_energy=low)

    def test_overlapping_same_species_merge(self):
        events = [self.ev(0, 3), self.ev(1, 4), self.ev(4, 7, species="B")]
        merged = merge_events(events)
        assert [(e.t_start, e.t_end, e.species) for e in merged] == [
            (0, 4, "A"),
            (4, 7, "B"),
        ]

    def test_touching_events_merge(self):
        merged = merge_events([self.ev(0, 3), self.ev(3, 6)])
        assert len(merged) == 1
        assert merged[0].t_end == 6

    def test_gap_keeps_events_apart(self):
        merged = merge_events([self.ev(0, 3), self.ev(3.5, 6)])
        assert len(merged) == 2

    def test_confidence_is_max(self):
        merged = merge_events([self.ev(0, 3, conf=0.6), self.ev(2, 5, conf=0.9)])
        assert merged[0].confidence == 0.9

    def test_low_energy_needs_all_members(self):
        merged = merge_events([self.ev(0, 3, low=True), self.ev(2, 5, low=False)])
        assert not merged[0].low_energy
        merged = merge_events([self.ev(0, 3, low=True), self.ev(2, 5, low=True)])
        assert merged[0].low_energy

    def test_unsorted_rejected(self):
        with pytest.raises(OrderingError, match="sorted"):
            merge_events([self.ev(2, 5), self.ev(0, 3)])

    def test_empty(self):
        assert merge_events([]) == []


class TestFormatTimeline:
    def test_lines(self):
        events = [
            DetectionEvent(0.0, 3.0, "tone-low", 0.987),
            DetectionEvent(3.0, 6.0, "tone-high", 0.5, low_energy=True),
        ]
        text = format_timeline(events)
        lines = text.splitlines()
        assert lines[0] == "    0.00s -     3.00s  tone-low  p=0.987"
        assert lines[1].endswith("(low energy)")


class TestDetect:
    def test_steady_tone_events(self, tone_model):
        clip = tone_clip("tone-low", 4.0, seed=1)
        events = detect(tone_model, clip, ChunkParams(chunk_seconds=3.0, hop_seconds=1.0), SPEC)
        assert len(events) == 2
        assert all(ev.species == "tone-low" for ev in events)
        assert all(not ev.low_energy for ev in events)
        assert events[0].t_start == 0.0 and events[1].t_end == 4.0

    def test_each_chunk_is_extracted_just_before_its_forward(self, tone_model, monkeypatch):
        """detect holds one chunk's features at a time: extract, forward, extract, ..."""
        calls = []
        extract, forward = FeatureSpec.extract, FcnModel.forward

        def logged_extract(spec, clip):
            calls.append(("extract", len(clip)))
            return extract(spec, clip)

        def logged_forward(model, x, *args, **kwargs):
            calls.append(("forward", None))
            return forward(model, x, *args, **kwargs)

        monkeypatch.setattr(FeatureSpec, "extract", logged_extract)
        monkeypatch.setattr(FcnModel, "forward", logged_forward)
        clip = tone_clip("tone-low", 6.5, seed=1)
        cp = ChunkParams(chunk_seconds=3.0, hop_seconds=1.0)
        events = detect(tone_model, clip, cp, SPEC)
        spans = chunk_stream(clip, cp, SPEC, tone_model.min_frames)
        assert len(events) == len(spans) == 5
        assert calls == [c for a, b in spans for c in (("extract", b - a), ("forward", None))]

    def test_min_confidence_filters(self, tone_model):
        clip = tone_clip("tone-high", 4.0, seed=2)
        cp = ChunkParams(chunk_seconds=3.0, hop_seconds=1.0, min_confidence=1.01)
        assert detect(tone_model, clip, cp, SPEC) == []

    def test_quiet_stretch_flagged(self, tone_model):
        loud = signature_wave("tone-low", 3.0)
        samples = np.concatenate([loud, np.zeros(3 * RATE)])
        clip = AudioClip(samples=samples, sample_rate=RATE)
        events = detect(tone_model, clip, ChunkParams(chunk_seconds=3.0, hop_seconds=3.0), SPEC)
        assert len(events) == 2
        assert not events[0].low_energy
        assert events[1].low_energy


class TestMultispeciesEval:
    def test_pure_clips(self, tone_model):
        labeled = [
            (tone_clip("tone-low", 4.0, seed=3), 0),
            (tone_clip("tone-high", 4.0, seed=4), 1),
        ]
        report = multispecies_eval(
            tone_model, labeled, ChunkParams(chunk_seconds=3.0, hop_seconds=1.0), SPEC
        )
        assert report.n_chunks == 4
        assert report.chunk_accuracy == 1.0
        assert report.full_clip_accuracy == 1.0
        np.testing.assert_array_equal(report.cooccurrence, [[2, 0], [0, 2]])
        d = report.to_dict()
        assert d["labels"] == ["tone-low", "tone-high"]
        assert d["cooccurrence"] == [[2, 0], [0, 2]]

    def test_empty_rejected(self, tone_model):
        with pytest.raises(ParameterError, match="no clips"):
            multispecies_eval(tone_model, [], ChunkParams(), SPEC)
