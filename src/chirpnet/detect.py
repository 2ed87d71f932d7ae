"""Chunked detection over long recordings.

A clip is cut into overlapping fixed-duration chunks, each classified
independently as soon as its samples are available, yielding time-stamped
events. Same-species events that touch are merged for presentation, and an
evaluation harness contrasts per-chunk accuracy with whole-clip accuracy
and tallies which species appear inside clips of each primary label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio.clip import AudioClip
from .audio.preprocess import DEFAULT_TOP_DB, frame_powers
from .errors import DegenerateInputError, OrderingError, ParameterError
from .model import FcnModel
from .training import FeatureSpec


@dataclass(frozen=True)
class ChunkParams:
    chunk_seconds: float = 3.0
    hop_seconds: float = 1.0
    min_confidence: float = 0.0

    def __post_init__(self):
        if self.chunk_seconds <= 0 or self.hop_seconds <= 0:
            raise ParameterError("chunk and hop durations must be positive")
        if self.hop_seconds > self.chunk_seconds:
            raise ParameterError(
                f"hop {self.hop_seconds}s exceeds chunk {self.chunk_seconds}s"
            )
        if self.min_confidence < 0:
            raise ParameterError("min_confidence must be nonnegative")


@dataclass(frozen=True)
class DetectionEvent:
    t_start: float
    t_end: float
    species: str
    confidence: float
    low_energy: bool = False

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ParameterError(
                f"event must span positive time, got [{self.t_start}, {self.t_end}]"
            )


def chunk_stream(
    clip: AudioClip,
    cp: ChunkParams,
    spec: FeatureSpec = FeatureSpec(),
    min_frames: int = 8,
) -> list[tuple[int, int]]:
    """Sample spans (a, b) of chunks of chunk_seconds every hop_seconds.

    A clip shorter than one chunk yields a single whole-clip chunk. A
    trailing partial chunk is kept when it still covers min_frames analysis
    frames; otherwise the last chunk stretches to the end of the clip.
    Features are left to the caller, one chunk at a time.
    """
    sr = clip.sample_rate
    n = len(clip)
    min_samples = spec.frame_params.min_samples(min_frames)
    if n < min_samples:
        raise DegenerateInputError(
            f"clip of {n} samples is below the {min_samples}-sample minimum "
            f"for {min_frames} frames"
        )
    chunk_n = int(round(cp.chunk_seconds * sr))
    hop_n = int(round(cp.hop_seconds * sr))
    if chunk_n < min_samples:
        raise ParameterError(
            f"chunk of {cp.chunk_seconds}s holds fewer than {min_frames} frames"
        )
    if n <= chunk_n:
        return [(0, n)]

    spans = [(s, s + chunk_n) for s in range(0, n - chunk_n + 1, hop_n)]
    tail_start = spans[-1][0] + hop_n
    if spans[-1][1] < n:
        if n - tail_start >= min_samples:
            spans.append((tail_start, n))
        else:
            spans[-1] = (spans[-1][0], n)
    return spans


def detect(
    model: FcnModel,
    clip: AudioClip,
    cp: ChunkParams,
    spec: FeatureSpec = FeatureSpec(),
    top_db: float = DEFAULT_TOP_DB,
) -> list[DetectionEvent]:
    """One event per chunk: argmax species and its probability.

    Chunks quieter than top_db below the clip's loudest frame are still
    classified but flagged low_energy. Events below min_confidence are
    dropped. Each chunk is classified from its own samples only, so the
    stream can be processed as it arrives.
    """
    powers = frame_powers(clip.samples)
    peak = powers.max()
    threshold = peak / (10.0 ** (top_db / 10.0)) if peak > 0 else 0.0
    sr = clip.sample_rate
    events = []
    for a, b in chunk_stream(clip, cp, spec, model.min_frames):
        chunk = clip.samples[a:b]
        probs = model.forward(spec.extract(clip.with_samples(chunk)), train_mode=False)
        conf = float(probs.max())
        if conf < cp.min_confidence:
            continue
        chunk_power = float(np.mean(chunk**2))
        events.append(
            DetectionEvent(
                t_start=a / sr,
                t_end=b / sr,
                species=model.label_set[int(probs.argmax())],
                confidence=conf,
                low_energy=bool(chunk_power < threshold),
            )
        )
    return events


def merge_events(events: list[DetectionEvent]) -> list[DetectionEvent]:
    """Collapse runs of same-species events that overlap or touch.

    The merged confidence is the max over members; the low_energy flag is
    set only when every member was low-energy. Input must be time-ordered.
    """
    for prev, cur in zip(events, events[1:]):
        if cur.t_start < prev.t_start:
            raise OrderingError("events must be sorted by start time before merging")
    merged: list[DetectionEvent] = []
    for ev in events:
        last = merged[-1] if merged else None
        if (
            last is not None
            and last.species == ev.species
            and ev.t_start <= last.t_end
        ):
            merged[-1] = DetectionEvent(
                t_start=last.t_start,
                t_end=max(last.t_end, ev.t_end),
                species=last.species,
                confidence=max(last.confidence, ev.confidence),
                low_energy=last.low_energy and ev.low_energy,
            )
        else:
            merged.append(ev)
    return merged


def format_timeline(events: list[DetectionEvent]) -> str:
    lines = []
    for ev in events:
        flag = "  (low energy)" if ev.low_energy else ""
        lines.append(
            f"{ev.t_start:8.2f}s - {ev.t_end:8.2f}s  {ev.species}  "
            f"p={ev.confidence:.3f}{flag}"
        )
    return "\n".join(lines)


@dataclass
class MultispeciesReport:
    chunk_accuracy: float
    full_clip_accuracy: float
    cooccurrence: np.ndarray
    labels: list[str]
    n_chunks: int

    def to_dict(self) -> dict:
        return {
            "chunk_accuracy": self.chunk_accuracy,
            "full_clip_accuracy": self.full_clip_accuracy,
            "n_chunks": self.n_chunks,
            "cooccurrence": self.cooccurrence.tolist(),
            "labels": self.labels,
        }


def multispecies_eval(
    model: FcnModel,
    labeled_clips: list[tuple[AudioClip, int]],
    cp: ChunkParams,
    spec: FeatureSpec = FeatureSpec(),
) -> MultispeciesReport:
    """Chunk accuracy vs whole-clip accuracy over primary-labeled clips.

    The co-occurrence matrix counts, for each primary label row, every
    species detected among that clip's chunks.
    """
    if not labeled_clips:
        raise ParameterError("no clips to evaluate")
    n_classes = len(model.label_set)
    cooc = np.zeros((n_classes, n_classes), dtype=np.int64)
    chunk_hits = 0
    chunk_total = 0
    full_hits = 0
    for clip, label in labeled_clips:
        for a, b in chunk_stream(clip, cp, spec, model.min_frames):
            features = spec.extract(clip.with_samples(clip.samples[a:b]))
            pred = int(model.forward(features).argmax())
            cooc[label, pred] += 1
            chunk_hits += int(pred == label)
            chunk_total += 1
        whole = spec.extract(clip)
        full_hits += int(int(model.forward(whole).argmax()) == label)
    return MultispeciesReport(
        chunk_accuracy=chunk_hits / chunk_total,
        full_clip_accuracy=full_hits / len(labeled_clips),
        cooccurrence=cooc,
        labels=list(model.label_set),
        n_chunks=chunk_total,
    )
