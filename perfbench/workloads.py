"""The benchmark's operations and the three workloads built from them.

Every workload runs the same three user operations in each round: a
Monte Carlo cross-validation, a detection pass over a WAV recording, and
feature extraction over a set of WAV files. A workload gives one of them
its full size and keeps the other two small and fixed, so every run
reports every end-to-end metric while most of its time goes where the
workload's name says.

Each operation builds its inputs from the seed during set-up, times its
own work in ``run`` and checks that work's outputs in ``check``; a check
returns a list of failure messages, empty when the outputs are right.
"""

from __future__ import annotations

import importlib
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

RATE = 44100
WINDOW, HOP = 882, 441
CHUNK_S, CHUNK_HOP_S = 3.0, 1.0
DESK_MELS = 32
TRAIN_FRACTION, VAL_FRACTION = 0.8, 0.1  # TrainConfig and monte_carlo_split defaults
LABELS17 = [f"species-{i:02d}" for i in range(17)]
CANONICAL_PARAMS = 723_220
PROB_TOL = 1e-5  # float32 network vs float64 reference, on probabilities
FEATURE_TOL = 1e-8


def mod(name: str):
    """The chirpnet module itself; ``chirpnet.detect`` is also a function name."""
    return importlib.import_module(f"chirpnet.{name}")


def n_frames(n_samples: int) -> int:
    return 0 if n_samples < WINDOW else 1 + (n_samples - WINDOW) // HOP


def class_split(n: int, train_fraction: float) -> tuple[int, int]:
    """(train, test) members of one class under a stratified resample."""
    n_test = min(max(int(round(n * (1.0 - train_fraction))), 1), n - 1)
    return n - n_test, n_test


def chunk_spans(n: int, min_frames: int) -> list[tuple[int, int]]:
    """Sample spans of the chunks a recording of n samples is cut into."""
    chunk, hop = round(CHUNK_S * RATE), round(CHUNK_HOP_S * RATE)
    min_samples = WINDOW + (min_frames - 1) * HOP
    if n <= chunk:
        return [(0, n)]
    spans = [(k * hop, k * hop + chunk) for k in range((n - chunk) // hop + 1)]
    if spans[-1][1] < n:
        tail = spans[-1][0] + hop
        if n - tail >= min_samples:
            spans.append((tail, n))
        else:
            spans[-1] = (spans[-1][0], n)
    return spans


def desk_config():
    return mod("model").FcnConfig(
        depth=4, widths=(8, 16, 8, 4), activation="adaptive", n_classes=4, enforce_grid=False
    )


# -- cross-validation --------------------------------------------------------------


class CvOp:
    """``cross_validate`` on the 4-class desk set with a fixed epoch count.

    Patience is set above the epoch cap, so every fold trains exactly
    ``epochs`` epochs whatever the validation curve does. With an
    ``accuracy_floor``, ``check`` also asks that the model learned: each
    fold's training loss falls and the mean test accuracy beats the floor.
    Features are standardized per fold: raw mel-dB values run from -100 to
    0 and saturate the tanh slopes, so in 12 epochs some folds stay at
    chance (loss ln 4) on some seeds, and accuracy would then depend on
    the seed rather than on the program.
    The splits are recorded by wrapping ``monte_carlo_split``, which costs
    microseconds per fold.
    """

    def __init__(self, seed, n_per_class, duration, n_folds, epochs, accuracy_floor=None):
        training = mod("training")
        synth = mod("synth")
        self.clips, self.labels, self.label_set = synth.make_desk_dataset(
            n_per_class=n_per_class, duration=duration, seed=seed
        )
        self.n_per_class, self.n_folds, self.epochs = n_per_class, n_folds, epochs
        self.accuracy_floor = accuracy_floor
        self.spec = training.FeatureSpec(kind="mel-db", n_mels=DESK_MELS)
        self.tc = training.TrainConfig(
            epochs_max=epochs, batch_size=16, early_stop_patience=epochs + 1,
            standardize=True, seed=seed,
        )
        self.clip_len = len(self.clips[0])

    def warm(self) -> None:
        model = mod("model").build_model(desk_config(), self.label_set, seed=0)
        model.forward(self.spec.extract(self.clips[0]))

    def run(self, clock) -> dict:
        training = mod("training")
        splits = []
        original = training.monte_carlo_split

        def record(labels, train_fraction=TRAIN_FRACTION, fold_seed=0):
            result = original(labels, train_fraction=train_fraction, fold_seed=fold_seed)
            splits.append((np.asarray(labels), train_fraction, result))
            return result

        training.monte_carlo_split = record
        try:
            summary, sample = clock.measure(
                training.cross_validate, self.clips, self.labels, self.label_set,
                desk_config(), self.tc, n_folds=self.n_folds, spec=self.spec,
            )
        finally:
            training.monte_carlo_split = original
        return {"sample": sample, "summary": summary, "splits": splits}

    def set_sizes(self) -> dict:
        """Per-fold fit, val, test and train sizes from the split arithmetic."""
        train_c, test_c = class_split(self.n_per_class, TRAIN_FRACTION)
        fit_c, val_c = class_split(train_c, 1.0 - VAL_FRACTION)
        k = len(self.label_set)
        return {"fit": k * fit_c, "val": k * val_c, "test": k * test_c, "train": k * train_c}

    def expected_counts(self) -> dict:
        s = self.set_sizes()
        per_fold = s["fit"] + s["val"] + s["test"] + s["train"]  # extractions per fold
        return {
            "dsp.fft.frames": self.n_folds * per_fold * n_frames(self.clip_len),
            "training.examples": self.n_folds * self.epochs * s["fit"],
            "detect.chunks": 0,
        }

    def check(self, out: dict) -> list[str]:
        errors = []
        sizes = self.set_sizes()
        splits = out["splits"]
        if len(splits) != 2 * self.n_folds:
            return [f"cv: {len(splits)} splits recorded, expected {2 * self.n_folds}"]
        for fold in range(self.n_folds):
            for (labels, _, (a, b)), want_b in zip(
                splits[2 * fold : 2 * fold + 2], ("test", "val")
            ):
                if np.intersect1d(a, b).size:
                    errors.append(f"cv fold {fold}: train and {want_b} indices overlap")
                if not np.array_equal(np.union1d(a, b), np.arange(labels.size)):
                    errors.append(f"cv fold {fold}: split does not cover every clip")
                counts = np.bincount(labels[b], minlength=len(self.label_set))
                if set(counts.tolist()) != {sizes[want_b] // len(self.label_set)}:
                    errors.append(f"cv fold {fold}: {want_b} set is not stratified: {counts}")
        summary = out["summary"]
        for f in summary.folds:
            if f.history.epochs() != self.epochs:
                errors.append(f"cv fold {f.fold}: trained {f.history.epochs()} epochs")
            if self.accuracy_floor is not None and not f.history.train_loss[-1] < f.history.train_loss[0]:
                errors.append(f"cv fold {f.fold}: training loss did not fall {f.history.train_loss}")
        if self.accuracy_floor is not None and not summary.mean_test > self.accuracy_floor:
            errors.append(f"cv: mean test accuracy {summary.mean_test:.3f} <= {self.accuracy_floor}")
        return errors


# -- detection -------------------------------------------------------------------------


class DetectOp:
    """``decode_audio`` + ``detect`` over a WAV recording, then single-chunk latency.

    The recording is a sequence of synth signature segments of known
    species and length, in noise, stored as 44.1 kHz PCM16. The model is
    built with a seeded init and round-tripped through the weights file.
    """

    def __init__(self, workdir: Path, seed, canonical, seconds, latency_reps):
        model_mod, training, synth = mod("model"), mod("training"), mod("synth")
        clip_mod, detect_mod = mod("audio.clip"), mod("detect")
        rng = np.random.default_rng(seed)
        n = round(seconds * RATE)
        pieces, made = [], 0
        while made < n:
            m = min(round(rng.uniform(2.0, 6.0) * RATE), n - made)
            kind = synth.SPECIES[rng.integers(len(synth.SPECIES))]
            pieces.append(synth.signature_wave(kind, m / RATE, RATE, rng))
            made += m
        wave = synth.add_noise(np.concatenate(pieces), synth.DEFAULT_SNR_DB, rng)
        self.path = workdir / f"recording-{'canonical' if canonical else 'desk'}.wav"
        self.samples = reference.write_wav_bytes(self.path, wave, RATE, float32=False) / 32768.0

        if canonical:
            config, labels, n_mels = model_mod.canonical_config(17), LABELS17, 128
        else:
            config, labels, n_mels = desk_config(), list(synth.SPECIES), DESK_MELS
        self.spec = training.FeatureSpec(kind="mel-db", n_mels=n_mels)
        built = model_mod.build_model(config, labels, seed=seed)
        weights = workdir / f"model-{'canonical' if canonical else 'desk'}.fcnw"
        model_mod.save_weights(built, weights)
        self.model, _ = model_mod.load_weights(weights)
        self.params = model_mod.param_count(self.model)
        self.canonical = canonical
        self.cp = detect_mod.ChunkParams(chunk_seconds=CHUNK_S, hop_seconds=CHUNK_HOP_S)
        self.chunk_clip = clip_mod.AudioClip(samples=self.samples[: round(CHUNK_S * RATE)])
        self.latency_reps = latency_reps
        self.audio_seconds = n / RATE

    def warm(self) -> None:
        mod("detect").detect(self.model, self.chunk_clip, self.cp, self.spec)

    def _decode_detect(self):
        clip = mod("audio.clip").decode_audio(self.path)
        return mod("detect").detect(self.model, clip, self.cp, self.spec)

    def run(self, clock) -> dict:
        """One timed pass over the recording, then the one-chunk calls."""
        detect = mod("detect").detect
        events, sample = clock.measure(self._decode_detect)
        chunk_events, latencies = zip(*(
            clock.measure(detect, self.model, self.chunk_clip, self.cp, self.spec)
            for _ in range(self.latency_reps)
        ))
        return {"sample": sample, "latencies": list(latencies), "events": events,
                "chunk_events": list(chunk_events)}

    def spans(self) -> list[tuple[int, int]]:
        return chunk_spans(self.samples.shape[0], self.model.min_frames)

    def expected_counts(self) -> dict:
        spans = self.spans()
        chunk_frames = n_frames(round(CHUNK_S * RATE))
        return {
            "dsp.fft.frames": sum(n_frames(b - a) for a, b in spans) + self.latency_reps * chunk_frames,
            "training.examples": 0,
            "detect.chunks": len(spans) + self.latency_reps,
        }

    def reference_layers(self) -> tuple[list, float]:
        m = self.model
        layers = [
            (conv.kernels.data, conv.bias.data, act.slope.data)
            for conv, act in zip(m.convs[:-1], m.activations)
        ]
        layers.append((m.convs[-1].kernels.data, m.convs[-1].bias.data, None))
        return layers, m.activations[0].n

    def check(self, out: dict, check_reference: bool = True) -> list[str]:
        errors = []
        if self.canonical and self.params != CANONICAL_PARAMS:
            errors.append(f"detect: canonical model has {self.params} parameters")
        events, spans = out["events"], self.spans()
        if len(events) != len(spans):
            errors.append(f"detect: {len(events)} events, chunk arithmetic gives {len(spans)}")
            return errors
        for k, (ev, (a, b)) in enumerate(zip(events, spans)):
            if abs(ev.t_start - k * CHUNK_HOP_S) > 1e-9 or abs(ev.t_end - b / RATE) > 1e-9:
                errors.append(f"detect: event {k} spans [{ev.t_start}, {ev.t_end}], expected [{a / RATE}, {b / RATE}]")
        for evs in out["chunk_events"]:
            if len(evs) != 1 or evs[0].t_start != 0.0 or abs(evs[0].t_end - CHUNK_S) > 1e-9:
                errors.append(f"detect: one-chunk clip gave {evs}")
                break
        if check_reference:
            layers, n = self.reference_layers()
            for k in sorted({0, len(spans) // 2, len(spans) - 1}):
                a, b = spans[k]
                feats = reference.mel_db(self.samples[a:b], RATE, n_mels=self.spec.n_mels)
                probs = reference.fcn_forward(feats, layers, n)
                ev = events[k]
                picked = probs[self.model.label_set.index(ev.species)]
                if abs(ev.confidence - probs.max()) > PROB_TOL or picked < probs.max() - PROB_TOL:
                    errors.append(
                        f"detect: chunk {k} gave {ev.species} p={ev.confidence:.7f}; reference "
                        f"{self.model.label_set[int(probs.argmax())]} p={probs.max():.7f}"
                    )
        return errors


# -- feature extraction ----------------------------------------------------------------


@dataclass
class WavFile:
    path: Path
    rate: int
    float32: bool
    n: int
    stored: np.ndarray
    tone_bin: int | None  # rfft bin of the pure tone at 44.1 kHz, None for birdsong


# (sample rate, float32, channels, seconds, pure tone)
CORPUS = (
    (44100, False, 1, 30.0, False),
    (48000, True, 2, 20.0, False),
    (22050, False, 1, 15.0, False),
    (22050, False, 2, 12.0, False),
    (44100, True, 1, 8.0, False),
    (48000, False, 1, 5.0, True),
    (22050, True, 1, 3.0, True),
    (44100, False, 2, 2.0, False),
    (48000, False, 2, 1.0, False),
)
SMALL_FILES = (
    (44100, False, 1, 5.0, False),
    (48000, True, 2, 5.0, True),
)


class FeaturesOp:
    """``decode_audio`` + 128-band mel-dB + 20-coefficient MFCC per WAV file."""

    def __init__(self, workdir: Path, seed, table, n_sampled):
        synth = mod("synth")
        rng = np.random.default_rng(seed)
        self.files: list[WavFile] = []
        for i, (rate, is_float, channels, seconds, tone) in enumerate(table):
            n = round(seconds * rate)
            tone_bin = None
            if tone:
                out_len = math.ceil(n * RATE / rate)
                tone_bin = int(rng.integers(out_len * 1000 // RATE, out_len * 4000 // RATE))
                t = np.arange(n) / rate
                wave = 0.5 * np.sin(2 * np.pi * tone_bin * RATE / out_len * t + rng.uniform(0, 2 * np.pi))
                data = np.stack([wave] * channels, axis=1) if channels == 2 else wave
            else:
                kinds = rng.choice(synth.SPECIES, size=channels)
                data = np.stack(
                    [synth.add_noise(synth.signature_wave(k, n / rate, rate, rng), synth.DEFAULT_SNR_DB, rng)
                     for k in kinds],
                    axis=1,
                )
                data = data[:, 0] if channels == 1 else data
            path = workdir / f"file{i:02d}-{rate}-{'f32' if is_float else 'pcm16'}-{channels}ch.wav"
            stored = reference.write_wav_bytes(path, data, rate, is_float)
            self.files.append(WavFile(path, rate, is_float, n, stored, tone_bin))
        self.sampled = sorted(rng.choice(len(self.files), size=n_sampled, replace=False).tolist())
        self.audio_seconds = sum(f.n / f.rate for f in self.files)

    def warm(self) -> None:
        clip = mod("audio.clip").decode_audio(self.files[-1].path)
        for kind in ("mel-db", "mfcc"):
            mod("dsp.features").extract_features(clip, kind)

    def run(self, clock, keep: bool) -> dict:
        """Time the whole set; with ``keep``, hold the outputs the check reads."""
        clip_mod, features = mod("audio.clip"), mod("dsp.features")
        kept = {}

        def extract_all():
            for i, f in enumerate(self.files):
                clock.maybe_probe()
                clip = clip_mod.decode_audio(f.path)
                mel = features.extract_features(clip, "mel-db")
                cep = features.extract_features(clip, "mfcc")
                if keep and (i in self.sampled or f.tone_bin is not None or f.rate == RATE):
                    kept[i] = (clip.samples, mel.values, cep.values)

        _, sample = clock.measure(extract_all)
        return {"sample": sample, "kept": kept}

    def decoded_len(self, f: WavFile) -> int:
        return f.n if f.rate == RATE else math.ceil(f.n * RATE / f.rate)

    def expected_counts(self) -> dict:
        return {
            "dsp.fft.frames": sum(2 * n_frames(self.decoded_len(f)) for f in self.files),
            "training.examples": 0,
            "detect.chunks": 0,
        }

    def check(self, out: dict) -> list[str]:
        errors = []
        kept = out["kept"]
        for i, f in enumerate(self.files):
            if i not in kept:
                continue
            samples, mel, cep = kept[i]
            name = f.path.name
            if samples.shape[0] != self.decoded_len(f):
                errors.append(f"features {name}: decoded {samples.shape[0]} samples, expected {self.decoded_len(f)}")
                continue
            if f.rate == RATE:
                want = f.stored.astype(np.float64)
                want = want.mean(axis=1) if want.ndim == 2 else want
                if not f.float32:
                    want = want / 32768.0
                if not np.array_equal(samples, want):
                    errors.append(f"features {name}: decoded samples differ from the written ones")
            if f.tone_bin is not None:
                spectrum = np.abs(np.fft.rfft(samples * np.hanning(samples.shape[0])))
                if int(spectrum.argmax()) != f.tone_bin:
                    errors.append(f"features {name}: tone peak in bin {spectrum.argmax()}, written {f.tone_bin}")
            if i in self.sampled:
                for got, want, what in (
                    (mel, reference.mel_db(samples, RATE), "mel-dB"),
                    (cep, reference.mfcc(samples, RATE), "MFCC"),
                ):
                    err = np.abs(got - want).max() if got.shape == want.shape else np.inf
                    if not err <= FEATURE_TOL:
                        errors.append(f"features {name}: {what} differs from reference by {err:.3g}")
        return errors


# -- workloads ------------------------------------------------------------------------------

# The small parts repeat within a round so that each of their metrics is a
# median over seconds of work, not one sub-second call.
SMALL_CV = dict(n_per_class=4, duration=0.5, n_folds=2, epochs=2, reps=12)
SMALL_DETECT = dict(canonical=False, seconds=12.0, latency_reps=8, reps=12)
SMALL_FEATURES = dict(table=SMALL_FILES, n_sampled=1, reps=12)

WORKLOADS = {
    "cv_desk": dict(
        cv=dict(n_per_class=40, duration=2.0, n_folds=2, epochs=12, accuracy_floor=0.45, reps=1),
        detect=SMALL_DETECT,
        features=SMALL_FEATURES,
    ),
    "detect_canonical": dict(
        cv=SMALL_CV,
        detect=dict(canonical=True, seconds=62.5, latency_reps=24, reps=1),
        features=SMALL_FEATURES,
    ),
    "features_corpus": dict(
        cv=SMALL_CV,
        detect=SMALL_DETECT,
        features=dict(table=CORPUS, n_sampled=3, reps=1),
    ),
}


class Workload:
    """One operation of each kind, sized and repeated as ``WORKLOADS[name]`` says."""

    def __init__(self, name: str, seed: int, workdir: Path, clock):
        self.clock = clock
        spec = {kind: dict(params) for kind, params in WORKLOADS[name].items()}
        self.reps = {kind: params.pop("reps") for kind, params in spec.items()}
        seeds = np.random.SeedSequence(seed).generate_state(3).tolist()
        clock.maybe_probe()
        self.cv = CvOp(seeds[0], **spec["cv"])
        clock.maybe_probe()
        self.detect = DetectOp(workdir, seeds[1], **spec["detect"])
        clock.maybe_probe()
        self.features = FeaturesOp(workdir, seeds[2], **spec["features"])
        self.ops = {"cv": self.cv, "detect": self.detect, "features": self.features}

    @property
    def ops_per_round(self) -> int:
        r = self.reps
        return r["cv"] + r["detect"] * (1 + self.detect.latency_reps) + r["features"] * len(self.features.files)

    def warm(self) -> None:
        for op in self.ops.values():
            self.clock.maybe_probe()
            op.warm()
        self.clock.maybe_probe()

    def run_round(self, first: bool) -> dict:
        r, clock = self.reps, self.clock
        return {
            "cv": [self.cv.run(clock) for _ in range(r["cv"])],
            "detect": [self.detect.run(clock) for _ in range(r["detect"])],
            "features": [self.features.run(clock, keep=first and i == 0) for i in range(r["features"])],
        }

    def expected_counts(self) -> dict:
        total: dict = {}
        for kind, op in self.ops.items():
            for k, v in op.expected_counts().items():
                total[k] = total.get(k, 0) + self.reps[kind] * v
        return total

    def check(self, rounds: list[dict]) -> list[str]:
        """Every output is checked; the costly references run on the first."""
        cv_outs = [o for r in rounds for o in r["cv"]]
        detect_outs = [o for r in rounds for o in r["detect"]]
        errors = [e for o in cv_outs for e in self.cv.check(o)]
        errors += self.detect.check(detect_outs[0])
        errors += [e for o in detect_outs[1:] for e in self.detect.check(o, check_reference=False)]
        first_events = [(e.species, e.confidence) for e in detect_outs[0]["events"]]
        if any([(e.species, e.confidence) for e in o["events"]] != first_events for o in detect_outs[1:]):
            errors.append("detect: events differ between repetitions")
        errors += self.features.check(rounds[0]["features"][0])
        return errors

    def metrics(self, rounds: list[dict], ref=None) -> dict:
        """Medians over the run's samples, in reference-machine seconds.

        ``ref`` maps a Sample to seconds; it defaults to the run's probes.
        """
        ref = ref or self.clock.reference_s

        def median(kind, key, scale=lambda t: t):
            return statistics.median(
                scale(ref(sample)) for r in rounds for o in r[kind]
                for sample in (o[key] if isinstance(o[key], list) else [o[key]])
            )

        return {
            "cv_s": (median("cv", "sample"), "s"),
            "detect_rtf": (median("detect", "sample", lambda t: t / self.detect.audio_seconds), "s/s"),
            "chunk_latency_ms": (median("detect", "latencies", lambda t: 1e3 * t), "ms"),
            "features_audio_s_per_s": (
                median("features", "sample", lambda t: self.features.audio_seconds / t), "s/s"
            ),
        }
