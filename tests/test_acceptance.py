"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers and its
runtime; run with -s (or -rA) to see the lines. The printed verdict always
matches the asserts that follow it.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from chirpnet.detect import ChunkParams, detect, multispecies_eval
from chirpnet.dsp.features import dct_cepstrum, mel_spectrogram, mfcc
from chirpnet.dsp.fft import fft, power_spectrum
from chirpnet.dsp.mel import build_filterbank, mel_scale
from chirpnet.dsp.windowing import FrameParams, hamming
from chirpnet.errors import ShapeError
from chirpnet.experiments import clip_descriptor, duration_study, knn_baseline
from chirpnet.metrics import evaluate_predictions
from chirpnet.model import (
    FcnConfig,
    build_cnn_dense,
    build_model,
    canonical_config,
    load_weights,
    param_count,
    param_report,
    save_weights,
)
from chirpnet.nn.gradcheck import gradient_check
from chirpnet.synth import make_clip, make_desk_dataset, make_overdub_clip, make_transition_clip
from chirpnet.training import (
    FeatureSpec,
    TrainConfig,
    _fold_seeds,
    cross_validate,
    evaluate,
    monte_carlo_split,
)
from chirpnet.verification import run_all, scenario_conv3, scenario_softmax_ce

LABELS17 = [f"species-{i:02d}" for i in range(17)]

DESK_SPEC = FeatureSpec(kind="mel-db", n_mels=32)
DESK_CONFIG = FcnConfig(
    depth=4, widths=(8, 16, 8, 4), activation="adaptive",
    n_classes=4, enforce_grid=False,
)
DESK_TRAIN = TrainConfig(epochs_max=100, batch_size=16, early_stop_patience=10, seed=0)


def _finish(num, title, checks, elapsed, budget=None):
    ok = all(flag for flag, _ in checks) and (budget is None or elapsed < budget)
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(msg for _, msg in checks)
    tail = f"({elapsed:.1f}s)" if budget is None else f"({elapsed:.1f}s / {budget:.0f}s)"
    print(f"[{status}] criterion {num:2d} {title}: {detail} {tail}")
    for flag, msg in checks:
        assert flag, msg
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s over the {budget:.0f}s budget"


@pytest.fixture(scope="module")
def cv_bundle():
    """The 4-class benchmark run shared by the training-dependent checks."""
    t0 = time.monotonic()
    clips, labels, label_set = make_desk_dataset(n_per_class=40, duration=2.0, seed=7)
    summary, model, test_idx, _ = cross_validate(
        clips, labels, label_set, DESK_CONFIG, DESK_TRAIN,
        n_folds=10, spec=DESK_SPEC, keep_last_model=True,
    )
    return SimpleNamespace(
        clips=clips, labels=labels, label_set=label_set,
        summary=summary, model=model, test_idx=test_idx,
        elapsed=time.monotonic() - t0,
    )


def test_01_transform_and_feature_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    frames = rng.standard_normal((200, 1024))

    ours = fft(frames)
    ref = oracles.naive_dft(frames.T).T
    fft_err = float(np.abs(ours - ref).max())

    time_e = np.sum(frames**2, axis=1)
    freq_e = np.sum(np.abs(ours) ** 2, axis=1) / 1024
    parseval_err = float(np.abs(freq_e - time_e).max() / time_e.min())

    clip = make_clip("sweep-up", duration=0.5, rng=np.random.default_rng(7))
    fp = FrameParams()
    got_mfcc = mfcc(clip, fp=fp, b=0.97, n_mfcc=13, n_mels=26).values
    want_mfcc = oracles.naive_mfcc(
        clip.samples, clip.sample_rate, 0.97, fp.window_len, fp.hop, fp.fft_size, 26, 13
    )
    mfcc_err = float(np.abs(got_mfcc - want_mfcc).max())

    got_db = mel_spectrogram(clip, fp=fp, n_mels=26).values
    want_db = oracles.naive_mel_db(
        clip.samples, clip.sample_rate, fp.window_len, fp.hop, fp.fft_size, 26
    )
    db_err = float(np.abs(got_db - want_db).max())

    _finish(1, "transform and feature oracles", [
        (fft_err <= 1e-9, f"fft vs direct transform max err {fft_err:.2e}"),
        (parseval_err <= 1e-9, f"energy conservation rel err {parseval_err:.2e}"),
        (mfcc_err <= 1e-8, f"cepstral pipeline max cell err {mfcc_err:.2e}"),
        (db_err <= 1e-8, f"log-mel pipeline max cell err {db_err:.2e}"),
    ], time.monotonic() - t0, budget=30)


def test_02_closed_form_dsp():
    t0 = time.monotonic()
    mel0 = mel_scale(0.0)
    mel700_err = abs(mel_scale(700.0) - 2595.0 * math.log10(2.0))

    n = 64
    x = np.cos(2 * np.pi * 4 * np.arange(n) / n)
    p = power_spectrum(x)
    peak_err = abs(p[4] - (n / 2) ** 2)
    leak = float(np.delete(p, 4).max())

    flat = dct_cepstrum(np.full((1, 40), 3.7), 12)
    dct_max = float(np.abs(flat).max())

    w = hamming(882)
    end_err = max(abs(w[0] - 0.08), abs(w[-1] - 0.08))
    mid_err = abs(hamming(881)[440] - 1.0)

    fb = build_filterbank(26, FrameParams(), 44100)
    df = 44100 / FrameParams().fft_size
    areas = np.array([oracles.trapezoid_area(row, df) for row in fb.weights])
    area_err = float(np.abs(areas - 1.0).max())

    _finish(2, "closed-form frequency checks", [
        (mel0 == 0.0, f"mel(0) = {mel0}"),
        (mel700_err <= 1e-12, f"mel(700) err {mel700_err:.2e}"),
        (peak_err <= 1e-9, f"cosine bin power err {peak_err:.2e}"),
        (leak < 1e-18, f"off-bin leakage {leak:.2e}"),
        (dct_max <= 1e-12, f"constant-input cepstrum max {dct_max:.2e}"),
        (end_err <= 1e-12, f"window endpoint err {end_err:.2e}"),
        (mid_err <= 1e-12, f"window midpoint err {mid_err:.2e}"),
        (area_err <= 1e-12, f"filter row area err {area_err:.2e}"),
    ], time.monotonic() - t0, budget=5)


def test_03_gradient_checks():
    t0 = time.monotonic()
    results = run_all(tol=1e-4)
    worst = max(rep.max_rel_err for _, rep in results)
    all_pass = all(rep.passed for _, rep in results)

    _, loss, params = scenario_conv3()
    scaled = gradient_check(
        loss, params, tol=1e-4,
        grad_transform=lambda i, g: g * 1.5 if i == 0 else g,
    )
    _, loss2, params2 = scenario_softmax_ce()
    flipped = gradient_check(loss2, params2, tol=1e-4, grad_transform=lambda i, g: -g)

    _finish(3, "gradient checks", [
        (all_pass, f"{len(results)} scenarios, worst rel err {worst:.2e}"),
        (scaled.max_rel_err > 1e-2, f"scaled-gradient control reports {scaled.max_rel_err:.2e}"),
        (flipped.max_rel_err > 1e-2, f"sign-flip control reports {flipped.max_rel_err:.2e}"),
    ], time.monotonic() - t0, budget=120)


def test_04_variable_length_contract():
    t0 = time.monotonic()
    model = build_model(canonical_config(), LABELS17, seed=0)
    rng = np.random.default_rng(4)
    checks = []
    for frames in (8, 99, 500, 2000):
        probs = model.forward(rng.standard_normal((128, frames)))
        sum_err = abs(float(probs.sum()) - 1.0)
        ok = probs.shape == (17,) and sum_err <= 1e-9 and probs.min() >= 0.0
        checks.append((ok, f"{frames} frames: sum err {sum_err:.1e}"))

    dense = build_cnn_dense(canonical_config(), LABELS17, fixed_shape=(128, 500), seed=0)
    accepted = dense.forward(rng.standard_normal((128, 500))).shape == (17,)
    rejected = 0
    for frames in (8, 99, 499, 2000):
        try:
            dense.forward(rng.standard_normal((128, frames)))
        except ShapeError:
            rejected += 1
    checks.append((accepted, "fixed-length head accepts its own shape"))
    checks.append((rejected == 4, f"fixed-length head rejected {rejected}/4 other lengths"))

    _finish(4, "variable-length contract", checks, time.monotonic() - t0, budget=30)


def test_05_parameter_count():
    t0 = time.monotonic()
    model = build_model(canonical_config(), LABELS17, seed=0)
    total = param_count(model)
    report = param_report(model)
    flagged = (not report.within_budget) and (
        "EXCEEDS the 500,000-parameter lightweight budget by 223,220" in report.summary()
    )
    _finish(5, "parameter count", [
        (total == 723_220, f"total {total:,}"),
        (flagged, "budget overrun flagged"),
    ], time.monotonic() - t0, budget=1)


def test_06_synthetic_training_beats_knn(cv_bundle):
    t0 = time.monotonic()
    b = cv_bundle
    descriptors = [clip_descriptor(c, spec=DESK_SPEC) for c in b.clips]
    knn_accs = []
    for split_seed, _, _ in _fold_seeds(DESK_TRAIN.seed, 10):
        train_idx, test_idx = monte_carlo_split(b.labels, fold_seed=split_seed)
        train = [(descriptors[i], b.labels[i]) for i in train_idx]
        test = [(descriptors[i], b.labels[i]) for i in test_idx]
        knn_accs.append(knn_baseline(train, test, k=5))
    knn_mean = float(np.mean(knn_accs))
    elapsed = b.elapsed + (time.monotonic() - t0)

    _finish(6, "synthetic training vs nearest-neighbour", [
        (b.summary.mean_test >= 0.95,
         f"cnn 10-fold mean test accuracy {b.summary.mean_test:.4f}"),
        (knn_mean < b.summary.mean_test,
         f"knn mean accuracy {knn_mean:.4f} strictly lower"),
    ], elapsed, budget=600)


def test_07_longer_clips_do_not_hurt(cv_bundle):
    t0 = time.monotonic()
    b = cv_bundle
    test_clips = [(b.clips[i], b.labels[i]) for i in b.test_idx]
    accs = duration_study(b.model, test_clips, durations=(1.0, 20.0), spec=DESK_SPEC)
    _finish(7, "duration ordering", [
        (accs[20.0] >= accs[1.0],
         f"accuracy(20s) {accs[20.0]:.3f} >= accuracy(1s) {accs[1.0]:.3f}"),
    ], time.monotonic() - t0)


def test_08_sequence_and_overdub_detection(cv_bundle):
    t0 = time.monotonic()
    b = cv_bundle
    cp = ChunkParams(chunk_seconds=3.0, hop_seconds=1.0)
    ordered = 0
    localized = 0
    n_transition = 3
    for seed in (11, 12, 13):
        clip = make_transition_clip("tone-low", "tone-high", seconds_each=5.0, seed=seed)
        events = detect(b.model, clip, cp, DESK_SPEC)
        lows = [i for i, ev in enumerate(events) if ev.species == "tone-low"]
        highs = [i for i, ev in enumerate(events) if ev.species == "tone-high"]
        if lows and highs and max(lows) < min(highs):
            ordered += 1
            last_low_end = events[max(lows)].t_end
            first_high_start = events[min(highs)].t_start
            if abs(first_high_start - 5.0) <= 3.0 and abs(last_low_end - 5.0) <= 3.0:
                localized += 1

    cp2 = ChunkParams(chunk_seconds=3.0, hop_seconds=3.0)
    base, dub, gain = "tone-low", "tone-high", 2.0
    bi = b.label_set.index(base)
    group = [
        (make_overdub_clip(base, dub, duration=12.0, region_seconds=3.0,
                           seed=s, overdub_gain=gain), bi)
        for s in range(31, 41)
    ]
    rep = multispecies_eval(b.model, group, cp2, DESK_SPEC)

    _finish(8, "sequence and overdub detection", [
        (ordered == n_transition, f"{ordered}/{n_transition} two-species clips in order"),
        (localized == n_transition,
         f"{localized}/{n_transition} switch within one chunk of the true boundary"),
        (abs(rep.chunk_accuracy - 0.5) <= 0.1,
         f"overdub chunk accuracy {rep.chunk_accuracy:.3f}"),
        (rep.full_clip_accuracy >= 0.9,
         f"whole-clip accuracy {rep.full_clip_accuracy:.2f}"),
    ], time.monotonic() - t0, budget=180)


def test_09_bitwise_reproducibility(tmp_path):
    t0 = time.monotonic()
    spec = FeatureSpec(kind="mel-db", n_mels=16)
    label_set = ["tone-low", "tone-high"]
    tc = TrainConfig(epochs_max=10, batch_size=8, early_stop_patience=5, seed=42)
    config = FcnConfig(depth=3, widths=(4, 4, 2), activation="adaptive",
                       n_classes=2, enforce_grid=False)

    def one_run():
        rng = np.random.default_rng(3)
        clips, labels = [], []
        for idx, kind in enumerate(label_set):
            for _ in range(8):
                clips.append(make_clip(kind, duration=0.5, rng=rng))
                labels.append(idx)
        summary, model, test_idx, _ = cross_validate(
            clips, labels, label_set, config, tc,
            n_folds=2, spec=spec, keep_last_model=True, jobs=1,
        )
        test_set = [(spec.extract(clips[i]).values, labels[i]) for i in test_idx]
        report = evaluate(model, test_set, label_set)
        return summary, model, report

    s1, m1, r1 = one_run()
    s2, m2, r2 = one_run()

    p1, p2, p3 = tmp_path / "a.fcnw", tmp_path / "b.fcnw", tmp_path / "c.fcnw"
    save_weights(m1, p1)
    save_weights(m2, p2)
    same_bytes = p1.read_bytes() == p2.read_bytes()
    m3, _ = load_weights(p1)
    save_weights(m3, p3)
    round_trip = p3.read_bytes() == p1.read_bytes()
    arrays_equal = all(
        np.array_equal(a.data, c.data) for a, c in zip(m1.params(), m3.params())
    )

    _finish(9, "bitwise reproducibility", [
        (s1.to_dict() == s2.to_dict(), "training summaries identical"),
        (r1.to_dict() == r2.to_dict(), "evaluation reports identical"),
        (same_bytes, "weights from repeated runs byte-identical"),
        (round_trip and arrays_equal, "save/load round trip byte-exact"),
    ], time.monotonic() - t0, budget=120)


def test_10_metric_conventions():
    t0 = time.monotonic()
    labels = ["common", "rare", "other"]
    y_true = [0, 0, 0, 0, 1, 2, 2, 2]
    y_pred = [0, 0, 0, 2, 0, 2, 2, 2]
    report = evaluate_predictions(y_true, y_pred, labels)
    by_name = {m.label: m for m in report.per_class}

    rare = by_name["rare"]
    zero_division = rare.precision == 0.0 and rare.recall == 0.0 and rare.support == 1
    shown = " 0.00" in report.table().splitlines()[2]

    total = sum(m.support for m in report.per_class)
    wp = sum(m.support * m.precision for m in report.per_class) / total
    wr = sum(m.support * m.recall for m in report.per_class) / total
    wf = sum(m.support * m.f1 for m in report.per_class) / total
    weighted_exact = (
        report.weighted() == (wp, wr, wf)
        and wp == 0.65625
        and wr == 0.75
    )

    _finish(10, "metric conventions", [
        (zero_division, "unpredicted single-support class scores 0.00"),
        (shown, "table prints the 0.00 row"),
        (weighted_exact, "weighted averages equal support-weighted means exactly"),
    ], time.monotonic() - t0, budget=5)
