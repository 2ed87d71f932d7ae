"""Show that every benchmark check fails when the output it checks is perturbed.

    python3 perfbench/perturb.py

Runs each operation once at a small size, confirms its check passes on
the real outputs, then feeds the check one perturbed copy at a time and
confirms each copy is rejected. Exits 1 if any perturbation goes unnoticed.
"""

import copy
import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import SCRATCH_DIR, count_errors, import_chirpnet


def main() -> int:
    import_chirpnet()
    from speed import SpeedProbe
    from workloads import SMALL_FILES, WORKLOADS, CvOp, DetectOp, FeaturesOp

    SCRATCH_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perturb-", dir=SCRATCH_DIR))
    try:
        cv_spec = {k: v for k, v in WORKLOADS["cv_desk"]["cv"].items() if k != "reps"}
        cv = CvOp(3, **cv_spec)
        detect = DetectOp(workdir, 3, canonical=True, seconds=7.5, latency_reps=1)
        features = FeaturesOp(workdir, 3, SMALL_FILES + ((44100, False, 2, 1.0, False),), n_sampled=2)
        clock = SpeedProbe(enabled=False)
        outputs = {"cv": cv.run(clock), "detect": detect.run(clock), "features": features.run(clock, keep=True)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = {"cv": cv.check, "detect": detect.check, "features": features.check}

    def cv_perturbations(out):
        labels, frac, (train, test) = out["splits"][0]
        yield "test index also in train", ("splits", 0, (labels, frac, (np.append(train, test[0]), test)))
        # swap a test clip of one class with a training clip of another
        a = test[labels[test] == 0][0]
        b = train[labels[train] == 1][0]
        yield "unstratified test set", ("splits", 0, (labels, frac, (
            np.sort(np.append(train[train != b], a)), np.sort(np.append(test[test != a], b)))))
        yield "split drops a clip", ("splits", 0, (labels, frac, (train[1:], test)))
        fold = out["summary"].folds[0]
        losses = list(fold.history.train_loss)
        yield "loss did not fall", ("loss", 0, losses[::-1])
        yield "one epoch short", ("loss", 0, losses[:-1])
        yield "accuracy at chance", ("accuracy", None, 0.25)

    def apply_cv(out, change):
        what, i, value = change
        out = copy.deepcopy(out)
        if what == "splits":
            out["splits"][i] = value
        elif what == "loss":
            out["summary"].folds[i].history.train_loss = value
        else:
            out["summary"].mean_test = value
        return out

    def detect_perturbations(out):
        events = out["events"]
        mid = len(events) // 2
        yield "event dropped", events[:-1]
        yield "event shifted by one hop", events[:mid] + [
            dataclasses.replace(events[mid], t_start=events[mid].t_start + 1.0, t_end=events[mid].t_end + 1.0)
        ] + events[mid + 1 :]
        yield "confidence off by 1e-4", events[:mid] + [
            dataclasses.replace(events[mid], confidence=events[mid].confidence + 1e-4)
        ] + events[mid + 1 :]
        wrong = [s for s in detect.model.label_set if s != events[-1].species][0]
        yield "last chunk's species swapped", events[:-1] + [dataclasses.replace(events[-1], species=wrong)]

    def feature_perturbations(out):
        kept = out["kept"]
        sampled = features.sampled[0]
        samples, mel, cep = kept[sampled]
        cell = np.zeros_like(mel)
        cell[mel.shape[0] // 2, mel.shape[1] // 2] = 1e-6
        yield "mel-dB cell off by 1e-6", (sampled, (samples, mel + cell, cep))
        yield "MFCC cell off by 1e-6", (sampled, (samples, mel, cep + 1e-6 * (np.arange(cep.size) == 7).reshape(cep.shape)))
        pcm = next(i for i, f in enumerate(features.files) if f.rate == 44100 and not f.float32)
        s, m, c = kept[pcm]
        yield "decoded PCM16 off by one LSB", (pcm, (s + (np.arange(s.size) == 10) / 32768.0, m, c))
        tone = next(i for i, f in enumerate(features.files) if f.tone_bin is not None)
        s, m, c = kept[tone]
        t = np.arange(s.size)
        yield "tone moved two bins", (tone, (0.5 * np.sin(2 * np.pi * (features.files[tone].tone_bin + 2) * t / s.size), m, c))
        yield "resampled length one short", (tone, (s[:-1], m, c))

    failures = 0

    def report(label, errors, want_errors):
        nonlocal failures
        ok = bool(errors) == want_errors
        failures += not ok
        status = "ok " if ok else "BAD"
        detail = errors[0] if errors else "check passed"
        print(f"[{status}] {label}: {detail}")

    for name, check in checks.items():
        report(f"{name} unperturbed", check(outputs[name]), want_errors=False)
    for label, change in cv_perturbations(outputs["cv"]):
        report(f"cv {label}", cv.check(apply_cv(outputs["cv"], change)), want_errors=True)
    for label, events in detect_perturbations(outputs["detect"]):
        report(f"detect {label}", detect.check(dict(outputs["detect"], events=events)), want_errors=True)
    for label, (i, value) in feature_perturbations(outputs["features"]):
        kept = dict(outputs["features"]["kept"])
        kept[i] = value
        report(f"features {label}", features.check({"kept": kept}), want_errors=True)
    cross = {"detect.chunks": {"traced": 11.0, "derived": 10}}
    report("trace count cross-check off by one", count_errors(cross), want_errors=True)
    print(f"{failures} perturbation(s) not caught" if failures else "every perturbation was caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
