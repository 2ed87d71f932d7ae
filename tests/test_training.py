"""Splitting, the training loop, and cross-validation plumbing."""

from dataclasses import replace

import numpy as np
import pytest

from chirpnet import training
from chirpnet.dsp.features import Standardizer
from chirpnet.dsp.windowing import FrameParams
from chirpnet.errors import DivergenceError, ParameterError, ShapeError
from chirpnet.model import FcnConfig, build_model
from chirpnet.nn import functional as F
from chirpnet.synth import make_desk_dataset
from chirpnet.training import (
    CvSummary,
    FeatureSpec,
    TrainConfig,
    cross_validate,
    evaluate,
    monte_carlo_split,
    train_one,
)

TINY_CONFIG = FcnConfig(
    depth=3, widths=(4, 4, 2), activation="tanh", n_classes=2, enforce_grid=False
)
DESK_MODEL = FcnConfig(
    depth=4, widths=(8, 16, 8, 4), activation="adaptive", n_classes=4, enforce_grid=False
)


def blob_features(label, rng, bands=8, frames=8):
    """Class 0 lights the top half, class 1 the bottom half."""
    x = rng.normal(0.0, 0.3, size=(bands, frames))
    if label == 0:
        x[: bands // 2] += 2.0
    else:
        x[bands // 2 :] += 2.0
    return x.astype(np.float64)


def blob_sets(rng, n_train=12, n_val=4):
    train = [(blob_features(i % 2, rng), i % 2) for i in range(n_train)]
    val = [(blob_features(i % 2, rng), i % 2) for i in range(n_val)]
    return train, val


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParameterError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ParameterError, match="patience"):
            TrainConfig(early_stop_patience=0)
        with pytest.raises(ParameterError, match="val_fraction"):
            TrainConfig(val_fraction=1.0)


class TestMonteCarloSplit:
    def test_partitions_all_indices(self):
        labels = [0] * 10 + [1] * 10
        train, test = monte_carlo_split(labels, fold_seed=3)
        merged = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(merged, np.arange(20))

    def test_stratified_counts(self):
        labels = [0] * 10 + [1] * 20
        train, test = monte_carlo_split(labels, train_fraction=0.8, fold_seed=1)
        arr = np.array(labels)
        assert (arr[test] == 0).sum() == 2
        assert (arr[test] == 1).sum() == 4

    def test_small_class_keeps_one_each_side(self):
        labels = [0, 0, 1] * 1 + [1]  # two classes of two
        train, test = monte_carlo_split([0, 0, 1, 1], train_fraction=0.99, fold_seed=0)
        arr = np.array([0, 0, 1, 1])
        for cls in (0, 1):
            assert (arr[train] == cls).sum() == 1
            assert (arr[test] == cls).sum() == 1

    def test_singleton_class_warns_into_train(self):
        with pytest.warns(UserWarning, match="single sample"):
            train, test = monte_carlo_split([0, 0, 0, 0, 1], fold_seed=0)
        assert 4 in train
        assert 4 not in test

    def test_seed_determinism(self):
        labels = [0] * 8 + [1] * 8
        a = monte_carlo_split(labels, fold_seed=5)
        b = monte_carlo_split(labels, fold_seed=5)
        c = monte_carlo_split(labels, fold_seed=6)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_fraction_validation(self):
        with pytest.raises(ParameterError, match="train_fraction"):
            monte_carlo_split([0, 1], train_fraction=1.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            monte_carlo_split([])


class TestTrainOne:
    def test_learns_separable_blobs(self):
        rng = np.random.default_rng(11)
        train, val = blob_sets(rng)
        model = build_model(TINY_CONFIG, ["top", "bottom"], seed=1)
        tc = TrainConfig(epochs_max=30, batch_size=4, early_stop_patience=30, seed=2)
        history = train_one(train, val, model, tc)
        assert history.epochs() >= 1
        assert history.train_accuracy[-1] >= 0.9
        assert len(history.val_loss) == history.epochs()

    def test_early_stopping_and_restore(self):
        rng = np.random.default_rng(12)
        train, val = blob_sets(rng)
        # half the validation labels are wrong, so val loss bottoms out and
        # climbs once the model commits to the blobs
        val = [(f, 1 - y) if i % 2 else (f, y) for i, (f, y) in enumerate(val)]
        model = build_model(TINY_CONFIG, ["top", "bottom"], seed=1)
        tc = TrainConfig(epochs_max=200, batch_size=4, early_stop_patience=3, seed=2)
        history = train_one(val_set=val, train_set=train, model=model, tc=tc)
        assert history.epochs() < 200
        # restored weights reproduce the best recorded validation loss
        losses = []
        for f, label in val:
            probs = model.forward(f)
            losses.append(-np.log(max(probs[label], 1e-12)))
        best = min(history.val_loss)
        assert best - 1e-5 <= np.mean(losses) <= best + tc.min_delta + 1e-5

    def test_divergence_reported_with_location(self):
        rng = np.random.default_rng(13)
        train, val = blob_sets(rng, n_train=4, n_val=2)
        train[0] = (np.full_like(train[0][0], np.inf), train[0][1])
        model = build_model(TINY_CONFIG, ["top", "bottom"], seed=1)
        tc = TrainConfig(epochs_max=5, batch_size=4, early_stop_patience=5, seed=2)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch 1, batch \d"):
                train_one(train, val, model, tc)

    def test_nonfinite_gradient_reported_with_location(self, monkeypatch):
        """An inf that only the backward pass makes reaches Adam's check and
        still names its epoch and batch."""
        real_gap = F.global_avg_pool
        calls = []

        def gap_with_inf_in_backward(x):
            out = real_gap(x)
            backward = out._backward_fn
            if backward is None:
                return out

            def poisoned(g):
                calls.append(1)
                if len(calls) == 5:  # epoch 2, batch 1 of 3
                    g = g.copy()
                    g[0, 0] = np.inf
                backward(g)

            out._backward_fn = poisoned
            return out

        monkeypatch.setattr(F, "global_avg_pool", gap_with_inf_in_backward)
        rng = np.random.default_rng(13)
        train, val = blob_sets(rng, n_train=12, n_val=2)
        model = build_model(TINY_CONFIG, ["top", "bottom"], seed=1)
        tc = TrainConfig(epochs_max=5, batch_size=4, early_stop_patience=5, seed=2)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(
                DivergenceError, match=r"epoch 2, batch 1: non-finite gradient"
            ):
                train_one(train, val, model, tc)

    def test_empty_sets_rejected(self):
        model = build_model(TINY_CONFIG, ["top", "bottom"], seed=1)
        tc = TrainConfig(epochs_max=5, batch_size=4)
        with pytest.raises(ParameterError, match="nonempty"):
            train_one([], [(np.zeros((8, 8)), 0)], model, tc)

    def test_mixed_shapes_rejected(self):
        model = build_model(TINY_CONFIG, ["top", "bottom"], seed=1)
        tc = TrainConfig(epochs_max=5, batch_size=4)
        train = [(np.zeros((8, 8)), 0), (np.zeros((8, 9)), 1)]
        with pytest.raises(ShapeError, match="share one shape"):
            train_one(train, [(np.zeros((8, 8)), 0)], model, tc)

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(14)
        train, val = blob_sets(rng, n_train=8, n_val=2)
        tc = TrainConfig(epochs_max=5, batch_size=4, early_stop_patience=5, seed=9)
        runs = []
        for _ in range(2):
            model = build_model(TINY_CONFIG, ["top", "bottom"], seed=3)
            history = train_one(train, val, model, tc)
            runs.append((history.train_loss, model.state_arrays()))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)


class _FirstCellOracle:
    """Stub classifier: reads the class index planted in each matrix's [0, 0]."""

    def __init__(self, n_classes):
        self.n_classes = n_classes

    def forward(self, features, train_mode=False):
        stack = np.asarray(features).reshape(-1, *np.shape(features)[-2:])
        probs = np.zeros((len(stack), self.n_classes))
        probs[np.arange(len(stack)), stack[:, 0, 0].astype(int) % self.n_classes] = 1.0
        return probs if np.ndim(features) == 3 else probs[0]


class TestEvaluate:
    def test_perfect_stub(self):
        test_set = [(np.full((4, 4), c, dtype=float), c) for c in (0, 1, 2, 0)]
        report = evaluate(_FirstCellOracle(3), test_set, ["a", "b", "c"])
        assert report.accuracy == 1.0
        assert report.n_samples == 4

    def test_partial_stub(self):
        test_set = [
            (np.full((4, 4), 0.0), 0),
            (np.full((4, 4), 1.0), 0),
            (np.full((4, 4), 1.0), 1),
        ]
        report = evaluate(_FirstCellOracle(2), test_set, ["a", "b"])
        assert report.accuracy == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            evaluate(_FirstCellOracle(2), [], ["a", "b"])

    @pytest.mark.parametrize("batch_values", [1, 3 * 32 * 40, 1 << 16])
    def test_stacks_equal_clip_by_clip(self, monkeypatch, batch_values):
        """Grouping equal shapes into stacks changes no prediction: clips of
        three lengths, interleaved, in stacks of 1, 3 or all of a shape."""
        monkeypatch.setattr(training, "EVAL_BATCH_VALUES", batch_values)
        model = build_model(DESK_MODEL, list("abcd"), seed=4)
        rng = np.random.default_rng(8)
        test_set = [(rng.normal(size=(32, (40, 57, 199)[i % 3])), i % 4) for i in range(14)]
        report = evaluate(model, test_set, list("abcd"))
        one_by_one = [int(model.forward(f).argmax()) for f, _ in test_set]
        want = training.evaluate_predictions([y for _, y in test_set], one_by_one, list("abcd"))
        np.testing.assert_array_equal(report.confusion, want.confusion)
        assert report.accuracy == want.accuracy

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ShapeError, match="matrix"):
            evaluate(_FirstCellOracle(2), [(np.zeros(16), 0)], ["a", "b"])


class TestFeatureSpec:
    def test_dict_round_trip(self):
        spec = FeatureSpec(
            kind="mfcc",
            n_mels=26,
            n_mfcc=13,
            preemphasis_b=0.95,
            frame_params=FrameParams(window_len=400, hop=160, fft_size=512),
        )
        assert FeatureSpec.from_extras(spec.to_extras()) == spec
        fitted = Standardizer().fit([np.arange(26 * 5, dtype=float).reshape(26, 5)])
        back = FeatureSpec.from_extras(replace(spec, standardizer=fitted).to_extras())
        assert replace(back, standardizer=None) == spec
        np.testing.assert_array_equal(back.standardizer.mean, fitted.mean)
        np.testing.assert_array_equal(back.standardizer.std, fitted.std)

    def test_extract_band_counts(self):
        clips, _, _ = make_desk_dataset(n_per_class=1, duration=0.3, seed=0)
        clip = clips[0]
        mel = FeatureSpec(kind="mel-db", n_mels=24).extract(clip)
        assert mel.values.shape[0] == 24
        cep = FeatureSpec(kind="mfcc", n_mels=26, n_mfcc=13).extract(clip)
        assert cep.values.shape[0] == 13


class TestCrossValidate:
    def dataset(self):
        clips, labels, _ = make_desk_dataset(n_per_class=6, duration=0.3, seed=4)
        # keep only the two tone classes for speed
        keep = [i for i, y in enumerate(labels) if y < 2]
        return [clips[i] for i in keep], [labels[i] for i in keep], ["tone-low", "tone-high"]

    def tc(self):
        return TrainConfig(
            epochs_max=3, batch_size=4, early_stop_patience=3, val_fraction=0.2, seed=0
        )

    def test_summary_shape(self):
        clips, labels, names = self.dataset()
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        summary = cross_validate(
            clips, labels, names, TINY_CONFIG, self.tc(), n_folds=2, spec=spec
        )
        assert isinstance(summary, CvSummary)
        assert len(summary.folds) == 2
        accs = [f.test_accuracy for f in summary.folds]
        assert summary.mean_test == pytest.approx(np.mean(accs))
        assert summary.std_test == pytest.approx(np.std(accs))
        d = summary.to_dict()
        assert d["n_folds"] == 2
        assert d["fold_test_accuracies"] == accs

    def test_keep_last_model(self):
        """Each fold keeps its model and test indices; to_dict leaves them out."""
        clips, labels, names = self.dataset()
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        summary = cross_validate(
            clips, labels, names, TINY_CONFIG, self.tc(), n_folds=2, spec=spec,
        )
        last = summary.folds[-1]
        model, test_idx, standardizer = last.model, last.test_idx, last.spec.standardizer
        assert model.label_set == names
        assert test_idx.size > 0
        assert test_idx.max() < len(clips)
        assert standardizer is None
        assert last.spec == spec
        assert not {"model", "test_idx", "spec"} & set(last.to_dict())

    def test_keep_last_model_returns_fold_statistics(self):
        """With standardize, each fold's spec carries the statistics fit on its fit set."""
        clips, labels, names = self.dataset()
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        tc = replace(self.tc(), standardize=True)
        summary = cross_validate(clips, labels, names, TINY_CONFIG, tc, n_folds=2, spec=spec)
        standardizer = summary.folds[-1].spec.standardizer
        assert standardizer.mean.shape == standardizer.std.shape == (16,)
        assert summary.folds[0].spec.standardizer is not standardizer
        assert summary.to_dict() == cross_validate(
            clips, labels, names, TINY_CONFIG, tc, n_folds=2, spec=spec
        ).to_dict()

    def test_deterministic_across_runs(self):
        clips, labels, names = self.dataset()
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        a = cross_validate(clips, labels, names, TINY_CONFIG, self.tc(), n_folds=2, spec=spec)
        b = cross_validate(clips, labels, names, TINY_CONFIG, self.tc(), n_folds=2, spec=spec)
        assert a.to_dict() == b.to_dict()

    def test_monitor_test_variant_runs(self):
        clips, labels, names = self.dataset()
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        tc = TrainConfig(
            epochs_max=2, batch_size=4, early_stop_patience=2, monitor_test=True, seed=0
        )
        summary = cross_validate(clips, labels, names, TINY_CONFIG, tc, n_folds=2, spec=spec)
        assert len(summary.folds) == 2

    def test_standardize_variant_runs(self):
        clips, labels, names = self.dataset()
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        tc = TrainConfig(
            epochs_max=2, batch_size=4, early_stop_patience=2, standardize=True, seed=0
        )
        summary = cross_validate(clips, labels, names, TINY_CONFIG, tc, n_folds=2, spec=spec)
        assert len(summary.folds) == 2

    def test_length_mismatch_rejected(self):
        clips, labels, names = self.dataset()
        with pytest.raises(ParameterError, match="differ"):
            cross_validate(clips, labels[:-1], names, TINY_CONFIG, self.tc(), n_folds=2)

    def test_parallel_matches_serial(self):
        clips, labels, names = self.dataset()
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        serial = cross_validate(
            clips, labels, names, TINY_CONFIG, self.tc(), n_folds=2, spec=spec
        )
        parallel = cross_validate(
            clips, labels, names, TINY_CONFIG, self.tc(), n_folds=2, spec=spec, jobs=2
        )
        assert serial.to_dict() == parallel.to_dict()

    def test_parallel_last_model_comes_from_its_worker(self, monkeypatch):
        """jobs=2 trains no fold in the parent and returns the worker's model."""
        clips, labels, names = self.dataset()
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        tc = replace(self.tc(), standardize=True)
        serial = cross_validate(
            clips, labels, names, TINY_CONFIG, tc, n_folds=2, spec=spec,
        ).folds[-1]
        serial_model, serial_idx, serial_std = serial.model, serial.test_idx, serial.spec.standardizer
        parent_calls = []  # workers append to their own copies

        def counting_train_one(*args, **kwargs):
            parent_calls.append(1)
            return original(*args, **kwargs)

        original = training.train_one
        monkeypatch.setattr(training, "train_one", counting_train_one)
        last = cross_validate(
            clips, labels, names, TINY_CONFIG, tc, n_folds=2, spec=spec, jobs=2,
        ).folds[-1]
        model, test_idx, std = last.model, last.test_idx, last.spec.standardizer
        assert parent_calls == []
        np.testing.assert_array_equal(test_idx, serial_idx)
        for a, b in zip(serial_model.state_arrays(), model.state_arrays()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(std.mean, serial_std.mean)
        np.testing.assert_array_equal(std.std, serial_std.std)
