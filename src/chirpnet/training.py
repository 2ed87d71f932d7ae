"""Training loop, Monte Carlo cross-validation, and evaluation.

Splits are independent stratified 80/20 resamples per fold rather than a
disjoint partition. Training pads each fold's clips with silence to the
fold's longest clip so batches are rectangular; evaluation runs each test
clip at its natural length. A master seed fans out deterministically to
per-fold split, initialization, and shuffle seeds.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .audio.clip import AudioClip
from .audio.preprocess import pad_to_length
from .dsp.features import KINDS, FeatureMatrix, Standardizer, extract_features
from .dsp.windowing import FrameParams
from .errors import CorruptionError, DivergenceError, NumericError, ParameterError, ShapeError
from .metrics import EvalReport, evaluate_predictions
from .model import FcnConfig, FcnModel, build_model
from .nn import functional as F
from .nn.optim import Adam
from .nn.tensor import Tensor, no_grad

# evaluate() forwards equal-shaped clips in stacks of at most this many input values
EVAL_BATCH_VALUES = 1 << 16
# the keys `chirpnet train` writes into a weights file's extras
_EXTRAS_KEYS = frozenset({"feature_spec", "standardizer", "cv"})


@dataclass(frozen=True)
class TrainConfig:
    epochs_max: int = 500
    batch_size: int = 80
    early_stop_patience: int = 20
    min_delta: float = 1e-4
    lr: float = 1e-3
    val_fraction: float = 0.1
    monitor_test: bool = False
    standardize: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError("batch_size must be at least 1")
        if self.early_stop_patience < 1:
            raise ParameterError("early_stop_patience must be at least 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ParameterError("val_fraction must lie in [0, 1)")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    def epochs(self) -> int:
        return len(self.train_loss)


@dataclass
class FoldReport:
    """One fold's scores plus what it trained: the model, the fold's test
    indices and the feature spec (with its standardizer) the model expects.
    Only the scores go into to_dict."""

    fold: int
    train_accuracy: float
    test_accuracy: float
    report: EvalReport
    history: TrainHistory
    stopped_epoch: int
    model: FcnModel
    test_idx: np.ndarray
    spec: FeatureSpec

    def to_dict(self) -> dict:
        d = self.report.to_dict()
        d.update(
            fold=self.fold,
            train_accuracy=self.train_accuracy,
            test_accuracy=self.test_accuracy,
            stopped_epoch=self.stopped_epoch,
        )
        return d


@dataclass
class CvSummary:
    folds: list[FoldReport]
    mean_train: float
    std_train: float
    mean_test: float
    std_test: float

    def to_dict(self) -> dict:
        return {
            "n_folds": len(self.folds),
            "mean_train": self.mean_train,
            "std_train": self.std_train,
            "mean_test": self.mean_test,
            "std_test": self.std_test,
            "fold_test_accuracies": [f.test_accuracy for f in self.folds],
        }


def summarize_folds(folds: list[FoldReport]) -> CvSummary:
    train = np.array([f.train_accuracy for f in folds])
    test = np.array([f.test_accuracy for f in folds])
    return CvSummary(
        folds=folds,
        mean_train=float(train.mean()),
        std_train=float(train.std()),
        mean_test=float(test.mean()),
        std_test=float(test.std()),
    )


# -- splitting ----------------------------------------------------------------


def monte_carlo_split(
    labels: Sequence[int],
    train_fraction: float = 0.8,
    fold_seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """One independent stratified resample into train/test index arrays.

    Every class with at least two samples lands in both sets; a singleton
    class goes to train with a warning.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError("train_fraction must lie in (0, 1)")
    arr = np.asarray(labels)
    if arr.size == 0:
        raise ParameterError("cannot split an empty dataset")
    rng = np.random.default_rng(fold_seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for cls in np.unique(arr):
        members = np.flatnonzero(arr == cls)
        if members.size == 1:
            warnings.warn(
                f"class {cls!r} has a single sample; forcing it into the training set"
            )
            train_idx.extend(members.tolist())
            continue
        n_test = int(round(members.size * (1.0 - train_fraction)))
        n_test = min(max(n_test, 1), members.size - 1)
        perm = rng.permutation(members)
        test_idx.extend(perm[:n_test].tolist())
        train_idx.extend(perm[n_test:].tolist())
    return np.sort(np.array(train_idx, dtype=np.intp)), np.sort(
        np.array(test_idx, dtype=np.intp)
    )


# -- single-model training ------------------------------------------------------


def _stack(features: list[np.ndarray]) -> np.ndarray:
    shapes = {f.shape for f in features}
    if len(shapes) != 1:
        raise ShapeError(f"training features must share one shape, got {sorted(shapes)}")
    return np.stack(features).astype(np.float32)[..., None]


def _batch_eval(model: FcnModel, x: np.ndarray, y: np.ndarray, batch_size: int):
    """Loss and accuracy over a stacked set in eval mode."""
    losses = []
    correct = 0
    with no_grad():
        for i in range(0, x.shape[0], batch_size):
            xb, yb = x[i : i + batch_size], y[i : i + batch_size]
            probs = model.forward_tensor(Tensor(xb), train_mode=False)
            loss = F.cross_entropy_mean(probs, yb)
            losses.append(float(loss.data) * xb.shape[0])
            correct += int((probs.data.argmax(axis=1) == yb).sum())
    return sum(losses) / x.shape[0], correct / x.shape[0]


def train_one(
    train_set: list[tuple[np.ndarray, int]],
    val_set: list[tuple[np.ndarray, int]],
    model: FcnModel,
    tc: TrainConfig,
) -> TrainHistory:
    """Minibatch Adam with early stopping on validation loss.

    Expects equal-shaped (bands, frames) feature arrays. Stops when the
    validation loss has not improved by min_delta for patience epochs, then
    restores the best-epoch weights. Raises DivergenceError on a non-finite
    loss, naming the epoch and batch.
    """
    if not train_set or not val_set:
        raise ParameterError("train and validation sets must be nonempty")
    x_train = _stack([f for f, _ in train_set])
    y_train = np.array([label for _, label in train_set], dtype=np.intp)
    x_val = _stack([f for f, _ in val_set])
    y_val = np.array([label for _, label in val_set], dtype=np.intp)

    seq = np.random.SeedSequence(tc.seed)
    shuffle_seq, dropout_seq = seq.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    model.set_dropout_rng(np.random.default_rng(dropout_seq))

    optimizer = Adam(model.params(), lr=tc.lr)
    history = TrainHistory()
    best_val = np.inf
    best_weights = model.state_arrays()
    epochs_since_improvement = 0

    for epoch in range(1, tc.epochs_max + 1):
        order = shuffle_rng.permutation(x_train.shape[0])
        epoch_loss = 0.0
        epoch_correct = 0
        for b, start in enumerate(range(0, order.size, tc.batch_size)):
            idx = order[start : start + tc.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            try:
                probs = model.forward_tensor(Tensor(xb), train_mode=True)
                loss = F.cross_entropy_mean(probs, yb)
            except NumericError as exc:
                raise DivergenceError(
                    f"non-finite values during training at epoch {epoch}, batch {b}: {exc}"
                ) from exc
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {b}"
                )
            optimizer.zero_grad()
            loss.backward(seed=np.asarray(1.0, dtype=loss.dtype))
            optimizer.step()
            epoch_loss += float(loss.data) * idx.size
            epoch_correct += int((probs.data.argmax(axis=1) == yb).sum())

        history.train_loss.append(epoch_loss / order.size)
        history.train_accuracy.append(epoch_correct / order.size)
        val_loss, val_acc = _batch_eval(model, x_val, y_val, tc.batch_size)
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)

        if val_loss < best_val - tc.min_delta:
            best_val = val_loss
            best_weights = model.state_arrays()
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
            if epochs_since_improvement >= tc.early_stop_patience:
                break

    model.load_state_arrays(best_weights)
    return history


def evaluate(
    model: FcnModel,
    test_set: list[tuple],
    labels: list[str],
) -> EvalReport:
    """Variable-length evaluation: each clip's features at natural length.

    Clips whose matrices share a shape are forwarded together, in stacks of
    at most EVAL_BATCH_VALUES input values.
    """
    if not test_set:
        raise ParameterError("test set is empty")
    values = [f.values if isinstance(f, FeatureMatrix) else np.asarray(f) for f, _ in test_set]
    groups: dict[tuple, list[int]] = {}
    for i, v in enumerate(values):
        if v.ndim != 2:
            raise ShapeError(f"expected a (bands, frames) matrix, got shape {v.shape}")
        groups.setdefault(v.shape, []).append(i)
    y_pred = np.empty(len(values), dtype=np.intp)
    for shape, members in groups.items():
        per_stack = max(1, EVAL_BATCH_VALUES // (shape[0] * shape[1]))
        for start in range(0, len(members), per_stack):
            part = members[start : start + per_stack]
            probs = model.forward(np.stack([values[i] for i in part]), train_mode=False)
            y_pred[part] = probs.argmax(axis=1)
    return evaluate_predictions([label for _, label in test_set], y_pred.tolist(), labels)


# -- cross-validation over audio clips ------------------------------------------


@dataclass(frozen=True)
class FeatureSpec:
    """How to turn clips into matrices for one experiment.

    A saved model's spec also carries the standardizer it was trained
    with, so every consumer of the model extracts identical features.
    """

    kind: str = "mel-db"
    n_mels: int = 128
    n_mfcc: int = 20
    preemphasis_b: float = 0.97
    frame_params: FrameParams = FrameParams()
    standardizer: Optional[Standardizer] = None

    def extract(self, clip: AudioClip) -> FeatureMatrix:
        kwargs = {"fp": self.frame_params, "n_mels": self.n_mels}
        if self.kind == "mfcc":
            kwargs.update(b=self.preemphasis_b, n_mfcc=self.n_mfcc)
        matrix = extract_features(clip, self.kind, **kwargs)
        if self.standardizer is None:
            return matrix
        return replace(matrix, values=self.standardizer.apply(matrix.values))

    def to_extras(self) -> dict:
        """The weights-file extras from_extras reads back into this spec."""
        extras = {
            "feature_spec": {
                "kind": self.kind,
                "n_mels": self.n_mels,
                "n_mfcc": self.n_mfcc,
                "preemphasis_b": self.preemphasis_b,
                "window_len": self.frame_params.window_len,
                "hop": self.frame_params.hop,
                "fft_size": self.frame_params.fft_size,
            }
        }
        if self.standardizer is not None:
            extras["standardizer"] = self.standardizer.state()
        return extras

    @classmethod
    def from_extras(cls, extras: dict) -> "FeatureSpec":
        """A saved model's feature path: its spec plus its training standardization.

        Extras keys other than feature_spec, standardizer and cv, and feature
        settings with a missing field, a field of the wrong type, an invalid
        frame geometry or an unknown kind raise CorruptionError.
        """
        unknown = sorted(set(extras) - _EXTRAS_KEYS)
        if unknown:
            raise CorruptionError(f"weights extras have unknown keys {unknown}")
        stored = extras.get("feature_spec")
        if stored is None:
            warnings.warn("weights file carries no feature settings; assuming defaults")
            spec = cls()
        else:
            try:
                spec = cls.from_dict(stored)
            except (KeyError, TypeError, ParameterError) as exc:
                raise CorruptionError(
                    f"unreadable feature settings: {type(exc).__name__}: {exc}"
                ) from exc
            if spec.kind not in KINDS:
                raise CorruptionError(f"feature settings name an unknown kind {spec.kind!r}")
        state = extras.get("standardizer")
        if state is not None:
            spec = replace(spec, standardizer=Standardizer.from_state(state))
        return spec

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        return cls(
            kind=d["kind"],
            n_mels=d["n_mels"],
            n_mfcc=d["n_mfcc"],
            preemphasis_b=d["preemphasis_b"],
            frame_params=FrameParams(
                window_len=d["window_len"], hop=d["hop"], fft_size=d["fft_size"]
            ),
        )


def _fold_seeds(master_seed: int, n_folds: int) -> list[tuple[int, int, int]]:
    """Per-fold (split, init, train) seeds fanned out from the master seed."""
    seq = np.random.SeedSequence(master_seed)
    out = []
    for fold_seq in seq.spawn(n_folds):
        split_s, init_s, train_s = fold_seq.generate_state(3).tolist()
        out.append((split_s, init_s, train_s))
    return out


def _prepare_fold_features(
    clips: list[AudioClip],
    labels: list[int],
    idx: np.ndarray,
    spec: FeatureSpec,
) -> list[tuple[np.ndarray, int]]:
    """Pad the selected clips to their max length, then extract features."""
    max_len = max(len(clips[i]) for i in idx)
    out = []
    for i in idx:
        padded = pad_to_length(clips[i], max_len)
        out.append((spec.extract(padded).values, labels[i]))
    return out


def run_fold(
    fold: int,
    clips: list[AudioClip],
    labels: list[int],
    label_set: list[str],
    config: FcnConfig,
    tc: TrainConfig,
    spec: FeatureSpec,
    seeds: tuple[int, int, int],
) -> FoldReport:
    """Train and evaluate one Monte Carlo fold.

    With tc.standardize, the per-band statistics fit on the padded fit set
    join the fold's spec, so the test and train-eval sets are extracted by
    the same call a loaded model's spec makes.
    """
    split_seed, init_seed, train_seed = seeds
    train_idx, test_idx = monte_carlo_split(labels, fold_seed=split_seed)

    if tc.monitor_test:
        fit_idx = train_idx
        val_idx = test_idx
    else:
        carve_labels = [labels[i] for i in train_idx]
        sub_train, sub_val = monte_carlo_split(
            carve_labels, train_fraction=1.0 - tc.val_fraction, fold_seed=split_seed + 1
        )
        fit_idx, val_idx = train_idx[sub_train], train_idx[sub_val]

    pad_idx = np.concatenate([fit_idx, val_idx])
    padded = _prepare_fold_features(clips, labels, pad_idx, spec)
    fit_set = padded[: fit_idx.size]
    val_set = padded[fit_idx.size :]
    fold_spec = spec
    if tc.standardize:
        standardizer = Standardizer().fit(f for f, _ in fit_set)
        fit_set, val_set = (
            [(standardizer.apply(f), label) for f, label in s] for s in (fit_set, val_set)
        )
        fold_spec = replace(spec, standardizer=standardizer)
    test_set = [(fold_spec.extract(clips[i]).values, labels[i]) for i in test_idx]
    train_eval = [(fold_spec.extract(clips[i]).values, labels[i]) for i in train_idx]

    model = build_model(config, label_set, seed=init_seed)
    history = train_one(fit_set, val_set, model, replace(tc, seed=train_seed))
    report = evaluate(model, test_set, label_set)
    train_report = evaluate(model, train_eval, label_set)

    return FoldReport(
        fold=fold,
        train_accuracy=train_report.accuracy,
        test_accuracy=report.accuracy,
        report=report,
        history=history,
        stopped_epoch=history.epochs(),
        model=model,
        test_idx=test_idx,
        spec=fold_spec,
    )


def cross_validate(
    clips: list[AudioClip],
    labels: list[int],
    label_set: list[str],
    config: FcnConfig,
    tc: TrainConfig,
    n_folds: int = 10,
    spec: FeatureSpec = FeatureSpec(),
    jobs: int = 1,
) -> CvSummary:
    """n_folds independent splits, a fresh model per fold, mean/std summary.

    Each fold's report keeps its trained model, test indices and feature
    spec, so summary.folds[-1] is ready to save or reuse.
    """
    if len(clips) != len(labels):
        raise ParameterError("clips and labels differ in length")
    seeds = _fold_seeds(tc.seed, n_folds)
    shared = (clips, labels, label_set, config, tc, spec)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run_fold, range(n_folds), *map(repeat, shared), seeds))
    else:
        reports = [run_fold(fold, *shared, seeds[fold]) for fold in range(n_folds)]
    return summarize_folds(reports)
