"""Experiment harnesses: architecture grid search, duration study, k-NN baseline."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from .audio.clip import AudioClip
from .audio.preprocess import cap_duration
from .errors import ParameterError
from .model import FcnConfig, FcnModel, grid_widths
from .training import FeatureSpec, TrainConfig, cross_validate

GRID_DESCRIPTORS = ("mel-db", "mfcc")


@dataclass
class CellResult:
    depth: int
    width: int
    activation: str
    descriptor: str
    mean_train: float
    mean_test: float
    std_test: float
    param_total: int
    error: str | None = None

    @property
    def key(self) -> str:
        return cell_key(self.depth, self.width, self.activation, self.descriptor)

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "width": self.width,
            "activation": self.activation,
            "descriptor": self.descriptor,
            "mean_train": self.mean_train,
            "mean_test": self.mean_test,
            "std_test": self.std_test,
            "param_total": self.param_total,
            "error": self.error,
        }


@dataclass
class GridResult:
    cells: list[CellResult] = field(default_factory=list)
    cells_trained: int = 0

    def best(self) -> CellResult:
        """Highest mean test accuracy; ties go to the smaller model."""
        ok = [c for c in self.cells if c.error is None]
        if not ok:
            raise ParameterError("no grid cell completed successfully")
        return max(ok, key=lambda c: (c.mean_test, -c.param_total))

    def to_dict(self) -> dict:
        return {"cells": [c.to_dict() for c in self.cells], "cells_trained": self.cells_trained}


def cell_key(depth: int, width: int, activation: str, descriptor: str) -> str:
    return f"d{depth}-w{width}-{activation}-{descriptor}"


def _count_params(config: FcnConfig, label_set: list[str]) -> int:
    from .model import build_model, param_count

    return param_count(build_model(config, label_set, seed=0))


def grid_search(
    clips: list[AudioClip],
    labels: list[int],
    label_set: list[str],
    tc: TrainConfig,
    depths: tuple[int, ...] = (3, 4, 6),
    widths: tuple[int, ...] = (100, 250, 400),
    activations: tuple[str, ...] = ("relu", "tanh", "adaptive"),
    descriptors: tuple[str, ...] = GRID_DESCRIPTORS,
    checkpoint_dir=None,
    n_folds: int = 10,
    spec: FeatureSpec = FeatureSpec(),
    jobs: int = 1,
) -> GridResult:
    """Cross-validate every (depth, width, activation, descriptor) cell.

    Each finished cell is written to checkpoint_dir/<key>.json immediately,
    and existing records are loaded instead of recomputed, so an
    interrupted sweep resumes where it stopped. A failing cell is recorded
    with its error and the sweep continues.
    """
    ckpt = Path(checkpoint_dir) if checkpoint_dir else None
    if ckpt:
        ckpt.mkdir(parents=True, exist_ok=True)
    result = GridResult()
    n_classes = len(label_set)
    for depth, width, activation, descriptor in product(
        depths, widths, activations, descriptors
    ):
        key = cell_key(depth, width, activation, descriptor)
        record_path = ckpt / f"{key}.json" if ckpt else None
        if record_path and record_path.exists():
            result.cells.append(CellResult(**json.loads(record_path.read_text())))
            continue
        cell_spec = replace(spec, kind=descriptor)
        try:
            config = FcnConfig(
                depth=depth,
                widths=grid_widths(depth, width, n_classes),
                activation=activation,
                n_classes=n_classes,
            )
            summary = cross_validate(
                clips, labels, label_set, config, tc,
                n_folds=n_folds, spec=cell_spec, jobs=jobs,
            )
            cell = CellResult(
                depth=depth,
                width=width,
                activation=activation,
                descriptor=descriptor,
                mean_train=summary.mean_train,
                mean_test=summary.mean_test,
                std_test=summary.std_test,
                param_total=_count_params(config, label_set),
            )
            result.cells_trained += 1
        except Exception as exc:  # record and continue the sweep
            cell = CellResult(
                depth=depth,
                width=width,
                activation=activation,
                descriptor=descriptor,
                mean_train=0.0,
                mean_test=0.0,
                std_test=0.0,
                param_total=0,
                error=f"{type(exc).__name__}: {exc}",
            )
        result.cells.append(cell)
        if record_path:
            record_path.write_text(json.dumps(cell.to_dict(), indent=1))
    return result


def duration_study(
    model: FcnModel,
    labeled_clips: list[tuple[AudioClip, int]],
    durations: tuple[float, ...] = (1, 3, 5, 7, 10, 15, 20),
    spec: FeatureSpec = FeatureSpec(),
) -> dict[float, float]:
    """Accuracy when each test clip is truncated to the given durations.

    Clips shorter than a duration are used whole. Durations too short for
    the model's minimum frame count are skipped with a warning.
    """
    if not labeled_clips:
        raise ParameterError("no clips to evaluate")
    out: dict[float, float] = {}
    for duration in durations:
        sr = labeled_clips[0][0].sample_rate
        needed = spec.frame_params.min_samples(model.min_frames)
        if duration * sr < needed:
            warnings.warn(
                f"duration {duration}s holds fewer than {model.min_frames} frames; skipped"
            )
            continue
        hits = 0
        for clip, label in labeled_clips:
            short = cap_duration(clip, duration)
            pred = int(model.forward(spec.extract(short)).argmax())
            hits += int(pred == label)
        out[float(duration)] = hits / len(labeled_clips)
    return out


def clip_descriptor(clip_or_features, spec: FeatureSpec = FeatureSpec()) -> np.ndarray:
    """Whole-clip vector: the time average of the feature columns."""
    if isinstance(clip_or_features, AudioClip):
        mat = spec.extract(clip_or_features).values
    else:
        mat = np.asarray(clip_or_features)
    return mat.mean(axis=1)


def knn_baseline(
    train_set: list[tuple[np.ndarray, int]],
    test_set: list[tuple[np.ndarray, int]],
    k: int = 5,
) -> float:
    """Euclidean k-nearest-neighbour accuracy on clip descriptor vectors.

    Majority vote over the k nearest; a tied vote goes to the tied class
    whose member sits nearest.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    if k > len(train_set):
        raise ParameterError(f"k={k} exceeds the {len(train_set)} training samples")
    if not test_set:
        raise ParameterError("test set is empty")
    train_x = np.stack([v for v, _ in train_set])
    train_y = np.array([label for _, label in train_set])
    hits = 0
    for vec, label in test_set:
        d = np.linalg.norm(train_x - vec, axis=1)
        nearest = np.argsort(d, kind="stable")[:k]
        votes = train_y[nearest]
        counts = np.bincount(votes)
        top = counts.max()
        tied = np.flatnonzero(counts == top)
        if tied.size == 1:
            pred = int(tied[0])
        else:
            pred = next(int(train_y[i]) for i in nearest if train_y[i] in tied)
        hits += int(pred == label)
    return hits / len(test_set)
