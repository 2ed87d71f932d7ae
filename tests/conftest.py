"""Shared fixtures. The small two-class model is session-scoped because
several detection and experiment tests reuse it."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from chirpnet.model import FcnConfig, build_model
from chirpnet.synth import make_clip
from chirpnet.training import FeatureSpec, TrainConfig, train_one

# Hypothesis caches the literals of local modules in its storage directory,
# even with database=None; keep that cache out of the working tree.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", str(Path(tempfile.gettempdir()) / "chirpnet-hypothesis")
)


@pytest.fixture(scope="session")
def desk_spec():
    return FeatureSpec(kind="mel-db", n_mels=32)


@pytest.fixture(scope="session")
def tone_model(desk_spec):
    """Quick two-class tone classifier for the detection mechanics."""
    label_set = ["tone-low", "tone-high"]
    rng = np.random.default_rng(99)
    clips = []
    labels = []
    for idx, kind in enumerate(label_set):
        for _ in range(14):
            clips.append(make_clip(kind, duration=1.0, rng=rng))
            labels.append(idx)
    features = [(desk_spec.extract(c).values, y) for c, y in zip(clips, labels)]
    train_set = features[:10] + features[14:24]
    val_set = features[10:14] + features[24:]
    config = FcnConfig(depth=4, widths=(8, 16, 8, 2), activation="adaptive",
                       n_classes=2, enforce_grid=False)
    model = build_model(config, label_set, seed=3)
    tc = TrainConfig(epochs_max=50, batch_size=8, early_stop_patience=10, seed=5)
    train_one(train_set, val_set, model, tc)
    return model
