"""Network assembly: configuration, forward passes, counting, persistence.

The gap-head network is a stack of 3x3 same-padding conv blocks, a final
1x1 projection conv, global average pooling, dropout on the pooled vector,
and softmax. A block runs conv -> 2x2 maxpool -> activation while its
activation is monotone non-decreasing (relu, tanh, and the adaptive
activation while n * a > 0): then max(f(x)) == f(max(x)) exactly and f runs
on a quarter of the elements. Otherwise it runs the generic order conv ->
activation -> 2x2 maxpool.

Because every learnable layer is convolutional and the pooled vector's size
depends only on channel count, one trained model classifies inputs of any
frame count above a small minimum. The dense-head variant swaps global
pooling for flatten + a fully connected layer, which locks the input size;
it exists to demonstrate that restriction.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .dsp.features import FeatureMatrix
from .errors import (
    ConfigError,
    CorruptionError,
    DegenerateInputError,
    FormatError,
    ShapeError,
)
from .nn import functional as F
from .nn.layers import (
    Activation,
    AdaptiveActivation,
    Conv2d,
    Dense,
    Dropout,
)
from .nn.tensor import Tensor, no_grad

GRID_DEPTHS = (3, 4, 6)
GRID_WIDTHS = (100, 250, 400)
GRID_ACTIVATIONS = ("relu", "tanh", "adaptive")

# Deployment budget the canonical stack is measured against; the report
# flags configurations that exceed it.
LIGHTWEIGHT_PARAM_BUDGET = 500_000

_MAGIC = b"FCNW"
# version 2 appends a CRC-32 of everything before it; version 1 files still load
_VERSION = 2
_HEADER_KEYS = frozenset({"config", "fixed_shape", "params", "extras"})


def grid_widths(depth: int, widest: int, n_classes: int) -> tuple[int, ...]:
    """Per-layer filter counts for a grid cell: the widest count is given,
    flanking blocks get a quarter of it, and the last entry is always the
    class-projection width."""
    quarter = round(widest / 4)
    if depth == 3:
        return (widest, widest, n_classes)
    if depth == 4:
        return (quarter, widest, quarter, n_classes)
    if depth == 6:
        return (quarter, quarter, widest, quarter, quarter, n_classes)
    raise ConfigError(f"depth must be one of {GRID_DEPTHS}, got {depth}")


@dataclass(frozen=True)
class FcnConfig:
    depth: int = 4
    widths: tuple[int, ...] = (100, 400, 100, 17)
    activation: str = "adaptive"
    n_classes: int = 17
    dropout_rate: float = 0.4
    head: str = "gap"
    enforce_grid: bool = True

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.head not in ("gap", "dense"):
            raise ConfigError(f"head must be 'gap' or 'dense', got {self.head!r}")
        if self.activation not in GRID_ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {GRID_ACTIVATIONS}, got {self.activation!r}"
            )
        if len(self.widths) != self.depth:
            raise ConfigError(
                f"widths {self.widths} has {len(self.widths)} entries, depth is {self.depth}"
            )
        if self.widths[-1] != self.n_classes:
            raise ConfigError(
                f"final width {self.widths[-1]} must equal n_classes {self.n_classes}"
            )
        if any(w < 1 for w in self.widths):
            raise ConfigError("widths must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.enforce_grid:
            if self.depth not in GRID_DEPTHS:
                raise ConfigError(f"depth must be one of {GRID_DEPTHS}, got {self.depth}")
            allowed = {grid_widths(self.depth, w, self.n_classes) for w in GRID_WIDTHS}
            if self.widths not in allowed:
                raise ConfigError(
                    f"widths {self.widths} not in the supported family "
                    f"{sorted(allowed)}; pass enforce_grid=False for experimental shapes"
                )

    @property
    def min_frames(self) -> int:
        """Smallest frame count that survives the pooling halvings."""
        return 2 ** (self.depth - 1)


def canonical_config(n_classes: int = 17, activation: str = "adaptive") -> FcnConfig:
    """The published architecture: depth 4, widths (100, 400, 100, classes)."""
    return FcnConfig(
        depth=4,
        widths=(100, 400, 100, n_classes),
        activation=activation,
        n_classes=n_classes,
    )


def _make_activation(kind: str):
    if kind == "adaptive":
        return AdaptiveActivation()
    return Activation(kind)


class FcnModel:
    """Ordered layer stack with its configuration and label ordering."""

    def __init__(
        self,
        config: FcnConfig,
        label_set: list[str],
        seed: Optional[int] = None,
        fixed_shape: Optional[tuple[int, int]] = None,
    ):
        if len(label_set) != config.n_classes:
            raise ConfigError(
                f"label set has {len(label_set)} names, config expects {config.n_classes}"
            )
        if config.head == "dense":
            if fixed_shape is None:
                raise ConfigError("dense head requires fixed_shape=(bands, frames)")
            if min(fixed_shape) < config.min_frames:
                raise ConfigError(
                    f"fixed_shape {fixed_shape} too small for {config.depth - 1} poolings"
                )
        self.config = config
        self.label_set = list(label_set)
        self.fixed_shape = fixed_shape
        rng = np.random.default_rng(seed)

        self.convs: list[Conv2d] = []
        self.activations = []
        in_ch = 1
        for width in config.widths[:-1]:
            self.convs.append(Conv2d(in_ch, width, kernel_size=3, rng=rng))
            self.activations.append(_make_activation(config.activation))
            in_ch = width
        self.convs.append(Conv2d(in_ch, config.n_classes, kernel_size=1, rng=rng))
        self.dropout = Dropout(config.dropout_rate, rng=np.random.default_rng(rng.integers(2**32)))
        self.dense: Optional[Dense] = None
        if config.head == "dense":
            bands, frames = fixed_shape
            pools = config.depth - 1
            flat = (bands >> pools) * (frames >> pools) * config.n_classes
            self.dense = Dense(flat, config.n_classes, rng=rng)

    # -- shape bookkeeping -------------------------------------------------

    @property
    def min_frames(self) -> int:
        return self.config.min_frames

    def _check_input(self, bands: int, frames: int) -> None:
        if self.config.head == "dense":
            if (bands, frames) != self.fixed_shape:
                raise ShapeError(
                    f"dense-head model accepts exactly {self.fixed_shape}, got "
                    f"({bands}, {frames})"
                )
            return
        if frames < self.min_frames:
            raise DegenerateInputError(
                f"input has {frames} frames; this model needs at least "
                f"{self.min_frames} (min_frames) to survive pooling"
            )
        if bands < self.min_frames:
            raise DegenerateInputError(
                f"input has {bands} bands; this model needs at least "
                f"{self.min_frames} to survive pooling"
            )

    # -- forward -----------------------------------------------------------

    def forward_tensor(self, x: Tensor, train_mode: bool = False) -> Tensor:
        """Probabilities for a (B, bands, frames, 1) or (bands, frames, 1) tensor."""
        shape = x.shape
        bands, frames = (shape[1], shape[2]) if len(shape) == 4 else (shape[0], shape[1])
        self._check_input(bands, frames)
        self.dropout.train_mode = train_mode
        h = x
        last = len(self.convs) - 1
        for i, conv in enumerate(self.convs):
            h = conv(h)
            if i < last:
                act = self.activations[i]
                if act.monotone:
                    # max(f(x)) == f(max(x)) for non-decreasing f; f then runs on a quarter
                    h = act(F.maxpool2(h))
                else:
                    h = F.maxpool2(act(h))
        if self.config.head == "gap":
            h = F.global_avg_pool(h)
            h = self.dropout(h)
        else:
            h = F.flatten(h)
            h = self.dropout(h)
            h = self.dense(h)
        return F.softmax(h)

    def forward(self, features, train_mode: bool = False) -> np.ndarray:
        """Probabilities for one (bands, frames) feature matrix, or (B, C) for a
        (B, bands, frames) stack of them, computed under no_grad (no graph)."""
        values = features.values if isinstance(features, FeatureMatrix) else np.asarray(features)
        if values.ndim not in (2, 3):
            raise ShapeError(
                f"expected a (bands, frames) matrix or a stack of them, got shape {values.shape}"
            )
        x = Tensor(values.astype(np.float32)[..., None])
        with no_grad():
            return self.forward_tensor(x, train_mode=train_mode).data

    # -- parameters ----------------------------------------------------------

    def params(self) -> list[Tensor]:
        out = []
        for i, conv in enumerate(self.convs):
            out.extend(conv.params())
            if i < len(self.activations):
                out.extend(self.activations[i].params())
        if self.dense is not None:
            out.extend(self.dense.params())
        return out

    def param_names(self) -> list[str]:
        names = []
        for i, conv in enumerate(self.convs):
            names += [f"conv{i}.kernels", f"conv{i}.bias"]
            if i < len(self.activations) and self.activations[i].params():
                names.append(f"act{i}.slope")
        if self.dense is not None:
            names += ["dense.weights", "dense.bias"]
        return names

    def set_dropout_rng(self, rng: np.random.Generator) -> None:
        self.dropout.rng = rng

    def state_arrays(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.params()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        params = self.params()
        if len(arrays) != len(params):
            raise ShapeError(f"expected {len(params)} arrays, got {len(arrays)}")
        for p, a in zip(params, arrays):
            if a.shape != p.data.shape:
                raise ShapeError(f"array shape {a.shape} does not match {p.data.shape}")
            p.data = a.astype(p.data.dtype, copy=True)


def build_model(config: FcnConfig, label_set: list[str], seed: Optional[int] = None) -> FcnModel:
    """Realize a gap-head model with seeded initialization."""
    if config.head != "gap":
        raise ConfigError("build_model constructs gap-head models; use build_cnn_dense")
    return FcnModel(config, label_set, seed=seed)


def build_cnn_dense(
    config: FcnConfig,
    label_set: list[str],
    fixed_shape: tuple[int, int],
    seed: Optional[int] = None,
) -> FcnModel:
    """Comparison variant: same conv stack, flatten + dense classifier.

    The flatten dimension is computed from fixed_shape, so the model only
    accepts inputs of exactly that shape.
    """
    if config.head != "dense":
        config = replace(config, head="dense")
    return FcnModel(config, label_set, seed=seed, fixed_shape=fixed_shape)


# -- parameter accounting ---------------------------------------------------


@dataclass
class ParamReport:
    total: int
    by_layer: list[tuple[str, int]]
    budget: int = LIGHTWEIGHT_PARAM_BUDGET

    @property
    def within_budget(self) -> bool:
        return self.total < self.budget

    def summary(self) -> str:
        lines = [f"{name}: {count}" for name, count in self.by_layer]
        lines.append(f"total trainable parameters: {self.total}")
        if self.within_budget:
            lines.append(f"within the {self.budget:,}-parameter lightweight budget")
        else:
            lines.append(
                f"EXCEEDS the {self.budget:,}-parameter lightweight budget by "
                f"{self.total - self.budget:,}"
            )
        return "\n".join(lines)


def param_count(model: FcnModel) -> int:
    return sum(p.size for p in model.params())


def param_report(model: FcnModel) -> ParamReport:
    by_layer = [(name, p.size) for name, p in zip(model.param_names(), model.params())]
    return ParamReport(total=param_count(model), by_layer=by_layer)


# -- persistence -------------------------------------------------------------


def save_weights(model: FcnModel, path, extras: Optional[dict] = None) -> None:
    """Container: magic, version, JSON header, label block, raw float32 data,
    then a little-endian CRC-32 of all the preceding bytes."""
    header = {
        "config": asdict(model.config),
        "fixed_shape": list(model.fixed_shape) if model.fixed_shape else None,
        "params": [
            {"name": n, "shape": list(p.shape)}
            for n, p in zip(model.param_names(), model.params())
        ],
        "extras": extras or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_MAGIC, struct.pack("<BI", _VERSION, len(blob)), blob,
             struct.pack("<I", len(model.label_set))]
    for name in model.label_set:
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded]
    parts += [np.ascontiguousarray(p.data, dtype="<f4").tobytes() for p in model.params()]
    body = b"".join(parts)
    with open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def _int_tuple(values) -> tuple[int, ...]:
    """A JSON list of extents as a tuple; 6.0 or true would compare equal to 6 or 1."""
    if any(type(v) is not int for v in values):
        raise TypeError(f"extents must be integers, got {values!r}")
    return tuple(values)


def load_weights(path) -> tuple[FcnModel, dict]:
    """Rebuild a model bit-exactly; returns (model, extras).

    Every way the container can be malformed (a checksum mismatch,
    truncation, a header that is not UTF-8 JSON, lacks a field or has an
    unknown one, an unknown or invalid config, tensor names other than the
    model's, non-finite weights) raises CorruptionError. Version 1 files
    carry no checksum and are read without one.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 9:
        raise CorruptionError(f"{path}: file too short for a weights container")
    if raw[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic bytes, not a weights container")
    if raw[4] not in (1, _VERSION):
        raise FormatError(f"{path}: unsupported container version {raw[4]}")
    if raw[4] == _VERSION:
        if len(raw) < 13 or zlib.crc32(raw[:-4]) != int.from_bytes(raw[-4:], "little"):
            raise CorruptionError(f"{path}: checksum mismatch; the file is damaged")
        raw = raw[:-4]
    (hlen,) = struct.unpack_from("<I", raw, 5)
    pos = 9
    if len(raw) < pos + hlen:
        raise CorruptionError(f"{path}: truncated header")
    try:
        header = json.loads(raw[pos : pos + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CorruptionError(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    pos += hlen

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if len(raw) < pos + n:
            raise CorruptionError(f"{path}: truncated {what}")
        chunk = raw[pos : pos + n]
        pos += n
        return chunk

    (n_labels,) = struct.unpack("<I", take(4, "label count"))
    labels = []
    for _ in range(n_labels):
        (ln,) = struct.unpack("<I", take(4, "label length"))
        try:
            labels.append(take(ln, "label name").decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"{path}: label name is not UTF-8: {exc}") from exc

    try:
        cfg_fields = dict(header["config"])
        cfg_fields["widths"] = tuple(cfg_fields["widths"])
        config = FcnConfig(**cfg_fields)
        fixed_shape = _int_tuple(header["fixed_shape"]) if header.get("fixed_shape") else None
        model = FcnModel(config, labels, seed=0, fixed_shape=fixed_shape)
        declared = [(str(d["name"]), _int_tuple(d["shape"])) for d in header["params"]]
        extras = header.get("extras", {})
        if not isinstance(extras, dict):
            raise TypeError(f"extras must be an object, got {type(extras).__name__}")
    except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
        raise CorruptionError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    unknown = sorted(set(header) - _HEADER_KEYS)
    if unknown:
        raise CorruptionError(f"{path}: header has unknown keys {unknown}")

    params = model.params()
    if len(declared) != len(params):
        raise CorruptionError(
            f"{path}: header declares {len(declared)} tensors, model has {len(params)}"
        )
    arrays = []
    for (name, shape), p, expected in zip(declared, params, model.param_names()):
        if name != expected:
            raise CorruptionError(f"{path}: tensor {name!r} where the model has {expected!r}")
        if shape != p.shape:
            raise CorruptionError(
                f"{path}: tensor {name} has shape {shape}, model expects {p.shape}"
            )
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(4 * count, f"tensor {name}"), dtype="<f4")
        if not np.all(np.isfinite(data)):
            raise CorruptionError(f"{path}: tensor {name} holds NaN or Inf")
        arrays.append(data.reshape(shape).copy())
    if pos != len(raw):
        raise CorruptionError(f"{path}: {len(raw) - pos} unexpected trailing bytes")
    model.load_state_arrays(arrays)
    return model, extras
