"""Span tracing of chirpnet's layers from outside the package.

Each traced function is replaced at the module attribute its callers look
up, so calls made inside the package are caught too. A functional op's
wrapper also replaces the backward closure of the tensor it returns, so
the graph walk in ``Tensor.backward`` shows which op's gradient took the
time. Spans are kept in memory; a layer's self time is its spans' time
minus the time of the traced spans nested directly inside them.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

FUNCTIONAL_OPS = (
    "conv2d",
    "maxpool2",
    "adaptive",
    "global_avg_pool",
    "dropout",
    "softmax",
    "cross_entropy_mean",
)


class Tracer:
    """Records (name, start, end, parent) spans and per-layer counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child_seconds, span_index]
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)  # placeholder keeps span indices in call order
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        self.spans[index] = (name, start, end, self._stack[-1][3] if self._stack else -1)
        self.self_s[name] += end - start - child
        if self._stack:
            self._stack[-1][2] += end - start

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` counts work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        m = lambda name: importlib.import_module(f"chirpnet.{name}")  # noqa: E731
        clip, wavio, detect = m("audio.clip"), m("audio.wavio"), m("detect")
        features, model, training = m("dsp.features"), m("model"), m("training")
        F, optim, tensor = m("nn.functional"), m("nn.optim"), m("nn.tensor")

        c = self.counts

        def wav_bytes(args, kwargs, result):
            c["audio.wavio.bytes_read"] += os.stat(args[0]).st_size

        def resampled(args, kwargs, result):
            c["audio.clip.resample.samples_out"] += result.shape[0]

        def frames(args, kwargs, result):
            c["dsp.fft.frames"] += np.shape(args[0])[0]

        def extracted(args, kwargs, result):
            c["dsp.features.extract.calls"] += 1

        def forwarded(args, kwargs, result):
            x = args[1]
            batch = x.shape[0] if x.ndim == 4 else 1
            c["model.forward_tensor.calls"] += 1
            c["model.forward_tensor.examples"] += batch
            if kwargs.get("train_mode", args[2] if len(args) > 2 else False):
                c["training.examples"] += batch

        def stepped(args, kwargs, result):
            c["nn.optim.steps"] += 1

        def trained(args, kwargs, result):
            c["training.epochs"] += result.epochs()

        def chunked(args, kwargs, result):
            c["detect.chunks"] += len(result)

        for owner in (wavio, clip):
            self.patch(owner, "read_wav", "audio.wavio.read_wav", wav_bytes)
        self.patch(clip, "resample", "audio.clip.resample", resampled)
        self.patch(features, "frame_and_window", "dsp.windowing.frame_and_window")
        self.patch(features, "power_spectrum", "dsp.fft.power_spectrum", frames)
        self.patch(features, "filterbank_energies", "dsp.mel.filterbank_energies")
        self.patch(features, "dct_cepstrum", "dsp.features.dct_cepstrum")
        for owner in (features, training):
            self.patch(owner, "extract_features", "dsp.features.extract", extracted)
        for op in FUNCTIONAL_OPS:
            self.patch(F, op, f"nn.functional.{op}.fwd", self._backward_hook(op))
        self.patch(tensor.Tensor, "backward", "nn.tensor.backward")
        self.patch(optim.Adam, "step", "nn.optim.step", stepped)
        self.patch(model.FcnModel, "forward_tensor", "model.forward_tensor", forwarded)
        self.patch(training, "train_one", "training.train_one", trained)
        self.patch(training, "evaluate", "training.evaluate")
        self.patch(detect, "chunk_stream", "detect.chunk_stream", chunked)
        self.patch(detect, "detect", "detect.detect")

    def _backward_hook(self, op: str):
        """Time the backward closure of the tensor an op returns."""
        name = f"nn.functional.{op}.bwd"
        flop_name = "nn.functional.conv2d.gflop"

        def after(args, kwargs, result):
            if op == "conv2d":
                self.counts[flop_name] += _conv_gflop(result, args[1])
            fn = result._backward_fn
            if fn is None:
                return
            if op == "conv2d":
                # one GEMM per gradient: the input's (if it needs one) and the kernels'
                x, kernels = args[0], args[1]
                gflop = (int(_needs(x)) + int(_needs(kernels))) * _conv_gflop(result, kernels)

                def counted(g, fn=fn):
                    fn(g)
                    self.counts[flop_name] += gflop

                fn = counted
            result._backward_fn = self.timed(name, fn)

        return after

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Self seconds and counts per traced round, keyed by metric name."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            if name.endswith(".fwd") or name.endswith(".bwd"):
                key = name[:-4] + ("." + name[-3:] + "_s")
            else:
                key = name + ".s"
            out[key] = (self.self_s.get(name, 0.0) / rounds, "s")
        for name, unit in COUNTS:
            out[name] = (self.counts.get(name, 0.0) / rounds, unit)
        return out


def _needs(t) -> bool:
    return getattr(t, "requires_grad", False) or getattr(t, "_backward_fn", None) is not None


def _conv_gflop(result, kernels) -> float:
    """2 * output pixels * Cout * Cin * k * k, in GFLOP, from shapes alone."""
    out = result.data
    pixels = out.size // out.shape[-1]
    cout, cin, kh, kw = kernels.shape
    return 2.0 * pixels * cout * cin * kh * kw / 1e9


SPAN_NAMES = (
    ["audio.wavio.read_wav", "audio.clip.resample"]
    + [
        "dsp.windowing.frame_and_window",
        "dsp.fft.power_spectrum",
        "dsp.mel.filterbank_energies",
        "dsp.features.dct_cepstrum",
        "dsp.features.extract",
    ]
    + [f"nn.functional.{op}.{d}" for op in FUNCTIONAL_OPS for d in ("fwd", "bwd")]
    + ["nn.tensor.backward", "nn.optim.step"]
    + ["model.forward_tensor"]
    + ["training.train_one", "training.evaluate"]
    + ["detect.detect", "detect.chunk_stream"]
)

COUNTS = (
    ("audio.wavio.bytes_read", "bytes"),
    ("audio.clip.resample.samples_out", "count"),
    ("dsp.fft.frames", "count"),
    ("dsp.features.extract.calls", "count"),
    ("nn.functional.conv2d.gflop", "gflop_computed"),
    ("nn.optim.steps", "count"),
    ("model.forward_tensor.calls", "count"),
    ("model.forward_tensor.examples", "count"),
    ("training.epochs", "count"),
    ("training.examples", "count"),
    ("detect.chunks", "count"),
)
