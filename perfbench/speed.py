"""Machine-speed probes that turn wall times into reference-machine seconds.

The benchmark shares its machine with other tenants. Their load changes
how fast the same code runs by 20-40% from one ten-second window to the
next. Wall time alone cannot resolve a 10% change under that. So the
benchmark times a fixed calibration kernel (numpy only, no chirpnet code)
about every 0.25 s throughout each measurement. Each stretch of work
between probes is scaled by ``REFERENCE_PROBE_S`` / (median probe time
around that stretch). When the machine is slower, the probes are slower
too, and the ratio stays put. When chirpnet gets faster, only the measured
time moves. Probe time is excluded from the measurement.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median probe time on the reference machine (2 vCPU Xeon, OpenBLAS with
# 2 threads) in a quiet period. It fixes the unit of every reported time
# and must never change.
REFERENCE_PROBE_S = 0.025
PROBE_INTERVAL_S = 0.25
PROBE_WINDOW_S = 1.0  # probes this close to a stretch of work calibrate it


def _radix2(a: np.ndarray) -> np.ndarray:
    """Batched radix-2 FFT in strided numpy stages, the same memory traffic as chirpnet's."""
    b, n = a.shape
    levels = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(levels):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    a = a[:, rev]
    size = 2
    while size <= n:
        half = size // 2
        blocks = a.reshape(b, n // size, size)
        odd = blocks[:, :, half:] * np.exp(-2j * np.pi * np.arange(half) / size)
        a = np.concatenate([blocks[:, :, :half] + odd, blocks[:, :, :half] - odd], axis=2).reshape(b, n)
        size *= 2
    return a


@dataclass(frozen=True)
class Sample:
    start: float
    end: float
    wall_s: float  # end - start minus the probes that ran inside


class SpeedProbe:
    """Calibration kernel with fixed inputs, and the record of its timings."""

    def __init__(self, enabled: bool = True):
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((192, 1024)).astype(np.complex128)
        self._cols = rng.standard_normal((9536, 144)).astype(np.float32)
        self._w = rng.standard_normal((144, 64)).astype(np.float32)
        self._act = rng.standard_normal((64, 64, 64))
        self.enabled = enabled
        self.probes: list[tuple[float, float]] = []  # (start, seconds)
        self.gaps: list[tuple[float, float]] = []  # probe intervals, not work
        self.excluded_s = 0.0  # total length of the gaps
        self._last = -np.inf
        self._patches: list = []
        if enabled:  # the first call pays page faults that later probes do not
            t0 = time.perf_counter()
            self.kernel()
            self._gap(t0, time.perf_counter())

    def _gap(self, t0: float, t1: float) -> None:
        self.gaps.append((t0, t1))
        self.excluded_s += t1 - t0

    def kernel(self) -> float:
        """FFT stages, a float32 GEMM, tanh and a strided max: chirpnet's mix."""
        spec = _radix2(self._frames)
        power = spec.real**2 + spec.imag**2
        conv = self._cols @ self._w
        act = np.tanh(0.7 * self._act)
        pooled = np.maximum(act[:, ::2, ::2], act[:, 1::2, 1::2])
        return float(power[0, 1] + conv[0, 0] + pooled[0, 0, 0])

    def maybe_probe(self) -> None:
        """Time the kernel once if the last probe is PROBE_INTERVAL_S old."""
        if not self.enabled or time.perf_counter() - self._last < PROBE_INTERVAL_S:
            return
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.probes.append((t0, t1 - t0))
        self._gap(t0, t1)
        self._last = t1

    def measure(self, fn, *args, **kwargs):
        """Run ``fn``; return (result, Sample) with probe time taken out."""
        self.maybe_probe()
        excluded0 = self.excluded_s
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        sample = Sample(t0, t1, t1 - t0 - (self.excluded_s - excluded0))
        self.maybe_probe()
        return result, sample

    def reference_s(self, sample: Sample) -> float:
        """The sample's time on the reference machine (its wall time if disabled).

        Probes inside the sample cut it into stretches of work; each is
        scaled by the median probe within PROBE_WINDOW_S of it, so a long
        call follows the machine's speed as it drifts.
        """
        if not self.enabled:
            return sample.wall_s
        edges = [sample.start]
        for t0, t1 in self.gaps:
            if sample.start <= t0 < sample.end:
                edges += [t0, t1]
        edges.append(sample.end)
        total = 0.0
        for a, b in zip(edges[::2], edges[1::2]):
            near = [d for t, d in self.probes if a - PROBE_WINDOW_S <= t <= b + PROBE_WINDOW_S]
            if not near:  # a stretch longer than the window with no probe close by
                near = [min(self.probes, key=lambda p: min(abs(p[0] - a), abs(p[0] - b)))[1]]
            total += (b - a) * REFERENCE_PROBE_S / statistics.median(near)
        return total

    def median_probe_s(self) -> float:
        return statistics.median(d for _, d in self.probes)

    # -- probes inside long calls ------------------------------------------------

    def install_hooks(self) -> None:
        """Probe between the feature extractions and forward passes of long calls."""
        training = importlib.import_module("chirpnet.training")
        model = importlib.import_module("chirpnet.model")
        for owner, attr in ((training, "extract_features"), (model.FcnModel, "forward_tensor")):
            original = getattr(owner, attr)

            def hooked(*args, _original=original, **kwargs):
                self.maybe_probe()
                return _original(*args, **kwargs)

            self._patches.append((owner, attr, original))
            setattr(owner, attr, hooked)

    def uninstall_hooks(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
