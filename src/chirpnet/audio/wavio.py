"""RIFF/WAVE reading and writing via direct chunk parsing.

Supports uncompressed PCM (16-bit integer) and IEEE float (32-bit), one or
two channels. Chunk walking honors the even-byte padding rule and ignores
chunks other than fmt and data.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import CorruptionError, FormatError

_FMT_PCM = 1
_FMT_FLOAT = 3


@dataclass(frozen=True)
class WavInfo:
    sample_rate: int
    channels: int
    bits: int
    format_code: int
    n_frames: int

    @property
    def duration(self) -> float:
        return self.n_frames / self.sample_rate


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CorruptionError(f"truncated WAV file: {what}")
    return buf


def _walk_chunks(f):
    """Yield (chunk_id, size, payload_offset) for each top-level chunk."""
    header = _read_exact(f, 12, "RIFF header")
    if header[:4] != b"RIFF" or header[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file")
    while True:
        head = f.read(8)
        if len(head) == 0:
            return
        if len(head) < 8:
            raise CorruptionError("truncated WAV file: chunk header")
        cid, size = head[:4], struct.unpack("<I", head[4:8])[0]
        offset = f.tell()
        yield cid, size, offset
        f.seek(offset + size + (size & 1))


def _parse_fmt(payload: bytes) -> tuple:
    if len(payload) < 16:
        raise CorruptionError("fmt chunk too short")
    code, channels, rate, byte_rate, block_align, bits = struct.unpack("<HHIIHH", payload[:16])
    if code not in (_FMT_PCM, _FMT_FLOAT):
        raise FormatError(f"unsupported WAV format code {code} (PCM or IEEE float only)")
    if code == _FMT_PCM and bits != 16:
        raise FormatError(f"unsupported PCM bit depth {bits} (16-bit only)")
    if code == _FMT_FLOAT and bits != 32:
        raise FormatError(f"unsupported float bit depth {bits} (32-bit only)")
    if not 1 <= channels <= 2:
        raise FormatError(f"unsupported channel count {channels} (mono or stereo only)")
    if rate == 0:
        raise CorruptionError("fmt chunk gives a sample rate of 0 Hz")
    block = channels * bits // 8
    if block_align != block or byte_rate != rate * block:
        raise CorruptionError(
            f"fmt chunk block align {block_align} and byte rate {byte_rate} disagree with "
            f"{channels} channel(s) of {bits} bits at {rate} Hz"
        )
    return code, channels, rate, bits


def _scan(f) -> tuple[tuple, int, int]:
    """Walk every chunk: the parsed fmt chunk and the data chunk's offset and size.

    A data chunk that declares more bytes than the file holds is truncated.
    """
    end = os.fstat(f.fileno()).st_size
    fmt = None
    data = None
    for cid, size, offset in _walk_chunks(f):
        if cid == b"fmt ":
            fmt = _parse_fmt(_read_exact(f, min(size, 16), "fmt chunk"))
        elif cid == b"data":
            if offset + size > end:
                raise CorruptionError("truncated WAV file: data chunk")
            data = offset, size
    if fmt is None:
        raise CorruptionError("WAV file has no fmt chunk")
    if data is None:
        raise CorruptionError("WAV file has no data chunk")
    return fmt, *data


def wav_info(path) -> WavInfo:
    """Header-only probe: geometry without reading the sample payload."""
    with open(path, "rb") as f:
        (code, channels, rate, bits), _, data_size = _scan(f)
    return WavInfo(
        sample_rate=rate,
        channels=channels,
        bits=bits,
        format_code=code,
        n_frames=data_size // (channels * bits // 8),
    )


def read_wav(path) -> tuple[np.ndarray, int]:
    """Decode to float64 in [-1, 1]: (samples, sample_rate).

    Mono returns shape (n,), stereo (n, 2). 16-bit PCM scales by 1/32768.
    Float data holding NaN or infinite samples is rejected.
    """
    with open(path, "rb") as f:
        (code, channels, rate, bits), offset, size = _scan(f)
        f.seek(offset)
        data = _read_exact(f, size, "data chunk")
    if code == _FMT_PCM:
        raw = np.frombuffer(data[: len(data) - len(data) % (2 * channels)], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    else:
        raw = np.frombuffer(data[: len(data) - len(data) % (4 * channels)], dtype="<f4")
        if not np.isfinite(raw).all():
            raise CorruptionError("float WAV data holds NaN or infinite samples")
        samples = raw.astype(np.float64)
    if channels == 2:
        samples = samples.reshape(-1, 2)
    return samples, rate


def write_wav(path, samples: np.ndarray, sample_rate: int, float_format: bool = False) -> None:
    """Write mono (n,) or stereo (n, 2) samples as 16-bit PCM or 32-bit float."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        channels = 1
    elif x.ndim == 2 and x.shape[1] in (1, 2):
        channels = x.shape[1]
    else:
        raise FormatError(f"cannot write samples of shape {x.shape}")
    if float_format:
        payload = x.astype("<f4").tobytes()
        code, bits = _FMT_FLOAT, 32
    else:
        clipped = np.clip(x, -1.0, 1.0)
        payload = (clipped * 32767.0).round().astype("<i2").tobytes()
        code, bits = _FMT_PCM, 16
    block_align = channels * bits // 8
    fmt_chunk = struct.pack(
        "<HHIIHH", code, channels, sample_rate, sample_rate * block_align, block_align, bits
    )
    body = (
        b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
        + b"data" + struct.pack("<I", len(payload)) + payload
        + (b"\x00" if len(payload) & 1 else b"")
    )
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
