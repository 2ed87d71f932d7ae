"""WAV container round-trips and malformed-file handling."""

import struct

import numpy as np
import pytest

from chirpnet.audio.wavio import WavInfo, read_wav, wav_info, write_wav
from chirpnet.errors import CorruptionError, FormatError


def sine(n=2000, freq=880.0, rate=44100):
    t = np.arange(n) / rate
    return 0.6 * np.sin(2 * np.pi * freq * t)


def fmt_chunk(code=1, channels=1, rate=8000, bits=16, byte_rate=None, block=None):
    """fmt chunk; block align and byte rate follow from the rest unless given."""
    if block is None:
        block = channels * bits // 8
    if byte_rate is None:
        byte_rate = rate * channels * bits // 8
    body = struct.pack("<HHIIHH", code, channels, rate, byte_rate, block, bits)
    return b"fmt " + struct.pack("<I", len(body)) + body


def data_chunk(payload):
    pad = b"\x00" if len(payload) & 1 else b""
    return b"data" + struct.pack("<I", len(payload)) + payload + pad


def riff(body):
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestRoundTrip:
    def test_pcm16_mono(self, tmp_path):
        x = sine()
        p = tmp_path / "mono.wav"
        write_wav(p, x, 44100)
        y, rate = read_wav(p)
        assert rate == 44100
        assert y.shape == x.shape
        assert y.dtype == np.float64
        np.testing.assert_allclose(y, x, atol=1.5 / 32768)

    def test_float32_mono(self, tmp_path):
        x = sine()
        p = tmp_path / "mono_f.wav"
        write_wav(p, x, 22050, float_format=True)
        y, rate = read_wav(p)
        assert rate == 22050
        np.testing.assert_allclose(y, x, atol=1e-7)

    def test_float32_stereo(self, tmp_path):
        x = np.stack([sine(freq=440.0), sine(freq=660.0)], axis=1)
        p = tmp_path / "stereo.wav"
        write_wav(p, x, 44100, float_format=True)
        y, rate = read_wav(p)
        assert y.shape == (2000, 2)
        np.testing.assert_allclose(y, x, atol=1e-7)

    def test_pcm16_stereo(self, tmp_path):
        x = np.stack([sine(n=777), -sine(n=777)], axis=1)
        p = tmp_path / "stereo16.wav"
        write_wav(p, x, 44100)
        y, _ = read_wav(p)
        assert y.shape == (777, 2)
        np.testing.assert_allclose(y, x, atol=1.5 / 32768)

    def test_pcm_write_clips_out_of_range(self, tmp_path):
        p = tmp_path / "hot.wav"
        write_wav(p, np.array([2.0, -2.0, 0.0]), 8000)
        y, _ = read_wav(p)
        assert y[0] == pytest.approx(32767 / 32768)
        assert y[1] == pytest.approx(-32767 / 32768)
        assert y[2] == 0.0

    def test_pcm_read_scale_convention(self, tmp_path):
        payload = struct.pack("<4h", 16384, -16384, 32767, -32768)
        p = tmp_path / "hand.wav"
        p.write_bytes(riff(fmt_chunk() + data_chunk(payload)))
        y, rate = read_wav(p)
        assert rate == 8000
        np.testing.assert_array_equal(y, [0.5, -0.5, 32767 / 32768, -1.0])

    def test_ragged_payload_drops_tail_bytes(self, tmp_path):
        p = tmp_path / "ragged.wav"
        body = b"data" + struct.pack("<I", 5) + b"\x01\x00\x02\x00\x03" + b"\x00"
        p.write_bytes(riff(fmt_chunk() + body))
        y, _ = read_wav(p)
        np.testing.assert_array_equal(y, [1 / 32768, 2 / 32768])


class TestInfo:
    def test_probe_matches_written_file(self, tmp_path):
        p = tmp_path / "probe.wav"
        write_wav(p, sine(n=44100), 44100)
        info = wav_info(p)
        assert info == WavInfo(
            sample_rate=44100, channels=1, bits=16, format_code=1, n_frames=44100
        )
        assert info.duration == 1.0

    def test_probe_stereo_float(self, tmp_path):
        p = tmp_path / "probe2.wav"
        write_wav(p, np.zeros((500, 2)), 22050, float_format=True)
        info = wav_info(p)
        assert (info.channels, info.bits, info.format_code) == (2, 32, 3)
        assert info.n_frames == 500
        assert info.duration == pytest.approx(500 / 22050)

    def test_skips_unknown_chunks_with_odd_padding(self, tmp_path):
        # 3-byte junk chunk exercises the even-byte pad rule
        junk = b"JUNK" + struct.pack("<I", 3) + b"abc" + b"\x00"
        payload = struct.pack("<2h", 100, -100)
        p = tmp_path / "junk.wav"
        p.write_bytes(riff(junk + fmt_chunk() + data_chunk(payload)))
        assert wav_info(p).n_frames == 2
        y, _ = read_wav(p)
        assert y.shape == (2,)


class TestErrors:
    def test_not_riff(self, tmp_path):
        p = tmp_path / "nope.wav"
        p.write_bytes(b"OggS" + bytes(40))
        with pytest.raises(FormatError, match="RIFF"):
            read_wav(p)

    def test_riff_but_not_wave(self, tmp_path):
        p = tmp_path / "avi.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"AVI ")
        with pytest.raises(FormatError, match="RIFF"):
            wav_info(p)

    def test_unsupported_format_code(self, tmp_path):
        p = tmp_path / "adpcm.wav"
        p.write_bytes(riff(fmt_chunk(code=2) + data_chunk(b"\x00\x00")))
        with pytest.raises(FormatError, match="format code 2"):
            read_wav(p)

    def test_unsupported_pcm_depth(self, tmp_path):
        p = tmp_path / "pcm8.wav"
        p.write_bytes(riff(fmt_chunk(bits=8) + data_chunk(b"\x00\x00")))
        with pytest.raises(FormatError, match="bit depth 8"):
            read_wav(p)

    def test_unsupported_float_depth(self, tmp_path):
        p = tmp_path / "f64.wav"
        p.write_bytes(riff(fmt_chunk(code=3, bits=64) + data_chunk(bytes(8))))
        with pytest.raises(FormatError, match="bit depth 64"):
            wav_info(p)

    def test_too_many_channels(self, tmp_path):
        p = tmp_path / "surround.wav"
        p.write_bytes(riff(fmt_chunk(channels=6) + data_chunk(bytes(12))))
        with pytest.raises(FormatError, match="channel count 6"):
            read_wav(p)

    def test_truncated_data_payload(self, tmp_path):
        p = tmp_path / "cut.wav"
        write_wav(p, sine(), 44100)
        whole = p.read_bytes()
        p.write_bytes(whole[:-100])
        with pytest.raises(CorruptionError, match="truncated"):
            read_wav(p)

    def test_probe_rejects_truncated_data_payload(self, tmp_path):
        # the declared data size is twice what the file holds
        p = tmp_path / "half.wav"
        write_wav(p, sine(n=22050, rate=22050), 22050, float_format=True)
        whole = p.read_bytes()
        p.write_bytes(whole[: len(whole) // 2])
        for probe in (wav_info, read_wav):
            with pytest.raises(CorruptionError, match="truncated WAV file: data chunk"):
                probe(p)

    def test_truncated_riff_header(self, tmp_path):
        p = tmp_path / "stub.wav"
        p.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(CorruptionError, match="truncated"):
            wav_info(p)

    def test_truncated_chunk_header(self, tmp_path):
        p = tmp_path / "stub2.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", 7) + b"WAVE" + b"fm")
        with pytest.raises(CorruptionError, match="chunk header"):
            wav_info(p)

    def test_fmt_chunk_too_short(self, tmp_path):
        body = b"fmt " + struct.pack("<I", 10) + bytes(10)
        p = tmp_path / "shortfmt.wav"
        p.write_bytes(riff(body + data_chunk(b"\x00\x00")))
        with pytest.raises(CorruptionError, match="fmt chunk too short"):
            wav_info(p)

    def test_missing_data_chunk(self, tmp_path):
        p = tmp_path / "nodata.wav"
        p.write_bytes(riff(fmt_chunk()))
        with pytest.raises(CorruptionError, match="no data chunk"):
            read_wav(p)

    def test_missing_fmt_chunk(self, tmp_path):
        p = tmp_path / "nofmt.wav"
        p.write_bytes(riff(data_chunk(b"\x00\x00")))
        with pytest.raises(CorruptionError, match="no fmt chunk"):
            read_wav(p)

    @pytest.mark.parametrize(
        "fmt, message",
        [
            (fmt_chunk(rate=0), "0 Hz"),
            (fmt_chunk(code=3, channels=2, rate=0, bits=32), "0 Hz"),
            (fmt_chunk(block=4), "block align 4"),
            (fmt_chunk(channels=2, block=2), "block align 2"),
            (fmt_chunk(byte_rate=8000), "byte rate 8000"),
            (fmt_chunk(code=3, bits=32, byte_rate=16000), "byte rate 16000"),
        ],
        ids=["pcm-0hz", "float-stereo-0hz", "block-align-4", "stereo-block-align-2",
             "byte-rate-8000", "float-byte-rate-16000"],
    )
    def test_inconsistent_fmt_header_rejected(self, tmp_path, fmt, message):
        p = tmp_path / "badfmt.wav"
        p.write_bytes(riff(fmt + data_chunk(struct.pack("<4h", 1, 2, 3, 4))))
        with pytest.raises(CorruptionError, match=message):
            wav_info(p)
        with pytest.raises(CorruptionError, match=message):
            read_wav(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_float_samples_rejected(self, tmp_path, bad, channels):
        samples = np.full((64, channels), 0.25)
        samples[10, channels - 1] = bad
        p = tmp_path / "nonfinite.wav"
        write_wav(p, samples, 8000, float_format=True)
        assert wav_info(p).n_frames == 64
        with pytest.raises(CorruptionError, match="NaN or infinite"):
            read_wav(p)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(FormatError, match="shape"):
            write_wav(tmp_path / "bad.wav", np.zeros((4, 3)), 8000)
