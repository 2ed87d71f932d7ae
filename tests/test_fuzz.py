"""Property tests: damaged WAV files and manifests fail only with typed errors.

Each input is a valid file with a few bytes XOR-flipped and the tail
possibly cut off. The decoder either returns a well-formed result or
raises a ChirpnetError subclass; any other exception is a bug. Examples
are derandomized and no example database is written, so the run is the
same every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpnet.audio.manifest import load_manifest
from chirpnet.audio.wavio import read_wav, wav_info, write_wav
from chirpnet.errors import ChirpnetError

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def damaged(blob: bytes):
    """Strategy: ``blob`` with up to 4 bytes XOR-flipped, then maybe truncated."""
    n = len(blob)
    flips = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)), max_size=4)
    cut = st.one_of(st.none(), st.integers(0, n - 1))

    def apply(flips_and_cut):
        flipped, length = flips_and_cut
        out = bytearray(blob)
        for i, mask in flipped:
            out[i] ^= mask
        return bytes(out[:length])

    return st.tuples(flips, cut).map(apply)


def _wav_bytes(path, samples, float_format):
    write_wav(path, samples, 8000, float_format=float_format)
    return path.read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_wavs(workdir):
    t = np.arange(48) / 8000
    mono = 0.5 * np.sin(2 * np.pi * 440 * t)
    stereo = np.stack([mono, -mono], axis=1)
    return {
        "pcm16": _wav_bytes(workdir / "pcm.wav", mono, False),
        "float32": _wav_bytes(workdir / "float.wav", stereo, True),
    }


def _check_wav(path):
    try:
        samples, rate = read_wav(path)
    except ChirpnetError:
        pass
    else:
        assert rate > 0
        assert samples.ndim == 1 or samples.shape[1] == 2
        assert np.isfinite(samples).all()
    try:
        info = wav_info(path)
    except ChirpnetError:
        pass
    else:
        assert info.sample_rate > 0 and info.n_frames >= 0


@pytest.mark.parametrize("kind", ["pcm16", "float32"])
def test_valid_wavs_decode(workdir, valid_wavs, kind):
    path = workdir / "probe.wav"
    path.write_bytes(valid_wavs[kind])
    samples, rate = read_wav(path)
    assert rate == 8000 and len(samples) == 48


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("kind", ["pcm16", "float32"])
def test_damaged_wav(workdir, valid_wavs, kind, data):
    path = workdir / "damaged.wav"
    path.write_bytes(data.draw(damaged(valid_wavs[kind])))
    _check_wav(path)


MANIFEST = b"path,species\na.wav,wren\nb.wav,finch\n"
LABELS = b"wren\nfinch\n"


@FUZZ
@given(csv_bytes=damaged(MANIFEST), label_bytes=damaged(LABELS))
def test_damaged_manifest(workdir, csv_bytes, label_bytes):
    root = workdir / "manifest"
    if not root.exists():
        root.mkdir()
        for name in ("a.wav", "b.wav"):
            write_wav(root / name, np.zeros(80), 8000)
    (root / "data.csv").write_bytes(csv_bytes)
    (root / "data.csv.labels").write_bytes(label_bytes)
    try:
        manifest = load_manifest(root / "data.csv")
    except ChirpnetError:
        return
    assert len(set(manifest.label_set)) == len(manifest.label_set)
    for e in manifest.entries:
        assert e.species in manifest.label_set
        assert e.duration == pytest.approx(0.01)
