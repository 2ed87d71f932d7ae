"""Property tests: damaged WAV files, manifests and weights containers fail
only with typed errors.

Each input is a valid file with a few bytes XOR-flipped and the tail
possibly cut off. The decoder either returns a well-formed result or
raises a ChirpnetError subclass; any other exception is a bug. Examples
are derandomized and no example database is written, so the run is the
same every time. A few damaged files also go through the command line,
which must exit 3 without a traceback. Damaged weights files are resealed
with a matching checksum, so the damage reaches the container's parser;
one test flips every byte of a sealed file instead.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chirpnet.audio.manifest import load_manifest
from chirpnet.audio.wavio import read_wav, wav_info, write_wav
from chirpnet.cli import main
from chirpnet.errors import ChirpnetError
from chirpnet.model import FcnConfig, FcnModel, build_model, load_weights, save_weights
from chirpnet.training import FeatureSpec

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
        samples = None
    else:
        assert rate > 0
        assert samples.ndim == 1 or samples.shape[1] == 2
        assert np.isfinite(samples).all()
    try:
        info = wav_info(path)
    except ChirpnetError:
        info = None
    else:
        assert info.sample_rate > 0 and info.n_frames >= 0
    if samples is not None and info is not None:
        # the probe that sizes manifest durations agrees with the decoder
        assert (info.n_frames, info.sample_rate) == (samples.shape[0], rate)


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


@pytest.fixture(scope="module")
def valid_weights(workdir):
    config = FcnConfig(depth=3, widths=(2, 3, 2), activation="relu", n_classes=2,
                       enforce_grid=False)
    model = build_model(config, ["wren", "finch"], seed=0)
    path = workdir / "valid.fcnw"
    save_weights(model, path, extras=FeatureSpec(n_mels=16).to_extras())
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_damaged_weights(workdir, valid_weights, data):
    path = workdir / "damaged.fcnw"
    path.write_bytes(oracles.seal_weights(data.draw(damaged(valid_weights[:-4]))))
    try:
        model, _ = load_weights(path)
    except ChirpnetError:
        return
    assert isinstance(model, FcnModel)
    assert all(np.isfinite(p.data).all() for p in model.params())


def _truncated_wav(path):
    write_wav(path, np.zeros(22050), 22050, float_format=True)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])


def _absurd_rate_wav(path):
    """Header only, at 2 GHz: resampling would need a 1.28e9-tap kernel."""
    write_wav(path, np.zeros(0), 2_000_000_000)


def _flipped_magic_wav(path):
    write_wav(path, np.zeros(800), 8000)
    path.write_bytes(b"RIFX" + path.read_bytes()[4:])


@pytest.mark.parametrize("damage", [_truncated_wav, _absurd_rate_wav, _flipped_magic_wav])
def test_cli_detect_damaged_wav(workdir, valid_weights, capsys, damage):
    model = workdir / "cli.fcnw"
    model.write_bytes(valid_weights)
    audio = workdir / f"{damage.__name__}.wav"
    damage(audio)
    assert main(["detect", str(audio), "--model", str(model)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


WEIGHTS_DAMAGE = {
    "cut in the header": lambda raw: raw[:40],
    "cut in the last tensor": lambda raw: raw[:-3],
    "flipped magic": lambda raw: bytes([raw[0] ^ 0x40]) + raw[1:],
    "feature setting renamed": lambda raw: raw.replace(b'"n_mels"', b'"n_melz"'),
    "unknown feature kind": lambda raw: raw.replace(b'"mel-db"', b'"mel-dD"'),
    # without these three checks detect ran on default features and exited 0
    "tensor renamed": lambda raw: raw.replace(b'"conv0.bias"', b'"conv0.bIas"'),
    "header key renamed": lambda raw: raw.replace(b'"extras"', b'"exthas"'),
    "extras key renamed": lambda raw: raw.replace(b'"feature_spec"', b'"featureLspec"'),
}


@pytest.mark.parametrize("damage", sorted(WEIGHTS_DAMAGE))
def test_cli_detect_damaged_weights(workdir, valid_weights, capsys, damage):
    audio = workdir / "cli.wav"
    write_wav(audio, np.zeros(8000), 8000)
    model = workdir / "cli-damaged.fcnw"
    model.write_bytes(oracles.seal_weights(WEIGHTS_DAMAGE[damage](valid_weights[:-4])))
    assert main(["detect", str(audio), "--model", str(model)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_detect_every_flipped_byte(workdir, valid_weights, capsys):
    """Flipping any one byte of a sealed file, the checksum included, exits 3."""
    t0 = time.monotonic()
    audio = workdir / "cli.wav"
    write_wav(audio, np.zeros(8000), 8000)
    model = workdir / "cli-flipped.fcnw"
    model.write_bytes(valid_weights)
    assert main(["detect", str(audio), "--model", str(model)]) == 0
    capsys.readouterr()
    codes = {}
    for i in range(len(valid_weights)):
        raw = bytearray(valid_weights)
        raw[i] ^= 0xFF
        model.write_bytes(bytes(raw))
        rc = main(["detect", str(audio), "--model", str(model)])
        err = capsys.readouterr().err
        if rc != 3 or not err.startswith("error:") or "Traceback" in err:
            codes[i] = (rc, err)
    assert codes == {}
    assert time.monotonic() - t0 < 20.0
