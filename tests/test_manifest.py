"""Manifest CSV parsing, label sidecars, and file validation."""

import numpy as np
import pytest

from chirpnet.audio.manifest import (
    DatasetManifest,
    ManifestEntry,
    load_manifest,
    write_manifest,
)
from chirpnet.audio.wavio import write_wav
from chirpnet.errors import CorruptionError, ValidationError


def make_wavs(root, names, seconds=0.1, rate=44100):
    for name in names:
        write_wav(root / name, np.zeros(int(seconds * rate)), rate)


def zero_hz_wav(path):
    """A valid mono PCM16 file whose fmt chunk then gets a sample rate of 0 Hz."""
    write_wav(path, np.full(4410, 0.25), 44100)
    raw = bytearray(path.read_bytes())
    raw[24:28] = bytes(4)  # sample rate field of the fmt chunk
    path.write_bytes(bytes(raw))


class TestDatasetManifest:
    def test_class_index_follows_label_order(self):
        m = DatasetManifest(
            entries=[ManifestEntry("a.wav", "wren", None)],
            label_set=["wren", "finch"],
        )
        assert m.class_index("wren") == 0
        assert m.class_index("finch") == 1
        with pytest.raises(ValidationError, match="not in label set"):
            m.class_index("owl")

    def test_rejects_entry_outside_label_set(self):
        with pytest.raises(ValidationError, match="not in label set"):
            DatasetManifest(
                entries=[ManifestEntry("a.wav", "owl", None)], label_set=["wren"]
            )


class TestLoadManifest:
    def test_round_trip(self, tmp_path):
        make_wavs(tmp_path, ["a.wav", "b.wav"])
        m = DatasetManifest(
            entries=[
                ManifestEntry("a.wav", "wren", None),
                ManifestEntry("b.wav", "finch", None),
            ],
            label_set=["wren", "finch"],
        )
        write_manifest(m, tmp_path / "data.csv")
        back = load_manifest(tmp_path / "data.csv")
        assert [(e.path, e.species) for e in back.entries] == [
            ("a.wav", "wren"),
            ("b.wav", "finch"),
        ]
        # sidecar preserves the original, unsorted order
        assert back.label_set == ["wren", "finch"]
        assert back.entries[0].duration == pytest.approx(0.1)

    def test_sorted_labels_without_sidecar(self, tmp_path):
        make_wavs(tmp_path, ["a.wav", "b.wav"])
        (tmp_path / "data.csv").write_text("path,species\na.wav,wren\nb.wav,finch\n")
        m = load_manifest(tmp_path / "data.csv")
        assert m.label_set == ["finch", "wren"]

    def test_header_required(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a.wav,wren\n")
        with pytest.raises(ValidationError, match="expected header"):
            load_manifest(tmp_path / "bad.csv")

    def test_short_row_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("path,species\na.wav\n")
        with pytest.raises(ValidationError, match="needs path and species"):
            load_manifest(tmp_path / "bad.csv")

    def test_blank_rows_skipped(self, tmp_path):
        make_wavs(tmp_path, ["a.wav"])
        (tmp_path / "data.csv").write_text("path,species\n\na.wav,wren\n  ,  \n")
        assert len(load_manifest(tmp_path / "data.csv")) == 1

    def test_duplicate_paths_first_wins(self, tmp_path):
        make_wavs(tmp_path, ["a.wav"])
        (tmp_path / "data.csv").write_text(
            "path,species\na.wav,wren\na.wav,finch\na.wav,owl\n"
        )
        with pytest.warns(UserWarning, match="2 duplicate"):
            m = load_manifest(tmp_path / "data.csv")
        assert len(m) == 1
        assert m.entries[0].species == "wren"

    def test_sidecar_rejects_unknown_species(self, tmp_path):
        make_wavs(tmp_path, ["a.wav"])
        (tmp_path / "data.csv").write_text("path,species\na.wav,owl\n")
        (tmp_path / "data.csv.labels").write_text("wren\nfinch\n")
        with pytest.raises(ValidationError, match="fixed label file"):
            load_manifest(tmp_path / "data.csv")

    def test_missing_audio_file(self, tmp_path):
        (tmp_path / "data.csv").write_text("path,species\nghost.wav,wren\n")
        with pytest.raises(ValidationError, match="missing audio file"):
            load_manifest(tmp_path / "data.csv")

    def test_zero_hz_header_rejected(self, tmp_path):
        make_wavs(tmp_path, ["a.wav"])
        zero_hz_wav(tmp_path / "b.wav")
        (tmp_path / "data.csv").write_text("path,species\na.wav,wren\nb.wav,finch\n")
        with pytest.raises(CorruptionError, match="0 Hz"):
            load_manifest(tmp_path / "data.csv")

    def test_sidecar_rejects_duplicate_species(self, tmp_path):
        make_wavs(tmp_path, ["a.wav"])
        (tmp_path / "data.csv").write_text("path,species\na.wav,a\n")
        (tmp_path / "data.csv.labels").write_text("a\na\nb\n")
        with pytest.raises(ValidationError, match="more than once"):
            load_manifest(tmp_path / "data.csv")

    @pytest.mark.parametrize("target", ["data.csv", "data.csv.labels"])
    def test_non_utf8_text_rejected(self, tmp_path, target):
        make_wavs(tmp_path, ["a.wav"])
        (tmp_path / "data.csv").write_text("path,species\na.wav,wren\n")
        (tmp_path / "data.csv.labels").write_text("wren\n")
        with open(tmp_path / target, "ab") as f:
            f.write(b"\xff\xfe\n")
        with pytest.raises(ValidationError, match="not UTF-8"):
            load_manifest(tmp_path / "data.csv")

    @pytest.mark.parametrize("check_files", [True, False])
    def test_nul_byte_in_path_rejected(self, tmp_path, check_files):
        make_wavs(tmp_path, ["a.wav"])
        (tmp_path / "data.csv").write_text("path,species\na.wav,wren\nb\0.wav,wren\n")
        with pytest.raises(ValidationError, match="data.csv:3: path contains a NUL byte"):
            load_manifest(tmp_path / "data.csv", check_files=check_files)

    def test_oversized_field_rejected(self, tmp_path):
        (tmp_path / "data.csv").write_text("path,species\n" + "a" * 200_000 + ",wren\n")
        with pytest.raises(ValidationError, match="unreadable CSV"):
            load_manifest(tmp_path / "data.csv")

    def test_directory_path_is_not_an_audio_file(self, tmp_path):
        (tmp_path / "data.csv").write_text("path,species\n.,wren\n")
        with pytest.raises(ValidationError, match="missing audio file"):
            load_manifest(tmp_path / "data.csv")

    def test_check_files_off_skips_probe(self, tmp_path):
        (tmp_path / "data.csv").write_text("path,species\nghost.wav,wren\n")
        m = load_manifest(tmp_path / "data.csv", check_files=False)
        assert m.entries[0].duration is None

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        sub = tmp_path / "audio"
        sub.mkdir()
        make_wavs(sub, ["a.wav"])
        (tmp_path / "data.csv").write_text("path,species\naudio/a.wav,wren\n")
        m = load_manifest(tmp_path / "data.csv")
        assert m.entries[0].duration == pytest.approx(0.1)

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "data.csv").write_text("path,species\n")
        m = load_manifest(tmp_path / "data.csv")
        assert len(m) == 0
        assert m.label_set == []
