"""Dataset manifests: CSV rows of (path, species) plus an ordered label file.

The label sidecar (one species per line, same stem with a .labels suffix)
pins class indices; without it the label set is the sorted unique species.
Durations come from WAV headers at load time, never from the CSV.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

from ..errors import ValidationError
from .wavio import wav_info


class ManifestEntry(NamedTuple):
    path: str
    species: str
    duration: Optional[float]


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    label_set: list[str] = field(default_factory=list)

    def __post_init__(self):
        known = set(self.label_set)
        for e in self.entries:
            if e.species not in known:
                raise ValidationError(f"species {e.species!r} not in label set")

    def class_index(self, species: str) -> int:
        try:
            return self.label_set.index(species)
        except ValueError:
            raise ValidationError(f"species {species!r} not in label set") from None

    def __len__(self) -> int:
        return len(self.entries)


def _labels_path(manifest_path) -> Path:
    p = Path(manifest_path)
    return p.with_suffix(p.suffix + ".labels")


def _read_utf8(path: Path) -> str:
    """The file's text, newlines untranslated; ValidationError if it is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def load_manifest(path, check_files: bool = True) -> DatasetManifest:
    """Read a `path,species` CSV, applying the label sidecar when present.

    Validates that each audio file exists and has a decodable header,
    filling in durations. Duplicate path rows collapse to the first with a
    warning stating how many were dropped. Text that is not UTF-8, a path
    with a NUL byte and a species listed twice in the sidecar raise
    ValidationError.
    """
    p = Path(path)
    try:
        table = list(csv.reader(io.StringIO(_read_utf8(p), newline="")))
    except csv.Error as exc:
        raise ValidationError(f"{p}: unreadable CSV ({exc})") from exc
    rows: list[tuple[str, str]] = []
    if table:
        header = table[0]
        if [c.strip().lower() for c in header[:2]] != ["path", "species"]:
            raise ValidationError(
                f"{p}: expected header 'path,species', got {','.join(header)!r}"
            )
        for lineno, row in enumerate(table[1:], start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise ValidationError(f"{p}:{lineno}: row needs path and species")
            if "\0" in row[0]:
                raise ValidationError(f"{p}:{lineno}: path contains a NUL byte")
            rows.append((row[0].strip(), row[1].strip()))

    seen = set()
    deduped = []
    for path_str, species in rows:
        if path_str in seen:
            continue
        seen.add(path_str)
        deduped.append((path_str, species))
    dropped = len(rows) - len(deduped)
    if dropped:
        warnings.warn(f"{p}: dropped {dropped} duplicate path row(s)", stacklevel=2)

    labels_file = _labels_path(p)
    if labels_file.exists():
        label_set = [
            line.strip() for line in _read_utf8(labels_file).splitlines() if line.strip()
        ]
        known = set(label_set)
        if len(known) != len(label_set):
            raise ValidationError(f"{labels_file}: a species is listed more than once")
        for path_str, species in deduped:
            if species not in known:
                raise ValidationError(
                    f"{p}: species {species!r} not in the fixed label file {labels_file}"
                )
    else:
        label_set = sorted({species for _, species in deduped})

    entries = []
    for path_str, species in deduped:
        audio_path = Path(path_str)
        if not audio_path.is_absolute():
            audio_path = p.parent / audio_path
        duration = None
        if check_files:
            if not audio_path.is_file():
                raise ValidationError(f"{p}: missing audio file {path_str}")
            duration = wav_info(audio_path).duration
        entries.append(ManifestEntry(path=path_str, species=species, duration=duration))
    return DatasetManifest(entries=entries, label_set=label_set)


def write_manifest(manifest: DatasetManifest, path) -> None:
    """Write the CSV and the ordered label sidecar."""
    p = Path(path)
    with open(p, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["path", "species"])
        for e in manifest.entries:
            writer.writerow([e.path, e.species])
    _labels_path(p).write_text(
        "".join(s + "\n" for s in manifest.label_set), encoding="utf-8"
    )
