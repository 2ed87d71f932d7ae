"""Command-line entry point.

Subcommands cover the whole workflow: fetch recordings, prepare audio,
extract features, train and evaluate models, sweep architectures, study
clip durations, scan long recordings for events, and verify gradients.
Each failure class maps to its own exit code (see the --help epilog).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from . import verification
from .audio.clip import decode_audio
from .audio.fetch import FetchConfig, FetchQuery, fetch_recordings
from .audio.manifest import DatasetManifest, ManifestEntry, load_manifest, write_manifest
from .audio.preprocess import DEFAULT_MAX_SECONDS, DEFAULT_TOP_DB, cap_duration, trim_silence
from .audio.wavio import write_wav
from .detect import ChunkParams, detect, format_timeline, merge_events
from .dsp.features import save_features
from .dsp.windowing import FrameParams
from .errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    EmptyResultError,
    FetchError,
    FormatError,
    GraphError,
    NumericError,
    OrderingError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from .experiments import duration_study, grid_search
from .metrics import write_confusion_csv
from .model import (
    FcnConfig,
    grid_widths,
    load_weights,
    param_report,
    save_weights,
)
from .training import FeatureSpec, TrainConfig, cross_validate, evaluate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_DATA = 3
EXIT_BAD_VALUE = 4
EXIT_NUMERIC = 5
EXIT_NETWORK = 6

BAD_DATA_ERRORS = (FormatError, ValidationError, FileNotFoundError, IsADirectoryError)
BAD_VALUE_ERRORS = (
    ParameterError,
    ConfigError,
    ShapeError,
    DegenerateInputError,
    EmptyResultError,
    OrderingError,
)
NUMERIC_ERRORS = (NumericError, DivergenceError, GraphError)

EPILOG = """\
exit codes:
  0  success
  2  command-line usage error
  3  unreadable or malformed input (audio, manifest, weights, archive reply)
  4  invalid argument, option, or configuration value
  5  numeric failure (divergence, non-finite values, gradient mismatch)
  6  archive download failed after retries

A --config file holds one key=value override per line (# comments allowed);
keys are the long option names of the chosen subcommand with dashes or
underscores. Command-line options win over the file.
"""


# -- option groups shared by several subcommands ---------------------------------


def _add_feature_args(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("feature options")
    g.add_argument("--feature-kind", choices=("mel-db", "mfcc"), default="mel-db",
                   help="descriptor per analysis frame (default mel-db)")
    g.add_argument("--n-mels", type=int, default=128, help="mel bands (default 128)")
    g.add_argument("--n-mfcc", type=int, default=20,
                   help="cepstral coefficients for mfcc (default 20)")
    g.add_argument("--preemphasis", type=float, default=0.97,
                   help="pre-emphasis coefficient for mfcc (default 0.97)")
    g.add_argument("--window-len", type=int, default=882,
                   help="analysis window in samples (default 882)")
    g.add_argument("--hop", type=int, default=441,
                   help="hop between windows in samples (default 441)")
    g.add_argument("--fft-size", type=int, default=1024,
                   help="transform length, a power of two (default 1024)")


def _spec_from_args(args) -> FeatureSpec:
    return FeatureSpec(
        kind=args.feature_kind,
        n_mels=args.n_mels,
        n_mfcc=args.n_mfcc,
        preemphasis_b=args.preemphasis,
        frame_params=FrameParams(
            window_len=args.window_len, hop=args.hop, fft_size=args.fft_size
        ),
    )


def _add_train_args(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("training options")
    g.add_argument("--epochs-max", type=int, default=500)
    g.add_argument("--batch-size", type=int, default=80)
    g.add_argument("--patience", type=int, default=20,
                   help="early-stopping patience in epochs (default 20)")
    g.add_argument("--min-delta", type=float, default=1e-4)
    g.add_argument("--lr", type=float, default=1e-3)
    g.add_argument("--val-fraction", type=float, default=0.1,
                   help="share of the training split held out for early stopping")
    g.add_argument("--monitor-test", action="store_true",
                   help="early-stop on the test split instead of a held-out "
                        "validation carve (optimistic; off by default)")
    g.add_argument("--standardize", action="store_true",
                   help="normalize each band by training-set mean and deviation")
    g.add_argument("--folds", type=int, default=10,
                   help="Monte Carlo cross-validation folds (default 10)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--jobs", type=int, default=1,
                   help="worker processes for parallel folds (default 1)")


def _train_config_from_args(args) -> TrainConfig:
    return TrainConfig(
        epochs_max=args.epochs_max,
        batch_size=args.batch_size,
        early_stop_patience=args.patience,
        min_delta=args.min_delta,
        lr=args.lr,
        val_fraction=args.val_fraction,
        monitor_test=args.monitor_test,
        standardize=args.standardize,
        seed=args.seed,
    )


def _entry_path(manifest_path, entry: ManifestEntry) -> Path:
    p = Path(entry.path)
    return p if p.is_absolute() else Path(manifest_path).parent / p


def _load_dataset(manifest_path):
    """Manifest -> (clips, class indices, label set)."""
    manifest = load_manifest(manifest_path)
    clips = [decode_audio(_entry_path(manifest_path, e)) for e in manifest.entries]
    labels = [manifest.class_index(e.species) for e in manifest.entries]
    return clips, labels, manifest.label_set


def _labeled_clips_for_model(manifest_path, model):
    """Clips paired with indices into the model's label ordering."""
    manifest = load_manifest(manifest_path)
    order = {s: i for i, s in enumerate(model.label_set)}
    pairs = []
    for e in manifest.entries:
        if e.species not in order:
            raise ValidationError(
                f"species {e.species!r} is not one of the model's classes"
            )
        pairs.append((decode_audio(_entry_path(manifest_path, e)), order[e.species]))
    return pairs


# -- subcommands ------------------------------------------------------------------


def cmd_fetch(args) -> int:
    config = FetchConfig.from_file(args.archive_config) if args.archive_config else None
    query = FetchQuery(
        species=args.species, max_results=args.max_results, cache_dir=args.cache_dir
    )
    report = fetch_recordings(query, config=config)
    print(
        f"{len(report.rows)} recordings ({len(report.downloaded)} downloaded, "
        f"{len(report.cached)} already cached, {report.requests_made} requests)"
    )
    if args.manifest_out:
        label_set = sorted({r.species for r in report.rows})
        write_manifest(DatasetManifest(entries=report.rows, label_set=label_set),
                       args.manifest_out)
        print(f"manifest written to {args.manifest_out}")
    return EXIT_OK


def _gather_input_files(args) -> list[tuple[Path, str]]:
    if args.manifest:
        manifest = load_manifest(args.manifest)
        return [(_entry_path(args.manifest, e), e.species) for e in manifest.entries]
    root = Path(args.input_dir)
    found = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        for wav in sorted(sub.glob("*.wav")):
            found.append((wav, sub.name))
    if not found:
        raise ValidationError(f"no species/*.wav files under {root}")
    return found


def cmd_prepare(args) -> int:
    files = _gather_input_files(args)
    out_root = Path(args.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    entries = []
    skipped_silent = 0
    skipped_bad = 0
    taken: set[str] = set()
    for path, species in files:
        try:
            clip = decode_audio(path)
            clip = trim_silence(clip, top_db=args.top_db)
        except EmptyResultError:
            warnings.warn(f"{path}: nothing above the silence floor; skipped")
            skipped_silent += 1
            continue
        except (FormatError, ParameterError) as exc:
            warnings.warn(f"{path}: {exc}; skipped")
            skipped_bad += 1
            continue
        clip = cap_duration(clip, max_seconds=args.max_seconds)
        rel = f"{species}/{path.stem}.wav"
        n = 2
        while rel in taken:
            rel = f"{species}/{path.stem}-{n}.wav"
            n += 1
        taken.add(rel)
        dest = out_root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        write_wav(dest, clip.samples, clip.sample_rate, float_format=True)
        entries.append(ManifestEntry(path=rel, species=species, duration=clip.duration))
    if not entries:
        raise ValidationError("every input file was skipped; nothing to prepare")
    label_set = sorted({e.species for e in entries})
    manifest_path = out_root / "manifest.csv"
    write_manifest(DatasetManifest(entries=entries, label_set=label_set), manifest_path)
    total = sum(e.duration or 0.0 for e in entries)
    print(
        f"prepared {len(entries)} clips ({total:.1f}s total) across "
        f"{len(label_set)} species; manifest at {manifest_path}"
    )
    if skipped_silent or skipped_bad:
        print(f"skipped {skipped_silent} silent and {skipped_bad} unreadable file(s)")
    return EXIT_OK


def cmd_features(args) -> int:
    spec = _spec_from_args(args)
    manifest = load_manifest(args.manifest)
    out_root = Path(args.output_dir)
    for e in manifest.entries:
        clip = decode_audio(_entry_path(args.manifest, e))
        matrix = spec.extract(clip)
        dest = out_root / e.species / (Path(e.path).stem + ".chft")
        dest.parent.mkdir(parents=True, exist_ok=True)
        save_features(matrix, dest)
    print(f"wrote {len(manifest.entries)} feature files under {out_root}")
    return EXIT_OK


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    tc = _train_config_from_args(args)
    clips, labels, label_set = _load_dataset(args.manifest)
    n_classes = len(label_set)
    config = FcnConfig(
        depth=args.depth,
        widths=grid_widths(args.depth, args.width, n_classes),
        activation=args.activation,
        n_classes=n_classes,
    )
    summary, model, _, standardizer = cross_validate(
        clips, labels, label_set, config, tc,
        n_folds=args.folds, spec=spec, jobs=args.jobs, keep_last_model=True,
    )
    for f in summary.folds:
        print(
            f"fold {f.fold}: train {f.train_accuracy:.3f}  test {f.test_accuracy:.3f}"
            f"  (stopped after epoch {f.stopped_epoch})"
        )
    print(f"mean test accuracy {summary.mean_test:.3f} +/- {summary.std_test:.3f}")
    print(param_report(model).summary())
    extras = {"feature_spec": spec.to_dict(), "cv": summary.to_dict()}
    if standardizer is not None:
        extras["standardizer"] = standardizer.state()
    save_weights(model, args.output, extras=extras)
    print(f"weights written to {args.output}")
    if args.report_json:
        Path(args.report_json).write_text(
            json.dumps(summary.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_gridsearch(args) -> int:
    spec = _spec_from_args(args)
    tc = _train_config_from_args(args)
    clips, labels, label_set = _load_dataset(args.manifest)
    result = grid_search(
        clips, labels, label_set, tc,
        depths=tuple(args.depths),
        widths=tuple(args.widths),
        activations=tuple(args.activations),
        descriptors=tuple(args.descriptors),
        checkpoint_dir=args.checkpoint_dir,
        n_folds=args.folds,
        spec=spec,
        jobs=args.jobs,
    )
    for cell in result.cells:
        if cell.error:
            print(f"{cell.key:32s}  failed: {cell.error}")
        else:
            print(
                f"{cell.key:32s}  test {cell.mean_test:.3f} +/- {cell.std_test:.3f}"
                f"  ({cell.param_total:,} params)"
            )
    best = result.best()
    print(
        f"best: {best.key} with mean test accuracy {best.mean_test:.3f} "
        f"({result.cells_trained} cells trained this run)"
    )
    if args.output:
        Path(args.output).write_text(
            json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    model, extras = load_weights(args.model)
    spec = FeatureSpec.from_extras(extras)
    pairs = _labeled_clips_for_model(args.manifest, model)
    test_set = [(spec.extract(clip).values, label) for clip, label in pairs]
    report = evaluate(model, test_set, model.label_set)
    print(report.table())
    if args.confusion_csv:
        write_confusion_csv(report.confusion, model.label_set, args.confusion_csv)
        print(f"confusion matrix written to {args.confusion_csv}")
    return EXIT_OK


def cmd_durations(args) -> int:
    model, extras = load_weights(args.model)
    spec = FeatureSpec.from_extras(extras)
    pairs = _labeled_clips_for_model(args.manifest, model)
    accuracies = duration_study(
        model, pairs, durations=tuple(args.durations), spec=spec
    )
    print("duration_s  accuracy")
    for dur in sorted(accuracies):
        print(f"{dur:10.1f}  {accuracies[dur]:.3f}")
    return EXIT_OK


def cmd_detect(args) -> int:
    model, extras = load_weights(args.model)
    spec = FeatureSpec.from_extras(extras)
    cp = ChunkParams(
        chunk_seconds=args.chunk_seconds,
        hop_seconds=args.hop_seconds,
        min_confidence=args.min_confidence,
    )
    all_events = {}
    for audio_path in args.audio:
        clip = decode_audio(audio_path)
        events = detect(model, clip, cp, spec=spec)
        if not args.no_merge:
            events = merge_events(events)
        if len(args.audio) > 1:
            print(f"== {audio_path}")
        print(format_timeline(events) if events else "(no events)")
        all_events[str(audio_path)] = [asdict(ev) for ev in events]
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(all_events, indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = verification.run_all(tol=args.tol)
    failed = []
    for name, report in results:
        status = "ok" if report.passed else "FAIL"
        print(
            f"{name:36s} max rel err {report.max_rel_err:.3e} "
            f"({report.n_checked} entries)  {status}"
        )
        if not report.passed:
            failed.append(name)
    if failed:
        print(f"{len(failed)} scenario(s) above tolerance {args.tol:g}")
        return EXIT_NUMERIC
    print(f"all {len(results)} scenarios within tolerance {args.tol:g}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="chirpnet",
        description="Bird sound classification from spectrogram features.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="key=value file of option overrides for the subcommand")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, epilog=EPILOG,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
        sp.add_argument("--config", metavar="FILE", default=None, help=argparse.SUPPRESS)
        sp.set_defaults(func=func)
        commands[name] = sp
        return sp

    sp = add("fetch", cmd_fetch, "download recordings from a public archive")
    sp.add_argument("species", help="search term, e.g. a species name")
    sp.add_argument("--max-results", type=int, default=50)
    sp.add_argument("--cache-dir", default="recordings")
    sp.add_argument("--archive-config", metavar="FILE", default=None,
                    help="key = value file overriding archive endpoint fields")
    sp.add_argument("--manifest-out", default=None,
                    help="also write a manifest of the fetched files")

    sp = add("prepare", cmd_prepare, "trim silence, cap length, write clean clips")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--input-dir", help="directory of species/*.wav files")
    src.add_argument("--manifest", help="existing manifest to read instead")
    sp.add_argument("--output-dir", required=True)
    sp.add_argument("--top-db", type=float, default=DEFAULT_TOP_DB,
                    help="keep frames within this many dB of the loudest")
    sp.add_argument("--max-seconds", type=float, default=DEFAULT_MAX_SECONDS)

    sp = add("features", cmd_features, "extract and store feature matrices")
    sp.add_argument("manifest")
    sp.add_argument("--output-dir", required=True)
    _add_feature_args(sp)

    sp = add("train", cmd_train, "cross-validate and save the last fold's model")
    sp.add_argument("manifest")
    sp.add_argument("--output", required=True, help="weights file to write (.fcnw)")
    sp.add_argument("--depth", type=int, choices=(3, 4, 6), default=4)
    sp.add_argument("--width", type=int, choices=(100, 250, 400), default=400,
                    help="widest convolution block (default 400)")
    sp.add_argument("--activation", choices=("relu", "tanh", "adaptive"),
                    default="adaptive")
    sp.add_argument("--report-json", default=None,
                    help="also write the fold summary as JSON")
    _add_feature_args(sp)
    _add_train_args(sp)

    sp = add("gridsearch", cmd_gridsearch, "sweep depth, width, activation, features")
    sp.add_argument("manifest")
    sp.add_argument("--checkpoint-dir", required=True,
                    help="finished cells land here and are reused on rerun")
    sp.add_argument("--output", default=None, help="write all cell results as JSON")
    sp.add_argument("--depths", type=int, nargs="+", default=[3, 4, 6])
    sp.add_argument("--widths", type=int, nargs="+", default=[100, 250, 400])
    sp.add_argument("--activations", nargs="+",
                    default=["relu", "tanh", "adaptive"])
    sp.add_argument("--descriptors", nargs="+", default=["mel-db", "mfcc"])
    _add_feature_args(sp)
    _add_train_args(sp)

    sp = add("eval", cmd_eval, "score a saved model against a labeled manifest")
    sp.add_argument("manifest")
    sp.add_argument("--model", required=True)
    sp.add_argument("--confusion-csv", default=None)

    sp = add("durations", cmd_durations, "accuracy as test clips are truncated")
    sp.add_argument("manifest")
    sp.add_argument("--model", required=True)
    sp.add_argument("--durations", type=float, nargs="+",
                    default=[1, 3, 5, 7, 10, 15, 20])

    sp = add("detect", cmd_detect, "scan recordings in chunks and report events")
    sp.add_argument("audio", nargs="+", help="WAV file(s) to scan")
    sp.add_argument("--model", required=True)
    sp.add_argument("--chunk-seconds", type=float, default=3.0)
    sp.add_argument("--hop-seconds", type=float, default=1.0)
    sp.add_argument("--min-confidence", type=float, default=0.0)
    sp.add_argument("--no-merge", action="store_true",
                    help="report raw per-chunk events without merging")
    sp.add_argument("--json-out", default=None)

    sp = add("gradcheck", cmd_gradcheck, "finite-difference check of every layer")
    sp.add_argument("--tol", type=float, default=1e-4)

    return parser, commands


# -- config-file overrides -----------------------------------------------------------


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def _read_overrides(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file {p} does not exist")
    overrides = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        overrides[key.strip().replace("-", "_")] = _coerce(value.strip())
    return overrides


def _scan_argv(argv: list[str]) -> tuple[str | None, str | None]:
    """Pull out (config path, subcommand name) without a full parse."""
    config = None
    command = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 < len(argv):
                config = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            config = tok.split("=", 1)[1]
        elif command is None and not tok.startswith("-"):
            command = tok
        i += 1
    return config, command


def _apply_overrides(commands: dict, command: str | None, overrides: dict) -> None:
    if command is None or command not in commands:
        raise ConfigError("--config requires a recognized subcommand")
    sp = commands[command]
    known = {a.dest for a in sp._actions}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"config key {key!r} is not an option of {command!r}")
        sp.set_defaults(**{key: value})


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        config_path, command = _scan_argv(argv)
        if config_path:
            _apply_overrides(commands, command, _read_overrides(config_path))
        args = parser.parse_args(argv)
        return args.func(args)
    except BAD_DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except BAD_VALUE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_VALUE
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FetchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NETWORK


if __name__ == "__main__":
    sys.exit(main())
