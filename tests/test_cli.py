"""Command-line behavior: workflows, config overrides, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chirpnet
import oracles
from chirpnet.audio.clip import decode_audio
from chirpnet.audio.fetch import FetchReport
from chirpnet.audio.manifest import ManifestEntry, load_manifest
from chirpnet.audio.wavio import write_wav
from chirpnet.cli import main
from chirpnet.errors import FetchError
from chirpnet.model import FcnConfig, grid_widths, load_weights, save_weights
from chirpnet.synth import make_clip
from chirpnet.training import FeatureSpec, TrainConfig, cross_validate, evaluate


def write_corpus(raw, n_per_class=4, seconds=0.5):
    rng = np.random.default_rng(17)
    for kind in ("tone-low", "tone-high"):
        d = raw / kind
        d.mkdir(parents=True)
        for i in range(n_per_class):
            clip = make_clip(kind, duration=seconds, rng=rng)
            write_wav(d / f"{kind}-{i}.wav", clip.samples, clip.sample_rate)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Raw corpus -> prepare -> train, shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cliws")
    raw = root / "raw"
    write_corpus(raw)
    prep = root / "prep"
    assert main(["prepare", "--input-dir", str(raw), "--output-dir", str(prep)]) == 0
    manifest = prep / "manifest.csv"
    model = root / "model.fcnw"
    rc = main([
        "train", str(manifest), "--output", str(model),
        "--depth", "3", "--width", "100", "--n-mels", "16",
        "--epochs-max", "3", "--batch-size", "8", "--patience", "3",
        "--folds", "2", "--seed", "0",
    ])
    assert rc == 0
    return root, manifest, model


class TestPrepare:
    def test_skips_junk_and_reports(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        write_corpus(raw, n_per_class=2)
        write_wav(raw / "tone-low" / "silent.wav", np.zeros(22050), 44100)
        (raw / "tone-low" / "broken.wav").write_bytes(b"garbage, not audio")
        prep = tmp_path / "prep"
        rc = main(["prepare", "--input-dir", str(raw), "--output-dir", str(prep)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "prepared 4 clips" in out
        assert "skipped 1 silent and 1 unreadable file(s)" in out
        assert (prep / "manifest.csv").exists()
        assert (prep / "manifest.csv.labels").read_text().splitlines() == [
            "tone-high", "tone-low",
        ]
        assert len(list(prep.glob("tone-*/*.wav"))) == 4

    def test_empty_input_dir(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        rc = main(["prepare", "--input-dir", str(raw), "--output-dir", str(tmp_path / "o")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_all_inputs_skipped(self, tmp_path, capsys):
        raw = tmp_path / "raw" / "wren"
        raw.mkdir(parents=True)
        write_wav(raw / "hush.wav", np.zeros(22050), 44100)
        rc = main([
            "prepare", "--input-dir", str(raw.parent), "--output-dir", str(tmp_path / "o")
        ])
        assert rc == 3
        assert "nothing to prepare" in capsys.readouterr().err


class TestTrainAndEval:
    def test_train_wrote_model(self, workspace):
        _, _, model = workspace
        assert model.exists()
        assert model.read_bytes()[:4] == b"FCNW"

    def test_eval_prints_table(self, workspace, tmp_path, capsys):
        _, manifest, model = workspace
        csv_path = tmp_path / "confusion.csv"
        rc = main([
            "eval", str(manifest), "--model", str(model),
            "--confusion-csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "precision" in out
        assert "weighted avg" in out
        assert csv_path.read_text().splitlines()[0] == ",tone-high,tone-low"

    def test_eval_rejects_unknown_species(self, workspace, tmp_path, capsys):
        _, _, model = workspace
        clip = make_clip("tone-low", duration=0.5, rng=np.random.default_rng(1))
        write_wav(tmp_path / "owl.wav", clip.samples, clip.sample_rate)
        bad = tmp_path / "bad.csv"
        bad.write_text("path,species\nowl.wav,owl\n")
        rc = main(["eval", str(bad), "--model", str(model)])
        assert rc == 3
        assert "not one of the model's classes" in capsys.readouterr().err

    def test_durations_table(self, workspace, capsys):
        _, manifest, model = workspace
        rc = main([
            "durations", str(manifest), "--model", str(model),
            "--durations", "0.25", "0.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "duration_s  accuracy" in out
        assert "       0.2  " in out and "       0.5  " in out

    def test_detect_timeline_and_json(self, workspace, tmp_path, capsys):
        root, _, model = workspace
        wav = next(iter(sorted(root.glob("prep/tone-low/*.wav"))))
        json_out = tmp_path / "events.json"
        rc = main([
            "detect", str(wav), "--model", str(model), "--json-out", str(json_out)
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "s - " in out and "p=" in out
        payload = json.loads(json_out.read_text())
        events = payload[str(wav)]
        assert len(events) == 1
        assert set(events[0]) == {"t_start", "t_end", "species", "confidence", "low_energy"}


class TestStandardizedModel:
    def test_saved_model_evaluates_like_the_trained_one(self, workspace, tmp_path, capsys):
        """train --standardize -> save -> load -> eval equals the in-memory evaluation."""
        _, manifest, _ = workspace
        path = tmp_path / "std.fcnw"
        assert main([
            "train", str(manifest), "--output", str(path),
            "--depth", "3", "--width", "100", "--n-mels", "16", "--activation", "tanh",
            "--epochs-max", "3", "--batch-size", "8", "--patience", "3",
            "--folds", "2", "--seed", "0", "--standardize",
        ]) == 0
        capsys.readouterr()

        dataset = load_manifest(manifest)
        clips = [decode_audio(manifest.parent / e.path) for e in dataset.entries]
        labels = [dataset.class_index(e.species) for e in dataset.entries]
        names = dataset.label_set
        spec = FeatureSpec(kind="mel-db", n_mels=16)
        config = FcnConfig(depth=3, widths=grid_widths(3, 100, len(names)),
                           activation="tanh", n_classes=len(names))
        tc = TrainConfig(epochs_max=3, batch_size=8, early_stop_patience=3,
                         standardize=True, seed=0)
        last = cross_validate(clips, labels, names, config, tc, n_folds=2, spec=spec).folds[-1]
        model, standardizer = last.model, last.spec.standardizer
        features = [standardizer.apply(spec.extract(c).values) for c in clips]
        expected = evaluate(model, list(zip(features, labels)), names)

        loaded, extras = load_weights(path)
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(model.params(), loaded.params()))
        saved_spec = FeatureSpec.from_extras(extras)
        for clip, want in zip(clips, features):
            np.testing.assert_array_equal(saved_spec.extract(clip).values, want)

        assert main(["eval", str(manifest), "--model", str(path)]) == 0
        assert capsys.readouterr().out == expected.table() + "\n"

    def test_corrupt_statistics_exit_with_bad_data(self, workspace, tmp_path, capsys):
        _, manifest, model = workspace
        loaded, extras = load_weights(model)
        bad = tmp_path / "bad.fcnw"
        save_weights(loaded, bad, extras={**extras, "standardizer": {"mean": [0.0], "std": [0.0]}})
        assert main(["eval", str(manifest), "--model", str(bad)]) == 3
        assert "standardizer" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["flipped header byte", "renamed params", "nan weight"])
    def test_corrupt_container_exits_with_bad_data(self, workspace, tmp_path, capsys, damage):
        _, manifest, model = workspace
        raw = bytearray(model.read_bytes()[:-4])  # resealed below, so the damage is parsed
        if damage == "flipped header byte":
            raw[10] ^= 0x80
        elif damage == "renamed params":
            at = raw.index(b'"params"')
            raw[at : at + 8] = b'"paramz"'
        else:
            raw[-4:] = np.float32(np.nan).tobytes()
        bad = tmp_path / "bad.fcnw"
        bad.write_bytes(oracles.seal_weights(bytes(raw)))
        assert main(["eval", str(manifest), "--model", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestConfigOverrides:
    def test_file_applies_and_cli_wins(self, workspace, tmp_path, capsys):
        _, manifest, _ = workspace
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "# small sweep\n"
            "epochs-max = 2\n"
            "folds = 2\n"
            "n-mels = 16\n"
            "batch_size = 8\n"
        )
        out_model = tmp_path / "m.fcnw"
        rc = main([
            "--config", str(cfg), "train", str(manifest),
            "--output", str(out_model), "--depth", "3", "--width", "100",
            "--epochs-max", "1", "--patience", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        fold_lines = [ln for ln in out.splitlines() if ln.startswith("fold ")]
        # folds comes from the file, epochs-max from the command line
        assert len(fold_lines) == 2
        assert all("stopped after epoch 1" in ln for ln in fold_lines)

    def test_unknown_key_rejected(self, workspace, tmp_path, capsys):
        _, manifest, _ = workspace
        cfg = tmp_path / "train.cfg"
        cfg.write_text("learning-rate-schedule = cosine\n")
        rc = main([
            "--config", str(cfg), "train", str(manifest), "--output", "x.fcnw"
        ])
        assert rc == 4
        assert "not an option of 'train'" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["--config", "/nonexistent/path.cfg", "gradcheck"])
        assert rc == 3
        assert "does not exist" in capsys.readouterr().err

    def test_bad_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("tol 0.5\n")
        rc = main(["--config", str(cfg), "gradcheck"])
        assert rc == 4
        assert "expected key=value" in capsys.readouterr().err

    def test_config_without_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tol = 0.5\n")
        rc = main(["--config", str(cfg)])
        assert rc == 4
        assert "recognized subcommand" in capsys.readouterr().err


class TestFetchCommand:
    def test_success_and_manifest(self, tmp_path, capsys, monkeypatch):
        rows = [ManifestEntry(path="101.wav", species="wren", duration=None)]
        report = FetchReport(rows=rows, downloaded=["101.wav"], cached=[], requests_made=2)
        monkeypatch.setattr("chirpnet.cli.fetch_recordings", lambda q, config=None: report)
        out_manifest = tmp_path / "fetched.csv"
        rc = main([
            "fetch", "wren", "--cache-dir", str(tmp_path / "cache"),
            "--manifest-out", str(out_manifest),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 recordings (1 downloaded, 0 already cached, 2 requests)" in out
        assert "101.wav,wren" in out_manifest.read_text()

    def test_network_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(q, config=None):
            raise FetchError("GET https://archive inaccessible after 3 attempts")

        monkeypatch.setattr("chirpnet.cli.fetch_recordings", boom)
        rc = main(["fetch", "wren", "--cache-dir", str(tmp_path / "cache")])
        assert rc == 6
        assert "error:" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "within tolerance" in out
        assert out.count("max rel err") >= 10

    def test_fails_at_impossible_tolerance(self, capsys):
        rc = main(["gradcheck", "--tol", "1e-15"])
        out = capsys.readouterr().out
        assert rc == 5
        assert "FAIL" in out
        assert "above tolerance" in out


class TestExitCodes:
    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_data(self, capsys):
        rc = main(["train", "/nonexistent/manifest.csv", "--output", "x.fcnw"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_zero_hz_wav_in_manifest(self, tmp_path, capsys):
        write_corpus(tmp_path, n_per_class=2)
        bad = tmp_path / "tone-low" / "tone-low-0.wav"
        raw = bytearray(bad.read_bytes())
        raw[24:28] = bytes(4)  # sample rate field of the fmt chunk
        bad.write_bytes(bytes(raw))
        wavs = sorted(tmp_path.glob("*/*.wav"))
        rows = [f"{p.relative_to(tmp_path)},{p.parent.name}" for p in wavs]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,species\n" + "\n".join(rows) + "\n")
        rc = main(["train", str(manifest), "--output", str(tmp_path / "m.fcnw")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "0 Hz" in err
        assert "Traceback" not in err

    def test_non_finite_float_wav(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        write_corpus(raw, n_per_class=2)
        samples = np.full(22050, 0.25)
        samples[100] = np.nan
        write_wav(raw / "tone-low" / "tone-low-0.wav", samples, 44100, float_format=True)
        prep = tmp_path / "prep"
        with pytest.warns(UserWarning, match="NaN or infinite"):
            rc = main(["prepare", "--input-dir", str(raw), "--output-dir", str(prep)])
        assert rc == 0
        assert "skipped 0 silent and 1 unreadable file(s)" in capsys.readouterr().out
        assert len(load_manifest(prep / "manifest.csv")) == 3
        wavs = sorted(raw.glob("*/*.wav"))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "path,species\n" + "".join(f"{p.relative_to(tmp_path)},{p.parent.name}\n"
                                        for p in wavs)
        )
        rc = main(["train", str(manifest), "--output", str(tmp_path / "m.fcnw")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "NaN or infinite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage", ["csv-bytes", "labels-bytes", "nul-path"])
    def test_undecodable_manifest(self, tmp_path, capsys, damage):
        write_corpus(tmp_path, n_per_class=1)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,species\ntone-low/tone-low-0.wav,tone-low\n")
        (tmp_path / "manifest.csv.labels").write_text("tone-low\n")
        if damage == "csv-bytes":
            manifest.write_bytes(manifest.read_bytes() + b"\xff\n")
        elif damage == "labels-bytes":
            (tmp_path / "manifest.csv.labels").write_bytes(b"tone-low\n\xff\n")
        else:
            manifest.write_text("path,species\ntone-low/tone\0.wav,tone-low\n")
        rc = main(["prepare", "--manifest", str(manifest), "--output-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "error:" in err
        assert "Traceback" not in err

    def test_features_command_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["features", "manifest.csv", "--output-dir", "x"])
        assert exc.value.code == 2

    def test_bad_value(self, capsys):
        rc = main(["train", "whatever.csv", "--output", "m.fcnw", "--fft-size", "1000"])
        assert rc == 4
        assert "power of two" in capsys.readouterr().err

    def test_help_shows_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "exit codes:" in capsys.readouterr().out


class TestStartup:
    def test_import_loads_no_scipy(self):
        """The package and its command line import numpy, not scipy and its BLAS."""
        src = Path(chirpnet.__file__).resolve().parents[1]
        code = (
            "import sys, chirpnet, chirpnet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.strip() == "[]"
