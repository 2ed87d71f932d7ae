"""Network configuration, forward-pass geometry, counting, persistence."""

import json
from dataclasses import replace
import struct
import tracemalloc

import numpy as np
import pytest

import oracles
from chirpnet.errors import (
    ConfigError,
    CorruptionError,
    DegenerateInputError,
    FormatError,
    ShapeError,
)
from chirpnet.model import (
    LIGHTWEIGHT_PARAM_BUDGET,
    FcnConfig,
    build_cnn_dense,
    build_model,
    canonical_config,
    grid_widths,
    load_weights,
    param_count,
    param_report,
    save_weights,
)
from chirpnet.nn import functional as F
from chirpnet.nn.layers import Activation, AdaptiveActivation
from chirpnet.nn.tensor import Tensor, no_grad

SMALL = FcnConfig(depth=3, widths=(6, 6, 3), activation="tanh", n_classes=3, enforce_grid=False)
LABELS3 = ["a", "b", "c"]


class TestGridWidths:
    def test_depth3_all_wide(self):
        assert grid_widths(3, 400, 17) == (400, 400, 17)

    def test_depth4_quarter_flanks(self):
        assert grid_widths(4, 400, 17) == (100, 400, 100, 17)
        assert grid_widths(4, 100, 5) == (25, 100, 25, 5)

    def test_depth6_double_flanks(self):
        assert grid_widths(6, 400, 17) == (100, 100, 400, 100, 100, 17)

    def test_bad_depth(self):
        with pytest.raises(ConfigError, match="depth"):
            grid_widths(5, 400, 17)


class TestFcnConfig:
    def test_defaults_are_canonical(self):
        cfg = FcnConfig()
        assert cfg.widths == (100, 400, 100, 17)
        assert cfg.min_frames == 8

    def test_min_frames_by_depth(self):
        assert FcnConfig(depth=3, widths=(100, 100, 17)).min_frames == 4
        assert FcnConfig(depth=6, widths=grid_widths(6, 100, 17)).min_frames == 32

    def test_width_count_must_match_depth(self):
        with pytest.raises(ConfigError, match="entries"):
            FcnConfig(depth=4, widths=(100, 400, 17))

    def test_final_width_must_equal_classes(self):
        with pytest.raises(ConfigError, match="n_classes"):
            FcnConfig(depth=4, widths=(100, 400, 100, 16), n_classes=17)

    def test_unknown_activation(self):
        with pytest.raises(ConfigError, match="activation"):
            FcnConfig(activation="swish")

    def test_unknown_head(self):
        with pytest.raises(ConfigError, match="head"):
            FcnConfig(head="attention")

    def test_dropout_range(self):
        with pytest.raises(ConfigError, match="dropout"):
            FcnConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError, match="dropout"):
            FcnConfig(dropout_rate=-0.1)

    def test_off_grid_widths_rejected_by_default(self):
        with pytest.raises(ConfigError, match="enforce_grid=False"):
            FcnConfig(depth=4, widths=(50, 200, 50, 17))

    def test_enforce_grid_escape_hatch(self):
        cfg = FcnConfig(depth=4, widths=(50, 200, 50, 17), enforce_grid=False)
        assert cfg.widths == (50, 200, 50, 17)

    def test_grid_family_members_accepted(self):
        for widest in (100, 250, 400):
            FcnConfig(depth=4, widths=grid_widths(4, widest, 17))

    def test_canonical_config(self):
        cfg = canonical_config(n_classes=9, activation="relu")
        assert cfg.widths == (100, 400, 100, 9)
        assert cfg.activation == "relu"


class TestForward:
    def test_distribution_shape_and_sum(self):
        model = build_model(SMALL, LABELS3, seed=0)
        probs = model.forward(np.random.default_rng(1).normal(size=(8, 8)))
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs > 0).all()

    def test_accepts_any_frame_count_above_minimum(self):
        model = build_model(SMALL, LABELS3, seed=0)
        rng = np.random.default_rng(2)
        for frames in (4, 5, 9, 40):
            probs = model.forward(rng.normal(size=(16, frames)))
            assert probs.shape == (3,)

    def test_too_few_frames_rejected(self):
        model = build_model(SMALL, LABELS3, seed=0)
        with pytest.raises(DegenerateInputError, match="min_frames"):
            model.forward(np.zeros((16, 3)))

    def test_too_few_bands_rejected(self):
        model = build_model(SMALL, LABELS3, seed=0)
        with pytest.raises(DegenerateInputError, match="bands"):
            model.forward(np.zeros((3, 16)))

    def test_non_matrix_rejected(self):
        model = build_model(SMALL, LABELS3, seed=0)
        with pytest.raises(ShapeError, match="matrix"):
            model.forward(np.zeros(64))

    def test_batched_tensor_forward(self):
        model = build_model(SMALL, LABELS3, seed=0)
        x = Tensor(np.random.default_rng(3).normal(size=(5, 8, 8, 1)).astype(np.float32))
        out = model.forward_tensor(x)
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_same_seed_same_outputs(self):
        x = np.random.default_rng(4).normal(size=(8, 8))
        a = build_model(SMALL, LABELS3, seed=7).forward(x)
        b = build_model(SMALL, LABELS3, seed=7).forward(x)
        c = build_model(SMALL, LABELS3, seed=8).forward(x)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_label_count_must_match(self):
        with pytest.raises(ConfigError, match="label set"):
            build_model(SMALL, ["a", "b"], seed=0)


DESK = FcnConfig(depth=4, widths=(8, 16, 8, 4), activation="adaptive", n_classes=4,
                 enforce_grid=False)


def generic_order(monkeypatch):
    """Force conv -> activation -> maxpool in every block."""
    monkeypatch.setattr(Activation, "monotone", False)
    monkeypatch.setattr(AdaptiveActivation, "monotone", False)


class TestPoolFirst:
    """Pooling before a monotone activation gives bitwise the generic order's outputs."""

    @pytest.mark.parametrize("activation", ["relu", "tanh", "adaptive"])
    def test_canonical_chunk_bitwise_equal(self, activation, monkeypatch):
        model = build_model(canonical_config(activation=activation), [f"s{i}" for i in range(17)],
                            seed=5)
        x = np.random.default_rng(11).normal(-50.0, 20.0, size=(128, 299)).astype(np.float32)
        assert all(act.monotone for act in model.activations)
        pool_first = model.forward(x)
        generic_order(monkeypatch)
        np.testing.assert_array_equal(model.forward(x), pool_first)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "adaptive"])
    @pytest.mark.parametrize("shape", [(32, 199), (33, 71), (17, 40), (32, 9)])
    def test_desk_model_odd_extents_bitwise_equal(self, activation, shape, monkeypatch):
        model = build_model(replace(DESK, activation=activation), list("abcd"), seed=2)
        if activation == "adaptive":
            for act, slope in zip(model.activations, (0.037, 0.1, 0.31)):
                act.slope.data[...] = slope
        rng = np.random.default_rng(sum(shape))
        single = rng.normal(size=shape)
        batch = Tensor(rng.normal(size=(3, *shape, 1)).astype(np.float32))
        pool_first = model.forward(single), model.forward_tensor(batch).data
        generic_order(monkeypatch)
        np.testing.assert_array_equal(model.forward(single), pool_first[0])
        np.testing.assert_array_equal(model.forward_tensor(batch).data, pool_first[1])

    def test_negative_slope_falls_back_to_generic_order(self, monkeypatch):
        model = build_model(DESK, list("abcd"), seed=3)
        model.activations[1].slope.data[...] = -0.1
        assert [act.monotone for act in model.activations] == [True, False, True]
        x = np.random.default_rng(4).normal(size=(32, 199))

        seen = []
        adaptive = F.adaptive

        def spy(h, *args, **kwargs):
            seen.append(h.shape)
            return adaptive(h, *args, **kwargs)

        monkeypatch.setattr(F, "adaptive", spy)
        got = model.forward(x)
        # block 1 activates its full conv output (32/2 x 199/2, 16 channels) before pooling
        assert seen == [(16, 99, 8), (16, 99, 16), (4, 24, 8)]

        generic_order(monkeypatch)
        np.testing.assert_array_equal(model.forward(x), got)
        # pooling first under a decreasing activation would change the answer
        monkeypatch.setattr(AdaptiveActivation, "monotone", True)
        assert not np.array_equal(model.forward(x), got)


def tracked_forward(model, x):
    """Forward that builds the graph (the parameters require gradients)."""
    probs = model.forward_tensor(Tensor(x[..., None].astype(np.float32)))
    assert probs._backward_fn is not None
    return probs.data


class TestGraphFree:
    """model.forward runs under no_grad: no graph, banded convolutions, same numbers."""

    @pytest.mark.parametrize("activation", ["relu", "tanh", "adaptive"])
    def test_canonical_chunk_bitwise_equal(self, activation):
        model = build_model(canonical_config(activation=activation), [f"s{i}" for i in range(17)],
                            seed=5)
        x = np.random.default_rng(11).normal(-50.0, 20.0, size=(128, 299)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x), tracked_forward(model, x))

    def test_canonical_batch_of_three_bitwise_equal(self):
        model = build_model(canonical_config(), [f"s{i}" for i in range(17)], seed=5)
        x = np.random.default_rng(12).normal(-50.0, 20.0, size=(3, 64, 101)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x), tracked_forward(model, x))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "adaptive"])
    @pytest.mark.parametrize("shape", [(33, 71), (17, 40)])
    def test_desk_model_bitwise_equal(self, activation, shape):
        model = build_model(replace(DESK, activation=activation), list("abcd"), seed=2)
        rng = np.random.default_rng(sum(shape))
        single = rng.normal(size=shape)
        batch = rng.normal(size=(3, *shape))
        np.testing.assert_array_equal(model.forward(single), tracked_forward(model, single))
        np.testing.assert_array_equal(model.forward(batch), tracked_forward(model, batch))

    def test_stack_equals_one_matrix_at_a_time(self):
        """Convolutions without a graph run image by image, so a stack's rows are
        bitwise the single-matrix results (evaluate relies on this)."""
        model = build_model(DESK, list("abcd"), seed=2)
        stack = np.random.default_rng(9).normal(size=(5, 32, 199))
        np.testing.assert_array_equal(model.forward(stack), [model.forward(m) for m in stack])

    def test_rejects_other_ranks(self):
        model = build_model(DESK, list("abcd"), seed=2)
        with pytest.raises(ShapeError, match="stack"):
            model.forward(np.zeros((1, 2, 32, 40)))

    def test_forward_keeps_no_graph(self, monkeypatch):
        model = build_model(DESK, list("abcd"), seed=2)
        seen = []
        softmax = F.softmax

        def spy(h):
            seen.append(h)
            return softmax(h)

        monkeypatch.setattr(F, "softmax", spy)
        model.forward(np.zeros((32, 40)))
        assert seen[0]._backward_fn is None and seen[0]._parents == ()
        with no_grad():
            assert model.forward_tensor(Tensor(np.zeros((32, 40, 1)))).data.shape == (4,)
        model.forward_tensor(Tensor(np.zeros((32, 40, 1))))
        assert seen[-1]._backward_fn is not None

    def test_canonical_chunk_peak_memory(self):
        model = build_model(canonical_config(), [f"s{i}" for i in range(17)], seed=5)
        x = np.random.default_rng(11).normal(-50.0, 20.0, size=(128, 299)).astype(np.float32)
        model.forward(x)
        tracemalloc.start()
        try:
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestDenseHead:
    def test_fixed_shape_accepted(self):
        model = build_cnn_dense(SMALL, LABELS3, fixed_shape=(8, 8), seed=0)
        probs = model.forward(np.random.default_rng(5).normal(size=(8, 8)))
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_other_shapes_rejected(self):
        model = build_cnn_dense(SMALL, LABELS3, fixed_shape=(8, 8), seed=0)
        with pytest.raises(ShapeError, match="exactly"):
            model.forward(np.zeros((8, 12)))
        with pytest.raises(ShapeError, match="exactly"):
            model.forward(np.zeros((16, 8)))

    def test_dense_head_needs_fixed_shape(self):
        from chirpnet.model import FcnModel

        cfg = FcnConfig(
            depth=3, widths=(6, 6, 3), n_classes=3, head="dense", enforce_grid=False
        )
        with pytest.raises(ConfigError, match="fixed_shape"):
            FcnModel(cfg, LABELS3, seed=0)

    def test_fixed_shape_too_small(self):
        with pytest.raises(ConfigError, match="too small"):
            build_cnn_dense(SMALL, LABELS3, fixed_shape=(2, 8), seed=0)

    def test_gap_builder_rejects_dense_config(self):
        cfg = FcnConfig(
            depth=3, widths=(6, 6, 3), n_classes=3, head="dense", enforce_grid=False
        )
        with pytest.raises(ConfigError, match="build_cnn_dense"):
            build_model(cfg, LABELS3)

    def test_dense_has_more_params_than_gap(self):
        gap = build_model(SMALL, LABELS3, seed=0)
        dense = build_cnn_dense(SMALL, LABELS3, fixed_shape=(32, 32), seed=0)
        assert param_count(dense) > param_count(gap)


class TestParamAccounting:
    def test_canonical_count(self):
        model = build_model(canonical_config(), ["s%d" % i for i in range(17)], seed=0)
        assert param_count(model) == 723220

    def test_relu_drops_slope_params(self):
        model = build_model(canonical_config(activation="relu"), ["s%d" % i for i in range(17)])
        assert param_count(model) == 723217

    def test_small_count_by_hand(self):
        # conv 1->6 (3x3), conv 6->6 (3x3), conv 6->3 (1x1), no slopes
        model = build_model(SMALL, LABELS3, seed=0)
        want = (9 * 6 + 6) + (9 * 6 * 6 + 6) + (6 * 3 + 3)
        assert param_count(model) == want

    def test_report_flags_budget_overrun(self):
        model = build_model(canonical_config(), ["s%d" % i for i in range(17)], seed=0)
        report = param_report(model)
        assert not report.within_budget
        text = report.summary()
        assert "total trainable parameters: 723220" in text
        overrun = 723220 - LIGHTWEIGHT_PARAM_BUDGET
        assert f"EXCEEDS the 500,000-parameter lightweight budget by {overrun:,}" in text

    def test_report_within_budget(self):
        report = param_report(build_model(SMALL, LABELS3, seed=0))
        assert report.within_budget
        assert "within the 500,000-parameter lightweight budget" in report.summary()

    def test_layer_names_cover_all_tensors(self):
        model = build_model(
            FcnConfig(depth=3, widths=(6, 6, 3), activation="adaptive",
                      n_classes=3, enforce_grid=False),
            LABELS3, seed=0,
        )
        report = param_report(model)
        assert len(report.by_layer) == len(model.params())
        assert report.total == sum(count for _, count in report.by_layer)
        names = [name for name, _ in report.by_layer]
        assert "act0.slope" in names
        assert "conv2.kernels" in names


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(
            FcnConfig(depth=3, widths=(6, 6, 3), activation="adaptive",
                      n_classes=3, enforce_grid=False),
            LABELS3, seed=42,
        )
        extras = {"feature_spec": {"kind": "mel-db", "n_mels": 32}, "note": 7}
        p = tmp_path / "model.fcnw"
        save_weights(model, p, extras=extras)
        back, got_extras = load_weights(p)
        assert got_extras == extras
        assert back.label_set == LABELS3
        assert back.config == model.config
        for a, b in zip(model.state_arrays(), back.state_arrays()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(6).normal(size=(8, 8))
        np.testing.assert_array_equal(model.forward(x), back.forward(x))

    def test_dense_round_trip(self, tmp_path):
        model = build_cnn_dense(SMALL, LABELS3, fixed_shape=(8, 8), seed=1)
        p = tmp_path / "dense.fcnw"
        save_weights(model, p)
        back, extras = load_weights(p)
        assert extras == {}
        assert back.fixed_shape == (8, 8)
        x = np.random.default_rng(8).normal(size=(8, 8))
        np.testing.assert_array_equal(model.forward(x), back.forward(x))

    def test_save_is_deterministic(self, tmp_path):
        model = build_model(SMALL, LABELS3, seed=3)
        save_weights(model, tmp_path / "a.fcnw")
        save_weights(model, tmp_path / "b.fcnw")
        assert (tmp_path / "a.fcnw").read_bytes() == (tmp_path / "b.fcnw").read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.fcnw"
        p.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(FormatError, match="magic"):
            load_weights(p)

    def test_bad_version(self, tmp_path):
        model = build_model(SMALL, LABELS3, seed=0)
        p = tmp_path / "x.fcnw"
        save_weights(model, p)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_weights(p)

    def test_too_short(self, tmp_path):
        p = tmp_path / "x.fcnw"
        p.write_bytes(b"FCNW")
        with pytest.raises(CorruptionError, match="too short"):
            load_weights(p)

    def test_truncated_tensor_data(self, tmp_path):
        model = build_model(SMALL, LABELS3, seed=0)
        p = tmp_path / "x.fcnw"
        save_weights(model, p)
        body = p.read_bytes()[:-4]
        p.write_bytes(oracles.seal_weights(body[:-10]))
        with pytest.raises(CorruptionError, match="truncated"):
            load_weights(p)

    def test_trailing_bytes(self, tmp_path):
        model = build_model(SMALL, LABELS3, seed=0)
        p = tmp_path / "x.fcnw"
        save_weights(model, p)
        p.write_bytes(oracles.seal_weights(p.read_bytes()[:-4] + b"\x00\x00"))
        with pytest.raises(CorruptionError, match="trailing"):
            load_weights(p)

    def test_writes_version_2_with_crc_trailer(self, tmp_path):
        p = tmp_path / "x.fcnw"
        save_weights(build_model(SMALL, LABELS3, seed=0), p)
        raw = p.read_bytes()
        assert raw[4] == 2
        assert oracles.seal_weights(raw[:-4]) == raw

    def test_flipped_digit_in_a_valid_value_fails_the_checksum(self, tmp_path):
        p = tmp_path / "x.fcnw"
        save_weights(build_model(SMALL, LABELS3, seed=0), p,
                     extras={"feature_spec": {"window_len": 882}})
        raw = p.read_bytes()
        p.write_bytes(raw.replace(b'"window_len": 882', b'"window_len": 872'))
        with pytest.raises(CorruptionError, match="checksum"):
            load_weights(p)
        p.write_bytes(raw[:12])
        with pytest.raises(CorruptionError, match="checksum"):
            load_weights(p)

    def test_version_1_file_loads_the_same_tensors(self, tmp_path):
        """A version-1 file is a version-2 body with version byte 1 and no trailer."""
        model = build_model(SMALL, LABELS3, seed=4)
        p = tmp_path / "x.fcnw"
        save_weights(model, p, extras={"note": 1})
        raw = p.read_bytes()
        p.write_bytes(raw[:4] + b"\x01" + raw[5:-4])
        back, extras = load_weights(p)
        assert extras == {"note": 1}
        for a, b in zip(model.state_arrays(), back.state_arrays()):
            np.testing.assert_array_equal(a, b)


def _saved(tmp_path, model=None):
    p = tmp_path / "x.fcnw"
    save_weights(model or build_model(SMALL, LABELS3, seed=0), p)
    return p


def _edit_header(path, edit):
    """Replace the JSON header bytes with edit(header_bytes), fixing the length
    field and the checksum."""
    raw = path.read_bytes()[:-4]
    (hlen,) = struct.unpack_from("<I", raw, 5)
    blob = edit(raw[9 : 9 + hlen])
    path.write_bytes(
        oracles.seal_weights(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + hlen :])
    )


def _edit_config(**changes):
    def edit(blob):
        header = json.loads(blob)
        header["config"].update(changes)
        return json.dumps(header).encode("utf-8")

    return edit


class TestCorruptContainer:
    """Every malformed container raises CorruptionError, never a bare Python error.

    The damaged files are resealed with a matching checksum, so each reaches
    the check it is named for.
    """

    def test_flipped_header_byte_is_not_utf8(self, tmp_path):
        p = _saved(tmp_path)
        raw = bytearray(p.read_bytes()[:-4])
        raw[10] ^= 0x80  # the opening quote of the first key becomes a stray continuation byte
        p.write_bytes(oracles.seal_weights(bytes(raw)))
        with pytest.raises(CorruptionError, match="UTF-8"):
            load_weights(p)

    def test_header_not_json(self, tmp_path):
        p = _saved(tmp_path)
        raw = bytearray(p.read_bytes()[:-4])
        raw[9] ^= 0x01  # "{" -> "z"
        p.write_bytes(oracles.seal_weights(bytes(raw)))
        with pytest.raises(CorruptionError, match="JSON"):
            load_weights(p)

    def test_renamed_params_field(self, tmp_path):
        p = _saved(tmp_path)
        _edit_header(p, lambda blob: blob.replace(b'"params"', b'"paramz"'))
        with pytest.raises(CorruptionError, match="KeyError"):
            load_weights(p)

    def test_unknown_config_key(self, tmp_path):
        p = _saved(tmp_path)
        _edit_header(p, _edit_config(colour="blue"))
        with pytest.raises(CorruptionError, match="TypeError"):
            load_weights(p)

    def test_invalid_config_value(self, tmp_path):
        p = _saved(tmp_path)
        _edit_header(p, _edit_config(activation="tanx"))
        with pytest.raises(CorruptionError, match="activation"):
            load_weights(p)

    @pytest.mark.parametrize("shape", [[6.0, 1.0, 3.0, 3.0], [6, True, 3, 3], "6133"])
    def test_non_integer_tensor_shape(self, tmp_path, shape):
        def edit(blob):
            header = json.loads(blob)
            header["params"][0]["shape"] = shape
            return json.dumps(header).encode("utf-8")

        p = _saved(tmp_path)
        _edit_header(p, edit)
        with pytest.raises(CorruptionError, match="extents must be integers"):
            load_weights(p)

    def test_extras_of_wrong_type(self, tmp_path):
        p = _saved(tmp_path)
        _edit_header(p, lambda blob: blob.replace(b'"extras": {}', b'"extras": []'))
        with pytest.raises(CorruptionError, match="extras must be an object"):
            load_weights(p)

    def test_header_of_wrong_type(self, tmp_path):
        p = _saved(tmp_path)
        _edit_header(p, lambda blob: b"[1, 2]")
        with pytest.raises(CorruptionError, match="malformed header"):
            load_weights(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, tmp_path, bad):
        model = build_model(SMALL, LABELS3, seed=0)
        model.convs[1].kernels.data[2, 1, 0, 2] = bad
        p = _saved(tmp_path, model)
        with pytest.raises(CorruptionError, match="conv1.kernels holds NaN or Inf"):
            load_weights(p)


class TestStateArrays:
    def test_load_rejects_wrong_count(self):
        model = build_model(SMALL, LABELS3, seed=0)
        with pytest.raises(ShapeError, match="arrays"):
            model.load_state_arrays(model.state_arrays()[:-1])

    def test_load_rejects_wrong_shape(self):
        model = build_model(SMALL, LABELS3, seed=0)
        arrays = model.state_arrays()
        arrays[0] = np.zeros((1, 1))
        with pytest.raises(ShapeError, match="shape"):
            model.load_state_arrays(arrays)

    def test_round_trip_restores_exactly(self):
        model = build_model(SMALL, LABELS3, seed=0)
        saved = model.state_arrays()
        for p in model.params():
            p.data = p.data + 1.0
        model.load_state_arrays(saved)
        for p, a in zip(model.params(), saved):
            np.testing.assert_array_equal(p.data, a)
