"""Forward behavior of the network ops against loop-based references."""

import numpy as np
import pytest

import oracles
from chirpnet.errors import (
    DegenerateInputError,
    NumericError,
    ParameterError,
    ShapeError,
)
from chirpnet.nn import functional as F
from chirpnet.nn.tensor import Tensor, no_grad, parameter


class TestConv2d:
    @pytest.mark.parametrize("cin,cout", [(2, 1), (2, 4), (2, 5), (1, 6)])
    @pytest.mark.parametrize("ksize,same", [(3, True), (3, False), (1, True)])
    def test_input_gradient_matches_loop_reference(self, cin, cout, ksize, same):
        """dx (im2col GEMM against the flipped kernels) equals d/dx of
        sum(conv(x) * g), built from the loop oracle."""
        rng = np.random.default_rng(cin * 10 + cout)
        h, w = 5, 6
        x = parameter(rng.standard_normal((2, h, w, cin)), dtype=np.float64)
        k = rng.standard_normal((cout, cin, ksize, ksize))
        out = F.conv2d(x, k, np.zeros(cout), same_padding=same)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        want = np.zeros(x.shape)
        for idx in np.ndindex(h, w, cin):
            basis = np.zeros((h, w, cin))
            basis[idx] = 1.0
            response = oracles.naive_conv2d(basis, k, np.zeros(cout), same_padding=same)
            want[(slice(None), *idx)] = np.tensordot(g, response, axes=3)
        np.testing.assert_allclose(x.grad, want, atol=1e-12)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, w = rng.integers(3, 9, size=2)
            cin, cout = rng.integers(1, 4, size=2)
            x = rng.standard_normal((h, w, cin))
            k = rng.standard_normal((cout, cin, 3, 3))
            b = rng.standard_normal(cout)
            got = F.conv2d(x, k, b).data
            want = oracles.naive_conv2d(x, k, b)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_1x1_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 7, 3))
        k = rng.standard_normal((2, 3, 1, 1))
        b = rng.standard_normal(2)
        np.testing.assert_allclose(
            F.conv2d(x, k, b).data, oracles.naive_conv2d(x, k, b), atol=1e-12
        )

    def test_same_padding_preserves_spatial_shape(self):
        x = np.zeros((6, 11, 2))
        k = np.zeros((4, 2, 3, 3))
        out = F.conv2d(x, k, np.zeros(4))
        assert out.shape == (6, 11, 4)

    def test_batch_and_single_agree(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 5, 5, 2))
        k = rng.standard_normal((2, 2, 3, 3))
        b = rng.standard_normal(2)
        batched = F.conv2d(x, k, b).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], F.conv2d(x[i], k, b).data)

    @pytest.mark.parametrize(
        "cin,ksize,same", [(1, 3, True), (4, 3, True), (4, 3, False), (4, 1, True)]
    )
    @pytest.mark.parametrize("rows", [1, 3])
    def test_graph_free_bands_equal_the_single_gemm(self, monkeypatch, cin, ksize, same, rows):
        """Bands of 1 row, and of 3 rows (which divides neither 13 nor 11 output
        rows), cover every output pixel once: they equal the batch-wide GEMM of
        the graph-building path and the loop oracle. Small integers keep every
        sum exact, whatever order a GEMM of a given size adds in."""
        rng = np.random.default_rng(cin * 10 + ksize + rows)
        x = rng.integers(-4, 5, size=(2, 13, 9, cin)).astype(np.float32)
        k = parameter(rng.integers(-4, 5, size=(5, cin, ksize, ksize)))
        b = parameter(rng.integers(-4, 5, size=5))
        whole = F.conv2d(x, k, b, same_padding=same)
        assert whole._backward_fn is not None
        oh, ow = whole.shape[1:3]
        assert oh % 3
        row_bytes = ow * ksize * ksize * cin * x.itemsize
        monkeypatch.setattr(F, "CONV_BAND_BYTES", rows * row_bytes + row_bytes // 2)
        calls = []
        matmul = np.matmul

        def counted(a, w, out):
            calls.append(a.shape[0])
            return matmul(a, w, out=out)

        monkeypatch.setattr(np, "matmul", counted)
        with no_grad():
            banded = F.conv2d(x, k, b, same_padding=same)
        assert banded._backward_fn is None
        assert calls == 2 * ([rows * ow] * (oh // rows) + [(oh % rows) * ow] * bool(oh % rows))
        np.testing.assert_array_equal(banded.data, whole.data)
        for i in range(2):
            want = oracles.naive_conv2d(x[i], k.data, b.data, same_padding=same)
            np.testing.assert_array_equal(banded.data[i], want)

    def test_rejects_even_or_large_kernels(self):
        x = np.zeros((4, 4, 1))
        for size in (2, 5):
            with pytest.raises(ParameterError):
                F.conv2d(x, np.zeros((1, 1, size, size)), np.zeros(1))

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ShapeError):
            F.conv2d(np.zeros((4, 4, 2)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_rejects_empty_spatial_input(self):
        with pytest.raises(DegenerateInputError):
            F.conv2d(np.zeros((0, 4, 1)), np.zeros((1, 1, 3, 3)), np.zeros(1))


class TestPooling:
    def test_maxpool_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h, w = rng.integers(2, 10, size=2)
            c = int(rng.integers(1, 4))
            x = rng.standard_normal((h, w, c))
            np.testing.assert_array_equal(
                F.maxpool2(x).data, oracles.naive_maxpool2(x)
            )

    def test_odd_tail_dropped(self):
        x = np.arange(15.0).reshape(3, 5, 1)
        assert F.maxpool2(x).shape == (1, 2, 1)

    def test_rejects_input_below_window(self):
        with pytest.raises(DegenerateInputError):
            F.maxpool2(np.zeros((1, 4, 1)))

    def test_tie_routes_gradient_to_first_cell_scanned(self):
        """Equal values in one window: the earliest row-major cell wins."""
        x = parameter(np.zeros((2, 2, 1)), dtype=np.float64)
        F.tsum(F.maxpool2(x)).backward()
        np.testing.assert_array_equal(x.grad[:, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("first", range(4))
    def test_tie_goes_to_first_cell_in_each_position(self, first):
        """Cells first..3 of the window share the maximum; cell ``first`` gets the gradient."""
        cells = np.full(4, -1.0)
        cells[first:] = 2.0
        x = parameter(cells.reshape(2, 2, 1), dtype=np.float64)
        F.tsum(F.maxpool2(x)).backward()
        want = np.zeros(4)
        want[first] = 1.0
        np.testing.assert_array_equal(x.grad.ravel(), want)

    def test_gradient_matches_argmax_routing(self):
        """Random windows with planted ties: the gradient lands where the
        row-major argmax of each window points, and nowhere else."""
        rng = np.random.default_rng(31)
        x = rng.integers(0, 3, size=(3, 7, 9, 4)).astype(np.float64)
        p = parameter(x, dtype=np.float64)
        g = rng.standard_normal((3, 3, 4, 4))
        F.maxpool2(p).backward(g)
        win = x[:, :6, :8].reshape(3, 3, 2, 4, 2, 4).transpose(0, 1, 3, 2, 4, 5).reshape(3, 3, 4, 4, 4)
        want = np.zeros((3, 3, 4, 4, 4))
        np.put_along_axis(want, win.argmax(axis=3)[:, :, :, None], g[:, :, :, None], axis=3)
        want = want.reshape(3, 3, 4, 2, 2, 4).transpose(0, 1, 3, 2, 4, 5).reshape(3, 6, 8, 4)
        np.testing.assert_array_equal(p.grad[:, :6, :8], want)
        assert not p.grad[:, 6:].any() and not p.grad[:, :, 8:].any()

    def test_odd_tail_gets_zero_gradient(self):
        x = parameter(np.arange(35.0).reshape(5, 7, 1), dtype=np.float64)
        F.tsum(F.maxpool2(x)).backward()
        assert not x.grad[4].any() and not x.grad[:, 6].any()
        assert x.grad.sum() == 6.0

    def test_gap_matches_loop_reference(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 9, 5))
        np.testing.assert_allclose(
            F.global_avg_pool(x).data, oracles.naive_gap(x), atol=1e-12
        )

    def test_gap_output_independent_of_width(self):
        """Constant maps of any spatial extent pool to the same vector."""
        for w in (8, 50, 333):
            out = F.global_avg_pool(np.full((4, w, 3), 2.5)).data
            np.testing.assert_allclose(out, [2.5, 2.5, 2.5])


class TestActivations:
    def test_relu_clamps_negatives(self):
        out = F.relu(np.array([-1.0, 0.0, 2.0])).data
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_adaptive_with_unit_product_matches_plain_tanh(self):
        """n * a = 1 at the initial slope, so the map starts as tanh(x)."""
        x = np.linspace(-3, 3, 50)
        out = F.adaptive(x, np.asarray(0.1), n=10.0).data
        np.testing.assert_allclose(out, np.tanh(x), atol=1e-12)

    def test_adaptive_slope_steepens_the_map(self):
        x = np.array([0.5])
        shallow = F.adaptive(x, np.asarray(0.05), n=10.0).data
        steep = F.adaptive(x, np.asarray(0.3), n=10.0).data
        assert steep[0] > shallow[0]

    def test_adaptive_rejects_vector_slope(self):
        with pytest.raises(ShapeError):
            F.adaptive(np.zeros(3), np.zeros(2), n=10.0)

    def test_adaptive_rejects_bad_n_and_base(self):
        with pytest.raises(ParameterError):
            F.adaptive(np.zeros(3), np.asarray(0.1), n=0.0)

    def test_activate_dispatch(self):
        x = np.array([-1.0, 1.0])
        np.testing.assert_array_equal(F.activate(x, "relu").data, [0.0, 1.0])
        np.testing.assert_allclose(F.activate(x, "tanh").data, np.tanh(x))
        with pytest.raises(ParameterError):
            F.activate(x, "adaptive")
        with pytest.raises(ParameterError):
            F.activate(x, "sigmoid")


class TestSoftmaxAndLoss:
    def test_softmax_matches_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(1, 20))
            np.testing.assert_allclose(
                F.softmax(v).data, oracles.naive_softmax(v), atol=1e-12
            )

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        out = F.softmax(rng.standard_normal((30, 17)) * 40).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_survives_large_logits(self):
        out = F.softmax(np.array([1000.0, 1000.0, -1000.0])).data
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0], atol=1e-12)

    def test_softmax_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            F.softmax(np.array([np.nan, 1.0]))

    def test_softmax_invariant_to_constant_shift(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(9)
        np.testing.assert_allclose(
            F.softmax(v).data, F.softmax(v + 123.4).data, atol=1e-12
        )

    def test_cross_entropy_value(self):
        probs = np.array([0.2, 0.5, 0.3])
        for pred, target in ((probs, [1]), (probs[None], [1])):
            loss = F.cross_entropy_mean(pred, target)
            np.testing.assert_allclose(float(loss.data), -np.log(0.5), rtol=1e-12)

    def test_cross_entropy_clamps_zero_probability(self):
        loss = F.cross_entropy_mean(np.array([0.0, 1.0]), [0])
        assert np.isfinite(loss.data)
        np.testing.assert_allclose(float(loss.data), -np.log(1e-12))

    def test_cross_entropy_target_range(self):
        with pytest.raises(IndexError):
            F.cross_entropy_mean(np.array([1.0]), [1])

    def test_cross_entropy_single_vector_gradient_keeps_its_shape(self):
        p = parameter(np.array([0.2, 0.5, 0.3]), dtype=np.float64)
        F.cross_entropy_mean(p, [1]).backward()
        np.testing.assert_allclose(p.grad, [0.0, -2.0, 0.0], rtol=1e-12)

    def test_cross_entropy_mean_is_mean_of_singles(self):
        """The batch mean equals the mean of the B=1 losses."""
        rng = np.random.default_rng(8)
        probs = F.softmax(rng.standard_normal((6, 4))).data
        targets = rng.integers(0, 4, size=6)
        singles = [float(F.cross_entropy_mean(probs[i : i + 1], targets[i : i + 1]).data)
                   for i in range(6)]
        got = float(F.cross_entropy_mean(probs, targets).data)
        np.testing.assert_allclose(got, np.mean(singles), rtol=1e-12)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(
            F.dropout(x, 0.4, train_mode=False).data, x
        )

    def test_train_mode_scales_survivors(self):
        rng = np.random.default_rng(9)
        x = np.ones((100, 100))
        out = F.dropout(x, 0.4, train_mode=True, rng=rng).data
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.6, rtol=1e-12)
        # survival count concentrates near 60%
        assert 0.55 < survivors.size / x.size < 0.65

    def test_train_mode_preserves_expectation(self):
        rng = np.random.default_rng(10)
        x = np.ones(200_000)
        out = F.dropout(x, 0.25, train_mode=True, rng=rng).data
        assert abs(out.mean() - 1.0) < 0.01

    def test_rate_validation(self):
        with pytest.raises(ParameterError):
            F.dropout(np.ones(3), 1.0, train_mode=True, rng=np.random.default_rng(0))
        with pytest.raises(ParameterError):
            F.dropout(np.ones(3), -0.1, train_mode=False)

    def test_train_mode_requires_rng(self):
        with pytest.raises(ParameterError):
            F.dropout(np.ones(3), 0.5, train_mode=True)


class TestDenseAndShape:
    def test_dense_affine_map(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
        b = np.array([0.5, 0.5, 0.5])
        np.testing.assert_allclose(F.dense(x, w, b).data, [[1.5, 2.5, 1.5]])

    def test_dense_rejects_feature_mismatch(self):
        with pytest.raises(ShapeError):
            F.dense(np.zeros((1, 3)), np.zeros((4, 2)), np.zeros(2))

    def test_flatten_round_trip(self):
        x = np.arange(24.0).reshape(2, 3, 4, 1)
        out = F.flatten(x).data
        assert out.shape == (2, 12)
        np.testing.assert_array_equal(out.reshape(x.shape), x)


def _op_results(x, k, b, a, probs):
    """One result of every op, for inputs that would all want gradients."""
    conv = F.conv2d(x, k, b)
    pooled = F.maxpool2(conv)
    gap = F.global_avg_pool(pooled)
    return [
        conv, pooled, gap, F.relu(pooled), F.tanh(pooled), F.adaptive(pooled, a, 10.0),
        F.softmax(gap), F.cross_entropy_mean(probs, [1]),
        F.dropout(gap, 0.5, True, np.random.default_rng(0)), F.dropout(gap, 0.5, False),
        F.flatten(pooled), F.dense(gap, k.data.reshape(3, 9)[:, :2], b.data[:2]), F.tsum(gap),
    ]


def test_no_grad_results_carry_no_backward_closure():
    rng = np.random.default_rng(3)
    x = parameter(rng.standard_normal((1, 6, 6, 1)))
    k = parameter(rng.standard_normal((3, 1, 3, 3)))
    b = parameter(rng.standard_normal(3))
    a = parameter(0.1)
    probs = parameter([[0.2, 0.8]])
    assert all(r._backward_fn is not None for r in _op_results(x, k, b, a, probs))
    with no_grad():
        results = _op_results(x, k, b, a, probs)
    assert all(r._backward_fn is None and not r.requires_grad for r in results)
