"""The differentiation engine: graph walking, accumulation, failure modes."""

import numpy as np
import pytest

from chirpnet.errors import GraphError
from chirpnet.nn import functional as F
from chirpnet.nn import tensor as tensor_module
from chirpnet.nn.tensor import Tensor, no_grad, parameter


def test_int_input_promoted_to_float():
    t = Tensor([1, 2, 3])
    assert np.issubdtype(t.dtype, np.floating)


def test_backward_on_scalar_seeds_ones():
    x = parameter([2.0, 3.0], dtype=np.float64)
    loss = F.tsum(x)
    loss.backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


def test_custom_seed_scales_gradient():
    x = parameter([2.0, 3.0], dtype=np.float64)
    loss = F.tsum(x)
    loss.backward(seed=np.asarray(5.0))
    np.testing.assert_array_equal(x.grad, [5.0, 5.0])


def test_gradient_accumulates_across_shared_use():
    """A tensor consumed twice receives the sum of both paths."""
    x = parameter([1.0, -2.0], dtype=np.float64)
    loss = F.tsum(x)
    loss2 = F.tsum(F.tanh(x))
    total = Tensor(
        loss.data + loss2.data,
        parents=(loss, loss2),
        backward_fn=lambda g: (loss.accumulate_grad(g), loss2.accumulate_grad(g)),
    )
    total.backward()
    expected = 1.0 + (1.0 - np.tanh(x.data) ** 2)
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


def test_repeated_backward_accumulates_until_zero_grad():
    x = parameter([1.0], dtype=np.float64)
    F.tsum(x).backward()
    F.tsum(x).backward()
    np.testing.assert_array_equal(x.grad, [2.0])
    x.zero_grad()
    assert x.grad is None


def test_accumulate_grad_rejects_shape_mismatch():
    x = parameter(np.zeros((2, 3)))
    with pytest.raises(GraphError, match="shape"):
        x.accumulate_grad(np.zeros((3, 2)))


def test_grad_cast_to_data_dtype():
    x = parameter(np.zeros(4), dtype=np.float32)
    x.accumulate_grad(np.ones(4, dtype=np.float64))
    assert x.grad.dtype == np.float32


def test_cycle_detection():
    a = Tensor([1.0])
    b = Tensor([1.0], parents=(a,), backward_fn=lambda g: None)
    a._parents = (b,)
    with pytest.raises(GraphError, match="cycle"):
        b.backward()


def test_missing_parent_rejected():
    a = Tensor([1.0], parents=(None,), backward_fn=lambda g: None)
    with pytest.raises(GraphError, match="missing"):
        a.backward()


def test_no_grad_flows_into_plain_tensors():
    x = Tensor(np.ones((4, 4, 1)))
    k = parameter(np.ones((2, 1, 3, 3)) * 0.1)
    b = parameter(np.zeros(2))
    F.tsum(F.conv2d(x, k, b)).backward()
    assert x.grad is None
    assert k.grad is not None


def test_topo_order_handles_deep_chains_iteratively():
    """A graph deeper than the recursion limit must still walk."""
    x = parameter(np.ones(2), dtype=np.float64)
    node = x
    for _ in range(3000):
        node = F.tanh(node)
    F.tsum(node).backward()
    assert x.grad is not None and np.all(np.isfinite(x.grad))


def test_no_grad_builds_no_graph():
    x = parameter([1.0, -2.0], dtype=np.float64)
    with no_grad():
        loss = F.tsum(F.tanh(x))
    assert loss._backward_fn is None and loss._parents == ()
    loss = F.tsum(F.tanh(x))
    assert loss._backward_fn is not None
    loss.backward()
    np.testing.assert_allclose(x.grad, 1.0 - np.tanh([1.0, -2.0]) ** 2)


def test_no_grad_nests_and_restores_after_an_error():
    assert tensor_module.grad_enabled
    with pytest.raises(RuntimeError, match="inner"):
        with no_grad():
            with no_grad():
                assert not tensor_module.grad_enabled
            assert not tensor_module.grad_enabled
            raise RuntimeError("inner")
    assert tensor_module.grad_enabled
    with no_grad():
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError
        assert not tensor_module.grad_enabled
    assert tensor_module.grad_enabled
