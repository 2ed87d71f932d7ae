"""Reverse-mode autodiff tensor.

A Tensor wraps a numpy array plus an optional gradient buffer. Operations in
:mod:`chirpnet.nn.functional` build a DAG of Tensors; calling ``backward()``
on a scalar loss walks the graph in reverse topological order and accumulates
gradients into every node that requires them. The op set is deliberately
small (just what the network needs), not a general-purpose autograd.

Inside ``with no_grad():`` no op records a graph node: every result is a
bare Tensor, whatever its operands, so forward-only passes keep nothing
alive for a backward pass that will not come. ``backward()`` belongs
outside it: the backward closures read the same flag.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import GraphError

# False inside no_grad(); the ops in functional read it through _needs
grad_enabled = True


@contextmanager
def no_grad():
    """Ops build no graph until the block exits; nests, and restores the flag on error."""
    global grad_enabled
    previous = grad_enabled
    grad_enabled = False
    try:
        yield
    finally:
        grad_enabled = previous


class Tensor:
    """N-dimensional real array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
    ):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------------

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise GraphError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def _own_grad(self, g: np.ndarray) -> None:
        """accumulate_grad for an array the caller has just built and drops.

        The first gradient is stored as is when it has this tensor's dtype,
        not copied. Backward closures pass their fresh arrays here; a
        gradient handed through from elsewhere (an identity op, a seed, an
        array given to two parents) goes to accumulate_grad, which copies
        it, so no two tensors share a gradient buffer.
        """
        if self.grad is None and g.dtype == self.data.dtype and g.shape == self.data.shape:
            self.grad = g
        else:
            self.accumulate_grad(g)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: Optional[np.ndarray] = None) -> None:
        """Populate ``grad`` on every upstream tensor with requires_grad.

        ``seed`` defaults to ones, so calling backward on a scalar loss gives
        plain gradients. Raises GraphError on a cyclic or malformed graph.
        """
        order = _topo_order(self)
        if seed is None:
            seed = np.ones_like(self.data)
        self.accumulate_grad(np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def _topo_order(root: Tensor) -> list:
    """Topological order of the graph below ``root`` (iterative DFS)."""
    order: list = []
    visited: set = set()
    on_stack: set = set()
    stack = [(root, iter(root._parents))]
    visited.add(id(root))
    on_stack.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if parent is None:
                raise GraphError("missing node in computation graph")
            pid = id(parent)
            if pid in on_stack:
                raise GraphError("cycle detected in computation graph")
            if pid not in visited:
                visited.add(pid)
                on_stack.add(pid)
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            on_stack.discard(id(node))
            stack.pop()
    return order


def parameter(data, dtype=np.float32) -> Tensor:
    """Leaf tensor that receives gradients during training."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)
