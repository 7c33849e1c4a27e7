"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are stored as numpy arrays; every differentiable operation records a
backward closure so that :meth:`Tensor.backward` can accumulate gradients
through the computation graph. Graph construction can be suspended with
:func:`no_grad` for evaluation-only passes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from ..errors import ShapeError

Array = np.ndarray


class _GradMode:
    enabled = True


@contextmanager
def no_grad():
    """Disable graph construction within the block (forward-only evaluation)."""
    prev = _GradMode.enabled
    _GradMode.enabled = False
    try:
        yield
    finally:
        _GradMode.enabled = prev


class Tensor:
    """A dense float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_grad_owned")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GradMode.enabled
        self.grad: Array | None = None
        self._backward = None
        self._parents: tuple["Tensor", ...] = ()
        self._grad_owned = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return sum_(self, axis)

    def mean(self, axis=None):
        return mean(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def backward(self) -> None:
        """Accumulate gradients of this scalar w.r.t. every graph leaf."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        self._grad_owned = True
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _to_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _result(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _GradMode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: Array) -> None:
    """Accumulate into t.grad; arrays received from outside are never mutated."""
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        t.grad = g
        t._grad_owned = False
    elif t._grad_owned:
        t.grad += g
    else:
        t.grad = t.grad + g
        t._grad_owned = True


def _owned_grad(t: Tensor) -> Array:
    """t.grad as a privately owned, writable buffer (allocating if needed)."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    elif not t._grad_owned:
        t.grad = t.grad.copy()
    t._grad_owned = True
    return t.grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _to_tensor(a), _to_tensor(b)

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _result(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _to_tensor(a), _to_tensor(b)

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _result(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _to_tensor(a), _to_tensor(b)

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _to_tensor(a), _to_tensor(b)

    def bw(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _result(a.data / b.data, (a, b), bw)


def neg(a) -> Tensor:
    a = _to_tensor(a)

    def bw(g):
        _accum(a, -g)

    return _result(-a.data, (a,), bw)


def abs_(a) -> Tensor:
    """Elementwise absolute value; subgradient 0 at the origin."""
    a = _to_tensor(a)
    sign = np.sign(a.data)

    def bw(g):
        _accum(a, g * sign)

    return _result(np.abs(a.data), (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    a = _to_tensor(a)
    keep = a.data > 0

    def bw(g):
        _accum(a, g * keep)

    return _result(np.maximum(a.data, 0.0), (a,), bw)


def sigmoid(a) -> Tensor:
    a = _to_tensor(a)
    x = a.data
    # overflow-free: exp(-|x|) is in (0, 1]
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        _accum(a, g * (out * (1.0 - out)))

    return _result(out, (a,), bw)


def tanh(a) -> Tensor:
    a = _to_tensor(a)
    out = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out * out))

    return _result(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions


def _reduced_count(shape: tuple[int, ...], axis) -> int:
    if axis is None:
        return int(np.prod(shape)) if shape else 1
    if isinstance(axis, int):
        axis = (axis,)
    return int(np.prod([shape[a] for a in axis]))


def _expand_reduced(g: Array, shape: tuple[int, ...], axis) -> Array:
    if axis is None:
        return np.broadcast_to(g, shape)
    if isinstance(axis, int):
        axis = (axis,)
    axis = tuple(a % len(shape) for a in axis)
    for a in sorted(axis):
        g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def sum_(a, axis=None) -> Tensor:
    a = _to_tensor(a)

    def bw(g):
        _accum(a, _expand_reduced(g, a.data.shape, axis))

    return _result(a.data.sum(axis=axis), (a,), bw)


def mean(a, axis=None) -> Tensor:
    a = _to_tensor(a)
    n = _reduced_count(a.data.shape, axis)

    def bw(g):
        _accum(a, _expand_reduced(g, a.data.shape, axis) / n)

    return _result(a.data.mean(axis=axis), (a,), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = _to_tensor(a)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), bw)


def transpose(a, axes) -> Tensor:
    a = _to_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        _accum(a, g.transpose(inverse))

    return _result(a.data.transpose(axes), (a,), bw)


def swap_last2(a) -> Tensor:
    """Transpose the trailing two axes (matrix transpose under batching)."""
    a = _to_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"swap_last2 needs ndim >= 2, got shape {a.shape}")

    def bw(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _result(np.swapaxes(a.data, -1, -2), (a,), bw)


def broadcast_to(a, shape) -> Tensor:
    a = _to_tensor(a)
    shape = tuple(shape)

    def bw(g):
        _accum(a, g)

    return _result(np.broadcast_to(a.data, shape), (a,), bw)


def concat(parts: Iterable, axis: int = -1) -> Tensor:
    parts = [_to_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of an empty sequence")
    data = np.concatenate([p.data for p in parts], axis=axis)
    ax = axis % data.ndim
    sizes = [p.data.shape[ax] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[ax] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _result(data, parts, bw)


def stack(parts: Iterable, axis: int = 0) -> Tensor:
    parts = [_to_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("stack of an empty sequence")
    data = np.stack([p.data for p in parts], axis=axis)

    def bw(g):
        for i, p in enumerate(parts):
            _accum(p, np.take(g, i, axis=axis))

    return _result(data, parts, bw)


def take(a, indices, axis: int = 0) -> Tensor:
    """Gather rows/slices along ``axis``; scatter-adds gradients back.

    ``indices`` may be an int (the axis is dropped), a 1-D index array, or,
    for ``axis == 0`` only, a multi-dimensional index array.
    """
    a = _to_tensor(a)
    ax = axis % a.ndim
    scalar = np.isscalar(indices) or (
        isinstance(indices, np.ndarray) and indices.ndim == 0
    )
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim > 1 and ax != 0:
        raise ShapeError("multi-dimensional take indices require axis=0")
    data = np.take(a.data, int(idx) if scalar else idx, axis=ax)
    unique = idx.ndim == 1 and np.unique(idx).size == idx.size

    def bw(g):
        if not a.requires_grad:
            return
        buf = _owned_grad(a)
        if scalar:
            sl = (slice(None),) * ax + (int(idx),)
            buf[sl] += g
        elif unique:
            view = np.moveaxis(buf, ax, 0)
            view[idx] += np.moveaxis(g, ax, 0)
        else:
            np.add.at(np.moveaxis(buf, ax, 0), idx, np.moveaxis(g, ax, 0))

    return _result(data, (a,), bw)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis."""
    a = _to_tensor(a)
    ax = axis % a.ndim
    sl = (slice(None),) * ax + (slice(start, stop),)
    data = a.data[sl]

    def bw(g):
        if not a.requires_grad:
            return
        _owned_grad(a)[sl] += g

    return _result(data, (a,), bw)


# ---------------------------------------------------------------------------
# matrix product


def matmul(a, b) -> Tensor:
    """Matrix product with numpy-style broadcasting of leading batch dims."""
    a, b = _to_tensor(a), _to_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul needs ndim >= 2 operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )

    if b.ndim == 2:
        # single GEMM fast path: fold all leading dims of a into rows
        k, n = b.shape
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.shape[:-1] + (n,))

        def bw(g):
            g2 = g.reshape(-1, n)
            _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            _accum(b, a2.T @ g2)

        return _result(data, (a, b), bw)

    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(
            f"matmul batch dims not broadcastable: {a.shape} x {b.shape}"
        ) from exc

    def bw(g):
        _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _result(data, (a, b), bw)


# ---------------------------------------------------------------------------
# row-wise top-k sparsification


def topk_row_mask(a, k: int) -> Tensor:
    """Keep the k largest entries per row of a 2-D tensor, zero the rest.

    Ties break toward the lower column index; k is clamped to [0, cols].
    Gradients flow only through the kept entries (mask treated as constant).
    """
    a = _to_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"topk_row_mask expects a 2-D tensor, got {a.shape}")
    cols = a.shape[1]
    kk = int(min(max(k, 0), cols))
    mask = np.zeros_like(a.data)
    if kk > 0:
        order = np.argsort(-a.data, axis=1, kind="stable")
        np.put_along_axis(mask, order[:, :kk], 1.0, axis=1)

    def bw(g):
        _accum(a, g * mask)

    return _result(a.data * mask, (a,), bw)


def eye(n: int) -> Tensor:
    return Tensor(np.eye(n))
