"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are stored as numpy arrays; every differentiable operation records a
backward closure so that :meth:`Tensor.backward` can accumulate gradients
through the computation graph. That walk consumes the graph, so afterwards
only leaves keep ``.grad``. Graph construction can be suspended with
:func:`no_grad` for evaluation-only passes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from ..errors import GraphReleasedError, ShapeError

Array = np.ndarray


class _GradMode:
    enabled = True


# stands in for the closure of an interior node that a backward walk has run
_consumed = object()


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

    __slots__ = (
        "data", "requires_grad", "grad", "_backward", "_parents", "_grad_owned", "__weakref__"
    )

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

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def backward(self) -> None:
        """Accumulate gradients of this scalar w.r.t. every graph leaf.

        The walk consumes the graph. Nodes run in reverse topological order,
        and once a node's closure has run it drops its ``grad``, its closure
        (with the arrays the closure captured) and its parent links, so saved
        activations and interior gradients are freed as the walk passes them.
        Only leaves keep ``.grad``. A later ``backward()`` that reaches a
        consumed node, from this root or from a new loss built on a tensor of
        this graph, raises :class:`GraphReleasedError` before any gradient
        is accumulated: run the forward pass again instead.
        """
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
            if node._backward is _consumed:
                raise GraphReleasedError(
                    f"backward reached {node!r} of a graph an earlier backward() "
                    "already consumed; run the forward pass again"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        self._grad_owned = True
        while topo:
            node = topo.pop()  # the list's reference goes with the node
            if node._backward is None:
                continue  # a leaf or a constant
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()


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


def _tracked(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a graph node (a gradient will flow)."""
    return _GradMode.enabled and any(p.requires_grad for p in parents)


def _result(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _tracked(parents):
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
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _to_tensor(a), _to_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accum(a, g / b.data)
        if b.requires_grad:
            _accum(b, -g * a.data / (b.data * b.data))

    return _result(a.data / b.data, (a, b), bw)


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


def _logistic(x: Array) -> Array:
    """Overflow-free logistic function: exp(-|x|) is in (0, 1].

    Computed in place on two buffers as exp(min(x, 0)) / (1 + e) with
    e = exp(-|x|): 1 / (1 + e) where x >= 0, else e / (1 + e).
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    e += 1.0
    out /= e
    return out


def sigmoid(a) -> Tensor:
    a = _to_tensor(a)
    out = _logistic(a.data)

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
        _accum(a, _expand_reduced(g / n, a.data.shape, axis))

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

    def bw(g):
        if not a.requires_grad:
            return
        buf = _owned_grad(a)
        if scalar:
            sl = (slice(None),) * ax + (int(idx),)
            buf[sl] += g
        elif idx.ndim == 1 and np.unique(idx).size == idx.size:
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
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accum(b, a2.T @ g2)

        return _result(data, (a, b), bw)

    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(
            f"matmul batch dims not broadcastable: {a.shape} x {b.shape}"
        ) from exc

    def bw(g):
        if a.ndim == 2:
            # one matrix shared by every batch entry of b: contract the batch
            # and column axes at once instead of summing per-entry products
            axes = tuple(range(g.ndim - 2)) + (g.ndim - 1,)
            _accum(a, np.tensordot(g, b.data, axes=(axes, axes)))
        else:
            _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _result(data, (a, b), bw)


# ---------------------------------------------------------------------------
# gated recurrence


def gru_sequence(px_zr, px_n, w_zr_h, w_n_h) -> Tensor:
    """GRU recurrence over axis 1 from a zero state, recorded as one graph node.

    ``px_zr`` [B, T, N, 2W] holds the input-side update|reset pre-activations
    and ``px_n`` [B, T, N, W] the candidate's, biases included; ``w_zr_h``
    [W, 2W] and ``w_n_h`` [W, W] are the hidden-side weights. Per step:
    ``z|r = sigmoid(px_zr + h @ w_zr_h)``, ``c = tanh(px_n + (r * h) @ w_n_h)``,
    ``h = (1 - z) * h + z * c``. Returns the stacked states [B, T, N, W].
    The gates and candidates are kept for backpropagation through time
    only when a gradient will be taken.
    """
    px_zr, px_n, w_zr_h, w_n_h = (_to_tensor(t) for t in (px_zr, px_n, w_zr_h, w_n_h))
    if px_n.ndim != 4:
        raise ShapeError(f"gru_sequence expects [B, T, N, W] inputs, got {px_n.shape}")
    b, t, n, w = px_n.shape
    if px_zr.shape != (b, t, n, 2 * w) or w_zr_h.shape != (w, 2 * w) or w_n_h.shape != (w, w):
        raise ShapeError(
            "gru_sequence shapes disagree: "
            f"{px_zr.shape}, {px_n.shape}, {w_zr_h.shape}, {w_n_h.shape}"
        )
    parents = (px_zr, px_n, w_zr_h, w_n_h)
    keep = _tracked(parents)
    states = np.empty((b, t, n, w))
    zr_all = np.empty((b, t, n, 2 * w)) if keep else None
    cand_all = np.empty((b, t, n, w)) if keep else None
    hidden = np.zeros((b, n, w))
    for j in range(t):
        ph_zr = (hidden.reshape(-1, w) @ w_zr_h.data).reshape(b, n, 2 * w)
        zr = _logistic(px_zr.data[:, j] + ph_zr)
        z, r = zr[..., :w], zr[..., w:]
        rh = (r * hidden).reshape(-1, w)
        cand = np.tanh(px_n.data[:, j] + (rh @ w_n_h.data).reshape(b, n, w))
        hidden = (1.0 - z) * hidden + z * cand
        states[:, j] = hidden
        if keep:
            zr_all[:, j] = zr
            cand_all[:, j] = cand

    def bw(g):
        h_prev = np.concatenate([np.zeros((b, 1, n, w)), states[:, :-1]], axis=1)
        z_all, r_all = zr_all[..., :w], zr_all[..., w:]
        d_zr = np.empty_like(zr_all)
        d_n = np.empty_like(cand_all)
        dh = np.zeros((b, n, w))
        for j in reversed(range(t)):
            dh = dh + g[:, j]
            z, r, cand, hp = z_all[:, j], r_all[:, j], cand_all[:, j], h_prev[:, j]
            dn = dh * z * (1.0 - cand * cand)
            d_rh = (dn.reshape(-1, w) @ w_n_h.data.T).reshape(b, n, w)
            dzr = np.concatenate(
                [dh * (cand - hp) * z * (1.0 - z), d_rh * hp * r * (1.0 - r)], axis=-1
            )
            d_n[:, j] = dn
            d_zr[:, j] = dzr
            dh = (
                dh * (1.0 - z)
                + d_rh * r
                + (dzr.reshape(-1, 2 * w) @ w_zr_h.data.T).reshape(b, n, w)
            )
        _accum(px_zr, d_zr)
        _accum(px_n, d_n)
        _accum(w_zr_h, h_prev.reshape(-1, w).T @ d_zr.reshape(-1, 2 * w))
        _accum(w_n_h, (r_all * h_prev).reshape(-1, w).T @ d_n.reshape(-1, w))

    return _result(states, parents, bw)


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
