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


def _logistic(x: Array, out: Array | None = None) -> Array:
    """The logistic function ``1 / (1 + exp(-x))`` in four in-place passes.

    Negate, exp, add one and take the reciprocal, all in ``out`` (fresh
    when None; it may be ``x`` itself). Below x = -709 the exp overflows to
    inf and the result is the exact limit 0, so that overflow is not
    reported. For x >= 0 this is bit-identical to the two-buffer form
    ``exp(min(x, 0)) / (1 + exp(-|x|))``; for x < 0 it differs from it by
    about 1 ulp, and against a 50-digit reference on [-700, 700] either
    form is within 2.6e-16 relative.
    """
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def tanh(a) -> Tensor:
    a = _to_tensor(a)
    out = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out * out))

    return _result(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions


def _expand_reduced(g: Array, shape: tuple[int, ...], axis) -> Array:
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a, axis=None) -> Tensor:
    a = _to_tensor(a)

    def bw(g):
        _accum(a, _expand_reduced(g, a.data.shape, axis))

    return _result(a.data.sum(axis=axis), (a,), bw)


def mean(a, axis=None) -> Tensor:
    a = _to_tensor(a)
    out = a.data.mean(axis=axis)
    n = a.data.size // max(out.size, 1)  # the count reduced into each output

    def bw(g):
        _accum(a, _expand_reduced(g / n, a.data.shape, axis))

    return _result(out, (a,), bw)


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

    ``indices`` is a 1-D index array or, for ``axis == 0`` only, a
    multi-dimensional one; a scalar index is rejected.
    """
    a = _to_tensor(a)
    ax = axis % a.ndim
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim == 0:
        raise ShapeError("take needs an index array, got a scalar index")
    if idx.ndim > 1 and ax != 0:
        raise ShapeError("multi-dimensional take indices require axis=0")
    data = np.take(a.data, idx, axis=ax)

    def bw(g):
        np.add.at(np.moveaxis(_owned_grad(a), ax, 0), idx, np.moveaxis(g, ax, 0))

    return _result(data, (a,), bw)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis."""
    a = _to_tensor(a)
    ax = axis % a.ndim
    sl = (slice(None),) * ax + (slice(start, stop),)
    data = a.data[sl]

    def bw(g):
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
        _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _result(data, (a, b), bw)


# ---------------------------------------------------------------------------
# gated recurrence


def gru_sequence(inputs, w_x_zr, w_x_n, w_zr_h, w_n_h) -> Tensor:
    """GRU recurrence over axis 0 from a zero state, recorded as one graph node.

    Channel-major: ``inputs`` [T, K, M] holds K input channels of M
    independent sequences; ``w_x_zr`` [K, 2W] and ``w_x_n`` [K, W] map them
    to the update|reset and the candidate pre-activations (a bias rides on
    a constant-one channel), and ``w_zr_h`` [W, 2W] and ``w_n_h`` [W, W]
    are the hidden-side weights. With the state h [W, M], per step:
    ``z|r = sigmoid(w_x_zrᵀ x + w_zr_hᵀ h)``,
    ``c = tanh(w_x_nᵀ x + w_n_hᵀ (r * h))``, ``h = (1 - z) * h + z * c``.
    Returns the stacked states [T, W, M]. Every per-step array is W or 2W
    contiguous rows of length M, and z and r are row blocks, so each
    elementwise op runs over whole rows. Each step's input terms are one
    GEMM with the stacked [3W, K] input weights, and it and everything
    after it write into buffers allocated once, so no [T, 3W, M]
    pre-activation is built: the gates and candidate go to their rows of
    the arrays kept for backpropagation when a gradient will be taken,
    else to one reused [2W, M] and [W, M] pair. Products and sums keep the
    operand order of the expression form. The backward forms the input and
    input-weight gradients from the gate gradients it keeps.
    """
    inputs, w_x_zr, w_x_n, w_zr_h, w_n_h = (
        _to_tensor(t) for t in (inputs, w_x_zr, w_x_n, w_zr_h, w_n_h)
    )
    if inputs.ndim != 3 or w_n_h.ndim != 2:
        raise ShapeError(
            f"gru_sequence expects [T, K, M] inputs and [W, W] weights, "
            f"got {inputs.shape} and {w_n_h.shape}"
        )
    t, k, m = inputs.shape
    w = w_n_h.shape[0]
    if (w_x_zr.shape, w_x_n.shape, w_zr_h.shape, w_n_h.shape) != (
        (k, 2 * w), (k, w), (w, 2 * w), (w, w)
    ):
        raise ShapeError(
            "gru_sequence shapes disagree: "
            f"{inputs.shape}, {w_x_zr.shape}, {w_x_n.shape}, {w_zr_h.shape}, {w_n_h.shape}"
        )
    parents = (inputs, w_x_zr, w_x_n, w_zr_h, w_n_h)
    keep = _tracked(parents)
    x, w_zr, w_n = inputs.data, w_zr_h.data, w_n_h.data
    w_x_t = np.concatenate([w_x_zr.data, w_x_n.data], axis=1).T  # [3W, K]
    states = np.empty((t, w, m))
    # with a gradient, step j's gates and candidate are rows j of these
    zr_all = np.empty((t if keep else 1, 2 * w, m))
    cand_all = np.empty((t if keep else 1, w, m))
    x_terms = np.empty((3 * w, m))  # the step's input terms: update|reset, candidate
    x_zr, x_n = x_terms[: 2 * w], x_terms[2 * w :]
    scratch = np.empty((w, m))
    hidden = np.zeros((w, m))
    for j in range(t):
        row = j if keep else 0
        zr, cand = zr_all[row], cand_all[row]
        np.matmul(w_x_t, x[j], out=x_terms)
        np.matmul(w_zr.T, hidden, out=zr)
        np.add(x_zr, zr, out=zr)
        _logistic(zr, out=zr)
        z, r = zr[:w], zr[w:]
        np.multiply(r, hidden, out=scratch)
        np.matmul(w_n.T, scratch, out=cand)
        np.add(x_n, cand, out=cand)
        np.tanh(cand, out=cand)
        state = states[j]
        np.subtract(1.0, z, out=state)
        state *= hidden
        np.multiply(z, cand, out=scratch)
        state += scratch
        hidden = state

    def bw(g):
        d_zr = np.empty_like(zr_all)
        d_n = np.empty_like(cand_all)
        dh = np.zeros((w, m))
        for j in reversed(range(t)):
            dh = dh + g[j]
            z, r, cand = zr_all[j, :w], zr_all[j, w:], cand_all[j]
            hp = states[j - 1] if j else np.zeros((w, m))
            z_keep = 1.0 - z
            np.multiply(dh * z, 1.0 - cand * cand, out=d_n[j])
            d_rh = w_n @ d_n[j]
            np.multiply(dh * (cand - hp) * z, z_keep, out=d_zr[j, :w])
            np.multiply(d_rh * hp * r, 1.0 - r, out=d_zr[j, w:])
            dh = dh * z_keep + d_rh * r + w_zr @ d_zr[j]
        if inputs.requires_grad:
            _accum(inputs, np.matmul(w_x_zr.data, d_zr) + np.matmul(w_x_n.data, d_n))
        x_t = np.swapaxes(x, 1, 2)  # [T, M, K]
        for weight, d_pre in ((w_x_zr, d_zr), (w_x_n, d_n)):
            if weight.requires_grad:
                _accum(weight, np.matmul(d_pre, x_t).sum(axis=0).T)
        # the state before step 0 is zero, so step 0 adds nothing to either
        h_prev = states[:-1]
        _accum(w_zr_h, np.matmul(h_prev, d_zr[1:].transpose(0, 2, 1)).sum(axis=0))
        rh_prev = zr_all[1:, w:] * h_prev
        _accum(w_n_h, np.matmul(rh_prev, d_n[1:].transpose(0, 2, 1)).sum(axis=0))

    return _result(states, parents, bw)


# float64 values per [B, c, N, D] buffer of a streamed gating block
STREAM_BUDGET = 2**16


def gated_time_means(channels, lift, step_logits: Sequence, node_logits: Sequence) -> Tensor:
    """Time means of the patterns of sequential gating, recorded as one graph node.

    The gated input is x = ``channels`` @ ``lift``: K scalar channels
    [B, T, N, K] through a [K, D] lift, which is never built at full size.
    Gate g is ``sigmoid(step_logits[g][b, t] + node_logits[g][i])``, from G
    pre-activation parts [B, T, D] and [N, D]. Pattern g is the running
    residual times gate g, the residual then loses that pattern, and
    pattern G is what remains, so the G + 1 patterns sum to x. Returns
    their time means as [B, N, (G+1)·D], pattern p in channels p·D to
    (p+1)·D. Neither x nor the patterns are built: T is streamed in blocks
    of c = max(1, min(T, STREAM_BUDGET // (B·N·D))) steps, each block's
    residual starts as that block's ``channels @ lift``, and its patterns
    are added into the sums step by step, in time order, as ``mean`` over
    axis 1 adds them. The block's residual and gated piece live in two
    contiguous buffers allocated once; each gate is built in place in the
    piece buffer and, when a gradient will be taken, copied from there to
    the gates kept for the backward pass (building it in that strided slot
    instead is slower). The backward rebuilds each block's residual the
    same way, adds the block's share of the lift's gradient, and builds
    the channels' gradient only when they require one.
    """
    channels, lift = _to_tensor(channels), _to_tensor(lift)
    steps = [_to_tensor(s) for s in step_logits]
    nodes = [_to_tensor(s) for s in node_logits]
    if channels.ndim != 4 or lift.ndim != 2 or lift.shape[0] != channels.shape[-1]:
        raise ShapeError(
            "gated_time_means expects channels [B, T, N, K] and a lift [K, D], "
            f"got {channels.shape} and {lift.shape}"
        )
    b, t, n, k = channels.shape
    d = lift.shape[1]
    if len(steps) != len(nodes) or any(
        s.shape != (b, t, d) or v.shape != (n, d) for s, v in zip(steps, nodes)
    ):
        raise ShapeError(
            f"gated_time_means: x {(b, t, n, d)}, step logits {[s.shape for s in steps]}, "
            f"node logits {[v.shape for v in nodes]}"
        )
    g_count = len(steps)
    parents = (channels, lift, *steps, *nodes)
    keep = _tracked(parents)
    block = max(1, min(t, STREAM_BUDGET // max(1, b * n * d)))
    bounds = [(t0, min(t0 + block, t)) for t0 in range(0, t, block)]
    gates = np.empty((g_count, b, t, n, d)) if keep else None
    sums = np.zeros((g_count + 1, b, n, d))
    # one block's residual and gated piece; the last block may be shorter
    flat = np.empty((2, b * block * n * d))
    for t0, t1 in bounds:
        c = t1 - t0
        remaining, piece = (f[: b * c * n * d].reshape(b, c, n, d) for f in flat)
        np.matmul(channels.data[:, t0:t1], lift.data, out=remaining)
        for g in range(g_count):
            np.add(steps[g].data[:, t0:t1, None], nodes[g].data, out=piece)
            _logistic(piece, out=piece)
            if keep:
                gates[g, :, t0:t1] = piece
            piece *= remaining
            for j in range(c):
                sums[g] += piece[:, j]
            remaining -= piece
        for j in range(c):
            sums[g_count] += remaining[:, j]
    sums /= t
    out = sums.transpose(1, 2, 0, 3).reshape(b, n, (g_count + 1) * d)

    def bw(grad):
        # per pattern, the gradient reaching each step of its time mean: [B, 1, N, D]
        u = grad.reshape(b, 1, n, g_count + 1, d).transpose(3, 0, 1, 2, 4) / t
        ones = np.ones(n)  # sums over nodes as a product: numpy's sum over axis 2 is slow
        d_channels = np.empty((b, t, n, k)) if channels.requires_grad else None
        d_lift = np.zeros((k, d))
        d_steps = np.empty((g_count, b, t, d))
        d_nodes = np.zeros((g_count, n, d))
        for t0, t1 in bounds:
            block_channels = channels.data[:, t0:t1]
            # the residual ahead of each gate and after the last, rebuilt as
            # the forward built it
            residuals = [np.matmul(block_channels, lift.data)]
            for g in range(g_count):
                residuals.append(residuals[g] - gates[g, :, t0:t1] * residuals[g])
            d_rem = u[g_count]
            for g in reversed(range(g_count)):
                # pattern g is s·r_g and r_(g+1) = (1 - s)·r_g, so with v = u_g - d_rem
                # r_g gets d_rem + v·s and the logit v·s·(1 - s)·r_g = v·s·r_(g+1)
                d_gated = (u[g] - d_rem) * gates[g, :, t0:t1]
                d_rem = d_rem + d_gated
                d_gated *= residuals[g + 1]
                d_steps[g, :, t0:t1] = ones @ d_gated
                d_nodes[g] += d_gated.sum(axis=(0, 1))
            # d_rem is [B, c, N, D], or the broadcast [B, 1, N, D] when there are no gates
            if d_rem.shape[1] != t1 - t0:
                block_channels = block_channels.sum(axis=1, keepdims=True)
            d_lift += np.tensordot(block_channels, d_rem, axes=([0, 1, 2], [0, 1, 2]))
            if d_channels is not None:
                d_channels[:, t0:t1] = d_rem @ lift.data.T
        _accum(channels, d_channels)
        _accum(lift, d_lift)
        for g in range(g_count):
            _accum(steps[g], d_steps[g])
            _accum(nodes[g], d_nodes[g])

    return _result(out, parents, bw)


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
