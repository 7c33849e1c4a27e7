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


def grad_enabled() -> bool:
    """Whether ops record graph nodes, that is, outside :func:`no_grad`."""
    return _GradMode.enabled


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

    def bw(g):
        _accum(a, g * np.sign(a.data))

    return _result(np.abs(a.data), (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    """Elementwise max(a, 0). The backward's mask is read from the output:
    out > 0 exactly where a > 0, and a NaN fails both."""
    a = _to_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bw(g):
        _accum(a, g * (out > 0))

    return _result(out, (a,), bw)


def _logistic(neg: Array, out: Array | None = None) -> Array:
    """The logistic function ``1 / (1 + exp(-x))`` of x, given ``neg`` = -x.

    Three in-place passes: exp, add one and take the reciprocal, all in
    ``out`` (fresh when None; it may be ``neg`` itself). The callers fold
    the negation into the operands they build x from, where it is exact.
    Below x = -709 the exp overflows to inf and the result is the exact
    limit 0, so that overflow is not reported. For x >= 0 this is
    bit-identical to the two-buffer form ``exp(min(x, 0)) / (1 + exp(-|x|))``;
    for x < 0 it differs from it by about 1 ulp, and against a 50-digit
    reference on [-700, 700] either form is within 2.6e-16 relative.
    """
    with np.errstate(over="ignore"):
        out = np.exp(neg, out=out)
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
    """Permute the axes as ``axes`` orders them; the backward applies the inverse."""
    a = _to_tensor(a)

    def bw(g):
        _accum(a, g.transpose(np.argsort(axes)))

    return _result(a.data.transpose(axes), (a,), bw)


def broadcast_to(a, shape) -> Tensor:
    a = _to_tensor(a)
    shape = tuple(shape)

    def bw(g):
        _accum(a, g)

    return _result(np.broadcast_to(a.data, shape), (a,), bw)


def _empty(shape) -> Array:
    """``np.empty(shape)`` whose first element starts a 64-byte cache line.

    numpy's buffers start on 16 bytes, so a large buffer's rows begin
    wherever the heap puts it; the SIMD loops over the GRU's and the gating
    kernels' rows ran a B=64 forecast at N=300 up to a fifth slower with
    some placements than with others.
    """
    size = int(np.prod(shape))
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + size].reshape(shape)


def concat(parts: Iterable, axis: int = -1) -> Tensor:
    """Join ``parts`` along ``axis`` into a C-contiguous array, whatever the
    parts' layouts, so that a reshape of it is a view."""
    parts = [_to_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of an empty sequence")
    ndim = parts[0].ndim
    if not -ndim <= axis < ndim or any(p.ndim != ndim for p in parts):
        raise ShapeError(f"concat along axis {axis} of shapes {[p.shape for p in parts]}")
    ax = axis % ndim
    shape = list(parts[0].shape)
    shape[ax] = sum(p.shape[ax] for p in parts)
    data = np.concatenate([p.data for p in parts], axis=ax, out=_empty(shape))
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
    """The product [..., K] @ [K, N] as one GEMM, a's leading dims folded into rows.

    The right operand must be a matrix; any other shape raises ShapeError.
    """
    a, b = _to_tensor(a), _to_tensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul needs [..., K] @ [K, N], got shapes {a.shape} and {b.shape}")
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


# ---------------------------------------------------------------------------
# gated recurrence

def _spans(m: int, widest: int) -> list[tuple[int, int]]:
    """The fewest equal [lo, hi) spans that cover range(m), each at most ``widest`` long."""
    count = max(1, -(-m // widest))
    return [(i * m // count, (i + 1) * m // count) for i in range(count)]


# sequences per column span of the GRU recurrence: a span's step buffers stay
# within L2
GRU_COLUMNS = 2048


def gru_sequence(inputs, w_zr, w_n, redistribute: Sequence = (), mask=None) -> Tensor:
    """GRU recurrence over axis 0 from a zero state, recorded as one graph node.

    Channel-major: ``inputs`` [T, K, M] holds K input channels of M
    independent sequences (a bias rides on a constant-one channel). The
    weights are stacked input rows over hidden rows: ``w_zr`` [K + W, 2W]
    maps [x; h] to the update|reset pre-activations and ``w_n`` [K + W, W]
    maps [x; r * h] to the candidate's. With the state h [W, M], per step:
    ``z|r = sigmoid(w_zrᵀ [x; h])``, ``c = tanh(w_nᵀ [x; r * h])``,
    ``h = h + z * (c - h)``. Returns the stacked states [T, W, M] or, given
    ``redistribute`` = (w1 [T·W, V], w2 [V, U], gain [U]), their encoding
    ``(w2ᵀ @ relu(w1ᵀ @ S)) * gain`` [U, M], the gain on rows, where S is
    the states times the dropout ``mask`` [T, W, M], if given, as [T·W, M].

    A step is these two GEMMs, on [x; h] and [x; r * h] buffers whose rows
    it writes in place. ``w_zr`` is negated once per call, so its GEMM
    gives minus the pre-activation for the three-pass :func:`_logistic`;
    the state update is three passes too. The M sequences run in equal
    column spans of at most ``GRU_COLUMNS``, so the buffers, allocated once
    per call, stay cache-sized and no span is a narrow remainder, on which
    BLAS takes another kernel path. Without a gradient an encoding holds
    one span's states at a time and runs the GEMM by ``w1ᵀ`` span by span:
    bit for bit the whole batch's product, but on a one-column span, where
    numpy takes a matrix-vector product.

    With a gradient the states are kept, with each span's gates and
    candidates, and an encoding's GEMMs and their backward run over the
    whole batch in the composed ops' order and layouts. The states'
    gradient, ``w1 @ d_relu`` times the mask, goes into one buffer, which
    first holds S again for ``w1``'s gradient. The backward then walks the
    spans from the last step: two GEMMs with the stacked weights give a
    step's input and state gradients, and the weights' gradients are summed
    step by step from copies of [x; h_prev] and [x; r * h_prev]. Argument
    slices reach a GEMM only as such copies.
    """
    inputs, w_zr, w_n = (_to_tensor(t) for t in (inputs, w_zr, w_n))
    extra = [_to_tensor(p) for p in redistribute]
    t, k, m = inputs.shape if inputs.ndim == 3 else (0, 0, 0)
    w = w_n.shape[1] if w_n.ndim == 2 else 0
    v, u = extra[1].shape if len(extra) == 3 and extra[1].ndim == 2 else (0, 0)
    if (
        inputs.ndim != 3
        or (w_zr.shape, w_n.shape) != ((k + w, 2 * w), (k + w, w))
        or [p.shape for p in extra] not in ([], [(t * w, v), (v, u), (u,)])
        or (mask is not None and (not extra or np.shape(mask) != (t, w, m)))
    ):
        raise ShapeError(
            "gru_sequence expects [T, K, M] inputs, [K + W, 2W] and [K + W, W] weights, and "
            "optionally [T·W, V], [V, U] and [U] weights and a [T, W, M] mask; got "
            f"{inputs.shape}, {w_zr.shape}, {w_n.shape}, {[p.shape for p in extra]}, "
            f"{np.shape(mask)}"
        )
    parents = (inputs, w_zr, w_n, *extra)
    keep = _tracked(parents)
    x = inputs.data
    neg_zr_t, w_n_t = -w_zr.data.T, w_n.data.T
    spans = _spans(m, GRU_COLUMNS)
    widest = max(hi - lo for lo, hi in spans)
    streamed = bool(extra) and not keep  # an encoding that keeps one span's states only
    states = _empty(t * w * widest if streamed else (t, w, m))
    if extra:
        w1, w2, gain = extra
        gain_col = gain.data.reshape(u, 1)
        layer = _empty((v, m))  # relu(w1ᵀ @ S)

    def buffers(flat, rows, c):
        """Contiguous [r, c] buffers, one per entry of ``rows``, end to end in ``flat``."""
        ends = np.cumsum([0, *rows]) * c
        return [flat[a:b].reshape(-1, c) for a, b in zip(ends[:-1], ends[1:])]

    # with a gradient, each span's gates and candidates of every step
    kept = [[np.empty((t, r * w, hi - lo)) for r in (2, 1)] for lo, hi in spans] if keep else []
    # [x; h], [x; r * h], c - h, and without a gradient one step's gates and candidate
    rows = (k + w, k + w, w) if keep else (k + w, k + w, w, 2 * w, w)
    flat = _empty(sum(rows) * widest)
    for i, (lo, hi) in enumerate(spans):
        xh, xrh, diff, *step = buffers(flat, rows, hi - lo)
        hidden, rh = xh[k:], xrh[k:]
        hidden.fill(0.0)
        if streamed:
            span_states = states[: t * w * (hi - lo)].reshape(t, w, hi - lo)
        else:
            span_states = states[:, :, lo:hi]
        for j in range(t):
            zr, cand = (kept[i][0][j], kept[i][1][j]) if keep else step
            xh[:k] = x[j, :, lo:hi]
            np.matmul(neg_zr_t, xh, out=zr)
            _logistic(zr, out=zr)
            z, r = zr[:w], zr[w:]
            np.multiply(r, hidden, out=rh)
            xrh[:k] = xh[:k]
            np.matmul(w_n_t, xrh, out=cand)
            np.tanh(cand, out=cand)
            np.subtract(cand, hidden, out=diff)
            diff *= z
            hidden += diff
            span_states[j] = hidden
        if streamed:
            if mask is not None:
                span_states *= mask[:, :, lo:hi]
            np.matmul(w1.data.T, span_states.reshape(t * w, hi - lo), out=layer[:, lo:hi])
    if extra:
        if keep:
            s = states if mask is None else states * mask
            np.matmul(w1.data.T, s.reshape(t * w, m), out=layer)
            del s  # the backward forms S again
        np.maximum(layer, 0.0, out=layer)
        pre = w2.data.T @ layer
        out = pre * gain_col if keep else np.multiply(pre, gain_col, out=pre)
    else:
        out = states

    def bw(g):
        if extra:
            if gain.requires_grad:
                _accum(gain, (g * pre).sum(axis=1, keepdims=True).reshape(u))
            d_pre = g * gain_col
            if w2.requires_grad:
                _accum(w2, (d_pre @ layer.T).T)
            d_layer = w2.data @ d_pre
            d_layer *= layer > 0
            g = np.empty((t, w, m))  # S, then the states' gradient
            if w1.requires_grad:
                s = states if mask is None else np.multiply(states, mask, out=g)
                _accum(w1, (d_layer @ s.reshape(t * w, m).T).T)
            np.matmul(w1.data, d_layer, out=g.reshape(t * w, m))
            if mask is not None:
                g *= mask
        d_x = np.empty((t, k, m)) if inputs.requires_grad else None
        d_w_zr, d_w_n = np.zeros((k + w, 2 * w)), np.zeros((k + w, w))
        rows = (k + w, k + w, w, 2 * w, w, w, k + w, k + w)
        flat = np.empty(sum(rows) * widest)
        for (lo, hi), (zr_kept, cand_kept) in zip(spans, kept):
            xh, xrh, dh, d_zr, d_n, spare, d_xh, d_xrh = buffers(flat, rows, hi - lo)
            h_prev, rh_prev, d_z, d_r, d_rh = xh[k:], xrh[k:], d_zr[:w], d_zr[w:], d_xrh[k:]
            dh.fill(0.0)
            for j in reversed(range(t)):
                z, r, cand = zr_kept[j, :w], zr_kept[j, w:], cand_kept[j]
                xh[:k] = x[j, :, lo:hi]
                h_prev[:] = states[j - 1, :, lo:hi] if j else 0.0
                xrh[:k] = xh[:k]
                np.multiply(r, h_prev, out=rh_prev)
                dh += g[j, :, lo:hi]
                np.multiply(dh, z, out=spare)  # the candidate's share of dh
                np.multiply(cand, cand, out=d_n)
                np.subtract(1.0, d_n, out=d_n)
                d_n *= spare
                np.subtract(cand, h_prev, out=d_z)
                d_z *= spare
                np.subtract(1.0, z, out=spare)
                d_z *= spare
                dh *= spare
                np.matmul(w_n.data, d_n, out=d_xrh)
                np.subtract(1.0, r, out=d_r)
                d_r *= rh_prev
                d_r *= d_rh
                np.multiply(d_rh, r, out=spare)
                dh += spare
                np.matmul(w_zr.data, d_zr, out=d_xh)
                dh += d_xh[k:]
                if d_x is not None:
                    np.add(d_xh[:k], d_xrh[:k], out=d_x[j, :, lo:hi])
                d_w_zr += xh @ d_zr.T
                d_w_n += xrh @ d_n.T
        _accum(inputs, d_x)
        _accum(w_zr, d_w_zr)
        _accum(w_n, d_w_n)

    return _result(out, parents, bw)


# float64 values per [B, c, N, D] block of the streamed gating (c >= 1 steps),
# and per step of a tile of windows
STREAM_BUDGET = 2**16
# without a gradient, a gate table may widen the streamed gating's block
# allocation to what a batch of this many windows allocates for its blocks
TABLE_WINDOWS = 64


def _distinct_rows(stacked: Array) -> tuple[Array, Array]:
    """The distinct [G, D] rows of contiguous ``stacked`` [W, T, G, D].

    Rows are told apart by their bytes, so rows that share a key are equal
    bit for bit (0.0 and -0.0 differ; a NaN matches only its own bit
    pattern). Returns the distinct rows [U, G, D] in order of first
    appearance and, for each (window, step), the index of its row [W, T].
    """
    w, t, g, d = stacked.shape
    keys = stacked.reshape(w * t, g * d).view(np.dtype((np.void, 8 * g * d)))
    seen: dict[bytes, int] = {}
    index = [seen.setdefault(key, len(seen)) for key in keys.ravel().tolist()]
    rows = np.frombuffer(b"".join(seen), dtype=np.float64).reshape(-1, g, d)
    return rows, np.array(index, dtype=np.intp).reshape(w, t)


def _gate_block(table: Array, index: Array | None, g: int, t0: int, t1: int, out: Array) -> Array:
    """Gate g of steps [t0, t1) of a tile, [W, c, N, D], read from its table.

    A table with an index holds distinct gates [G, U, N, D], gathered into
    ``out``; without one it holds every step's gates [G, W, T, N, D].
    """
    if index is None:
        return table[g, :, t0:t1]
    # "clip" does not buffer the gather the way the default "raise" does
    return np.take(table[g], index[:, t0:t1], axis=0, out=out, mode="clip")


def gated_time_means(channels, lift, step_logits: Sequence, node_logits: Sequence) -> Tensor:
    """Time means of the patterns of sequential gating, recorded as one graph node.

    The gated input is x = ``channels`` @ ``lift``: K scalar channels
    [B, T, N, K] through a [K, D] lift, which is never built at full size.
    Gate g is ``sigmoid(step_logits[g][b, t] + node_logits[g][i])``, from G
    pre-activation parts [B, T, D] and [N, D]. Pattern g is the running
    residual times gate g, the residual then loses that pattern, and
    pattern G is what remains, so the G + 1 patterns sum to x. Returns
    their time means as [B, N, (G+1)·D], pattern p in channels p·D to
    (p+1)·D.

    Neither x nor the patterns are built. The batch runs in equal tiles of
    at most STREAM_BUDGET // (N·D) whole windows (and, without a gradient,
    at most half the batch), and each tile's T steps in blocks of
    c = max(1, min(T, STREAM_BUDGET // (B·N·D))) steps. Each block's
    residual starts as that block's ``channels @ lift``, and its patterns
    are added into the sums step by step, in time order, as ``mean`` over
    axis 1 adds them. The block's residual and gated piece live in one
    allocation the size of two [B, c, N, D] blocks, made once per call.

    A gate depends on its (window, step) only through the G stacked
    step-logit rows, and windows that share timestamps share those rows. So
    a tile takes each distinct row's gates once, as a table [G, U, N, D]
    (:func:`_distinct_rows` keys the rows by their bytes, so the result is
    bit-identical), and each block gathers its gates from it. A tile of one
    window or whose rows never repeat takes its gates per block instead.
    Without a gradient the table goes in the block allocation, after the
    tile's two block buffers. That allocation widens for the largest
    table, as long as the call then allocates no more than a batch of
    TABLE_WINDOWS windows does for its blocks (half-batch tiles of one-step
    blocks, as at N = 300 and B = 16 or 32, leave no room otherwise); a
    tile whose table still does not fit takes its gates per block too.
    The logit parts are negated once per call, so a gate's argument is
    exactly minus its logit, which the three-pass :func:`_logistic` takes.

    When a gradient will be taken every tile keeps its gates for the
    backward pass: its table, or else every step's gates [G, W, T, N, D]
    copied from the piece buffer. The backward walks the same tiles and
    blocks in buffers allocated once: it rebuilds each block's G + 1
    residuals as the forward built them, updates the residual's and the
    gated pieces' gradients in place, adds the block's share of the lift's
    gradient, and builds the channels' gradient only when they require one.
    A block's node-logit gradient is summed window by window across the
    tiles, in the order one sum over the whole block takes, so it does not
    depend on the tiling.
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

    def steps_per_block(windows: int) -> int:
        return max(1, min(t, STREAM_BUDGET // max(1, windows * n * d)))

    block = steps_per_block(b)
    bounds = [(t0, min(t0 + block, t)) for t0 in range(0, t, block)]
    # without a gradient a tile holds at most half the batch, so that at least
    # half of the block allocation below is left for its table
    tiles = _spans(b, max(1, min(STREAM_BUDGET // max(1, n * d), b if keep else -(-b // 2))))
    size = -(-b // len(tiles)) * block * n * d  # floats in one block buffer of the widest tile
    # the logit parts, negated once: (-a) + (-b) is exactly -(a + b)
    neg_steps = [np.negative(s.data) for s in steps]
    neg_nodes = [np.negative(v.data) for v in nodes]
    stacked = np.stack(neg_steps, axis=2) if g_count and b > len(tiles) else None  # [B, T, G, D]

    def tile_rows(w0: int, w1: int) -> tuple[Array, Array] | None:
        """A tile's distinct rows and index; None for one window or rows that never repeat."""
        if stacked is None or w1 - w0 == 1:
            return None
        rows, index = _distinct_rows(stacked[w0:w1])
        return (rows, index) if len(rows) < (w1 - w0) * t else None

    distinct = [tile_rows(w0, w1) for w0, w1 in tiles]
    kept = []  # with a gradient, each tile's (table, index) for the backward pass
    sums = np.zeros((g_count + 1, b, n, d))
    # one allocation at least as large as two [B, c, N, D] blocks: a tile's
    # residual and gated piece and, without a gradient, its table in the rest
    # if it fits
    floats = 2 * b * block * n * d
    if not keep:
        largest = max((rows.size * n for rows, _ in filter(None, distinct)), default=0)
        bound = 2 * TABLE_WINDOWS * steps_per_block(TABLE_WINDOWS) * n * d
        floats = max(floats, min(2 * size + largest, bound))
    flat = _empty(floats)
    for (w0, w1), found in zip(tiles, distinct):
        tile_sums = sums[:, w0:w1]
        table = index = None
        if found is not None:
            rows, index = found
            if not keep and rows.size * n > flat.size - 2 * size:
                index = None
            else:
                table = np.empty(rows.size * n) if keep else flat[2 * size : 2 * size + rows.size * n]
                table = table.reshape(g_count, len(rows), n, d)
                for g in range(g_count):
                    np.add(rows[:, g, None], neg_nodes[g], out=table[g])
                _logistic(table, out=table)
        if keep:
            if index is None:
                table = np.empty((g_count, w1 - w0, t, n, d))
            kept.append((table, index))
        for t0, t1 in bounds:
            c = t1 - t0
            remaining, piece = (
                flat[lo : lo + (w1 - w0) * c * n * d].reshape(w1 - w0, c, n, d) for lo in (0, size)
            )
            np.matmul(channels.data[w0:w1, t0:t1], lift.data, out=remaining)
            for g in range(g_count):
                if index is not None:
                    _gate_block(table, index, g, t0, t1, out=piece)
                else:
                    np.add(neg_steps[g][w0:w1, t0:t1, None], neg_nodes[g], out=piece)
                    _logistic(piece, out=piece)
                    if keep:
                        table[g, :, t0:t1] = piece
                piece *= remaining
                for j in range(c):
                    tile_sums[g] += piece[:, j]
                remaining -= piece
            for j in range(c):
                tile_sums[g_count] += remaining[:, j]
    sums /= t
    out = sums.transpose(1, 2, 0, 3).reshape(b, n, (g_count + 1) * d)

    def bw(grad):
        # per pattern, the gradient reaching each step of its time mean: [B, 1, N, D]
        u = grad.reshape(b, 1, n, g_count + 1, d).transpose(3, 0, 1, 2, 4) / t
        ones = np.ones(n)  # sums over nodes as a product: numpy's sum over axis 2 is slow
        d_channels = np.empty((b, t, n, k)) if channels.requires_grad else None
        d_lift = np.zeros((k, d))
        d_steps = np.empty((g_count, b, t, d))
        # each block's node-logit gradient, summed window by window across the
        # tiles in the order the whole block's sum over windows and steps takes
        partial = np.zeros((len(bounds), g_count, n, d))
        # the residual ahead of each gate and after the last, the gathered
        # gates and the residual's gradient; and a gated piece's gradient
        # after one row that carries its block's node-logit sum so far
        flat = np.empty((2 * g_count + 2, size))
        chain = np.empty(n * d + size)
        for (w0, w1), (table, index) in zip(tiles, kept):
            for i, (t0, t1) in enumerate(bounds):
                block_channels = channels.data[w0:w1, t0:t1]
                shape = (w1 - w0, t1 - t0, n, d)
                views = [f[: (w1 - w0) * (t1 - t0) * n * d].reshape(shape) for f in flat]
                residuals, gathered, d_rem = views[: g_count + 1], views[g_count + 1 : -1], views[-1]
                chained = chain[: n * d + views[0].size].reshape(-1, n, d)
                d_gated = chained[1:].reshape(shape)
                np.matmul(block_channels, lift.data, out=residuals[0])
                gates = [_gate_block(table, index, g, t0, t1, out) for g, out in enumerate(gathered)]
                for g, gate in enumerate(gates):
                    np.multiply(gate, residuals[g], out=residuals[g + 1])
                    np.subtract(residuals[g], residuals[g + 1], out=residuals[g + 1])
                d_rem[:] = u[g_count, w0:w1]
                for g in reversed(range(g_count)):
                    # pattern g is s·r_g and r_(g+1) = (1 - s)·r_g, so with v = u_g - d_rem
                    # r_g gets d_rem + v·s and the logit v·s·(1 - s)·r_g = v·s·r_(g+1)
                    np.subtract(u[g, w0:w1], d_rem, out=d_gated)
                    d_gated *= gates[g]
                    d_rem += d_gated
                    d_gated *= residuals[g + 1]
                    d_steps[g, w0:w1, t0:t1] = ones @ d_gated
                    chained[0] = partial[i, g]
                    np.add.reduce(chained, axis=0, out=partial[i, g])
                d_lift += np.tensordot(block_channels, d_rem, axes=([0, 1, 2], [0, 1, 2]))
                if d_channels is not None:
                    d_channels[w0:w1, t0:t1] = d_rem @ lift.data.T
        d_nodes = np.zeros((g_count, n, d))
        for block_sum in partial:
            d_nodes += block_sum
        _accum(channels, d_channels)
        _accum(lift, d_lift)
        for g in range(g_count):
            _accum(steps[g], d_steps[g])
            _accum(nodes[g], d_nodes[g])

    return _result(out, parents, bw)


# ---------------------------------------------------------------------------
# skip connection and regression head

# (window, node) rows per span of the head's forward: a span's buffers stay
# within L2
HEAD_ROWS = 2048


def regression_head(node_parts: Sequence, window_parts: Sequence, w1, b1, w2, b2, gain) -> Tensor:
    """Skip connection and regression head, recorded as one graph node.

    The skip of window b's node i is the concatenation of the node parts
    [B, N, C] at (b, i) and the per-window parts [B, C] at b, in that
    order. The head maps it to ``(relu(relu(skip) @ w1 + b1) @ w2 + b2) *
    gain``, [B, N, T_f], and returns that as a [B, T_f, N] view.

    The skip is never concatenated. The batch runs in equal spans of whole
    windows, at most HEAD_ROWS rows each when a window is shorter. Each span
    writes its ReLU'd skip into a buffer, one part at a time with the
    per-window parts broadcast over nodes, then runs the GEMM by ``w1``,
    ``+ b1`` and the ReLU in place, the GEMM by ``w2``, ``+ b2`` and
    ``* gain`` into the output rows. The buffers are allocated once per
    call. Within one span this is bit for bit the composed ops; across
    spans the second GEMM may round differently, as BLAS takes another
    kernel for fewer rows.

    When a gradient will be taken the spans write the ReLU'd skip and the
    hidden layer into kept [B·N, ·] arrays instead, and the second GEMM
    runs once over the whole hidden layer. The backward is the composed
    ops' backward in whole-batch GEMMs, with each ReLU's mask read from its
    output, and each per-window part's gradient summed over nodes as
    ``broadcast_to``'s backward sums it.
    """
    nodes = [_to_tensor(p) for p in node_parts]
    windows = [_to_tensor(p) for p in window_parts]
    w1, b1, w2, b2, gain = (_to_tensor(t) for t in (w1, b1, w2, b2, gain))
    b, n = nodes[0].shape[:2] if nodes and nodes[0].ndim == 3 else (0, 0)
    widths = [p.shape[-1] for p in nodes + windows]
    hidden_width = b1.shape[0] if b1.ndim == 1 else 0
    t_f = b2.shape[0] if b2.ndim == 1 else 0
    if (
        any(p.ndim != 3 or p.shape[:2] != (b, n) for p in nodes)
        or any(p.ndim != 2 or p.shape[0] != b for p in windows)
        or w1.shape != (sum(widths), hidden_width)
        or w2.shape != (hidden_width, t_f)
        or gain.shape != (t_f,)
    ):
        raise ShapeError(
            "regression_head expects [B, N, C] node parts, [B, C] window parts and weights "
            "[C_all, H], [H], [H, T_f], [T_f], [T_f]; got "
            f"{[p.shape for p in nodes]}, {[p.shape for p in windows]}, "
            f"{[t.shape for t in (w1, b1, w2, b2, gain)]}"
        )
    parents = (*nodes, *windows, w1, b1, w2, b2, gain)
    keep = _tracked(parents)
    edges = np.cumsum([0, *widths])
    # each part with its columns of the skip
    columns = list(zip(nodes + windows, edges[:-1], edges[1:]))
    spans = _spans(b, max(1, HEAD_ROWS // max(1, n)))
    width = edges[-1]
    rows = b * n if keep else max(hi - lo for lo, hi in spans) * n
    # one allocation for the ReLU'd skip, the hidden layer and, with a
    # gradient, the pre-activations the gain's gradient reads: freed together
    # after the backward, they leave one hole that the next step's arrays of
    # that size can reuse, where three apart left the heap growing
    flat = _empty(rows * (width + hidden_width) + (b * n * t_f if keep else 0))
    skip = flat[: rows * width].reshape(rows, width)
    hidden = flat[rows * width : rows * (width + hidden_width)].reshape(rows, hidden_width)
    pre = flat[rows * (width + hidden_width) :] if keep else np.empty(b * n * t_f)
    pre = pre.reshape(b * n, t_f)
    for lo, hi in spans:
        r0, r1 = (lo * n, hi * n) if keep else (0, (hi - lo) * n)
        span_skip, span_hidden = skip[r0:r1], hidden[r0:r1]
        blocks = span_skip.reshape(hi - lo, n, width)
        for p, c0, c1 in columns:
            part = p.data[lo:hi] if p.ndim == 3 else p.data[lo:hi, None]
            np.maximum(part, 0.0, out=blocks[..., c0:c1])
        np.matmul(span_skip, w1.data, out=span_hidden)
        span_hidden += b1.data
        np.maximum(span_hidden, 0.0, out=span_hidden)
        if not keep:
            span_pre = pre[lo * n : hi * n]
            np.matmul(span_hidden, w2.data, out=span_pre)
            span_pre += b2.data
            span_pre *= gain.data
    if keep:
        np.matmul(hidden, w2.data, out=pre)
        pre += b2.data
        out = pre * gain.data
    else:
        out = pre

    def bw(grad):
        # the operand order and array layouts of the composed ops' backward
        g = grad.transpose(0, 2, 1)  # [B, N, T_f]
        if gain.requires_grad:
            _accum(gain, g * pre.reshape(b, n, t_f))
        d_pre = g * gain.data
        _accum(b2, d_pre)
        d_pre = d_pre.reshape(-1, t_f)
        if w2.requires_grad:
            _accum(w2, hidden.T @ d_pre)
        d_hidden = d_pre @ w2.data.T
        d_hidden *= hidden > 0
        _accum(b1, d_hidden.reshape(b, n, hidden_width))
        if w1.requires_grad:
            _accum(w1, skip.T @ d_hidden)
        if not any(p.requires_grad for p in nodes + windows):
            return
        d_skip = d_hidden @ w1.data.T
        d_skip *= skip > 0
        d_skip = d_skip.reshape(b, n, width)
        for p, c0, c1 in columns:
            d_part = d_skip[..., c0:c1]
            _accum(p, d_part if p.ndim == 3 else d_part.sum(axis=1))

    return _result(out.reshape(b, n, t_f).transpose(0, 2, 1), parents, bw)


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
