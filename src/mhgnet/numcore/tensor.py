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

# sequences per column span of the GRU recurrence: a span's step buffers stay
# within L2
GRU_COLUMNS = 2048


def gru_sequence(inputs, w_zr, w_n) -> Tensor:
    """GRU recurrence over axis 0 from a zero state, recorded as one graph node.

    Channel-major: ``inputs`` [T, K, M] holds K input channels of M
    independent sequences (a bias rides on a constant-one channel). The
    weights are stacked input rows over hidden rows: ``w_zr`` [K + W, 2W]
    maps [x; h] to the update|reset pre-activations and ``w_n`` [K + W, W]
    maps [x; r * h] to the candidate's. With the state h [W, M], per step:
    ``z|r = sigmoid(w_zrᵀ [x; h])``, ``c = tanh(w_nᵀ [x; r * h])``,
    ``h = h + z * (c - h)``. Returns the stacked states [T, W, M].

    A step is these two GEMMs, on [x; h] and [x; r * h] buffers whose rows
    it writes in place. ``w_zr`` is negated once per call, so its GEMM
    gives minus the pre-activation for the three-pass :func:`_logistic`;
    the state update is three passes too. The M sequences run in equal
    column spans of at most ``GRU_COLUMNS``, so the buffers, allocated once
    per call, stay cache-sized and no span is a narrow remainder, on which
    BLAS takes another kernel path. With a gradient each span keeps its
    gates and candidates, and the backward walks the spans from the last
    step: two GEMMs with the stacked weights give a step's input and state
    gradients, and the weights' gradients are summed step by step from
    copies of [x; h_prev] and [x; r * h_prev]. Argument slices reach a GEMM
    only as such copies.
    """
    inputs, w_zr, w_n = (_to_tensor(t) for t in (inputs, w_zr, w_n))
    k = inputs.shape[1] if inputs.ndim == 3 else 0
    w = w_n.shape[1] if w_n.ndim == 2 else 0
    if inputs.ndim != 3 or (w_zr.shape, w_n.shape) != ((k + w, 2 * w), (k + w, w)):
        raise ShapeError(
            "gru_sequence expects [T, K, M] inputs and [K + W, 2W] and [K + W, W] weights, "
            f"got {inputs.shape}, {w_zr.shape} and {w_n.shape}"
        )
    t, _, m = inputs.shape
    parents = (inputs, w_zr, w_n)
    keep = _tracked(parents)
    x = inputs.data
    neg_zr_t, w_n_t = -w_zr.data.T, w_n.data.T
    count = max(1, -(-m // GRU_COLUMNS))
    spans = [(i * m // count, (i + 1) * m // count) for i in range(count)]
    widest = -(-m // count)

    def buffers(flat, rows, c):
        """Contiguous [r, c] buffers, one per entry of ``rows``, end to end in ``flat``."""
        ends = np.cumsum([0, *rows]) * c
        return [flat[a:b].reshape(-1, c) for a, b in zip(ends[:-1], ends[1:])]

    states = np.empty((t, w, m))
    # with a gradient, each span's gates and candidates of every step, else one step's
    kept = [[np.empty((t if keep else 1, r * w, hi - lo)) for r in (2, 1)] for lo, hi in spans]
    rows = (k + w, k + w, w)  # [x; h], [x; r * h], c - h
    flat = np.empty(sum(rows) * widest)
    for (lo, hi), (zr_kept, cand_kept) in zip(spans, kept):
        xh, xrh, diff = buffers(flat, rows, hi - lo)
        hidden, rh = xh[k:], xrh[k:]
        hidden.fill(0.0)
        for j in range(t):
            zr, cand = zr_kept[j if keep else 0], cand_kept[j if keep else 0]
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
            states[j, :, lo:hi] = hidden

    def bw(g):
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
    contiguous buffers allocated once. The logit parts are negated once per
    call, so their sum is exactly minus the logit, which the three-pass
    :func:`_logistic` takes. Each gate is built in place in the piece
    buffer and, when a gradient will be taken, copied from there to the
    gates kept for the backward pass (building it in that strided slot
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
    # the logit parts, negated once: (-a) + (-b) is exactly -(a + b)
    neg_steps = [np.negative(s.data) for s in steps]
    neg_nodes = [np.negative(v.data) for v in nodes]
    gates = np.empty((g_count, b, t, n, d)) if keep else None
    sums = np.zeros((g_count + 1, b, n, d))
    # one block's residual and gated piece; the last block may be shorter
    flat = np.empty((2, b * block * n * d))
    for t0, t1 in bounds:
        c = t1 - t0
        remaining, piece = (f[: b * c * n * d].reshape(b, c, n, d) for f in flat)
        np.matmul(channels.data[:, t0:t1], lift.data, out=remaining)
        for g in range(g_count):
            np.add(neg_steps[g][:, t0:t1, None], neg_nodes[g], out=piece)
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
