"""The gate kernels in their expression forms, and the logistic as an autodiff op.

:func:`gru_lean` is the GRU step ``numcore.gru_sequence`` takes, written
with fresh arrays: per step, the stacked update|reset weights, negated, times
[x; h] through the three-pass logistic, the stacked candidate weights times
[x; r * h] through tanh, and ``h + z * (c - h)``, and a backward in the
same terms. The kernel runs it in column spans with buffers allocated once,
so it must match it bit for bit in the states and within rounding in the
gradients it sums step by step and span by span.

:func:`gru_encode` is the GRU encoding in the composed ops
``sie.encode_sequence`` used before ``numcore.gru_sequence`` took in the
dropout and the redistribution: :func:`gru_lean`, ``* mask``, then
``matmul``, ``relu``, ``matmul`` and ``* gain`` on the states as one
[T·W, M] matrix.

:func:`gru_sequence` and :func:`gated_time_means` are earlier bodies of the
``numcore`` kernels: they take the full-size gated input, the GRU's
[T, 2W, M] and [T, W, M] pre-activations and the lifted [B, T, N, D]
window, and every step builds its intermediates as fresh arrays from numpy
expressions. The GRU here keeps the earlier arithmetic (separate input and
hidden terms, ``(1 - z) * h + z * c``), which the kernel now departs from
by rounding. The gating kernel forms its inputs itself, one block of steps
at a time, with the same operand order in every product and sum, so fed
the inputs it forms this must match it bit for bit in the outputs and the
gates' gradients, and within rounding in the gradients it sums by blocks.
All of them call ``_logistic``, whose argument is the negated logit.
:func:`sigmoid` serves the tests that build a gate from elementwise ops.

:func:`regression_head` is the skip connection and regression head in the
composed ops ``ForecastModel.forward`` used before ``numcore`` fused them:
``concat`` of the parts with ``broadcast_to`` over nodes for the per-window
ones, ``relu``, ``matmul``, ``+ b1``, ``relu``, ``matmul``, ``+ b2`` and
``* gain``.
"""

from typing import Sequence

import numpy as np

from mhgnet.errors import ShapeError
from mhgnet.numcore import Tensor, broadcast_to, concat, matmul, relu, reshape, transpose
from mhgnet.numcore import tensor as tensor_module
from mhgnet.numcore.tensor import _accum, _logistic, _result, _to_tensor, _tracked


def sigmoid(a) -> Tensor:
    a = _to_tensor(a)
    out = _logistic(-a.data)

    def bw(g):
        _accum(a, g * (out * (1.0 - out)))

    return _result(out, (a,), bw)


def gru_lean(inputs, w_zr, w_n) -> Tensor:
    """GRU recurrence over axis 0 from a zero state, one fresh array per expression.

    Arguments as ``numcore.gru_sequence``'s: [T, K, M], [K + W, 2W] and
    [K + W, W].
    """
    parents = tuple(_to_tensor(a) for a in (inputs, w_zr, w_n))
    x, w_zr, w_n = (p.data for p in parents)
    t, k, m = x.shape
    w = w_n.shape[1]
    states, gates, cands = np.empty((t, w, m)), np.empty((t, 2 * w, m)), np.empty((t, w, m))
    hidden = np.zeros((w, m))
    for j in range(t):
        zr = _logistic((-w_zr.T) @ np.concatenate([x[j], hidden]))
        z, r = zr[:w], zr[w:]
        cand = np.tanh(w_n.T @ np.concatenate([x[j], r * hidden]))
        hidden = hidden + z * (cand - hidden)
        states[j], gates[j], cands[j] = hidden, zr, cand

    def bw(g):
        d_x = np.empty((t, k, m))
        d_w_zr, d_w_n = np.zeros((k + w, 2 * w)), np.zeros((k + w, w))
        dh = np.zeros((w, m))
        for j in reversed(range(t)):
            dh = dh + g[j]
            z, r, cand = gates[j, :w], gates[j, w:], cands[j]
            h_prev = states[j - 1] if j else np.zeros((w, m))
            d_n = dh * z * (1.0 - cand * cand)
            d_z = dh * z * (cand - h_prev) * (1.0 - z)
            d_xrh = w_n @ d_n
            d_r = d_xrh[k:] * (r * h_prev) * (1.0 - r)
            d_zr = np.concatenate([d_z, d_r])
            d_xh = w_zr @ d_zr
            dh = dh * (1.0 - z) + d_xrh[k:] * r + d_xh[k:]
            d_x[j] = d_xh[:k] + d_xrh[:k]
            d_w_zr += np.concatenate([x[j], h_prev]) @ d_zr.T
            d_w_n += np.concatenate([x[j], r * h_prev]) @ d_n.T
        for parent, grad in zip(parents, (d_x, d_w_zr, d_w_n)):
            _accum(parent, grad)

    return _result(states, parents, bw)


def gru_encode(inputs, w_zr, w_n, redistribute: Sequence, mask=None) -> Tensor:
    """The encoding [U, M] of ``numcore.gru_sequence`` given ``redistribute``
    = (w1 [T·W, V], w2 [V, U], gain [U]) and a [T, W, M] ``mask`` or None."""
    w1, w2, gain = redistribute
    h = gru_lean(inputs, w_zr, w_n)
    t, w, m = h.shape
    if mask is not None:
        h = h * Tensor(mask)
    hidden = relu(matmul(transpose(w1, (1, 0)), reshape(h, (t * w, m))))
    return matmul(transpose(w2, (1, 0)), hidden) * reshape(gain, (-1, 1))


def gru_sequence(px_zr, px_n, w_zr_h, w_n_h) -> Tensor:
    """GRU recurrence over axis 0 from a zero state: [T, 2W, M], [T, W, M], [W, 2W], [W, W]."""
    px_zr, px_n, w_zr_h, w_n_h = (_to_tensor(t) for t in (px_zr, px_n, w_zr_h, w_n_h))
    t, w, m = px_n.shape
    if px_zr.shape != (t, 2 * w, m) or w_zr_h.shape != (w, 2 * w) or w_n_h.shape != (w, w):
        raise ShapeError("gru_sequence shapes disagree")
    parents = (px_zr, px_n, w_zr_h, w_n_h)
    keep = _tracked(parents)
    w_zr, w_n = w_zr_h.data, w_n_h.data
    states = np.empty((t, w, m))
    zr_all = np.empty((t, 2 * w, m)) if keep else None
    cand_all = np.empty((t, w, m)) if keep else None
    hidden = np.zeros((w, m))
    for j in range(t):
        zr = _logistic(-(px_zr.data[j] + w_zr.T @ hidden))
        z, r = zr[:w], zr[w:]
        cand = np.tanh(px_n.data[j] + w_n.T @ (r * hidden))
        hidden = (1.0 - z) * hidden + z * cand
        states[j] = hidden
        if keep:
            zr_all[j] = zr
            cand_all[j] = cand

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
        _accum(px_zr, d_zr)
        _accum(px_n, d_n)
        h_prev = states[:-1]
        _accum(w_zr_h, np.matmul(h_prev, d_zr[1:].transpose(0, 2, 1)).sum(axis=0))
        rh_prev = zr_all[1:, w:] * h_prev
        _accum(w_n_h, np.matmul(rh_prev, d_n[1:].transpose(0, 2, 1)).sum(axis=0))

    return _result(states, parents, bw)


def gated_time_means(x, step_logits: Sequence, node_logits: Sequence) -> Tensor:
    """Time means [B, N, (G+1)·D] of sequential gating, streamed in blocks of time steps.

    The block length comes from ``numcore``'s ``STREAM_BUDGET``, read at call
    time, so a test that patches it gets the same blocks in both.
    """
    x = _to_tensor(x)
    steps = [_to_tensor(s) for s in step_logits]
    nodes = [_to_tensor(s) for s in node_logits]
    b, t, n, d = x.shape
    g_count = len(steps)
    parents = (x, *steps, *nodes)
    keep = _tracked(parents)
    block = max(1, min(t, tensor_module.STREAM_BUDGET // max(1, b * n * d)))
    bounds = [(t0, min(t0 + block, t)) for t0 in range(0, t, block)]
    gates = np.empty((g_count, b, t, n, d)) if keep else None
    sums = np.zeros((g_count + 1, b, n, d))
    for t0, t1 in bounds:
        remaining = x.data[:, t0:t1].copy()
        for g in range(g_count):
            piece = steps[g].data[:, t0:t1, None] + nodes[g].data
            _logistic(np.negative(piece, out=piece), out=piece)
            if keep:
                gates[g, :, t0:t1] = piece
            piece *= remaining
            for j in range(t1 - t0):
                sums[g] += piece[:, j]
            remaining -= piece
        for j in range(t1 - t0):
            sums[g_count] += remaining[:, j]
    sums /= t
    out = sums.transpose(1, 2, 0, 3).reshape(b, n, (g_count + 1) * d)

    def bw(grad):
        u = grad.reshape(b, 1, n, g_count + 1, d).transpose(3, 0, 1, 2, 4) / t
        ones = np.ones(n)
        dx = np.empty((b, t, n, d))
        d_steps = np.empty((g_count, b, t, d))
        d_nodes = np.zeros((g_count, n, d))
        for t0, t1 in bounds:
            residuals = [x.data[:, t0:t1]]
            for g in range(g_count):
                residuals.append(residuals[g] - gates[g, :, t0:t1] * residuals[g])
            d_rem = u[g_count]
            for g in reversed(range(g_count)):
                d_gated = (u[g] - d_rem) * gates[g, :, t0:t1]
                d_rem = d_rem + d_gated
                d_gated *= residuals[g + 1]
                d_steps[g, :, t0:t1] = ones @ d_gated
                d_nodes[g] += d_gated.sum(axis=(0, 1))
            dx[:, t0:t1] = d_rem
        _accum(x, dx)
        for g in range(g_count):
            _accum(steps[g], d_steps[g])
            _accum(nodes[g], d_nodes[g])

    return _result(out, parents, bw)


def regression_head(node_parts, window_parts, w1, b1, w2, b2, gain) -> Tensor:
    """Forecasts [B, T_f, N] from node parts [B, N, C] and per-window parts [B, C]."""
    b, n = node_parts[0].shape[:2]
    skip = list(node_parts)
    for rows in window_parts:
        width = rows.shape[-1]
        skip.append(broadcast_to(reshape(rows, (b, 1, width)), (b, n, width)))
    hidden = relu(matmul(relu(concat(skip, axis=-1)), w1) + b1)
    return transpose((matmul(hidden, w2) + b2) * gain, (0, 2, 1))
