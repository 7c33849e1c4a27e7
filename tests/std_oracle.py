"""The sequential gating loop that builds every pattern, kept as a test oracle.

:func:`decouple_patterns` is the earlier body of :func:`mhgnet.std.decouple`:
it returns the P [B, T_h, N, D] pattern tensors, built from autodiff
primitives, whose time means ``std.decouple`` now returns without building
them. :func:`time_means` lays those means out as ``std.decouple`` does.
"""

import numpy as np

from kernel_oracle import sigmoid
from mhgnet.numcore import Tensor, concat, matmul, mean, reshape, slice_axis
from mhgnet.std import gate_features


def decouple_patterns(x_hat, tod, dow, node_embedding, ts, gate_params) -> list[Tensor]:
    """Split x_hat into len(gate_params) + 1 patterns that sum back to it."""
    patterns = []
    remaining = x_hat
    if gate_params:
        daily, weekly, emb = gate_features(tod, dow, node_embedding, ts)
        b, t, d_t = daily.shape
        d_s, d = emb.shape[1], x_hat.shape[-1]
        for gp in gate_params:
            w_daily = slice_axis(gp.w1, 0, 0, d_t)
            w_weekly = slice_axis(gp.w1, 0, d_t, 2 * d_t)
            w_node = slice_axis(gp.w1, 0, 2 * d_t, 2 * d_t + d_s)
            per_step = matmul(daily, w_daily) + matmul(weekly, w_weekly) + gp.b1
            per_step = matmul(per_step, gp.w2) + gp.b2  # [B, T_h, D]
            per_node = matmul(matmul(emb, w_node), gp.w2)  # [N, D]
            gate = sigmoid(reshape(per_step, (b, t, 1, d)) + per_node)
            piece = remaining * gate
            patterns.append(piece)
            remaining = remaining - piece
    patterns.append(remaining)
    return patterns


def time_means(patterns: list[Tensor]) -> Tensor:
    """The patterns' means over time, [B, N, P·D], pattern p in channel block p."""
    return concat([mean(piece, axis=1) for piece in patterns], axis=-1)


def split_means(means, p: int) -> list[np.ndarray]:
    """[B, N, P·D] means as P arrays [B, N, D]."""
    data = means.data if isinstance(means, Tensor) else means
    return np.split(data, p, axis=-1)
