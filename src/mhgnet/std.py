"""Traffic-pattern decoupling.

The hidden input representation x_hat = x * w + b is split into P traffic
patterns by sigmoid gates conditioned on time-of-day, day-of-week, and node
embeddings. Gating is sequential on the running residual, so the patterns
always sum back to the input exactly: the last pattern is the residual.
Only the patterns' time means are read downstream, so only they are
computed (:func:`mhgnet.numcore.gated_time_means`). x_hat itself is never
built: it is carried in factored form, the channels [x, 1] [B, T, N, 2]
and the lift [w; b] [2, D], and the gating kernel forms it one block of
time steps at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numcore import (
    Tensor,
    concat,
    gated_time_means,
    matmul,
    relu,
    reshape,
    slice_axis,
    take,
)


@dataclass
class TimestampEmbeddings:
    """Learnable rows indexed by time-of-day and day-of-week."""

    daily: Tensor  # [steps_per_day, D_t]
    weekly: Tensor  # [7, D_t]

    def rows(self, tod: np.ndarray, dow: np.ndarray) -> tuple[Tensor, Tensor]:
        """Look up embedding rows for index arrays of identical shape."""
        return take(self.daily, tod, axis=0), take(self.weekly, dow, axis=0)


@dataclass
class GateParams:
    """One gate head: two affine layers producing a sigmoid gate of width D."""

    w1: Tensor  # [2*D_t + D_s, D]
    b1: Tensor  # [D]
    w2: Tensor  # [D, D]
    b2: Tensor  # [D]


def embed_input(x, weight: Tensor, bias: Tensor) -> tuple[Tensor, Tensor]:
    """The affine lift x_hat = x * weight + bias of the scaled target channel, factored.

    ``x`` is [B, T, N, 1], ``weight`` [1, D] and ``bias`` [D]. Returns the
    channels [x, 1], [B, T, N, 2], and the lift [weight; bias], [2, D],
    whose product is x_hat; the [B, T, N, D] product is not formed here.
    """
    channels = concat([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    return channels, concat([weight, reshape(bias, (1, -1))], axis=0)


def gate_features(
    tod: np.ndarray,
    dow: np.ndarray,
    node_embedding: Tensor,
    ts: TimestampEmbeddings,
) -> tuple[Tensor, Tensor, Tensor]:
    """The factors of the per-(step, node) conditioning vector ReLU(T_D || T_W || E).

    ``tod`` and ``dow`` are [B, T_h] integer index arrays; returns
    ReLU(T_D) and ReLU(T_W), each [B, T_h, D_t], and ReLU(E), [N, D_s].
    The broadcast [B, T_h, N, 2*D_t + D_s] concatenation is never built.
    """
    daily, weekly = ts.rows(tod, dow)
    return relu(daily), relu(weekly), relu(node_embedding)


def decouple(
    channels: Tensor,
    lift: Tensor,
    tod: np.ndarray,
    dow: np.ndarray,
    node_embedding: Tensor,
    ts: TimestampEmbeddings,
    gate_params: list[GateParams],
) -> Tensor:
    """Time means of the len(gate_params) + 1 patterns of x_hat = ``channels @ lift``.

    ``channels`` is [B, T_h, N, K] and ``lift`` [K, D] (:func:`embed_input`
    gives K = 2). Gate n is sigmoid((features @ w1 + b1) @ w2 + b2);
    pattern n multiplies the running residual by the gate, and the final
    pattern is whatever remains, so the patterns sum to x_hat. Returns
    their means over time as [B, N, P·D], pattern p in channels p·D to
    (p+1)·D; neither x_hat nor the [B, T_h, N, D] patterns are built.

    Both gate layers are affine, so they are applied to the factors of
    ``features`` separately: the timestamp rows of ``w1`` on [B, T_h] and
    the node rows on [N], summed by broadcasting inside the sigmoid.
    """
    if gate_params is None:
        raise ConfigError("gate_params must be a list (possibly empty)")
    per_step, per_node = [], []  # each gate's [B, T_h, D] and [N, D] parts
    if gate_params:
        daily, weekly, emb = gate_features(tod, dow, node_embedding, ts)
        d_t, d_s = daily.shape[-1], emb.shape[1]
        for gp in gate_params:
            w_daily = slice_axis(gp.w1, 0, 0, d_t)
            w_weekly = slice_axis(gp.w1, 0, d_t, 2 * d_t)
            w_node = slice_axis(gp.w1, 0, 2 * d_t, 2 * d_t + d_s)
            hidden = matmul(daily, w_daily) + matmul(weekly, w_weekly) + gp.b1
            per_step.append(matmul(hidden, gp.w2) + gp.b2)
            per_node.append(matmul(matmul(emb, w_node), gp.w2))
    return gated_time_means(channels, lift, per_step, per_node)
