"""Traffic-pattern decoupling.

The hidden input representation is split into P pattern tensors by sigmoid
gates conditioned on time-of-day, day-of-week, and node embeddings. Gating
is sequential on the running residual, so the pattern tensors always sum
back to the input exactly: the last pattern is the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numcore import (
    Tensor,
    matmul,
    relu,
    reshape,
    sigmoid,
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


def embed_input(x, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine channel lift of the scaled target channel, 1 -> D."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    return matmul(x, weight) + bias


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
    x_hat: Tensor,
    tod: np.ndarray,
    dow: np.ndarray,
    node_embedding: Tensor,
    ts: TimestampEmbeddings,
    gate_params: list[GateParams],
) -> list[Tensor]:
    """Split the hidden tensor into len(gate_params) + 1 pattern tensors.

    Gate n is sigmoid((features @ w1 + b1) @ w2 + b2); pattern n multiplies
    the running residual by the gate, and the final pattern is whatever
    remains, so the patterns sum to ``x_hat``.

    Both gate layers are affine, so they are applied to the factors of
    ``features`` separately: the timestamp rows of ``w1`` on [B, T_h] and
    the node rows on [N], summed by broadcasting inside the sigmoid.
    """
    if gate_params is None:
        raise ConfigError("gate_params must be a list (possibly empty)")
    patterns: list[Tensor] = []  # each [B, T_h, N, D]
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
