"""Traffic-pattern decoupling.

The hidden input representation x_hat = x * w + b is split into P traffic
patterns by sigmoid gates conditioned on time-of-day, day-of-week, and node
embeddings. Gating is sequential on the running residual, so the patterns
always sum back to the input exactly: the last pattern is the residual.
Only the patterns' time means are read downstream, so only they are
computed (:func:`mhgnet.numcore.gated_time_means`). x_hat itself is never
built: it is carried in factored form, the channels [x, 1] [B, T, N, 2]
and the lift [w; b] [2, D], and the gating kernel forms it one block of
time steps at a time. The lift and each gate's node logits read the
parameters alone (:func:`input_lift`, :func:`gate_terms`); a forward
without a gradient keeps them between windows.
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


def input_lift(weight: Tensor, bias: Tensor) -> Tensor:
    """The lift [weight; bias], [2, D], of x_hat = x * weight + bias (``weight`` [1, D])."""
    return concat([weight, reshape(bias, (1, -1))], axis=0)


def embed_input(x) -> Tensor:
    """The channels [x, 1], [B, T, N, 2], of the scaled target channel x [B, T, N, 1].

    Their product with :func:`input_lift` is x_hat = x * weight + bias; the
    [B, T, N, D] product is not formed here.
    """
    return concat([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


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
    A forward takes the node factor once, in :func:`gate_terms`, and the
    timestamp factors per window, in :func:`decouple`.
    """
    daily, weekly = ts.rows(tod, dow)
    return relu(daily), relu(weekly), relu(node_embedding)


@dataclass
class GateTerms:
    """What one gate takes from its parameters alone, without a timestamp."""

    w_daily: Tensor  # [D_t, D]: the daily rows of w1
    w_weekly: Tensor  # [D_t, D]: the weekly rows of w1
    node_logits: Tensor  # [N, D]: ReLU(E) @ (the node rows of w1) @ w2


def gate_terms(node_embedding: Tensor, gate_params: list[GateParams], d_t: int) -> list[GateTerms]:
    """Each gate's :class:`GateTerms`, for the node embedding E [N, D_s] and D_t-wide timestamps.

    Both gate layers are affine, so they apply to the factors of the
    conditioning vector separately: the node rows of ``w1`` and then
    ``w2`` to ReLU(E), once, and the timestamp rows per window.
    """
    emb = relu(node_embedding)
    d_s = emb.shape[1]
    return [
        GateTerms(
            w_daily=slice_axis(gp.w1, 0, 0, d_t),
            w_weekly=slice_axis(gp.w1, 0, d_t, 2 * d_t),
            node_logits=matmul(matmul(emb, slice_axis(gp.w1, 0, 2 * d_t, 2 * d_t + d_s)), gp.w2),
        )
        for gp in gate_params
    ]


def decouple(
    channels: Tensor,
    lift: Tensor,
    tod: np.ndarray,
    dow: np.ndarray,
    ts: TimestampEmbeddings,
    gate_params: list[GateParams],
    terms: list[GateTerms],
) -> Tensor:
    """Time means of the len(gate_params) + 1 patterns of x_hat = ``channels @ lift``.

    ``channels`` is [B, T_h, N, K] and ``lift`` [K, D] (:func:`embed_input`
    and :func:`input_lift` give K = 2). Gate n is sigmoid((features @ w1 +
    b1) @ w2 + b2); pattern n multiplies the running residual by the gate,
    and the final pattern is whatever remains, so the patterns sum to
    x_hat. Returns their means over time as [B, N, P·D], pattern p in
    channels p·D to (p+1)·D; neither x_hat nor the [B, T_h, N, D] patterns
    are built.

    ``terms`` are :func:`gate_terms` of the same gates: each gate's node
    logits [N, D] and the timestamp rows of its ``w1``, which apply here to
    the [B, T_h] timestamp factors; the two parts are summed by
    broadcasting inside the sigmoid.
    """
    if gate_params is None:
        raise ConfigError("gate_params must be a list (possibly empty)")
    per_step = []  # each gate's [B, T_h, D] part
    if gate_params:
        daily, weekly = (relu(rows) for rows in ts.rows(tod, dow))
        for gp, term in zip(gate_params, terms):
            hidden = matmul(daily, term.w_daily) + matmul(weekly, term.w_weekly) + gp.b1
            per_step.append(matmul(hidden, gp.w2) + gp.b2)
    return gated_time_means(channels, lift, per_step, [term.node_logits for term in terms])
