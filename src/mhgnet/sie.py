"""Subgraph information extraction.

Per cluster, node features are propagated over the fused adjacency with a
gated multi-hop recurrence; cluster outputs are reassembled into original
node order, fed through a GRU over the input window, and the stacked hidden
states are redistributed by a pair of 1x1 projections and a learned gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numcore import (
    SplitRng,
    Tensor,
    concat,
    eye,
    matmul,
    relu,
    reshape,
    sigmoid,
    slice_axis,
    stack,
    sum_,
    take,
    tanh,
    transpose,
)
from .clusterer import ClusterAssignment
from .dstgg import FusedSubgraph


@dataclass
class PropagationConfig:
    """Gated multi-hop propagation settings.

    ``hops`` states are produced: the input itself plus hops-1 recurrence
    steps; they are concatenated on the feature axis and projected back to
    width D by ``out_proj`` of shape [hops * D, D].
    """

    gamma: float  # retention weight in [0, 1]
    hops: int
    out_proj: Tensor


def propagate(h: Tensor, graph: FusedSubgraph, cfg: PropagationConfig) -> Tensor:
    """Run the gated propagation recurrence on one cluster.

    ``h`` is [..., N_p, D]. Self-loops are added to the adjacency, rows are
    degree-normalized (strictly positive after self-loops), and each step
    mixes the original features back in with weight gamma.
    """
    n_p = graph.a_hat.shape[0]
    a_tilde = graph.a_hat + eye(n_p)
    degree = sum_(a_tilde, axis=1)
    walk = a_tilde / reshape(degree, (n_p, 1))  # row-stochastic
    states = [h]
    current = h
    for _ in range(cfg.hops - 1):
        current = cfg.gamma * h + (1.0 - cfg.gamma) * matmul(walk, current)
        states.append(current)
    return matmul(concat(states, axis=-1), cfg.out_proj)


def reassemble(cluster_outputs: list[Tensor], assignment: ClusterAssignment) -> Tensor:
    """Concatenate per-cluster outputs and restore original node order.

    ``cluster_outputs`` follow nonempty pool order with nodes on the
    second-to-last axis; the inverse permutation puts node i back at
    position i.
    """
    n = assignment.permutation.size
    total = sum(t.shape[-2] for t in cluster_outputs)
    if total != n:
        raise ShapeError(
            f"assembly size mismatch: cluster outputs cover {total} nodes, expected {n}"
        )
    x_h = (
        cluster_outputs[0]
        if len(cluster_outputs) == 1
        else concat(cluster_outputs, axis=-2)
    )
    return take(x_h, assignment.inverse_permutation, axis=x_h.ndim - 2)


@dataclass
class GruParams:
    """Update/reset/candidate affine triples of a single GRU cell."""

    update_x: Tensor
    update_h: Tensor
    update_b: Tensor
    reset_x: Tensor
    reset_h: Tensor
    reset_b: Tensor
    cand_x: Tensor
    cand_h: Tensor
    cand_b: Tensor


@dataclass
class RecurrentEncoder:
    """GRU over the window plus redistribution of the stacked hidden states."""

    gru: GruParams
    redist_w1: Tensor  # [T_c * width, width]
    redist_w2: Tensor  # [width, width]
    gain: Tensor  # [width]
    dropout: float
    width: int  # hidden width M * D


def gru_scan(steps_stacked: Tensor, gru: GruParams, width: int) -> Tensor:
    """Run the GRU over axis 1 of [B, T, N, D]; returns stacked states.

    The update and reset gates share one fused projection per step; the
    input-side projections for all steps are computed up front.
    """
    b, t, n, _ = steps_stacked.shape
    w_zr_x = concat([gru.update_x, gru.reset_x], axis=1)
    w_zr_h = concat([gru.update_h, gru.reset_h], axis=1)
    b_zr = concat([gru.update_b, gru.reset_b], axis=0)
    px_zr = matmul(steps_stacked, w_zr_x) + b_zr
    px_n = matmul(steps_stacked, gru.cand_x) + gru.cand_b
    hidden = Tensor(np.zeros((b, n, width)))
    states = []
    for j in range(t):
        zr = sigmoid(take(px_zr, j, axis=1) + matmul(hidden, w_zr_h))
        z = slice_axis(zr, -1, 0, width)
        r = slice_axis(zr, -1, width, 2 * width)
        cand = tanh(take(px_n, j, axis=1) + matmul(r * hidden, gru.cand_h))
        hidden = (1.0 - z) * hidden + z * cand
        states.append(hidden)
    return stack(states, axis=1)  # [B, T, N, width]


def encode_sequence(
    steps: Tensor,
    enc: RecurrentEncoder,
    training: bool = False,
    rng: SplitRng | None = None,
) -> Tensor:
    """Encode per-step node features [B, T, N, D] into one vector per node.

    All hidden states are kept, optionally dropped out (training mode
    only), then the time axis is collapsed by two ReLU-separated
    projections and the result is gated elementwise.
    """
    b, t, n, _ = steps.shape
    h_out = gru_scan(steps, enc.gru, enc.width)
    if training and enc.dropout > 0.0:
        if rng is None:
            raise ConfigError("training-mode dropout needs an rng")
        keep = 1.0 - enc.dropout
        mask = (rng.random(h_out.shape) < keep).astype(np.float64) / keep
        h_out = h_out * Tensor(mask)
    stacked = reshape(
        transpose(h_out, (0, 2, 1, 3)), (b, n, t * enc.width)
    )
    squeezed = matmul(relu(matmul(stacked, enc.redist_w1)), enc.redist_w2)
    return squeezed * enc.gain
