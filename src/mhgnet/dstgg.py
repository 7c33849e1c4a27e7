"""Per-cluster graph generation: learned spatial graph, timestamp-driven
temporal graph, fusion, and row-wise top-k sparsification.

The spatial graph is the antisymmetric form alpha * (M1 M2^T - M2 M1^T)
built from two node-embedding tables, so self-weights vanish and direction
is encoded by sign. The temporal graph contracts daily against weekly
embedding rows over the input window. Fusion multiplies the two, squashes
through tanh and ReLU, and keeps the k strongest entries per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import (
    Tensor,
    broadcast_to,
    matmul,
    mean,
    relu,
    reshape,
    sum_,
    swap_last2,
    take,
    tanh,
    topk_row_mask,
)
from .std import TimestampEmbeddings


@dataclass
class ClusterGraphParams:
    """Full-size embedding tables and mixing weights for graph generation.

    The tables cover all N nodes; rows are gathered per cluster so that
    membership changes across epochs reuse rows instead of reallocating.
    """

    e1: Tensor  # [N, D_s]
    e2: Tensor  # [N, D_s]
    w1: Tensor  # [D_s, D_s]
    w2: Tensor  # [D_s, D_s]
    alpha: float


@dataclass
class FusedSubgraph:
    """Sparsified fused adjacency for one cluster."""

    a_hat: Tensor  # [N_p, N_p], entries in [0, 1], <= k nonzeros per row
    members: np.ndarray  # ascending node indices


def spatial_graph(members: np.ndarray, params: ClusterGraphParams) -> Tensor:
    """Learned directed graph over the cluster; antisymmetric by construction."""
    m1 = tanh(params.alpha * matmul(take(params.e1, members, axis=0), params.w1))
    m2 = tanh(params.alpha * matmul(take(params.e2, members, axis=0), params.w2))
    return params.alpha * (
        matmul(m1, swap_last2(m2)) - matmul(m2, swap_last2(m1))
    )


def temporal_graph(
    members: np.ndarray,
    ts: TimestampEmbeddings,
    tod: np.ndarray,
    dow: np.ndarray,
    beta: float,
) -> Tensor:
    """Daily-vs-weekly embedding contraction averaged over the window.

    ``tod``/``dow`` are [B, T_h] (or [T_h]) index arrays. Member nodes share
    the same timestamp row at each step, so the per-step outer product of
    member rows is a constant matrix: the daily/weekly dot product. The
    batch/time mean of those dots, through tanh and ReLU and scaled by
    beta, is broadcast over the cluster.
    """
    tod = np.atleast_2d(np.asarray(tod))
    dow = np.atleast_2d(np.asarray(dow))
    n_p = len(members)
    daily, weekly = ts.rows(tod, dow)  # [B, T, D_t]
    dots = mean(sum_(daily * weekly, axis=-1))
    entry = beta * relu(tanh(dots))
    return broadcast_to(reshape(entry, (1, 1)), (n_p, n_p))


def fuse_and_sparsify(
    a_spatial: Tensor,
    a_temporal: Tensor,
    beta: float,
    k: int,
    members: np.ndarray,
) -> FusedSubgraph:
    """Combine the two graphs and keep the k strongest entries per row."""
    fused = relu(tanh(beta * matmul(a_spatial, swap_last2(a_temporal))))
    return FusedSubgraph(a_hat=topk_row_mask(fused, k), members=np.asarray(members))
