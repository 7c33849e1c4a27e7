"""Per-cluster graph generation: learned spatial graph, timestamp-driven
temporal graph, fusion, and row-wise top-k sparsification.

The spatial graph is the antisymmetric form A_s = alpha * (M1 M2^T - M2 M1^T)
built from two node-embedding tables, so self-weights vanish and direction
is encoded by sign; it is kept as its factors M1, M2. The temporal graph is
one scalar e (see :func:`temporal_graph`).

Fusion squashes beta * A_s A_t^T through tanh and ReLU and keeps the k
strongest entries per row. With A_t the constant e, A_s A_t^T =
e * rowsum(A_s) 1^T, so row i is the full tie f_i = relu(tanh(beta * e * r_i)).
It keeps its whole pool, each entry g_i = f_i * min(k, N_p) / N_p (the mass of
its top k, spread evenly), so no node label picks a neighbour. The row sums r
come from the factors in O(N_p * D_s), and the graph is kept as the [N_p, 1]
column g (:class:`ConstantRowSubgraph`); its dense matrix is built on read.
Without a temporal graph (``no_tg``), A_s A_t^T = A_s and the top-k is taken
per row, ties going to the lower column index, giving a dense
:class:`FusedSubgraph`; without a spatial graph (``no_sg``), r = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import (
    Tensor,
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
    A ``no_sg`` model builds no spatial graph and registers none of them.
    """

    e1: Tensor  # [N, D_s]
    e2: Tensor  # [N, D_s]
    w1: Tensor  # [D_s, D_s]
    w2: Tensor  # [D_s, D_s]
    alpha: float


@dataclass
class SpatialGraph:
    """A cluster's spatial graph alpha * (m1 m2^T - m2 m1^T), kept as factors."""

    m1: Tensor  # [N_p, D_s]
    m2: Tensor  # [N_p, D_s]
    alpha: float

    def dense(self) -> Tensor:
        """The [N_p, N_p] matrix; antisymmetric by construction."""
        m1, m2 = self.m1, self.m2
        return self.alpha * (matmul(m1, swap_last2(m2)) - matmul(m2, swap_last2(m1)))

    def row_sums(self) -> Tensor:
        """Row sums [N_p, 1] of the matrix: alpha * (m1 sum_j m2_j - m2 sum_j m1_j)."""
        d_s = self.m1.shape[1]
        s1 = reshape(sum_(self.m1, axis=0), (d_s, 1))
        s2 = reshape(sum_(self.m2, axis=0), (d_s, 1))
        return self.alpha * (matmul(self.m1, s2) - matmul(self.m2, s1))


@dataclass
class FusedSubgraph:
    """Sparsified fused adjacency for one cluster, as a dense matrix."""

    a_hat: Tensor  # [N_p, N_p], entries in [0, 1], <= k nonzeros per row
    members: np.ndarray  # ascending node indices


@dataclass
class ConstantRowSubgraph:
    """A cluster's fused adjacency whose row i is g_i in every column."""

    rows: Tensor  # [N_p, 1]: g, each row's constant, in [0, 1)
    members: np.ndarray  # ascending node indices

    @property
    def a_hat(self) -> Tensor:
        """The dense [N_p, N_p] matrix, g broadcast over the pool, built on each read."""
        return self.rows * Tensor(np.ones((1, self.members.size)))


def spatial_graph(members: np.ndarray, params: ClusterGraphParams) -> SpatialGraph:
    """Learned directed graph over the cluster, as its two factors."""
    m1 = tanh(params.alpha * matmul(take(params.e1, members, axis=0), params.w1))
    m2 = tanh(params.alpha * matmul(take(params.e2, members, axis=0), params.w2))
    return SpatialGraph(m1, m2, params.alpha)


def temporal_graph(
    ts: TimestampEmbeddings,
    tod: np.ndarray,
    dow: np.ndarray,
    beta: float,
) -> Tensor:
    """The temporal graph's one entry e, a scalar shared by every cluster.

    ``tod``/``dow`` are [B, T_h] (or [T_h]) index arrays. Member nodes share
    the same timestamp row at each step, so the per-step outer product of
    member rows is a constant matrix: the daily/weekly dot product. The
    batch/time mean of those dots, through tanh and ReLU and scaled by
    beta, is that constant.
    """
    tod = np.atleast_2d(np.asarray(tod))
    dow = np.atleast_2d(np.asarray(dow))
    daily, weekly = ts.rows(tod, dow)  # [B, T, D_t]
    dots = mean(sum_(daily * weekly, axis=-1))
    return beta * relu(tanh(dots))


def fuse_and_sparsify(
    spatial: SpatialGraph | None,
    temporal: Tensor | None,
    beta: float,
    k: int,
    members: np.ndarray,
) -> FusedSubgraph | ConstantRowSubgraph:
    """Combine the two graphs and keep the k strongest entries per row.

    ``spatial`` is None without a spatial graph (r = 1) and ``temporal`` is
    None without a temporal graph; one of the two must be given. With a
    temporal graph each row is a tie, spread evenly over the pool, and the
    result is a :class:`ConstantRowSubgraph`; without one it is a dense
    :class:`FusedSubgraph` of each row's top k.
    """
    members = np.asarray(members)
    if temporal is None:
        a_hat = topk_row_mask(relu(tanh(beta * spatial.dense())), k)
        return FusedSubgraph(a_hat=a_hat, members=members)
    n_p = members.size
    r = spatial.row_sums() if spatial is not None else Tensor(np.ones((n_p, 1)))
    rows = relu(tanh(beta * temporal * r)) * (min(k, n_p) / n_p)  # [N_p, 1]: g
    return ConstantRowSubgraph(rows=rows, members=members)
