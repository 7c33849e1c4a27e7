"""Graph generation: learned spatial graph, timestamp-driven temporal graph,
fusion, and row-wise top-k sparsification within each node's pool.

The spatial graph is the antisymmetric form A_s = alpha * (M1 M2^T - M2 M1^T)
built from two node-embedding tables, so self-weights vanish and direction
is encoded by sign; it is kept as its factors M1, M2. The temporal graph is
one scalar e (see :func:`temporal_graph`).

Fusion squashes beta * A_s A_t^T through tanh and ReLU and keeps the k
strongest entries per row of each pool's subgraph. Every mode builds one
graph of all N nodes in node order, from the [N, P] pool one-hot: a
convolution within clusters is one over the block-diagonal graph of their
subgraphs. With A_t the constant e, row i is the full tie
f_i = relu(tanh(beta * e * r_i)), r_i its row sum over its own pool. It
keeps its whole pool, each entry g_i = f_i * min(k, N_p) / N_p (the mass of
its top k, spread evenly), so no node label picks a neighbour. All N row
sums come from the factors and the pool one-hot in O(N * D_s), and the
graph is kept as the [N, 1] column g (:class:`ConstantRowGraph`); its dense
matrix is built on read. Without a temporal graph (``no_tg``), the dense
relu(tanh(beta * A_s)) is masked to same-pool entries and its top k taken
per row, ties going to the lower column index (:class:`DenseGraph`);
without a spatial graph (``no_sg``), r = 1.
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
    tanh,
    topk_row_mask,
)
from .std import TimestampEmbeddings


@dataclass
class ClusterGraphParams:
    """Full-size embedding tables and mixing weights for graph generation.

    The tables cover all N nodes, as does the graph built from them in every
    mode. A ``no_sg`` model builds no spatial graph and registers none of them.
    """

    e1: Tensor  # [N, D_s]
    e2: Tensor  # [N, D_s]
    w1: Tensor  # [D_s, D_s]
    w2: Tensor  # [D_s, D_s]


@dataclass
class SpatialGraph:
    """The spatial graph alpha * (m1 m2^T - m2 m1^T) of all N nodes, kept as factors."""

    m1: Tensor  # [N, D_s]
    m2: Tensor  # [N, D_s]
    alpha: float

    def dense(self) -> Tensor:
        """The [N, N] matrix; antisymmetric by construction."""
        m1, m2 = self.m1, self.m2
        return self.alpha * (matmul(m1, swap_last2(m2)) - matmul(m2, swap_last2(m1)))

    def row_sums(self, onehot: np.ndarray) -> Tensor:
        """Each row's sum [N, 1] over its own pool, ``onehot`` [N, P] marking the
        pools: alpha * (m1_i . S2 - m2_i . S1), S the pool sums ``onehotᵀ @ m``."""
        pools, members = Tensor(onehot), Tensor(onehot.T)
        s1 = matmul(pools, matmul(members, self.m1))  # [N, D_s]: node i's pool sum
        s2 = matmul(pools, matmul(members, self.m2))
        return self.alpha * reshape(sum_(self.m1 * s2 - self.m2 * s1, axis=1), (-1, 1))


@dataclass
class DenseGraph:
    """Every pool's top-k fused graph in node order, as one dense matrix."""

    a_hat: Tensor  # [N, N], entries in [0, 1], <= k nonzeros per row, 0 between pools


@dataclass
class ConstantRowGraph:
    """Every pool's fused graph in node order: row i is g_i on node i's pool, 0 elsewhere."""

    rows: Tensor  # [N, 1]: g, each row's constant, in [0, 1)
    onehot: np.ndarray  # [N, P]: 1.0 where node i is in pool p

    @property
    def a_hat(self) -> Tensor:
        """The dense [N, N] matrix, g spread over each row's pool, built on each read."""
        return self.rows * Tensor(self.onehot @ self.onehot.T)


def spatial_graph(params: ClusterGraphParams, alpha: float) -> SpatialGraph:
    """Learned directed graph over all N nodes, as its two factors."""
    m1 = tanh(alpha * matmul(params.e1, params.w1))
    m2 = tanh(alpha * matmul(params.e2, params.w2))
    return SpatialGraph(m1, m2, alpha)


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
    onehot: np.ndarray,
) -> DenseGraph | ConstantRowGraph:
    """Combine the two graphs and keep the k strongest entries per row of each pool.

    ``onehot`` is the [N, P] pool one-hot of all N nodes, and ``spatial``
    covers all of them; it is None without a spatial graph (r = 1), and
    ``temporal`` is None without a temporal graph. One of the two must be
    given. With a temporal graph each row is a tie spread evenly over its
    pool: the result is a :class:`ConstantRowGraph`. Without one, each row
    of relu(tanh(beta * A_s)), masked to its own pool, keeps its top k: the
    result is a :class:`DenseGraph`.
    """
    onehot = np.asarray(onehot, dtype=np.float64)
    if temporal is None:
        same_pool = Tensor(onehot @ onehot.T)
        return DenseGraph(topk_row_mask(relu(tanh(beta * spatial.dense())) * same_pool, k))
    sizes = onehot @ onehot.sum(axis=0)  # [N]: each node's pool size N_p
    r = spatial.row_sums(onehot) if spatial is not None else Tensor(np.ones((sizes.size, 1)))
    spread = Tensor((np.minimum(k, sizes) / sizes)[:, None])  # [N, 1]: min(k, N_p) / N_p
    return ConstantRowGraph(relu(tanh(beta * temporal * r)) * spread, onehot)
