"""Subgraph information extraction.

Node features are propagated over each cluster's fused adjacency with a
gated multi-hop recurrence, fed through a GRU over the input window, and
the stacked hidden states are redistributed by a pair of 1x1 projections and
a learned gain.

When every cluster's fused graph has constant rows (``full``, ``no_sg``),
propagation runs on the whole [B, T, N, D] tensor in node order from the
closed form of the walk, so no per-cluster walk is built and nothing needs
reassembling. Dense per-cluster graphs (``no_tg``) are propagated one
cluster at a time and the outputs reassembled into node order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numcore import (
    SplitRng,
    Tensor,
    concat,
    gru_sequence,
    matmul,
    relu,
    reshape,
    slice_axis,
    sum_,
    swap_last2,
    take,
    transpose,
)
from .clusterer import ClusterAssignment
from .dstgg import ConstantRowSubgraph, FusedSubgraph


@dataclass
class PropagationConfig:
    """Gated multi-hop propagation settings.

    ``hops`` states are produced: the input itself plus hops-1 recurrence
    steps; they are projected back to width D by ``out_proj`` of shape
    [hops * D, D], whose j-th block of D rows applies to state j.
    """

    gamma: float  # retention weight in [0, 1]
    hops: int
    out_proj: Tensor


@dataclass
class ConstantRowGraph:
    """Every cluster's constant-row fused graph at once, in node order.

    Node i's row holds f_i in the first k_i members of its own pool, so with
    self-loops its degree is deg_i = f_i k_i + 1 and the walk (A + I) / deg
    sends x to x_i / deg_i + (f_i / deg_i) * S_i, where S_i sums x over those
    k_i members.
    """

    rows: Tensor  # [N, 1]: f
    kept: np.ndarray  # [N, 1]: k_i, as float
    first: np.ndarray  # [K]: the first k_p members of every pool
    same_pool: np.ndarray  # [K, N]: 1.0 where first[j] and node i share a pool

    @classmethod
    def from_subgraphs(
        cls, graphs: list[ConstantRowSubgraph], assignment: ClusterAssignment
    ) -> "ConstantRowGraph":
        """Merge the subgraphs of ``assignment``'s nonempty pools, in pool order."""
        inverse, types = assignment.inverse_permutation, assignment.types
        rows = take(concat([g.rows for g in graphs], axis=0), inverse, axis=0)
        sizes = [g.members.size for g in graphs]
        kept = np.repeat([float(g.k) for g in graphs], sizes)[inverse]
        first = np.concatenate([g.members[: g.k] for g in graphs])
        same_pool = (types[first][:, None] == types[None, :]).astype(np.float64)
        return cls(rows, kept[:, None], first, same_pool)


def propagate(
    h: Tensor, graph: FusedSubgraph | ConstantRowGraph, cfg: PropagationConfig
) -> Tensor:
    """Run the gated propagation recurrence.

    Self-loops are added to the adjacency, rows are degree-normalized
    (strictly positive after self-loops), and each step mixes the original
    features back in with weight gamma: next = gamma * h + (1 - gamma) *
    walk(current). ``graph`` is either one cluster's :class:`FusedSubgraph`,
    with ``h`` [..., N_p, D] holding that cluster's nodes, or a
    :class:`ConstantRowGraph` of every cluster, with ``h`` [..., N, D] in
    node order.
    """
    if isinstance(graph, ConstantRowGraph):
        return _propagate_constant_rows(h, graph, cfg)
    n_p = graph.a_hat.shape[0]
    a_tilde = graph.a_hat + np.eye(n_p)
    degree = sum_(a_tilde, axis=1)
    walk = a_tilde / reshape(degree, (n_p, 1))  # row-stochastic
    states = [h]
    current = h
    for _ in range(cfg.hops - 1):
        current = cfg.gamma * h + (1.0 - cfg.gamma) * matmul(walk, current)
        states.append(current)
    return matmul(concat(states, axis=-1), cfg.out_proj)


def _propagate_constant_rows(
    h: Tensor, graph: ConstantRowGraph, cfg: PropagationConfig
) -> Tensor:
    """:func:`propagate` over all clusters from the closed form of the walk.

    A hop is gamma * h + a * current + spread with a = (1 - gamma) / deg.
    The spread, (1 - gamma) * (f_i / deg_i) * S_i, is one GEMM from the K
    gathered first-k rows through a [K, N] matrix whose column i holds
    (1 - gamma) * f_i / deg_i in the rows of node i's pool. The hop states
    meet ``out_proj`` one row block at a time, so they are never concatenated.
    """
    n, d = h.shape[-2:]
    if graph.rows.shape[0] != n:
        raise ShapeError(f"graph covers {graph.rows.shape[0]} nodes, features cover {n}")
    keep = 1.0 - cfg.gamma
    degree = graph.rows * Tensor(graph.kept) + 1.0
    self_weight = keep / degree  # [N, 1]
    spread_weight = Tensor(graph.same_pool) * reshape(keep * graph.rows / degree, (1, n))
    states = [h]
    current = h
    for hop in range(cfg.hops - 1):
        if hop == 0:  # current is h: fold the retention term into one product
            step = h * (cfg.gamma + self_weight)
        else:
            step = cfg.gamma * h + current * self_weight
        if graph.first.size:
            firsts = swap_last2(take(current, graph.first, axis=-2))  # [..., D, K]
            step = step + swap_last2(matmul(firsts, spread_weight))
        current = step
        states.append(current)
    out = None
    for j, state in enumerate(states):
        term = matmul(state, slice_axis(cfg.out_proj, 0, j * d, (j + 1) * d))
        out = term if out is None else out + term
    return out


def reassemble(cluster_outputs: list[Tensor], assignment: ClusterAssignment) -> Tensor:
    """Concatenate per-cluster outputs and restore original node order.

    Used for dense per-cluster graphs (``no_tg``) only. ``cluster_outputs``
    follow nonempty pool order with nodes on the second-to-last axis; the
    inverse permutation puts node i back at position i.
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


def gru_scan(steps_stacked: Tensor, gru: GruParams) -> Tensor:
    """Run the GRU over axis 1 of [B, T, N, D]; returns stacked states.

    The input-side projections for all steps are computed up front, with
    the update and reset gates sharing one fused projection; the recurrence
    itself is the single op :func:`gru_sequence`, which checks the shapes.
    """
    w_zr_x = concat([gru.update_x, gru.reset_x], axis=1)
    w_zr_h = concat([gru.update_h, gru.reset_h], axis=1)
    b_zr = concat([gru.update_b, gru.reset_b], axis=0)
    px_zr = matmul(steps_stacked, w_zr_x) + b_zr
    px_n = matmul(steps_stacked, gru.cand_x) + gru.cand_b
    return gru_sequence(px_zr, px_n, w_zr_h, gru.cand_h)  # [B, T, N, width]


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
    h_out = gru_scan(steps, enc.gru)
    b, t, n, width = h_out.shape
    if training and enc.dropout > 0.0:
        if rng is None:
            raise ConfigError("training-mode dropout needs an rng")
        keep = 1.0 - enc.dropout
        mask = (rng.random(h_out.shape) < keep).astype(np.float64) / keep
        h_out = h_out * Tensor(mask)
    stacked = reshape(transpose(h_out, (0, 2, 1, 3)), (b, n, t * width))
    squeezed = matmul(relu(matmul(stacked, enc.redist_w1)), enc.redist_w2)
    return squeezed * enc.gain
