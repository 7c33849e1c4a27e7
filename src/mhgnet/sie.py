"""Subgraph information extraction.

Node features are propagated over each cluster's fused adjacency with a
gated multi-hop recurrence, fed through a GRU over the input window, and
the stacked hidden states are redistributed by a pair of 1x1 projections and
a learned gain.

The GRU and the redistribution run channel-major, on [T, channels, B * N]:
every per-step array is a few contiguous rows of length B * N, so each
elementwise op of the recurrence and of its backward runs over whole rows
rather than over runs of W = width values, and the redistribution is one
GEMM over the states as a [T * W, B * N] matrix. Only the small hop states
enter this layout and only the [B, N, W] encoding leaves it.

What is propagated is the scalar input x [B, T, N, 1], not its D-wide lift
x_hat = x * w + b. This is exact: every walk is linear and row-stochastic
(its rows are divided by their degree), so it maps a constant field to
itself, and hop j of x_hat is hop j of x times w plus b. The D-wide
features the GRU reads, the hop states of x_hat through ``out_proj``, are
then the [B, T, N, hops] hop states of x through the [hops + 1, D] matrix
of :func:`hop_lift`, which :func:`gru_scan` folds into the GRU's input
weights. No [B, T, N, D] tensor is propagated or projected.

Every mode propagates once, over the node-order graph of all clusters, so
nothing needs reassembling. A graph of constant rows (``full``, ``no_sg``;
:class:`~mhgnet.dstgg.ConstantRowGraph`) is walked from its closed form; the
top-k graph of ``no_tg`` (:class:`~mhgnet.dstgg.DenseGraph`) through its
dense [N, N] walk, whose zeros between pools keep each walk in its cluster.
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
    sum_,
    swap_last2,
    take,
    transpose,
)
from .clusterer import ClusterAssignment
from .dstgg import ConstantRowGraph, DenseGraph


@dataclass
class PropagationConfig:
    """Gated multi-hop propagation settings.

    ``hops`` states are produced: the input itself plus hops-1 recurrence
    steps. ``out_proj`` [hops * D, D] projects the hop states of the D-wide
    lift back to width D, its j-th block of D rows applying to state j;
    :func:`hop_lift` folds it into a map from the scalar input's states.
    """

    gamma: float  # retention weight in [0, 1]
    hops: int
    out_proj: Tensor


def propagate(
    h: Tensor, graph: DenseGraph | ConstantRowGraph, cfg: PropagationConfig
) -> Tensor:
    """The hop states of the gated propagation recurrence, [..., N, hops * C].

    Self-loops are added to the adjacency, rows are degree-normalized
    (strictly positive after self-loops), and each step mixes the original
    features back in with weight gamma: next = gamma * h + (1 - gamma) *
    walk(current). State j fills channels j*C to (j+1)*C; state 0 is ``h``.
    ``graph`` is the node-order graph of every cluster, a
    :class:`ConstantRowGraph` or a :class:`DenseGraph`, and ``h`` is
    [..., N, C] in node order. The states run with nodes on the last axis,
    so each walk is one right-multiplication.
    """
    keep = 1.0 - cfg.gamma
    if isinstance(graph, ConstantRowGraph):
        walk = _constant_row_walk(graph, h.shape[-2], keep)
    else:
        a_tilde = graph.a_hat + np.eye(graph.a_hat.shape[0])
        degree = reshape(sum_(a_tilde, axis=1), (-1, 1))
        walk_t = swap_last2(keep * a_tilde / degree)

        def walk(current: Tensor) -> Tensor:
            return matmul(current, walk_t)

    field = swap_last2(h)  # [..., C, N]
    states = [field]
    for _ in range(cfg.hops - 1):
        states.append(cfg.gamma * field + walk(states[-1]))
    return swap_last2(concat(states, axis=-2))


def _constant_row_walk(graph: ConstantRowGraph, n: int, keep: float):
    """(1 - gamma) times one walk step over all clusters, from its closed form.

    Node i's row holds g_i on every member of its own pool, N_p of them, so
    with self-loops its degree is deg_i = g_i N_p + 1 and the walk
    (A + I) / deg sends x to x_i / deg_i + (g_i / deg_i) * S_i, where S_i
    sums x over node i's pool. The step is a * current + spread with
    a = (1 - gamma) / deg. The spread, (1 - gamma) * (g_i / deg_i) * S_i, is
    two GEMMs: the pool sums ``current @ onehot``, then a [P, N] matrix whose
    column i holds (1 - gamma) * g_i / deg_i in the row of node i's pool.
    """
    if graph.rows.shape[0] != n:
        raise ShapeError(f"graph covers {graph.rows.shape[0]} nodes, features cover {n}")
    rows = reshape(graph.rows, (n,))
    degree = rows * Tensor(graph.onehot @ graph.onehot.sum(axis=0)) + 1.0
    self_weight = keep / degree  # [N]
    spread_weight = Tensor(graph.onehot.T) * (keep * rows / degree)  # [P, N]
    onehot = Tensor(graph.onehot)

    def walk(current: Tensor) -> Tensor:  # current: [..., C, N]
        return current * self_weight + matmul(matmul(current, onehot), spread_weight)

    return walk


def hop_lift(weight: Tensor, bias: Tensor, cfg: PropagationConfig) -> Tensor:
    """The [hops + 1, D] map from scalar hop states to propagated features.

    Propagating the lift x * weight + bias of a scalar field x gives hop
    states S_j * weight + bias, where S_j are the hop states of x: the walk
    is linear and row-stochastic, so it keeps the constant bias. With P_j
    the j-th [D, D] row block of ``out_proj``, the projected features are
    therefore sum_j S_j (weight P_j) + bias sum_j P_j: row j < hops of the
    result is weight P_j, and the last row, which meets a constant-one
    channel, is bias sum_j P_j.
    """
    d = cfg.out_proj.shape[1]
    blocks = reshape(cfg.out_proj, (cfg.hops, d, d))
    hop_rows = reshape(matmul(weight, blocks), (cfg.hops, d))
    bias_row = matmul(reshape(bias, (1, d)), sum_(blocks, axis=0))
    return concat([hop_rows, bias_row], axis=0)


def reassemble(cluster_outputs: list[Tensor], assignment: ClusterAssignment) -> Tensor:
    """Concatenate per-cluster outputs and restore original node order.

    The model propagates in node order and does not call this; it serves
    pool-by-pool constructions. ``cluster_outputs`` follow nonempty pool
    order with nodes on the second-to-last axis, so they hold the nodes by
    type, then by node; ``position`` puts node i back at position i.
    """
    n = assignment.types.size
    total = sum(t.shape[-2] for t in cluster_outputs)
    if total != n:
        raise ShapeError(
            f"assembly size mismatch: cluster outputs cover {total} nodes, expected {n}"
        )
    position = np.argsort(np.argsort(assignment.types, kind="stable"))
    return take(concat(cluster_outputs, axis=-2), position, axis=-2)


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


def gru_scan(features: Tensor, lift: Tensor, gru: GruParams) -> Tensor:
    """Run the GRU over axis 1 of [B, T, N, C]; returns states [T, W, B * N].

    The hop states are transposed to [T, C, B * N], the channel-major layout
    of :func:`gru_sequence`, with a constant-one row appended. The GRU's
    input at each step is [features, 1] @ ``lift`` ([C + 1, D]); the lift
    and each gate's bias are folded into its input weights, so the
    update|reset and the candidate pre-activations for all steps are one
    GEMM each, ``(lift @ w_x + bias_row * b_x)ᵀ @ inputs`` with K = C + 1.
    The recurrence itself is the single op :func:`gru_sequence`, which
    checks the shapes.
    """
    b, t, n, c = features.shape
    channels = transpose(features, (1, 3, 0, 2))  # [T, C, B, N]
    inputs = reshape(
        concat([channels, Tensor(np.ones((t, 1, b, n)))], axis=1), (t, c + 1, b * n)
    )
    bias_row = Tensor(np.eye(c + 1)[:, c:])  # [C + 1, 1]: 1 in the constant channel's row

    def preactivation(w_x: Tensor, b_x: Tensor) -> Tensor:
        return matmul(swap_last2(matmul(lift, w_x) + bias_row * b_x), inputs)

    px_zr = preactivation(
        concat([gru.update_x, gru.reset_x], axis=1),
        concat([gru.update_b, gru.reset_b], axis=0),
    )
    px_n = preactivation(gru.cand_x, gru.cand_b)
    w_zr_h = concat([gru.update_h, gru.reset_h], axis=1)
    return gru_sequence(px_zr, px_n, w_zr_h, gru.cand_h)


def encode_sequence(
    features: Tensor,
    lift: Tensor,
    enc: RecurrentEncoder,
    training: bool = False,
    rng: SplitRng | None = None,
) -> Tensor:
    """Encode per-step node features [B, T, N, C] into one vector per node, [B, N, W].

    The features reach the GRU through ``lift`` (see :func:`gru_scan`). All
    hidden states [T, W, B * N] are kept and optionally dropped out
    (training mode only). The dropout mask is drawn as [B, T, N, W] and
    transposed, so every state element keeps the draw it would get in
    batch-major order. The time axis is then collapsed by two
    ReLU-separated projections, ``redist_w2ᵀ @ relu(redist_w1ᵀ @ h)`` on
    the states as one [T * W, B * N] matrix, and the result is gated
    elementwise by ``gain``.
    """
    h = gru_scan(features, lift, enc.gru)
    t, width, m = h.shape
    b, n = features.shape[0], features.shape[2]
    if training and enc.dropout > 0.0:
        if rng is None:
            raise ConfigError("training-mode dropout needs an rng")
        keep = 1.0 - enc.dropout
        drawn = (rng.random((b, t, n, width)) < keep).transpose(1, 3, 0, 2)
        h = h * Tensor(drawn.reshape(t, width, m) / keep)
    hidden = relu(matmul(swap_last2(enc.redist_w1), reshape(h, (t * width, m))))
    squeezed = matmul(swap_last2(enc.redist_w2), hidden) * reshape(enc.gain, (width, 1))
    return transpose(reshape(squeezed, (width, b, n)), (1, 2, 0))
