"""Subgraph information extraction.

Node features are propagated over each cluster's fused adjacency with a
gated multi-hop recurrence, fed through a GRU over the input window, and
the stacked hidden states are redistributed by a pair of 1x1 projections and
a learned gain.

The GRU and the redistribution are one ``numcore`` op, which runs
channel-major, on [T, channels, B * N]: every per-step array is a few
contiguous rows of length B * N, so each elementwise op of the recurrence
and of its backward runs over whole rows rather than over runs of W =
width values, and the redistribution is a GEMM over the states as a
[T * W, B * N] matrix. Only the small hop states enter this layout, by
:func:`channel_major` ahead of the encoder, so that without a gradient
they are not held in both layouts while the GRU runs, and only the [W, B *
N] encoding leaves it; without a gradient the states [T, W, B * N] are
never held at once.

What is propagated is the scalar input x [B, T, N, 1], not its D-wide lift
x_hat = x * w + b. This is exact: every walk is linear and row-stochastic
(its rows are divided by their degree), so it maps a constant field to
itself, and hop j of x_hat is hop j of x times w plus b. The D-wide
features the GRU reads, the hop states of x_hat through ``out_proj``, are
then the [B, T, N, hops] hop states of x through the [hops + 1, D] matrix
of :func:`hop_lift`, which :func:`fold_gru` folds into the input rows of
the GRU's two stacked weights. No [B, T, N, D] tensor is propagated or
projected.

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
    reshape,
    slice_axis,
    sum_,
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
    h: Tensor,
    graph: DenseGraph | ConstantRowGraph,
    cfg: PropagationConfig,
    walk_t: Tensor | None = None,
) -> Tensor:
    """The hop states of the gated propagation recurrence, [..., N, hops * C].

    Self-loops are added to the adjacency, rows are degree-normalized
    (strictly positive after self-loops), and each step mixes the original
    features back in with weight gamma: next = gamma * h + (1 - gamma) *
    walk(current). State j fills channels j*C to (j+1)*C; state 0 is ``h``.
    ``graph`` is the node-order graph of every cluster, a
    :class:`ConstantRowGraph` or a :class:`DenseGraph`, and ``h`` is
    [..., N, C] in node order. The states run with nodes on the last axis,
    so each walk is one right-multiplication. ``walk_t`` is a
    :class:`DenseGraph`'s :func:`dense_walk`, if the caller kept it.
    """
    keep = 1.0 - cfg.gamma
    if isinstance(graph, ConstantRowGraph):
        walk = _constant_row_walk(graph, h.shape[-2], keep)
    else:
        walk_t = dense_walk(graph, cfg.gamma) if walk_t is None else walk_t

        def walk(current: Tensor) -> Tensor:
            return matmul(current, walk_t)

    swap = (*range(h.ndim - 2), h.ndim - 1, h.ndim - 2)  # the last two axes exchanged
    field = transpose(h, swap)  # [..., C, N]
    states = [field]
    for _ in range(cfg.hops - 1):
        states.append(cfg.gamma * field + walk(states[-1]))
    return transpose(concat(states, axis=-2), swap)


def dense_walk(graph: DenseGraph, gamma: float) -> Tensor:
    """(1 - gamma) times the transposed walk (A + I) / deg of a dense graph, [N, N]."""
    a_tilde = graph.a_hat + np.eye(graph.a_hat.shape[0])
    degree = reshape(sum_(a_tilde, axis=1), (-1, 1))
    return transpose((1.0 - gamma) * a_tilde / degree, (1, 0))


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
    degree = rows * Tensor(graph.sizes) + 1.0
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
    rows = [matmul(weight, slice_axis(cfg.out_proj, 0, j * d, j * d + d)) for j in range(cfg.hops)]
    blocks = reshape(cfg.out_proj, (cfg.hops, d, d))
    rows.append(matmul(reshape(bias, (1, d)), sum_(blocks, axis=0)))
    return concat(rows, axis=0)


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


@dataclass
class FoldedGru:
    """The GRU's two stacked weights, each with its input rows folded through a lift."""

    w_zr: Tensor  # [K + W, 2W]: update|reset, input rows over hidden rows
    w_n: Tensor  # [K + W, W]: candidate, input rows over hidden rows


def fold_gru(lift: Tensor, gru: GruParams) -> FoldedGru:
    """The stacked weights that :func:`gru_scan` applies, from a [K, D] ``lift``.

    The GRU's input at each step is [features, 1] @ ``lift``, the last of
    the K = C + 1 rows meeting a constant-one channel (:func:`hop_lift`).
    The lift and each gate's bias are folded into its input weights,
    ``lift @ w_x + bias_row * b_x``, and each folded block is stacked over
    its hidden weights: ``w_zr`` is the update|reset block over
    ``update_h|reset_h``, ``w_n`` the candidate block over ``cand_h``. The
    concats' backward splits the weights' gradients again.
    """
    k = lift.shape[0]
    bias_row = Tensor(np.eye(k)[:, k - 1 :])  # [K, 1]: 1 in the constant channel's row

    def fold(w_x: Tensor, b_x: Tensor) -> Tensor:
        return matmul(lift, w_x) + bias_row * b_x

    w_x_zr = fold(
        concat([gru.update_x, gru.reset_x], axis=1),
        concat([gru.update_b, gru.reset_b], axis=0),
    )
    w_zr = concat([w_x_zr, concat([gru.update_h, gru.reset_h], axis=1)], axis=0)
    w_n = concat([fold(gru.cand_x, gru.cand_b), gru.cand_h], axis=0)
    return FoldedGru(w_zr, w_n)


def channel_major(features: Tensor) -> Tensor:
    """Hop states [B, T, N, C] as the GRU's inputs [T, C + 1, B, N].

    The channels move ahead of the batch and node axes, the layout of
    :func:`gru_sequence` once B and N are merged, and a constant-one
    channel is appended for the folded biases. The forward calls this
    before :func:`encode_sequence`, so without a gradient the hop states
    are gone before the GRU runs.
    """
    b, t, n, _ = features.shape
    channels = transpose(features, (1, 3, 0, 2))  # [T, C, B, N]
    return concat([channels, Tensor(np.ones((t, 1, b, n)))], axis=1)


def gru_scan(
    inputs: Tensor,
    gru: FoldedGru,
    enc: RecurrentEncoder,
    mask: np.ndarray | None = None,
    scale: float = 1.0,
) -> Tensor:
    """Run the GRU over axis 0 of [T, K, B, N] and redistribute; returns [W, B * N].

    ``inputs`` are :func:`channel_major`'s, merged to [T, K, B * N], the
    channel-major layout of :func:`gru_sequence`, and ``gru`` the weights
    of :func:`fold_gru`. :func:`gru_sequence` applies them one step at a
    time, so no pre-activation of the whole window is built, and it applies
    the dropout ``mask`` [T, W, B * N] times ``scale`` and the encoder's
    redistribution in the same graph node. That op checks the shapes.
    """
    t, k, b, n = inputs.shape
    merged = reshape(inputs, (t, k, b * n))
    redistribute = (enc.redist_w1, enc.redist_w2, enc.gain)
    return gru_sequence(merged, gru.w_zr, gru.w_n, redistribute, mask, scale)


def encode_sequence(
    inputs: Tensor,
    gru: FoldedGru,
    enc: RecurrentEncoder,
    training: bool = False,
    rng: SplitRng | None = None,
) -> Tensor:
    """Encode per-step node inputs [T, K, B, N] into one vector per node, [B, N, W].

    ``inputs`` are :func:`channel_major`'s and ``gru`` the weights of
    :func:`fold_gru`. :func:`gru_scan` runs the GRU, the dropout and the
    redistribution as one op: the hidden states [T, W, B * N] are dropped
    out in training mode only, the time axis is collapsed by two
    ReLU-separated projections, ``redist_w2ᵀ @ relu(redist_w1ᵀ @ h)`` on
    the states as one [T * W, B * N] matrix, and the result is gated
    elementwise by ``gain``. Here the dropout mask is drawn as [B, T, N, W]
    and transposed, so every state element keeps the draw it would get in
    batch-major order. The op takes the boolean draw and the scale
    1 / keep, which it applies to the kept states, rather than a float
    mask of 8 times the bytes that a gradient would hold until the backward.
    """
    t, _, b, n = inputs.shape
    width = enc.gru.update_h.shape[0]
    mask, scale = None, 1.0
    if training and enc.dropout > 0.0:
        if rng is None:
            raise ConfigError("training-mode dropout needs an rng")
        keep = 1.0 - enc.dropout
        drawn = (rng.random((b, t, n, width)) < keep).transpose(1, 3, 0, 2)
        mask, scale = drawn.reshape(t, width, b * n), 1.0 / keep
    encoded = gru_scan(inputs, gru, enc, mask, scale)
    return transpose(reshape(encoded, (encoded.shape[0], b, n)), (1, 2, 0))
