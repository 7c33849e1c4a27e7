"""The fused graphs built and propagated pool by pool, kept as a test oracle.

This is the earlier construction of :meth:`ForecastModel.build_graph`: one
graph per nonempty pool, in pool order, from the rows of the spatial
factors that belong to the pool. In ``full`` and ``no_sg`` a pool's rows g
come from its own spatial factors and their sums over the pool, and
:func:`merged_graph` concatenates the pools' rows and undoes the pool
permutation, as ``ConstantRowGraph.from_subgraphs`` did. In ``no_tg`` a pool
keeps the top k of each row of its dense fused graph, and
:func:`pool_by_pool_forward` propagates each pool's nodes over it alone and
reassembles the hop states into node order (``sie.reassemble``). The model
now builds one graph of all N nodes in node order, from the [N, P] pool
one-hot, and propagates once; these tests hold it to this construction.
"""

from dataclasses import dataclass

import numpy as np

from mhgnet import sie
from mhgnet.dstgg import (
    ConstantRowGraph,
    DenseGraph,
    SpatialGraph,
    pool_sizes,
    spatial_graph,
    temporal_graph,
)
from mhgnet.numcore import (
    Tensor,
    concat,
    matmul,
    relu,
    reshape,
    sum_,
    take,
    tanh,
    topk_row_mask,
)


@dataclass
class PoolGraph:
    """One pool's fused graph: dense, plus its constant rows when it has them."""

    members: np.ndarray  # ascending node indices
    rows: Tensor | None  # [N_p, 1]: g; None for a top-k graph (no_tg)
    a_hat: Tensor  # [N_p, N_p]


def onehot(assignment) -> np.ndarray:
    """[N, P]: 1.0 where node i is in pool p."""
    return np.eye(len(assignment.pools))[assignment.types]


def pool_row_sums(spatial) -> Tensor:
    """A pool's row sums [N_p, 1] from its own factor sums: alpha * (m1 s2 - m2 s1)."""
    d_s = spatial.m1.shape[1]
    s1 = reshape(sum_(spatial.m1, axis=0), (d_s, 1))
    s2 = reshape(sum_(spatial.m2, axis=0), (d_s, 1))
    return spatial.alpha * (matmul(spatial.m1, s2) - matmul(spatial.m2, s1))


def pool_spatial_graph(full: SpatialGraph, members) -> SpatialGraph:
    """The spatial graph of one pool: the pool's rows of every node's factors."""
    return SpatialGraph(take(full.m1, members, axis=0), take(full.m2, members, axis=0), full.alpha)


def pool_graph(full, members, temporal, beta, k) -> PoolGraph:
    """One pool's graph from the spatial graph of all nodes; ``full`` None means
    ``no_sg``, ``temporal`` None ``no_tg``."""
    members = np.asarray(members, dtype=np.int64)
    spatial = None if full is None else pool_spatial_graph(full, members)
    if temporal is None:
        return PoolGraph(members, None, topk_row_mask(relu(tanh(beta * spatial.dense())), k))
    n_p = members.size
    r = Tensor(np.ones((n_p, 1))) if spatial is None else pool_row_sums(spatial)
    rows = relu(tanh(beta * temporal * r)) * (min(k, n_p) / n_p)
    return PoolGraph(members, rows, rows * Tensor(np.ones((1, n_p))))


def pool_graphs(full, assignment, temporal, beta, k) -> list[PoolGraph]:
    """Every nonempty pool's graph, in pool order."""
    return [pool_graph(full, pool, temporal, beta, k) for pool in assignment.pools if pool]


def model_pool_graphs(model, tod, dow) -> list[PoolGraph]:
    """The model's fused graphs for this window, built pool by pool."""
    cfg = model.cfg
    temporal = None
    if cfg.graph_mode != "no_tg":
        temporal = temporal_graph(model.timestamps, tod, dow, cfg.beta)
    full = None
    if cfg.graph_mode != "no_sg":
        full = spatial_graph(model.graph_params, cfg.alpha)
    return pool_graphs(full, model.assignment, temporal, cfg.beta, cfg.k)


def merged_graph(graphs: list[PoolGraph], assignment) -> ConstantRowGraph:
    """The pools' constant rows in node order: concatenated, then un-permuted."""
    rows = concat([g.rows for g in graphs], axis=0)
    rows = take(rows, np.argsort(np.concatenate([g.members for g in graphs])), axis=0)
    pools = onehot(assignment)
    return ConstantRowGraph(rows, pools, pool_sizes(pools))


def block_diagonal(graphs: list[PoolGraph], n: int) -> np.ndarray:
    """The pools' dense graphs placed at their nodes in an [N, N] matrix."""
    out = np.zeros((n, n))
    for g in graphs:
        out[np.ix_(g.members, g.members)] = g.a_hat.data
    return out


def pool_by_pool_forward(model, x, tod, dow) -> Tensor:
    """:meth:`ForecastModel.forward` with its graphs built and propagated pool by pool.

    The model's own node-order graph (and in ``no_tg`` its walk) is still
    built, but nothing reads it:
    ``sie.propagate`` is replaced for the call by a walk over the pools'
    graphs, their merged constant rows in ``full``/``no_sg``, or each pool's
    dense graph over its own nodes, reassembled into node order, in ``no_tg``.
    """
    graphs = model_pool_graphs(model, tod, dow)
    propagate = sie.propagate

    def pool_by_pool(h, graph, cfg, walk_t=None):
        if model.cfg.graph_mode != "no_tg":
            return propagate(h, merged_graph(graphs, model.assignment), cfg)
        parts = [propagate(take(h, g.members, axis=2), DenseGraph(g.a_hat), cfg) for g in graphs]
        return sie.reassemble(parts, model.assignment)

    sie.propagate = pool_by_pool  # the model calls it through the module
    try:
        return model.forward(x, tod, dow)
    finally:
        sie.propagate = propagate
