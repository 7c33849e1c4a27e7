import numpy as np
import pytest

from gradcheck import check_gradient
from graph_oracle import block_diagonal, onehot, pool_graphs
from mhgnet import dstgg
from mhgnet.clusterer import ClusterAssignment
from mhgnet.data import make_bundle, synthesize
from mhgnet.dstgg import (
    ClusterGraphParams,
    ConstantRowGraph,
    fuse_and_sparsify,
    spatial_graph,
    temporal_graph,
)
from mhgnet.model import ForecastModel, ModelConfig
from mhgnet.numcore import ParameterStore, SplitRng, Tensor, no_grad, sum_
from mhgnet.std import TimestampEmbeddings


def _params(n=6, d_s=3, seed=0, store=None):
    store = store or ParameterStore(SplitRng(seed))
    return store, ClusterGraphParams(
        e1=store.add("e1", (n, d_s), "normal(0,1)"),
        e2=store.add("e2", (n, d_s), "normal(0,1)"),
        w1=store.add("w1", (d_s, d_s)),
        w2=store.add("w2", (d_s, d_s)),
    )


def _timestamps(spd=8, d_t=2, seed=1, store=None):
    store = store or ParameterStore(SplitRng(seed))
    return store, TimestampEmbeddings(
        daily=store.add("daily", (spd, d_t), "normal(0,1)"),
        weekly=store.add("weekly", (7, d_t), "normal(0,1)"),
    )


def _one_pool(n):
    """The [N, 1] one-hot of a single pool holding every node."""
    return np.ones((n, 1))


def _oracle_temporal(daily_tbl, weekly_tbl, members, tod, dow, beta):
    """Full construction: per-step outer products of member rows, then pool."""
    tod = np.atleast_2d(tod)
    dow = np.atleast_2d(dow)
    n_p = len(members)
    mats = []
    for bb in range(tod.shape[0]):
        for tt in range(tod.shape[1]):
            d_rows = np.repeat(daily_tbl[tod[bb, tt]][None, :], n_p, axis=0)
            w_rows = np.repeat(weekly_tbl[dow[bb, tt]][None, :], n_p, axis=0)
            mats.append(d_rows @ w_rows.T)
    pooled = np.mean(mats, axis=0)
    return beta * np.maximum(np.tanh(pooled), 0.0)


def _oracle_fuse(a_s, a_t, beta):
    """Dense fusion by definition: relu(tanh(beta * A_s A_t^T)), not yet sparsified.

    The product is summed in the same order for every entry, so rows that are
    constant by construction come out exactly constant.
    """
    n = a_s.shape[0]
    prod = np.array(
        [[sum(a_s[i, l] * a_t[j, l] for l in range(n)) for j in range(n)] for i in range(n)]
    )
    return np.maximum(np.tanh(beta * prod), 0.0)


def _oracle_topk(fused, k):
    """Keep the k largest entries per row, ties going to the lower column."""
    out = np.zeros_like(fused)
    for i in range(fused.shape[0]):
        row = fused[i]
        kept = sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]
        for j in kept:
            out[i, j] = row[j]
    return out


def _oracle_spread(fused, k):
    """Share each constant row's top-k mass evenly over all of its columns."""
    n = fused.shape[1]
    out = np.zeros_like(fused)
    for i in range(fused.shape[0]):
        row = fused[i]
        assert (row == row[0]).all()  # a full tie
        for j in range(n):
            out[i, j] = row[0] * min(k, n) / n
    return out


class TestSpatialGraph:
    def test_equal_embeddings_zero_graph(self):
        store, params = _params()
        params.e2.data = params.e1.data.copy()
        params.w2.data = params.w1.data.copy()
        out = spatial_graph(params, 1.0)
        assert np.max(np.abs(out.dense().data)) == 0.0
        assert np.max(np.abs(out.row_sums(_one_pool(6)).data)) == 0.0

    def test_antisymmetry(self):
        store, params = _params(seed=3)
        out = spatial_graph(params, 2.5).dense().data
        assert np.max(np.abs(out + out.T)) < 1e-12

    def test_two_node_hand_values(self):
        store = ParameterStore(SplitRng(0))
        params = ClusterGraphParams(
            e1=store.add("e1", (2, 1), "zeros"),
            e2=store.add("e2", (2, 1), "zeros"),
            w1=store.add("w1", (1, 1), "ones"),
            w2=store.add("w2", (1, 1), "ones"),
        )
        params.e1.data = np.array([[1.0], [0.0]])
        params.e2.data = np.array([[0.0], [1.0]])
        out = spatial_graph(params, 1.0).dense().data
        expected = np.tanh(1.0) ** 2
        assert abs(out[0, 1] - expected) < 1e-12
        assert abs(out[1, 0] + expected) < 1e-12
        assert abs(expected - 0.5800) < 5e-4

    def test_member_permutation_equivariance(self):
        store, params = _params(seed=4)
        perm = np.array([2, 0, 3, 1, 5, 4])  # relabeled node j is original node perm[j]
        base = spatial_graph(params, 1.0).dense().data
        params.e1.data, params.e2.data = params.e1.data[perm], params.e2.data[perm]
        shuffled = spatial_graph(params, 1.0).dense().data
        assert np.allclose(shuffled, base[np.ix_(perm, perm)], atol=1e-15)

    def test_row_sums_match_dense(self):
        store, params = _params(n=9, d_s=4, seed=20)
        out = spatial_graph(params, 2.0)
        sums = out.row_sums(_one_pool(9)).data
        assert sums.shape == (9, 1)
        assert np.max(np.abs(sums[:, 0] - out.dense().data.sum(axis=1))) < 1e-12

    def test_row_sums_stay_within_each_pool(self):
        store, params = _params(n=9, d_s=4, seed=23)
        asg = ClusterAssignment.from_types(np.array([2, 0, 2, 2, 0, 1, 2, 0, 2]), 4)
        sums = spatial_graph(params, 2.0).row_sums(onehot(asg)).data
        dense = spatial_graph(params, 2.0).dense().data
        same_pool = asg.types[:, None] == asg.types[None, :]
        expected = (dense * same_pool).sum(axis=1)
        assert sums.shape == (9, 1)
        assert sums[5, 0] == 0.0  # node 5 is alone in its pool
        assert (np.delete(expected, 5) != 0.0).all()
        assert np.max(np.abs(sums[:, 0] - expected)) < 1e-12

    def test_gradient(self):
        store, params = _params(n=3, d_s=2, seed=5)
        rng = np.random.default_rng(6)
        weights = Tensor(rng.normal(size=(3, 3)))
        row_weights = Tensor(rng.normal(size=(3, 1)))
        pools = onehot(ClusterAssignment.from_types(np.array([0, 1, 0]), 2))

        def loss():
            out = spatial_graph(params, 0.7)
            return sum_(out.dense() * weights) + sum_(out.row_sums(pools) * row_weights)

        assert check_gradient(loss, store.parameters(), h=1e-5) < 1e-4


class TestTemporalGraph:
    def test_all_ones_tables(self):
        store = ParameterStore(SplitRng(0))
        ts = TimestampEmbeddings(
            daily=store.add("daily", (4, 1), "ones"),
            weekly=store.add("weekly", (7, 1), "ones"),
        )
        tod = np.array([[0, 1, 2]])
        dow = np.array([[0, 3, 6]])
        out = temporal_graph(ts, tod, dow, beta=1.0).data
        assert out.shape == ()
        assert out == np.tanh(1.0)
        assert abs(out - 0.7616) < 5e-5

    def test_zero_weekly_zero_graph(self):
        store = ParameterStore(SplitRng(1))
        ts = TimestampEmbeddings(
            daily=store.add("daily", (4, 2), "normal(0,1)"),
            weekly=store.add("weekly", (7, 2), "zeros"),
        )
        out = temporal_graph(ts, np.array([[0, 1]]), np.array([[2, 3]]), 0.5)
        assert out.data == 0.0

    def test_orthogonal_rows_zero_graph(self):
        store = ParameterStore(SplitRng(2))
        ts = TimestampEmbeddings(
            daily=store.add("daily", (2, 2), "zeros"),
            weekly=store.add("weekly", (7, 2), "zeros"),
        )
        ts.daily.data = np.array([[1.0, 0.0], [0.0, 1.0]])
        ts.weekly.data[:] = np.array([0.0, 0.0])
        ts.weekly.data[0] = [0.0, 1.0]
        ts.weekly.data[1] = [1.0, 0.0]
        tod = np.array([[0, 1]])
        dow = np.array([[0, 1]])  # dots are 0 at every step
        out = temporal_graph(ts, tod, dow, 1.0)
        assert out.data == 0.0

    def test_matches_full_construction_oracle(self):
        store, ts = _timestamps(spd=6, d_t=3, seed=7)
        rng = np.random.default_rng(12)  # a draw with a positive window mean
        tod = rng.integers(0, 6, (2, 5))
        dow = rng.integers(0, 7, (2, 5))
        members = np.array([1, 3, 4])
        out = temporal_graph(ts, tod, dow, beta=0.5).data
        oracle = _oracle_temporal(ts.daily.data, ts.weekly.data, members, tod, dow, 0.5)
        assert out > 0.0
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_gradient(self):
        store, ts = _timestamps(spd=5, d_t=2, seed=9)
        tod = np.array([[0, 2, 4]])
        dow = np.array([[0, 1, 2]])  # positive mean dot, so the ReLU passes it
        assert temporal_graph(ts, tod, dow, 0.8).item() > 0.0
        weights = Tensor(np.random.default_rng(10).normal(size=(3, 3)))
        err = check_gradient(
            lambda: sum_(temporal_graph(ts, tod, dow, 0.8) * weights),
            store.parameters(),
            h=1e-5,
        )
        assert err < 1e-4


class TestFuseAndSparsify:
    def test_zero_temporal_zero_graph(self):
        store, params = _params(n=4, seed=11)
        spatial = spatial_graph(params, 1.0)
        for k in (0, 2, 4):
            for s in (spatial, None):
                g = fuse_and_sparsify(s, Tensor(0.0), beta=0.5, k=k, onehot=_one_pool(4))
                assert np.array_equal(g.a_hat.data, np.zeros((4, 4)))

    def test_singleton_cluster(self):
        store, params = _params(n=1, seed=12)
        spatial = spatial_graph(params, 1.0)
        a_s = spatial.dense().data
        assert a_s.shape == (1, 1)
        assert a_s[0, 0] == 0.0  # antisymmetric diagonal
        for temporal in (Tensor(1.0), None):
            g = fuse_and_sparsify(spatial, temporal, 0.5, 1, _one_pool(1))
            assert np.array_equal(g.a_hat.data, np.zeros((1, 1)))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3)])
    def test_matches_loop_oracle(self, n, k):
        store, params = _params(n=n, seed=n * 10 + k)
        spatial = spatial_graph(params, 1.3)
        a_s = spatial.dense().data
        constant = np.full((n, n), 0.8)
        cases = {  # graph mode: (spatial, temporal, dense A_s, dense A_t, sparsifier)
            "full": (spatial, Tensor(0.8), a_s, constant, _oracle_spread),
            "no_sg": (None, Tensor(0.8), np.eye(n), constant, _oracle_spread),
            "no_tg": (spatial, None, a_s, np.eye(n), _oracle_topk),
        }
        for mode, (s, t, a_s_dense, a_t_dense, sparsify) in cases.items():
            g = fuse_and_sparsify(s, t, 0.7, k, _one_pool(n)).a_hat.data
            oracle = sparsify(_oracle_fuse(a_s_dense, a_t_dense, 0.7), k)
            assert oracle.any(), mode
            assert np.max(np.abs(g - oracle)) < 1e-12, mode
        # no_tg in node order: each nonempty pool's block is its own top k, bit
        # for bit, and nothing joins two pools
        layouts = [  # (node types, pool count)
            (np.zeros(n, dtype=np.int64), 1),  # a single pool
            (np.random.default_rng(n * 10 + k).integers(0, 3, n), 3),  # a random assignment
            (np.array([0] * (n - 2) + [2, 3]), 4),  # pool 1 empty; two pools of 1 node
        ]
        for types, p in layouts:
            asg = ClusterAssignment.from_types(types, p)
            for kk in (0, k):
                g = fuse_and_sparsify(spatial, None, 0.7, kk, onehot(asg)).a_hat.data
                assert not g[asg.types[:, None] != asg.types[None, :]].any()
                for pool in pool_graphs(spatial, asg, None, 0.7, kk):
                    assert np.array_equal(g[np.ix_(pool.members, pool.members)], pool.a_hat.data)
                assert g.any() == (kk > 0 and max(map(len, asg.pools)) > 1)

    def test_range_and_row_sparsity(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(0, n + 2))
            store, params = _params(n=n, seed=100 + trial)
            spatial = spatial_graph(params, 3.0)
            temporal = Tensor(abs(rng.normal()) * 3.0)
            for s, t in ((spatial, temporal), (None, temporal), (spatial, None)):
                g = fuse_and_sparsify(s, t, 0.5, k, _one_pool(n)).a_hat.data
                assert (g >= 0.0).all() and (g <= 1.0).all()
                if t is None:  # top k
                    assert (np.count_nonzero(g, axis=1) <= k).all()
                else:  # each constant row spreads a mass of at most k over its pool
                    assert (g == g[:, :1]).all()
                    assert (g.sum(axis=1) <= k * (1.0 + 1e-12)).all()

    def test_fused_permutation_equivariance(self):
        store, params = _params(n=4, seed=14)
        store2, ts = _timestamps(seed=15)
        rng = np.random.default_rng(17)  # a draw with a positive window mean
        tod = rng.integers(0, 8, (1, 4))
        dow = rng.integers(0, 7, (1, 4))
        perm = np.array([3, 1, 0, 2])  # relabeled node j is original node perm[j]
        a_t = temporal_graph(ts, tod, dow, 0.5)

        def fused():
            # keep every entry so sparsification cannot reorder ties
            spatial = spatial_graph(params, 1.0)
            return fuse_and_sparsify(spatial, a_t, 0.5, 4, _one_pool(4)).a_hat.data

        base = fused()
        params.e1.data, params.e2.data = params.e1.data[perm], params.e2.data[perm]
        shuffled = fused()
        assert base.any()
        assert np.allclose(shuffled, base[np.ix_(perm, perm)], atol=1e-15)

    def test_gradient_through_fusion(self):
        store, params = _params(n=3, d_s=2, seed=17)
        store2, ts = _timestamps(spd=5, d_t=2, seed=18)
        tod = np.array([[1, 4]])
        dow = np.array([[2, 4]])  # positive mean dot, so the fused graph is not empty
        weights = Tensor(np.random.default_rng(19).normal(size=(3, 3)))
        assert temporal_graph(ts, tod, dow, 0.6).item() > 0.0

        def loss():
            a_s = spatial_graph(params, 0.9)
            a_t = temporal_graph(ts, tod, dow, 0.6)
            g = fuse_and_sparsify(a_s, a_t, 0.6, 2, _one_pool(3))
            return sum_(g.a_hat * weights)

        params_all = store.parameters() + store2.parameters()
        err = check_gradient(loss, params_all, h=1e-5)
        assert err < 1e-4


class TestClosedForm:
    """The fused graph of a constant temporal graph has constant rows."""

    def test_rounding_rows_constant_over_pool(self):
        # A dense A_s A_t^T leaves a large pool's rows unequal by ~2e-14; the
        # closed form keeps every row exactly constant over its pool.
        series = synthesize(300, 2, 3, seed=1)
        bundle = make_bundle(series, 12, 12)
        model = ForecastModel(ModelConfig(n=300, seed=1))
        model.refresh_clusters(bundle.train, bundle.scaler)
        probe = bundle.train.slice(slice(0, 16))
        cfg = model.cfg
        with no_grad():
            graph = model.build_graph(probe.tod_index, probe.dow_index)
            e = temporal_graph(model.timestamps, probe.tod_index, probe.dow_index, cfg.beta)
            a_s_all = spatial_graph(model.graph_params, cfg.alpha).dense().data
        a_hat = graph.a_hat.data
        pools = [pool for pool in model.assignment.pools if pool]
        assert sum(len(pool) > 1 for pool in pools) >= 2
        types = model.assignment.types
        assert not a_hat[types[:, None] != types[None, :]].any()  # no entry leaves its pool
        for pool in pools:
            a = a_hat[np.ix_(pool, pool)]
            a_s = a_s_all[np.ix_(pool, pool)]
            f = np.maximum(np.tanh(cfg.beta * e.item() * a_s.sum(axis=1)), 0.0)
            assert a.any()
            assert (a == a[:, :1]).all()
            assert np.max(np.abs(a.sum(axis=1) - f * min(cfg.k, a.shape[0]))) < 1e-12

    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_k_zero_and_k_above_pool_size(self, mode):
        store, params = _params(n=5, seed=21)
        spatial = None if mode == "no_sg" else spatial_graph(params, 2.0)
        temporal = None if mode == "no_tg" else Tensor(0.9)
        nodes = _one_pool(5)
        assert not fuse_and_sparsify(spatial, temporal, 0.5, 0, nodes).a_hat.data.any()
        every = fuse_and_sparsify(spatial, temporal, 0.5, 5, nodes).a_hat.data
        beyond = fuse_and_sparsify(spatial, temporal, 0.5, 9, nodes).a_hat.data
        assert every.any()
        assert np.array_equal(beyond, every)
        if temporal is not None:
            assert (every == every[:, :1]).all()

    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_gradient_to_embeddings_and_timestamps(self, mode):
        cfg = ModelConfig(
            n=5, p=1, d=2, d_s=2, d_t=2, t_h=3, t_f=1, k=3, steps_per_day=6,
            seed=4, graph_mode=mode,
        )
        model = ForecastModel(cfg)
        tod = np.array([[0, 1, 2], [3, 4, 5]])
        dow = np.array([[0, 1, 2], [2, 3, 4]])
        weights = Tensor(np.random.default_rng(22).normal(size=(5, 5)))
        names = () if mode == "no_tg" else ("time.daily", "time.weekly")
        if mode != "no_sg":
            names += ("graph.e1", "graph.e2", "graph.w1", "graph.w2")
        params = [p for p in model.parameters() if p.name in names]
        assert len(params) == len(names)

        def loss():
            return sum_(model.build_graph(tod, dow).a_hat * weights)

        with no_grad():
            assert loss().item() != 0.0
        assert check_gradient(loss, params, h=1e-5) < 1e-4


_LAYOUTS = {  # name: (node types, number of pools, k)
    "single_pool": ([0] * 7, 1, 3),
    "pools_below_k": ([1, 0, 2, 1, 0, 1, 1], 3, 3),  # pool sizes 2, 4, 1
    "k_zero": ([1, 0, 2, 1, 0, 1, 1], 3, 0),
    "empty_pool": ([2, 0, 2, 2, 0, 0, 2], 3, 2),  # pool 1 is empty
}


class TestNodeOrderGraph:
    """The node-order graph against the pool-by-pool construction."""

    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_a_hat_is_block_diagonal_of_pool_graphs(self, mode, layout):
        types, p, k = _LAYOUTS[layout]
        store, params = _params(n=7, seed=24)
        asg = ClusterAssignment.from_types(np.array(types), p)
        temporal = None if mode == "no_tg" else Tensor(0.9)
        spatial = None if mode == "no_sg" else spatial_graph(params, 1.5)
        graph = fuse_and_sparsify(spatial, temporal, 0.8, k, onehot(asg))
        if mode != "no_tg":
            assert isinstance(graph, ConstantRowGraph) and graph.rows.shape == (7, 1)
        oracle = block_diagonal(
            pool_graphs(spatial, asg, temporal, 0.8, k), 7
        )
        assert oracle.any() == (k > 0)
        a_hat = graph.a_hat.data
        assert np.max(np.abs(a_hat - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        if mode != "full":  # nothing is summed over a pool, so the entries are the same
            assert np.array_equal(a_hat, oracle)

    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_one_call_per_forward(self, mode, monkeypatch):
        cfg = ModelConfig(
            n=7, p=3, d=2, d_s=2, d_t=2, t_h=3, t_f=1, steps_per_day=6, graph_mode=mode
        )
        model = ForecastModel(cfg)
        types, p, _ = _LAYOUTS["empty_pool"]
        model.set_assignment(ClusterAssignment.from_types(np.array(types), p))
        shapes = []
        fuse = dstgg.fuse_and_sparsify

        def recording_fuse(*args):
            shapes.append(args[4].shape)
            return fuse(*args)

        monkeypatch.setattr(dstgg, "fuse_and_sparsify", recording_fuse)
        tod = dow = np.zeros((2, 3), dtype=np.int64)
        with no_grad():
            model.forward(np.zeros((2, 3, 7, 1)), tod, dow)
        assert shapes == [(7, 3)]  # one node-order call with the [N, P] one-hot
