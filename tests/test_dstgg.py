import numpy as np
import pytest

from mhgnet.dstgg import (
    ClusterGraphParams,
    fuse_and_sparsify,
    spatial_graph,
    temporal_graph,
)
from mhgnet.numcore import ParameterStore, SplitRng, Tensor, check_gradient, sum_
from mhgnet.std import TimestampEmbeddings


def _params(n=6, d_s=3, alpha=1.0, seed=0, store=None):
    store = store or ParameterStore(SplitRng(seed))
    return store, ClusterGraphParams(
        e1=store.add("e1", (n, d_s), "normal(0,1)"),
        e2=store.add("e2", (n, d_s), "normal(0,1)"),
        w1=store.add("w1", (d_s, d_s)),
        w2=store.add("w2", (d_s, d_s)),
        alpha=alpha,
    )


def _timestamps(spd=8, d_t=2, seed=1, store=None):
    store = store or ParameterStore(SplitRng(seed))
    return store, TimestampEmbeddings(
        daily=store.add("daily", (spd, d_t), "normal(0,1)"),
        weekly=store.add("weekly", (7, d_t), "normal(0,1)"),
    )


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


def _oracle_fuse(a_s, a_t, beta, k):
    fused = np.maximum(np.tanh(beta * (a_s @ a_t.T)), 0.0)
    out = np.zeros_like(fused)
    for i in range(fused.shape[0]):
        row = fused[i]
        kept = sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]
        for j in kept:
            out[i, j] = row[j]
    return out


class TestSpatialGraph:
    def test_equal_embeddings_zero_graph(self):
        store, params = _params()
        params.e2.data = params.e1.data.copy()
        params.w2.data = params.w1.data.copy()
        out = spatial_graph(np.arange(6), params)
        assert np.max(np.abs(out.data)) == 0.0

    def test_antisymmetry(self):
        store, params = _params(seed=3, alpha=2.5)
        out = spatial_graph(np.arange(6), params).data
        assert np.max(np.abs(out + out.T)) < 1e-12

    def test_two_node_hand_values(self):
        store = ParameterStore(SplitRng(0))
        params = ClusterGraphParams(
            e1=store.add("e1", (2, 1), "zeros"),
            e2=store.add("e2", (2, 1), "zeros"),
            w1=store.add("w1", (1, 1), "ones"),
            w2=store.add("w2", (1, 1), "ones"),
            alpha=1.0,
        )
        params.e1.data = np.array([[1.0], [0.0]])
        params.e2.data = np.array([[0.0], [1.0]])
        out = spatial_graph(np.array([0, 1]), params).data
        expected = np.tanh(1.0) ** 2
        assert abs(out[0, 1] - expected) < 1e-12
        assert abs(out[1, 0] + expected) < 1e-12
        assert abs(expected - 0.5800) < 5e-4

    def test_member_permutation_equivariance(self):
        store, params = _params(seed=4)
        members = np.array([0, 2, 3, 5])
        perm = np.array([2, 0, 3, 1])
        base = spatial_graph(members, params).data
        shuffled = spatial_graph(members[perm], params).data
        assert np.allclose(shuffled, base[np.ix_(perm, perm)], atol=1e-15)

    def test_gradient(self):
        store, params = _params(n=3, d_s=2, seed=5, alpha=0.7)
        weights = Tensor(np.random.default_rng(6).normal(size=(3, 3)))
        err = check_gradient(
            lambda: sum_(spatial_graph(np.arange(3), params) * weights),
            store.parameters(),
            h=1e-5,
        )
        assert err < 1e-4


class TestTemporalGraph:
    def test_all_ones_tables(self):
        store = ParameterStore(SplitRng(0))
        ts = TimestampEmbeddings(
            daily=store.add("daily", (4, 1), "ones"),
            weekly=store.add("weekly", (7, 1), "ones"),
        )
        tod = np.array([[0, 1, 2]])
        dow = np.array([[0, 3, 6]])
        out = temporal_graph(np.arange(3), ts, tod, dow, beta=1.0).data
        assert out.shape == (3, 3)
        assert np.allclose(out, np.maximum(np.tanh(1.0), 0.0))
        assert abs(out[0, 0] - 0.7616) < 5e-5

    def test_zero_weekly_zero_graph(self):
        store = ParameterStore(SplitRng(1))
        ts = TimestampEmbeddings(
            daily=store.add("daily", (4, 2), "normal(0,1)"),
            weekly=store.add("weekly", (7, 2), "zeros"),
        )
        out = temporal_graph(np.arange(4), ts, np.array([[0, 1]]), np.array([[2, 3]]), 0.5)
        assert np.array_equal(out.data, np.zeros((4, 4)))

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
        out = temporal_graph(np.arange(3), ts, tod, dow, 1.0)
        assert np.array_equal(out.data, np.zeros((3, 3)))

    def test_matches_full_construction_oracle(self):
        store, ts = _timestamps(spd=6, d_t=3, seed=7)
        rng = np.random.default_rng(8)
        tod = rng.integers(0, 6, (2, 5))
        dow = rng.integers(0, 7, (2, 5))
        members = np.array([1, 3, 4])
        out = temporal_graph(members, ts, tod, dow, beta=0.5).data
        oracle = _oracle_temporal(ts.daily.data, ts.weekly.data, members, tod, dow, 0.5)
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_gradient(self):
        store, ts = _timestamps(spd=5, d_t=2, seed=9)
        tod = np.array([[0, 2, 4]])
        dow = np.array([[1, 5, 6]])
        weights = Tensor(np.random.default_rng(10).normal(size=(3, 3)))
        err = check_gradient(
            lambda: sum_(temporal_graph(np.arange(3), ts, tod, dow, 0.8) * weights),
            store.parameters(),
            h=1e-5,
        )
        assert err < 1e-4


class TestFuseAndSparsify:
    def test_zero_temporal_zero_graph(self):
        rng = np.random.default_rng(11)
        a_s = Tensor(rng.normal(size=(4, 4)))
        a_t = Tensor(np.zeros((4, 4)))
        for k in (0, 2, 4):
            g = fuse_and_sparsify(a_s, a_t, beta=0.5, k=k, members=np.arange(4))
            assert np.array_equal(g.a_hat.data, np.zeros((4, 4)))

    def test_singleton_cluster(self):
        store, params = _params(n=1, seed=12)
        a_s = spatial_graph(np.array([0]), params)
        assert a_s.data.shape == (1, 1)
        assert a_s.data[0, 0] == 0.0  # antisymmetric diagonal
        g = fuse_and_sparsify(a_s, Tensor(np.ones((1, 1))), 0.5, 1, np.array([0]))
        assert np.array_equal(g.a_hat.data, np.zeros((1, 1)))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3)])
    def test_matches_loop_oracle(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        a_s = rng.normal(size=(n, n))
        a_t = rng.normal(size=(n, n))
        g = fuse_and_sparsify(Tensor(a_s), Tensor(a_t), beta=0.7, k=k, members=np.arange(n))
        assert np.max(np.abs(g.a_hat.data - _oracle_fuse(a_s, a_t, 0.7, k))) < 1e-12

    def test_range_and_row_sparsity(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(0, n + 2))
            a_s = rng.normal(size=(n, n)) * 3.0
            a_t = rng.normal(size=(n, n)) * 3.0
            g = fuse_and_sparsify(Tensor(a_s), Tensor(a_t), 0.5, k, np.arange(n)).a_hat.data
            assert (g >= 0.0).all() and (g <= 1.0).all()
            assert (np.count_nonzero(g, axis=1) <= k).all()

    def test_fused_permutation_equivariance(self):
        store, params = _params(n=8, seed=14)
        store2, ts = _timestamps(seed=15)
        rng = np.random.default_rng(16)
        tod = rng.integers(0, 8, (1, 4))
        dow = rng.integers(0, 7, (1, 4))
        members = np.array([0, 3, 5, 7])
        perm = np.array([3, 1, 0, 2])

        def fused(mem):
            a_s = spatial_graph(mem, params)
            a_t = temporal_graph(mem, ts, tod, dow, 0.5)
            # keep every entry so sparsification cannot reorder ties
            return fuse_and_sparsify(a_s, a_t, 0.5, len(mem), mem).a_hat.data

        base = fused(members)
        shuffled = fused(members[perm])
        assert np.allclose(shuffled, base[np.ix_(perm, perm)], atol=1e-15)

    def test_gradient_through_fusion(self):
        store, params = _params(n=3, d_s=2, seed=17, alpha=0.9)
        store2, ts = _timestamps(spd=5, d_t=2, seed=18)
        tod = np.array([[0, 3]])
        dow = np.array([[2, 4]])
        weights = Tensor(np.random.default_rng(19).normal(size=(3, 3)))
        members = np.arange(3)

        def loss():
            a_s = spatial_graph(members, params)
            a_t = temporal_graph(members, ts, tod, dow, 0.6)
            g = fuse_and_sparsify(a_s, a_t, 0.6, 2, members)
            return sum_(g.a_hat * weights)

        params_all = store.parameters() + store2.parameters()
        err = check_gradient(loss, params_all, h=1e-5)
        assert err < 1e-4
