import numpy as np
import pytest

from gradcheck import check_gradient
from graph_oracle import onehot, pool_graphs
from mhgnet.clusterer import ClusterAssignment, single_pool
from mhgnet.dstgg import (
    ClusterGraphParams,
    DenseGraph,
    fuse_and_sparsify,
    spatial_graph,
    temporal_graph,
)
from mhgnet.errors import ConfigError, ShapeError
from mhgnet.numcore import (
    ParameterStore,
    SplitRng,
    Tensor,
    no_grad,
    sum_,
    take,
)
from mhgnet.std import TimestampEmbeddings
from mhgnet.sie import (
    GruParams,
    PropagationConfig,
    RecurrentEncoder,
    encode_sequence,
    hop_lift,
    propagate,
    reassemble,
)


def _split(x, assignment):
    """Node features per nonempty pool, in pool order."""
    return [take(x, np.asarray(pool), axis=x.ndim - 2) for pool in assignment.pools if pool]


def _graph(adj):
    adj = np.asarray(adj, dtype=np.float64)
    return DenseGraph(a_hat=Tensor(adj))


def _cfg(gamma, hops, d=1):
    """Propagation settings; ``propagate`` itself does not read ``out_proj``."""
    return PropagationConfig(gamma=gamma, hops=hops, out_proj=Tensor(np.zeros((hops * d, d))))


def _identity_lift(d):
    """The lift that feeds D-wide features to the GRU unchanged."""
    return Tensor(np.eye(d + 1, d))


def _oracle_propagate(h, adj, gamma, hops):
    """Direct loop evaluation of the propagation recurrence."""
    a = adj + np.eye(adj.shape[0])
    walk = a / a.sum(axis=1, keepdims=True)
    states = [h]
    cur = h
    for _ in range(hops - 1):
        cur = gamma * h + (1 - gamma) * np.einsum("ij,bjd->bid", walk, cur)
        states.append(cur)
    return np.concatenate(states, axis=-1)


def _oracle_gru(x, p, width):
    """Independent step-by-step GRU with explicit gate formulas."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    b, t, n, _ = x.shape
    h = np.zeros((b, n, width))
    states = []
    for j in range(t):
        xt = x[:, j]
        z = sig(xt @ p.update_x.data + h @ p.update_h.data + p.update_b.data)
        r = sig(xt @ p.reset_x.data + h @ p.reset_h.data + p.reset_b.data)
        c = np.tanh(xt @ p.cand_x.data + (r * h) @ p.cand_h.data + p.cand_b.data)
        h = (1.0 - z) * h + z * c
        states.append(h)
    return np.stack(states, axis=1)


def _channel_major(states):
    """[B, T, N, W] states in the [T, W, B * N] layout of ``gru_scan``."""
    b, t, n, w = states.shape
    return states.transpose(1, 3, 0, 2).reshape(t, w, b * n)


def _oracle_encode(x, enc, mask=None):
    """Batch-major GRU, dropout and redistribution of D-wide inputs [B, T, N, D].

    ``mask`` [B, T, N, W] holds the kept states (True) of a dropout draw.
    """
    width = enc.redist_w2.shape[0]
    states = _oracle_gru(x, enc.gru, width)
    b, t, n, _ = states.shape
    if mask is not None:
        keep = 1.0 - enc.dropout
        states = states * (mask.astype(np.float64) / keep)
    stacked = states.transpose(0, 2, 1, 3).reshape(b, n, t * width)
    hidden = np.maximum(stacked @ enc.redist_w1.data, 0.0)
    return hidden @ enc.redist_w2.data * enc.gain.data


def _gru_params(d, width, store, init="normal(0,0.4)"):
    return GruParams(
        update_x=store.add("gru.update.wx", (d, width), init),
        update_h=store.add("gru.update.wh", (width, width), init),
        update_b=store.add("gru.update.b", (width,), "zeros"),
        reset_x=store.add("gru.reset.wx", (d, width), init),
        reset_h=store.add("gru.reset.wh", (width, width), init),
        reset_b=store.add("gru.reset.b", (width,), "zeros"),
        cand_x=store.add("gru.cand.wx", (d, width), init),
        cand_h=store.add("gru.cand.wh", (width, width), init),
        cand_b=store.add("gru.cand.b", (width,), "zeros"),
    )


def _encoder(d, width, t, store, dropout=0.0):
    return RecurrentEncoder(
        gru=_gru_params(d, width, store),
        redist_w1=store.add("redist.w1", (t * width, width)),
        redist_w2=store.add("redist.w2", (width, width)),
        gain=store.add("redist.gain", (width,), "ones"),
        dropout=dropout,
    )


class TestPropagate:
    def test_row_stochastic_walk(self):
        rng = np.random.default_rng(0)
        adj = np.maximum(rng.normal(size=(5, 5)), 0.0)
        a = adj + np.eye(5)
        walk = a / a.sum(axis=1, keepdims=True)
        assert np.max(np.abs(walk.sum(axis=1) - 1.0)) < 1e-12

    def test_gamma_one_fixes_input(self):
        rng = np.random.default_rng(1)
        h = Tensor(rng.normal(size=(2, 4, 3)))
        g = _graph(np.maximum(rng.normal(size=(4, 4)), 0))
        hops = 3
        out = propagate(h, g, _cfg(1.0, hops))
        assert out.shape == (2, 4, 3 * hops)
        assert np.max(np.abs(out.data - np.tile(h.data, hops))) < 1e-12

    def test_constant_preservation(self):
        rng = np.random.default_rng(2)
        h = Tensor(np.ones((2, 5, 4)))
        g = _graph(np.maximum(rng.normal(size=(5, 5)), 0))
        for hops in (2, 3):
            out = propagate(h, g, _cfg(0.3, hops))
            assert out.shape == (2, 5, 4 * hops)
            assert np.max(np.abs(out.data - 1.0)) < 1e-12

    def test_three_node_path_oracle(self):
        adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        rng = np.random.default_rng(3)
        h = rng.normal(size=(2, 3, 2))
        hops, gamma = 2, 0.05
        out = propagate(Tensor(h), _graph(adj), _cfg(gamma, hops))
        oracle = _oracle_propagate(h, adj, gamma, hops)
        assert np.max(np.abs(out.data - oracle)) < 1e-12

    def test_batched_time_axis(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(2, 6, 4, 3))  # [B, T, N, D]
        adj = np.maximum(rng.normal(size=(4, 4)), 0)
        cfg = _cfg(0.1, 2)
        out = propagate(Tensor(h), _graph(adj), cfg)
        per_slab = np.stack(
            [
                propagate(Tensor(h[:, j]), _graph(adj), cfg).data
                for j in range(h.shape[1])
            ],
            axis=1,
        )
        assert np.max(np.abs(out.data - per_slab)) < 1e-12

    def test_gradient(self):
        store = ParameterStore(SplitRng(5))
        h = store.add("h", (1, 3, 2), "normal(0,1)")
        a_hat = store.add("a_hat", (3, 3), "uniform(0,1)")
        weights = Tensor(np.random.default_rng(6).normal(size=(1, 3, 4)))
        graph = DenseGraph(a_hat=a_hat)
        err = check_gradient(
            lambda: sum_(propagate(h, graph, _cfg(0.2, 2)) * weights),
            store.parameters(),
            h=1e-5,
        )
        assert err < 1e-4


class _ConstantRowSetup:
    """Spatial and timestamp parameters, features and a propagation config."""

    def __init__(self, n=7, d=3, hops=2, seed=30):
        self.store = ParameterStore(SplitRng(seed))
        add = self.store.add
        self.params = ClusterGraphParams(
            e1=add("graph.e1", (n, 2), "normal(0,1)"),
            e2=add("graph.e2", (n, 2), "normal(0,1)"),
            w1=add("graph.w1", (2, 2)),
            w2=add("graph.w2", (2, 2)),
        )
        self.ts = TimestampEmbeddings(
            daily=add("time.daily", (6, 2), "normal(0,1)"),
            weekly=add("time.weekly", (7, 2), "normal(0,1)"),
        )
        self.h = add("h", (2, 3, n, d), "normal(0,1)")
        self.cfg = _cfg(0.3, hops, d)
        # the first draw with a positive window-mean dot, so the graphs are not empty
        rng = np.random.default_rng(seed)
        while True:
            self.tod, self.dow = rng.integers(0, 6, (2, 3)), rng.integers(0, 7, (2, 3))
            if temporal_graph(self.ts, self.tod, self.dow, 0.8).item() > 0.0:
                break

    def _temporal(self, mode, temporal):
        if mode == "no_tg":
            return None
        return temporal_graph(self.ts, self.tod, self.dow, 0.8) if temporal is None else temporal

    def _spatial(self, mode):
        return None if mode == "no_sg" else spatial_graph(self.params, 1.5)

    def graph(self, mode, assignment, k, temporal=None):
        """The node-order graph of every pool, as the model builds it."""
        return fuse_and_sparsify(
            self._spatial(mode), self._temporal(mode, temporal), 0.8, k, onehot(assignment)
        )

    def fast(self, mode, assignment, k, temporal=None):
        return propagate(self.h, self.graph(mode, assignment, k, temporal), self.cfg)

    def dense(self, mode, assignment, k, temporal=None):
        """The oracle: each pool's dense graph built pool by pool, its walk, then reassembly."""
        temporal = self._temporal(mode, temporal)
        parts = [
            propagate(take(self.h, g.members, axis=2), DenseGraph(g.a_hat), self.cfg)
            for g in pool_graphs(self._spatial(mode), assignment, temporal, 0.8, k)
        ]
        return reassemble(parts, assignment)


_LAYOUTS = {  # name: (node types, k)
    "single_pool": ([0] * 7, 3),
    "pool_below_k": ([1, 0, 2, 1, 0, 1, 1], 3),  # pool sizes 2, 4, 1
    "k_zero": ([1, 0, 2, 1, 0, 1, 1], 0),
    "empty_pool": ([2, 0, 2, 2, 0, 0, 2], 2),  # pool 1 is empty
}


class TestConstantRowPropagate:
    """Whole-tensor propagation against the dense per-cluster walk."""

    @pytest.mark.parametrize("layout", list(_LAYOUTS))
    @pytest.mark.parametrize("hops", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_matches_dense_per_cluster(self, mode, hops, layout):
        types, k = _LAYOUTS[layout]
        setup = _ConstantRowSetup(hops=hops)
        asg = ClusterAssignment.from_types(np.array(types), max(types) + 1)
        if k:
            assert setup.graph(mode, asg, k).a_hat.data.any()
        fast = setup.fast(mode, asg, k).data
        dense = setup.dense(mode, asg, k).data
        assert np.max(np.abs(fast - dense)) < 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("mode", ["full", "no_sg"])
    def test_all_zero_rows_leave_self_loops(self, mode):
        setup = _ConstantRowSetup(hops=3)
        asg = ClusterAssignment.from_types(np.array([1, 0, 2, 1, 0, 1, 1]), 3)
        zero = Tensor(0.0)
        assert not setup.graph(mode, asg, 3, zero).rows.data.any()
        fast = setup.fast(mode, asg, 3, zero).data
        assert np.max(np.abs(fast - setup.dense(mode, asg, 3, zero).data)) < 1e-12
        # every walk is the identity, so each hop state equals h
        assert np.max(np.abs(fast - np.tile(setup.h.data, 3))) < 1e-12

    @pytest.mark.parametrize("mode", ["full", "no_sg"])
    def test_gradient(self, mode):
        setup = _ConstantRowSetup(n=5, d=2, hops=3, seed=31)
        asg = ClusterAssignment.from_types(np.array([0, 1, 0, 0, 1]), 2)
        params = setup.store.parameters()
        if mode == "no_sg":
            params = [p for p in params if not p.name.startswith("graph.")]
        assert len(params) == (7 if mode == "full" else 3)
        weights = Tensor(np.random.default_rng(32).normal(size=(2, 3, 5, 6)))
        err = check_gradient(lambda: sum_(setup.fast(mode, asg, 2) * weights), params, h=1e-5)
        assert err < 1e-6

    def test_batch_rows_independent(self):
        setup = _ConstantRowSetup()
        asg = ClusterAssignment.from_types(np.array([1, 0, 2, 1, 0, 1, 1]), 3)
        graph = setup.graph("full", asg, 3)
        base = propagate(setup.h, graph, setup.cfg).data
        other = setup.h.data.copy()
        other[1] = np.random.default_rng(33).normal(size=other[1].shape)
        changed = propagate(Tensor(other), graph, setup.cfg).data
        assert np.array_equal(changed[0], base[0])
        assert not np.array_equal(changed[1], base[1])


class TestReassemble:
    def test_identity_single_pool(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 5, 3)))
        out = reassemble([x], single_pool(5))
        assert np.array_equal(out.data, x.data)

    def test_pool_order_example(self):
        asg = ClusterAssignment.from_types(np.array([1, 0, 1]), 2)
        assert asg.pools == [[1], [0, 2]]
        f = np.arange(3.0)[None, :, None]  # feature value equals node id
        out = reassemble(
            [Tensor(f[:, [1]]), Tensor(f[:, [0, 2]])], asg
        )
        assert np.array_equal(out.data[0, :, 0], [0.0, 1.0, 2.0])

    def test_split_roundtrip(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 8, 4)))
        asg = ClusterAssignment.from_types(rng.integers(0, 3, 8), 3)
        out = reassemble(_split(x, asg), asg)
        assert np.array_equal(out.data, x.data)

    def test_size_mismatch(self):
        x = Tensor(np.zeros((1, 3, 2)))
        with pytest.raises(ShapeError):
            reassemble([x], single_pool(5))


class TestEncodeSequence:
    def test_zero_fixed_point(self):
        store = ParameterStore(SplitRng(9))
        enc = _encoder(d=3, width=3, t=4, store=store)
        steps = Tensor(np.zeros((2, 4, 5, 3)))
        out = encode_sequence(steps, _identity_lift(3), enc)
        assert np.array_equal(out.data, np.zeros((2, 5, 3)))

    def test_single_step(self):
        store = ParameterStore(SplitRng(10))
        enc = _encoder(d=2, width=4, t=1, store=store)
        steps = Tensor(np.random.default_rng(11).normal(size=(2, 1, 3, 2)))
        out = encode_sequence(steps, _identity_lift(2), enc)
        assert out.shape == (2, 3, 4)

    def test_gru_matches_independent_oracle(self):
        from mhgnet.sie import gru_scan

        store = ParameterStore(SplitRng(12))
        p = _gru_params(d=2, width=3, store=store)
        for t in (p.update_b, p.reset_b, p.cand_b):
            t.data = np.random.default_rng(14).normal(0.0, 0.5, t.shape)
        rng = np.random.default_rng(13)
        features = rng.normal(size=(2, 2, 2, 3))  # C = 3 channels
        lift = rng.normal(size=(4, 2))  # [C + 1, D]: the last row meets a constant 1
        out = gru_scan(Tensor(features), Tensor(lift), p)
        assert out.shape == (2, 3, 2 * 2)  # [T, W, B * N]
        x = features @ lift[:3] + lift[3]
        oracle = _oracle_gru(x, p, width=3)  # [B, T, N, W]
        assert np.max(np.abs(out.data - _channel_major(oracle))) < 1e-10

    def test_gru_gradient_all_parameters_and_input(self):
        from mhgnet.sie import gru_scan

        store = ParameterStore(SplitRng(20))
        p = _gru_params(d=2, width=3, store=store)
        for t in (p.update_b, p.reset_b, p.cand_b):
            t.data = np.random.default_rng(21).normal(0.0, 0.5, t.shape)
        x = store.add("x", (2, 4, 2, 2), "normal(0,1)")  # T = 4, C = 2, width = 3
        lift = store.add("lift", (3, 2), "normal(0,0.7)")  # [C + 1, D]
        weights = Tensor(np.random.default_rng(22).normal(size=(4, 3, 2 * 2)))  # [T, W, B * N]
        err = check_gradient(
            lambda: sum_(gru_scan(x, lift, p) * weights), store.parameters(), h=1e-5
        )
        assert err < 1e-6
        assert len(store.parameters()) == 11

    def test_gru_states_identical_with_and_without_grad(self):
        from mhgnet.sie import gru_scan

        store = ParameterStore(SplitRng(23))
        p = _gru_params(d=2, width=3, store=store)
        x = np.random.default_rng(24).normal(size=(2, 5, 3, 2))
        tracked = gru_scan(Tensor(x), _identity_lift(2), p)
        assert tracked.requires_grad
        with no_grad():
            untracked = gru_scan(Tensor(x), _identity_lift(2), p)
        assert not untracked.requires_grad
        assert np.array_equal(tracked.data, untracked.data)

    def test_eval_mode_deterministic(self):
        store = ParameterStore(SplitRng(15))
        enc = _encoder(d=3, width=3, t=3, store=store, dropout=0.5)
        steps = Tensor(np.random.default_rng(16).normal(size=(2, 3, 4, 3)))
        a = encode_sequence(steps, _identity_lift(3), enc, training=False)
        b = encode_sequence(steps, _identity_lift(3), enc, training=False)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("training", [False, True])
    def test_matches_batch_major_oracle(self, training):
        b, t, n, c, width = 2, 4, 3, 2, 5
        store = ParameterStore(SplitRng(25))
        enc = _encoder(d=c, width=width, t=t, store=store, dropout=0.4)
        rng = np.random.default_rng(26)
        for p in (enc.gru.update_b, enc.gru.reset_b, enc.gru.cand_b, enc.gain):
            p.data = rng.normal(0.0, 0.5, p.shape)
        features = rng.normal(size=(b, t, n, c))
        out = encode_sequence(
            Tensor(features), _identity_lift(c), enc, training=training, rng=SplitRng(27, "drop")
        )
        assert out.shape == (b, n, width)
        # the draw is made in the batch-major layout, whatever the GRU's layout
        mask = SplitRng(27, "drop").random((b, t, n, width)) < 0.6 if training else None
        if training:
            assert mask.any() and not mask.all()
        oracle = _oracle_encode(features, enc, mask)
        assert np.max(np.abs(out.data - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        if training:
            assert np.max(np.abs(out.data - _oracle_encode(features, enc))) > 1e-3

    def test_dropout_needs_rng_in_training(self):
        store = ParameterStore(SplitRng(17))
        enc = _encoder(d=2, width=2, t=2, store=store, dropout=0.3)
        steps = Tensor(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ConfigError):
            encode_sequence(steps, _identity_lift(2), enc, training=True, rng=None)

    def test_full_chain_gradient(self):
        store = ParameterStore(SplitRng(18))
        weight = store.add("embed.weight", (1, 2), "normal(0,1)")
        bias = store.add("embed.bias", (2,), "normal(0,1)")
        cfg = PropagationConfig(gamma=0.2, hops=2, out_proj=store.add("proj", (4, 2)))
        enc = _encoder(d=2, width=2, t=3, store=store)
        x = store.add("x", (1, 3, 4, 1), "normal(0,1)")
        adj = np.maximum(np.random.default_rng(19).normal(size=(4, 4)), 0)
        asg = ClusterAssignment.from_types(np.array([1, 0, 1, 0]), 2)

        def loss():
            parts = [
                propagate(piece, _graph(adj[: piece.shape[-2], : piece.shape[-2]]), cfg)
                for piece in _split(x, asg)
            ]
            lift = hop_lift(weight, bias, cfg)
            return sum_(encode_sequence(reassemble(parts, asg), lift, enc))

        err = check_gradient(loss, store.parameters(), h=1e-5)
        assert err < 1e-4


class TestHopLift:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_lifted_states_equal_states_of_the_lift(self, hops):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(3, 5, 1))  # [B, N, 1]
        weight, bias = rng.normal(size=(1, 4)), rng.normal(size=4)
        out_proj = rng.normal(size=(hops * 4, 4))
        adj = np.maximum(rng.normal(size=(5, 5)), 0)
        cfg = PropagationConfig(gamma=0.3, hops=hops, out_proj=Tensor(out_proj))
        states = propagate(Tensor(x), _graph(adj), cfg).data
        lift = hop_lift(Tensor(weight), Tensor(bias), cfg).data
        assert lift.shape == (hops + 1, 4)
        via_lift = states @ lift[:hops] + lift[hops]
        d_wide = _oracle_propagate(x @ weight + bias, adj, 0.3, hops) @ out_proj
        assert np.max(np.abs(via_lift - d_wide)) < 1e-12 * np.max(np.abs(d_wide))


class TestConstantField:
    """Every walk is row-stochastic, so a constant field is every hop state."""

    VALUE = -1.7

    def _assert_constant(self, states, hops):
        assert states.shape[-1] == hops
        assert np.max(np.abs(states - self.VALUE)) <= 1e-14 * abs(self.VALUE)

    @pytest.mark.parametrize("k", [0, 2, 7])  # k = 7 >= every pool size
    @pytest.mark.parametrize("mode", ["full", "no_sg"])
    def test_constant_row_graph(self, mode, k):
        setup = _ConstantRowSetup(d=1, hops=4)
        types = np.array([1, 0, 2, 1, 0, 1, 1])  # pool 2 is the singleton {2}
        asg = ClusterAssignment.from_types(types, 3)
        assert sorted(len(pool) for pool in asg.pools) == [1, 2, 4]
        graph = setup.graph(mode, asg, k)
        # k = 0 keeps nothing, so every row is zero and each walk is the identity
        assert graph.rows.data.any() == (k > 0)
        field = Tensor(np.full((2, 3, 7, 1), self.VALUE))
        self._assert_constant(propagate(field, graph, setup.cfg).data, 4)

    def test_dense_fused_subgraph(self):
        setup = _ConstantRowSetup(d=1, hops=4)
        asg = ClusterAssignment.from_types(np.array([1, 0, 2, 1, 0, 1, 1]), 3)
        dense = setup.graph("no_tg", asg, 3)
        assert isinstance(dense, DenseGraph) and dense.a_hat.data.any()
        field = Tensor(np.full((2, 3, 7, 1), self.VALUE))
        self._assert_constant(propagate(field, dense, setup.cfg).data, 4)
