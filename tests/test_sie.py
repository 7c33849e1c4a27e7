import numpy as np
import pytest

from mhgnet.clusterer import ClusterAssignment, single_pool
from mhgnet.dstgg import FusedSubgraph
from mhgnet.errors import ConfigError, ShapeError
from mhgnet.numcore import (
    ParameterStore,
    SplitRng,
    Tensor,
    check_gradient,
    stack,
    sum_,
    take,
)
from mhgnet.sie import (
    GruParams,
    PropagationConfig,
    RecurrentEncoder,
    encode_sequence,
    propagate,
    reassemble,
)


def _split(x, assignment):
    """Node features per nonempty pool, in pool order."""
    return [take(x, np.asarray(pool), axis=x.ndim - 2) for pool in assignment.pools if pool]


def _graph(adj):
    adj = np.asarray(adj, dtype=np.float64)
    return FusedSubgraph(a_hat=Tensor(adj), members=np.arange(adj.shape[0]))


def _identity_avg_proj(hops, d):
    """Projection that averages the hop states, preserving constants."""
    return Tensor(np.concatenate([np.eye(d) / hops for _ in range(hops)], axis=0))


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
        width=width,
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
        cfg = PropagationConfig(gamma=1.0, hops=hops, out_proj=_identity_avg_proj(hops, 3))
        out = propagate(h, g, cfg)
        assert np.max(np.abs(out.data - h.data)) < 1e-12

    def test_constant_preservation(self):
        rng = np.random.default_rng(2)
        h = Tensor(np.ones((2, 5, 4)))
        g = _graph(np.maximum(rng.normal(size=(5, 5)), 0))
        for hops in (2, 3):
            cfg = PropagationConfig(gamma=0.3, hops=hops, out_proj=_identity_avg_proj(hops, 4))
            out = propagate(h, g, cfg)
            assert np.max(np.abs(out.data - 1.0)) < 1e-12

    def test_three_node_path_oracle(self):
        adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        rng = np.random.default_rng(3)
        h = rng.normal(size=(2, 3, 2))
        hops, gamma = 2, 0.05
        out_proj = np.concatenate([np.eye(2), np.eye(2)], axis=0)
        cfg = PropagationConfig(gamma=gamma, hops=hops, out_proj=Tensor(out_proj))
        out = propagate(Tensor(h), _graph(adj), cfg)
        oracle = _oracle_propagate(h, adj, gamma, hops) @ out_proj
        assert np.max(np.abs(out.data - oracle)) < 1e-12

    def test_batched_time_axis(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(2, 6, 4, 3))  # [B, T, N, D]
        adj = np.maximum(rng.normal(size=(4, 4)), 0)
        cfg = PropagationConfig(gamma=0.1, hops=2, out_proj=Tensor(rng.normal(size=(6, 3))))
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
        out_proj = store.add("proj", (4, 2))
        h = store.add("h", (1, 3, 2), "normal(0,1)")
        adj = np.maximum(np.random.default_rng(6).normal(size=(3, 3)), 0)
        cfg = PropagationConfig(gamma=0.2, hops=2, out_proj=out_proj)
        err = check_gradient(
            lambda: sum_(propagate(h, _graph(adj), cfg)), store.parameters(), h=1e-5
        )
        assert err < 1e-4


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
        steps = stack([Tensor(np.zeros((2, 5, 3))) for _ in range(4)], axis=1)
        out = encode_sequence(steps, enc)
        assert np.array_equal(out.data, np.zeros((2, 5, 3)))

    def test_single_step(self):
        store = ParameterStore(SplitRng(10))
        enc = _encoder(d=2, width=4, t=1, store=store)
        steps = stack([Tensor(np.random.default_rng(11).normal(size=(2, 3, 2)))], axis=1)
        out = encode_sequence(steps, enc)
        assert out.shape == (2, 3, 4)

    def test_gru_matches_independent_oracle(self):
        from mhgnet.sie import gru_scan

        store = ParameterStore(SplitRng(12))
        p = _gru_params(d=2, width=3, store=store)
        x = np.random.default_rng(13).normal(size=(2, 2, 2, 2))
        out = gru_scan(Tensor(x), p, width=3)
        oracle = _oracle_gru(x, p, width=3)
        assert np.max(np.abs(out.data - oracle)) < 1e-10

    def test_eval_mode_deterministic(self):
        store = ParameterStore(SplitRng(15))
        enc = _encoder(d=3, width=3, t=3, store=store, dropout=0.5)
        steps = stack(
            [Tensor(np.random.default_rng(16).normal(size=(2, 4, 3))) for _ in range(3)], axis=1
        )
        a = encode_sequence(steps, enc, training=False)
        b = encode_sequence(steps, enc, training=False)
        assert np.array_equal(a.data, b.data)

    def test_dropout_needs_rng_in_training(self):
        store = ParameterStore(SplitRng(17))
        enc = _encoder(d=2, width=2, t=2, store=store, dropout=0.3)
        steps = stack([Tensor(np.zeros((1, 2, 2))) for _ in range(2)], axis=1)
        with pytest.raises(ConfigError):
            encode_sequence(steps, enc, training=True, rng=None)

    def test_full_chain_gradient(self):
        store = ParameterStore(SplitRng(18))
        out_proj = store.add("proj", (4, 2))
        enc = _encoder(d=2, width=2, t=3, store=store)
        h = store.add("h", (1, 3, 4, 2), "normal(0,1)")
        adj = np.maximum(np.random.default_rng(19).normal(size=(4, 4)), 0)
        asg = ClusterAssignment.from_types(np.array([1, 0, 1, 0]), 2)
        cfg = PropagationConfig(gamma=0.2, hops=2, out_proj=out_proj)

        def loss():
            parts = [
                propagate(piece, _graph(adj[: piece.shape[-2], : piece.shape[-2]]), cfg)
                for piece in _split(h, asg)
            ]
            merged = reassemble(parts, asg)
            steps = stack([take(merged, j, axis=1) for j in range(3)], axis=1)
            return sum_(encode_sequence(steps, enc))

        err = check_gradient(loss, store.parameters(), h=1e-5)
        assert err < 1e-4
