import numpy as np
import pytest

from gradcheck import check_gradient
from mhgnet.errors import ConfigError
from mhgnet.numcore import ParameterStore, SplitRng, Tensor, matmul, sum_
from mhgnet.std import (
    GateParams,
    TimestampEmbeddings,
    decouple,
    embed_input,
    gate_terms,
    input_lift,
)
from std_oracle import decouple_patterns, split_means, time_means


def _setup(p, b=2, t=4, n=5, d=3, d_s=3, d_t=2, spd=8, seed=0, store=None):
    """Gate parameters, and an input x_hat in factored form: channels [B, T, N, 2] and a lift [2, D]."""
    store = store or ParameterStore(SplitRng(seed))
    ts = TimestampEmbeddings(
        daily=store.add("daily", (spd, d_t), "normal(0,1)"),
        weekly=store.add("weekly", (7, d_t), "normal(0,1)"),
    )
    emb = store.add("emb", (n, d_s), "normal(0,1)")
    gates = [
        GateParams(
            w1=store.add(f"g{i}.w1", (2 * d_t + d_s, d)),
            b1=store.add(f"g{i}.b1", (d,), "zeros"),
            w2=store.add(f"g{i}.w2", (d, d)),
            b2=store.add(f"g{i}.b2", (d,), "zeros"),
        )
        for i in range(p - 1)
    ]
    rng = np.random.default_rng(seed + 100)
    x_hat = _Lifted(rng.normal(size=(b, t, n, 2)), rng.normal(size=(2, d)))
    tod = rng.integers(0, spd, (b, t))
    dow = rng.integers(0, 7, (b, t))
    return store, ts, emb, gates, x_hat, tod, dow


def _decouple(channels, lift, tod, dow, emb, ts, gates):
    """``decouple`` with the gates' terms taken from the node embedding ``emb``."""
    terms = gate_terms(emb, gates or [], ts.daily.shape[1])
    return decouple(channels, lift, tod, dow, ts, gates, terms)


class _Lifted:
    """An input x_hat = channels @ lift, carried as both factors and their product."""

    def __init__(self, channels, lift):
        self.channels, self.lift = Tensor(channels), Tensor(lift)
        self.full = matmul(self.channels, self.lift)
        self.data, self.shape = self.full.data, self.full.shape

    @classmethod
    def ones(cls, shape):
        """All ones: one channel of ones through a lift of ones."""
        return cls(np.ones(shape[:-1] + (1,)), np.ones((1, shape[-1])))


class TestEmbedInput:
    def test_zero_input_zero_bias(self):
        w = Tensor(np.random.default_rng(0).normal(size=(1, 4)))
        b = Tensor(np.zeros(4))
        channels, lift = embed_input(np.zeros((2, 3, 5, 1))), input_lift(w, b)
        assert np.array_equal(channels.data[..., 0], np.zeros((2, 3, 5)))
        assert np.array_equal(channels.data[..., 1], np.ones((2, 3, 5)))
        assert np.array_equal(lift.data, np.concatenate([w.data, b.data[None]]))
        assert np.array_equal(channels.data @ lift.data, np.zeros((2, 3, 5, 4)))

    def test_identity_when_unit_weight(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 1))
        channels, lift = embed_input(x), input_lift(Tensor([[1.0]]), Tensor([0.0]))
        assert np.array_equal(channels.data @ lift.data, x)

    def test_product_is_the_affine_lift(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 4, 1))
        w, b = rng.normal(size=(1, 5)), rng.normal(size=5)
        channels, lift = embed_input(Tensor(x)), input_lift(Tensor(w), Tensor(b))
        assert channels.shape == (2, 3, 4, 2) and lift.shape == (2, 5)
        x_hat = x * w + b
        assert np.max(np.abs(channels.data @ lift.data - x_hat)) <= 1e-15 * np.max(np.abs(x_hat))

    def test_gradient(self):
        store = ParameterStore(SplitRng(2))
        w = store.add("w", (1, 3))
        b = store.add("b", (3,), "zeros")
        x = np.random.default_rng(3).normal(size=(2, 2, 3, 1))

        def loss():
            x_hat = matmul(embed_input(x), input_lift(w, b))
            return sum_(x_hat * x_hat)

        err = check_gradient(loss, store.parameters(), h=1e-5)
        assert err < 1e-4


def _gates_of(patterns, x_hat):
    """Each gate as its pattern over the residual it gated, where that is nonzero."""
    gates, remaining = [], x_hat.data
    for piece in patterns[:-1]:
        nonzero = remaining != 0.0
        gates.append(piece.data[nonzero] / remaining[nonzero])
        remaining = remaining - piece.data
    return gates


def _decouple_and_oracle(x_hat, tod, dow, emb, ts, gates):
    """decouple's means, checked bit for bit against the oracle's, and the oracle's patterns.

    ``decouple`` gets x_hat's factors; the oracle gets their product.
    """
    means = _decouple(x_hat.channels, x_hat.lift, tod, dow, emb, ts, gates)
    patterns = decouple_patterns(x_hat.full, tod, dow, emb, ts, gates)
    assert np.array_equal(means.data, time_means(patterns).data)
    return split_means(means, len(gates) + 1), patterns


class TestDecouple:
    def test_single_pattern_is_identity(self):
        store, ts, emb, gates, x_hat, tod, dow = _setup(p=1)
        means, patterns = _decouple_and_oracle(x_hat, tod, dow, emb, ts, gates)
        assert len(means) == 1 and len(patterns) == 1
        assert np.array_equal(means[0], x_hat.data.mean(axis=1))
        assert np.array_equal(patterns[0].data, x_hat.data)

    def test_forced_half_gate(self):
        store, ts, emb, gates, x_hat, tod, dow = _setup(p=2)
        gates[0].w2.data = np.zeros_like(gates[0].w2.data)
        gates[0].b2.data = np.zeros_like(gates[0].b2.data)
        means, patterns = _decouple_and_oracle(x_hat, tod, dow, emb, ts, gates)
        assert np.allclose(_gates_of(patterns, x_hat)[0], 0.5)
        half = 0.5 * x_hat.data.mean(axis=1)
        assert np.allclose(means[0], half) and np.allclose(means[1], half)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_conservation(self, p):
        store, ts, emb, gates, x_hat, tod, dow = _setup(p=p, seed=p)
        means, patterns = _decouple_and_oracle(x_hat, tod, dow, emb, ts, gates)
        assert len(means) == p
        assert np.max(np.abs(sum(means) - x_hat.data.mean(axis=1))) < 1e-12
        total = sum(piece.data for piece in patterns)
        assert np.max(np.abs(total - x_hat.data)) < 1e-12

    def test_gate_range_open_interval(self):
        store, ts, emb, gates, x_hat, tod, dow = _setup(p=3, seed=5)
        means, patterns = _decouple_and_oracle(x_hat, tod, dow, emb, ts, gates)
        ratios = _gates_of(patterns, x_hat)
        assert len(ratios) == 2 and all(r.size == x_hat.data.size for r in ratios)
        for gate in ratios:
            assert (gate > 0.0).all() and (gate < 1.0).all()
        # on a positive input every time mean then lies strictly inside (0, mean(x))
        ones = _Lifted.ones(x_hat.shape)
        for piece in split_means(_decouple(ones.channels, ones.lift, tod, dow, emb, ts, gates), 3):
            assert (piece > 0.0).all() and (piece < 1.0).all()

    def test_time_shift_equivariance(self):
        # identical (tod, dow) index sequences receive identical gates, and the
        # gates ignore the values: on an all-ones input the first pattern is the
        # gate itself, and any other input is scaled by exactly that gate
        store, ts, emb, gates, x_hat, tod, dow = _setup(p=2, b=2, seed=6)
        tod[1] = tod[0]
        dow[1] = dow[0]
        ones = _Lifted.ones(x_hat.shape)
        gate_means, gate_patterns = _decouple_and_oracle(ones, tod, dow, emb, ts, gates)
        assert np.array_equal(gate_means[0][0], gate_means[0][1])
        gate = gate_patterns[0].data
        assert np.array_equal(gate[0], gate[1])
        x2 = _Lifted(np.random.default_rng(99).normal(size=x_hat.shape[:-1] + (1,)), np.ones((1, 3)))
        means, patterns = _decouple_and_oracle(x2, tod, dow, emb, ts, gates)
        assert np.array_equal(patterns[0].data, x2.data * gate)
        assert np.array_equal(means[0], (x2.data * gate).mean(axis=1))

    def test_gradients_through_decouple(self):
        store, ts, emb, gates, x_hat, tod, dow = _setup(p=3, b=1, t=2, n=3, seed=7)
        weights = Tensor(np.random.default_rng(1).normal(size=(1, 3, 3 * x_hat.shape[-1])))
        # the lift is a parameter too; the oracle reaches it through its product
        x_hat.lift = store.add("lift", x_hat.lift.shape, "normal(0,1)")
        x_hat.full = matmul(x_hat.channels, x_hat.lift)

        def loss():
            return sum_(_decouple(x_hat.channels, x_hat.lift, tod, dow, emb, ts, gates) * weights)

        err = check_gradient(loss, store.parameters(), h=1e-5)
        assert err < 1e-4
        # the daily, weekly and node row blocks of every w1 carry gradient
        d_t, d_s = ts.daily.shape[1], emb.shape[1]
        for gp in gates:
            for lo, hi in ((0, d_t), (d_t, 2 * d_t), (2 * d_t, 2 * d_t + d_s)):
                assert np.any(gp.w1.grad[lo:hi] != 0.0), (lo, hi)
        # and every gradient is the oracle's, whose patterns are built by primitives
        store.zero_grad()
        loss().backward()
        fused = {p.name: p.tensor.grad for p in store.parameters()}
        store.zero_grad()
        oracle = time_means(decouple_patterns(x_hat.full, tod, dow, emb, ts, gates))
        sum_(oracle * weights).backward()
        for p in store.parameters():
            assert np.allclose(fused[p.name], p.tensor.grad, rtol=1e-12, atol=1e-15), p.name

    def test_gates_match_concatenated_features_oracle(self):
        # reference: both gate layers applied to the broadcast [B, T, N, 2*D_t + D_s]
        # concatenation of ReLU(T_D || T_W || E), each gate applied to the residual
        store, ts, emb, gates, x_hat, tod, dow = _setup(p=3, seed=8)
        means, _ = _decouple_and_oracle(x_hat, tod, dow, emb, ts, gates)
        b, t, n, _ = x_hat.shape
        d_t, d_s = ts.daily.shape[1], emb.shape[1]
        feats = np.maximum(
            np.concatenate(
                [
                    np.broadcast_to(ts.daily.data[tod][:, :, None], (b, t, n, d_t)),
                    np.broadcast_to(ts.weekly.data[dow][:, :, None], (b, t, n, d_t)),
                    np.broadcast_to(emb.data, (b, t, n, d_s)),
                ],
                axis=-1,
            ),
            0.0,
        )
        remaining = x_hat.data
        for gp, piece in zip(gates, means):
            hidden = feats @ gp.w1.data + gp.b1.data
            oracle = remaining / (1.0 + np.exp(-(hidden @ gp.w2.data + gp.b2.data)))
            assert np.max(np.abs(piece - oracle.mean(axis=1))) < 1e-12
            remaining = remaining - oracle
        assert np.max(np.abs(means[-1] - remaining.mean(axis=1))) < 1e-12

    def test_none_gate_params_rejected(self):
        store, ts, emb, gates, x_hat, tod, dow = _setup(p=1)
        with pytest.raises(ConfigError):
            _decouple(x_hat.channels, x_hat.lift, tod, dow, emb, ts, None)
