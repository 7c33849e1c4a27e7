import ctypes
import decimal
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import EvaluationError, check_gradient
from kernel_oracle import sigmoid
from mhgnet.errors import (
    ConfigError,
    GraphReleasedError,
    MhgnetError,
    ShapeError,
)
from mhgnet.numcore import (
    ParameterStore,
    SplitRng,
    Tensor,
    abs_,
    broadcast_to,
    concat,
    gated_time_means,
    grad_enabled,
    gru_sequence,
    matmul,
    mean,
    no_grad,
    relu,
    reshape,
    slice_axis,
    sum_,
    take,
    tanh,
    topk_row_mask,
    transpose,
)
from mhgnet.numcore import heap
from mhgnet.numcore import tensor as tensor_module


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_product(self):
        c = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(c.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zeros_annihilate(self):
        rng = np.random.default_rng(0)
        c = matmul(Tensor(np.zeros((2, 3))), Tensor(rng.normal(size=(3, 4))))
        assert np.array_equal(c.data, np.zeros((2, 4)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    @pytest.mark.parametrize("right", [(2, 4, 6), (2, 2, 4, 6), (4,)])
    def test_right_operand_must_be_a_matrix(self, right):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(right)))
        assert "(2, 3, 4)" in str(exc.value) and str(right) in str(exc.value)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
            left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
            right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
            assert np.max(np.abs(left - right)) < 1e-9


class TestTopkRowMask:
    def test_single_max(self):
        out = topk_row_mask(Tensor([[0.3, 0.9, 0.1]]), 1)
        assert np.array_equal(out.data, [[0.0, 0.9, 0.0]])

    def test_keep_all_when_k_large(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        for k in (5, 9):
            assert np.array_equal(topk_row_mask(Tensor(a), k).data, a)

    def test_tie_breaks_toward_lower_index(self):
        out = topk_row_mask(Tensor([[0.5, 0.5, 0.2]]), 1)
        assert np.array_equal(out.data, [[0.5, 0.0, 0.0]])

    def test_k_zero(self):
        out = topk_row_mask(Tensor(np.ones((3, 3))), 0)
        assert np.array_equal(out.data, np.zeros((3, 3)))

    @given(st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kept_entries_exact_and_bounded(self, k, seed):
        a = np.random.default_rng(seed).normal(size=(4, 6))
        out = topk_row_mask(Tensor(a), k).data
        assert (np.count_nonzero(out, axis=1) <= k).all()
        kept = out != 0
        assert np.array_equal(out[kept], a[kept])


class TestCheckGradient:
    def test_linear_is_exact(self):
        # dyadic points and step keep finite differences free of roundoff
        store = ParameterStore(SplitRng(3))
        x = store.add("x", (4,), "zeros")
        x.data = np.array([1.0, -2.0, 0.5, 4.0])
        err = check_gradient(lambda: sum_(3.0 * x), store.parameters(), h=2.0**-10)
        assert err < 1e-12

    def test_sigmoid_at_zero(self):
        store = ParameterStore(SplitRng(4))
        x = store.add("x", (1,), "zeros")
        err = check_gradient(lambda: sum_(sigmoid(x)), store.parameters(), h=1e-5)
        assert err < 1e-8
        x.grad = None
        loss = sum_(sigmoid(x))
        loss.backward()
        assert abs(x.grad[0] - 0.25) < 1e-12

    def test_matmul_sum(self):
        store = ParameterStore(SplitRng(5))
        a = store.add("a", (3, 3), "normal(0,1)")
        b = store.add("b", (3, 3), "normal(0,1)")
        err = check_gradient(lambda: sum_(matmul(a, b)), store.parameters(), h=1e-5)
        assert err < 1e-7

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_loss_raises(self):
        store = ParameterStore(SplitRng(6))
        x = store.add("x", (1,), "zeros")
        with pytest.raises(EvaluationError):
            check_gradient(lambda: sum_(x) / sum_(x * 0.0), store.parameters())


def _resampled(rng, shape, fn, margin=1e-3):
    """Random values whose images stay away from the given kink predicate."""
    while True:
        x = rng.normal(size=shape)
        if fn(x):
            return x


class TestPrimitiveGradients:
    """Every primitive stays under 1e-4 relative error vs central differences."""

    def check(self, build, *param_specs, seed=0):
        store = ParameterStore(SplitRng(seed))
        tensors = [store.add(f"p{i}", shape, spec) for i, (shape, spec) in enumerate(param_specs)]
        err = check_gradient(lambda: build(*tensors), store.parameters(), h=1e-5)
        assert err < 1e-4, err

    def test_add(self):
        self.check(lambda a, b: sum_(a + b), ((3, 4), "normal(0,1)"), ((3, 4), "normal(0,1)"))

    def test_sub(self):
        self.check(lambda a, b: sum_((a - b) * (a - b) * a), ((3, 4), "normal(0,1)"), ((4,), "normal(0,1)"))

    def test_add_broadcast(self):
        self.check(lambda a, b: sum_((a + b) * (a + b)), ((3, 4), "normal(0,1)"), ((4,), "normal(0,1)"))

    def test_mul(self):
        self.check(lambda a, b: sum_(a * b * a), ((3, 4), "normal(0,1)"), ((3, 4), "normal(0,1)"))

    def test_div(self):
        self.check(
            lambda a, b: sum_(a / (b * b + 1.0)),
            ((3, 4), "normal(0,1)"),
            ((3, 4), "normal(0,1)"),
        )

    def test_matmul_batched(self):
        self.check(
            lambda a, b: sum_(matmul(a, b)),
            ((2, 3, 4), "normal(0,1)"),
            ((4, 5), "normal(0,1)"),
        )

    def test_concat(self):
        self.check(
            lambda a, b: sum_(concat([a, b], axis=1) * concat([b, a], axis=1)),
            ((3, 2), "normal(0,1)"),
            ((3, 2), "normal(0,1)"),
        )

    def test_sigmoid_tanh(self):
        self.check(lambda a: sum_(sigmoid(a) * tanh(a)), ((4, 4), "normal(0,1)"))

    def test_mean_reduce(self):
        self.check(lambda a: sum_(mean(a * a, axis=1)), ((3, 5), "normal(0,1)"))

    def test_mean_all(self):
        self.check(lambda a: mean(a * a), ((3, 5), "normal(0,1)"))

    def test_gather(self):
        idx = np.array([2, 0, 2, 1])
        self.check(lambda a: sum_(take(a, idx, axis=0) * 1.5), ((3, 4), "normal(0,1)"))

    def test_gather_axis1(self):
        idx = np.array([1, 3])
        self.check(lambda a: sum_(take(a, idx, axis=1) * take(a, idx, axis=1)), ((3, 5), "normal(0,1)"))

    def test_gather_scalar_index(self):
        a = Tensor(np.zeros((3, 4, 2)))
        for index in (2, np.int64(0), np.array(1)):  # rejected, not a dropped axis
            with pytest.raises(ShapeError):
                take(a, index, axis=1)

    def test_gather_2d_index_with_repeats(self):
        # the timestamp-row lookup: a [B, T] index array into a table's rows
        idx = np.array([[0, 2, 2], [1, 2, 0]])
        weights = Tensor(np.random.default_rng(20).normal(size=(2, 3, 4)))
        self.check(lambda a: sum_(take(a, idx, axis=0) * weights), ((3, 4), "normal(0,1)"))

    def test_slice_axis(self):
        self.check(lambda a: sum_(slice_axis(a, 1, 1, 3) * 2.0), ((3, 5), "normal(0,1)"))

    def test_transpose(self):
        self.check(lambda a: sum_(transpose(a, (1, 0)) * 3.0), ((3, 5), "normal(0,1)"))

    def test_reshape(self):
        weights = Tensor(np.random.default_rng(21).normal(size=(5, 3)))
        self.check(lambda a: sum_(reshape(a, (5, 3)) * reshape(a, (5, 3)) * weights), ((3, 5), "normal(0,1)"))

    def test_transpose_three_axes(self):
        # (1, 2, 0) is not its own inverse: a backward that applied it again would fail
        weights = Tensor(np.random.default_rng(22).normal(size=(3, 4, 2)))
        self.check(
            lambda a: sum_(transpose(a, (1, 2, 0)) * transpose(a, (1, 2, 0)) * weights),
            ((2, 3, 4), "normal(0,1)"),
        )

    def test_broadcast_to(self):
        weights = Tensor(np.random.default_rng(23).normal(size=(2, 3, 4)))
        self.check(lambda a: sum_(broadcast_to(a, (2, 3, 4)) * weights), ((3, 1), "normal(0,1)"))

    def test_abs(self):
        # keep values away from the kink at zero
        rng = np.random.default_rng(11)
        vals = _resampled(rng, (3, 4), lambda x: (np.abs(x) > 1e-3).all())
        store = ParameterStore(SplitRng(12))
        a = store.add("a", (3, 4), "zeros")
        a.data = vals
        err = check_gradient(lambda: sum_(abs_(a)), store.parameters(), h=1e-5)
        assert err < 1e-4

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(13)
        vals = _resampled(rng, (4, 4), lambda x: (np.abs(x) > 1e-3).all())
        store = ParameterStore(SplitRng(14))
        a = store.add("a", (4, 4), "zeros")
        a.data = vals
        err = check_gradient(lambda: sum_(relu(a)), store.parameters(), h=1e-5)
        assert err < 1e-4

    def test_topk_straight_through(self):
        # rows with a clear gap at the k boundary so the mask is stable
        rng = np.random.default_rng(15)
        while True:
            vals = rng.normal(size=(4, 4))
            order = np.sort(vals, axis=1)
            if (order[:, 1] - order[:, 0] > 1e-2).all():
                break
        store = ParameterStore(SplitRng(16))
        a = store.add("a", (4, 4), "zeros")
        a.data = vals
        err = check_gradient(
            lambda: sum_(topk_row_mask(a, 3) * 2.0), store.parameters(), h=1e-5
        )
        assert err < 1e-4


    @pytest.mark.parametrize("op", ["mul", "div", "matmul"])
    def test_constant_operand_gets_no_gradient(self, op):
        store = ParameterStore(SplitRng(17))
        a = store.add("a", (3, 4), "normal(0,1)")
        const = Tensor(np.random.default_rng(18).normal(size=(3, 4)) + 3.0)
        square = Tensor(np.random.default_rng(19).normal(size=(4, 4)))
        build = {
            "mul": lambda: sum_(a * const * a + const * a),
            "div": lambda: sum_(const / (a * a + 1.0) + a / const),
            "matmul": lambda: sum_(matmul(a, square) * matmul(a, square)),
        }[op]
        assert check_gradient(build, store.parameters(), h=1e-5) < 1e-4
        build().backward()
        assert const.grad is None and square.grad is None


class TestGruSequence:
    """The fused channel-major GRU op: [T, K, M], [K + W, 2W] and [K + W, W]."""

    T, K, W, M = 3, 6, 2, 5  # no two of them (or 2W, K + W) equal, so a swapped axis cannot pass

    def shapes(self, k=K):
        t, w, m = self.T, self.W, self.M
        return [(t, k, m), (k + w, 2 * w), (k + w, w)]

    @pytest.mark.parametrize(
        "arg, bad",
        [
            (0, (3, 4, 5)),  # channel count differs from the weights' input rows
            (0, (3, 6)),  # not [T, K, M]
            (0, (3, 5, 6)),  # batch-major [T, M, K]
            (0, (6, 3, 5)),  # channel-first [K, T, M]
            (1, (8, 2)),  # update|reset weights not [K + W, 2W]
            (1, (4, 8)),  # transposed
            (2, (8, 4)),  # candidate weights not [K + W, W]
            (2, (2, 8)),  # transposed
            (1, (6, 4)),  # update|reset input rows alone, [K, 2W]
            (1, (2, 4)),  # update|reset hidden rows alone, [W, 2W]
            (2, (6, 2)),  # candidate input rows alone, [K, W]
            (2, (2, 2)),  # candidate hidden rows alone, [W, W]
        ],
    )
    def test_shape_error_for_each_argument(self, arg, bad):
        rng = np.random.default_rng(30)
        shapes = self.shapes()
        shapes[arg] = bad
        args = [Tensor(rng.normal(size=shape)) for shape in shapes]
        with pytest.raises(ShapeError) as exc:
            gru_sequence(*args)
        assert str(bad) in str(exc.value)

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(31)
        inputs, w_zr, w_n = (rng.normal(size=shape) for shape in self.shapes())
        out = gru_sequence(inputs, w_zr, w_n).data
        k, w = self.K, self.W
        w_x_zr, w_zr_h, w_x_n, w_n_h = w_zr[:k], w_zr[k:], w_n[:k], w_n[k:]
        h = np.zeros((self.M, w))  # batch-major state, one row per sequence
        for j in range(self.T):
            x = inputs[j].T  # [M, K]
            zr = 1.0 / (1.0 + np.exp(-(x @ w_x_zr + h @ w_zr_h)))
            z, r = zr[:, :w], zr[:, w:]
            c = np.tanh(x @ w_x_n + (r * h) @ w_n_h)
            h = (1.0 - z) * h + z * c
            assert np.max(np.abs(out[j] - h.T)) < 1e-14

    def _check_gradient(self, k, seed):
        store = ParameterStore(SplitRng(seed))
        names = ("inputs", "w_zr", "w_n")
        args = [store.add(name, shape, "normal(0,1)") for name, shape in zip(names, self.shapes(k))]
        weights = Tensor(np.random.default_rng(33).normal(size=(self.T, self.W, self.M)))
        err = check_gradient(
            lambda: sum_(gru_sequence(*args) * weights), store.parameters(), h=1e-5
        )
        assert err < 1e-6

    def test_gradient(self):
        self._check_gradient(self.K, seed=32)

    def test_gradient_of_a_single_channel(self):
        self._check_gradient(1, seed=34)

    V, U = 4, 7  # the redistribution's widths, unequal to the others too

    def redistribution(self):
        return [(self.T * self.W, self.V), (self.V, self.U), (self.U,)]

    @pytest.mark.parametrize(
        "arg, bad",
        [
            (0, (7, 4)),  # w1 rows not T·W
            (1, (7, 7)),  # w2 rows not w1's columns
            (2, (4,)),  # gain not w2's columns
            (2, (7, 1)),  # gain not a vector
        ],
    )
    def test_shape_error_for_each_redistribution_argument(self, arg, bad):
        rng = np.random.default_rng(35)
        shapes = self.redistribution()
        shapes[arg] = bad
        args = [Tensor(rng.normal(size=shape)) for shape in self.shapes()]
        with pytest.raises(ShapeError) as exc:
            gru_sequence(*args, [Tensor(rng.normal(size=shape)) for shape in shapes])
        assert str(bad) in str(exc.value)

    @pytest.mark.parametrize("redistribute", [True, False])
    def test_shape_error_for_a_mask(self, redistribute):
        # a mask of the wrong shape, or a mask without a redistribution to feed
        rng = np.random.default_rng(36)
        args = [Tensor(rng.normal(size=shape)) for shape in self.shapes()]
        extra = [Tensor(rng.normal(size=shape)) for shape in self.redistribution()]
        shape = (self.T, self.W, self.M + 1) if redistribute else (self.T, self.W, self.M)
        with pytest.raises(ShapeError) as exc:
            gru_sequence(*args, extra if redistribute else (), np.ones(shape))
        assert str(shape) in str(exc.value)

    def test_gradient_of_an_encoding(self):
        # every input: the inputs, both GRU weights, w1, w2 and the gain
        store = ParameterStore(SplitRng(37))
        names = ("inputs", "w_zr", "w_n", "w1", "w2", "gain")
        shapes = self.shapes() + self.redistribution()
        args = [store.add(name, shape, "normal(0,1)") for name, shape in zip(names, shapes)]
        rng = np.random.default_rng(38)
        mask = (rng.random((self.T, self.W, self.M)) < 0.7) / 0.7
        weights = Tensor(rng.normal(size=(self.U, self.M)))
        err = check_gradient(
            lambda: sum_(gru_sequence(*args[:3], args[3:], mask) * weights),
            store.parameters(),
            h=1e-5,
        )
        assert err < 1e-6


def _sequential_gating(x, step_logits, node_logits):
    """The gating loop from primitives: every [B, T, N, D] pattern, built in turn."""
    b, t, _, d = x.shape
    patterns, remaining = [], x
    for step, node in zip(step_logits, node_logits):
        piece = remaining * sigmoid(reshape(step, (b, t, 1, d)) + node)
        patterns.append(piece)
        remaining = remaining - piece
    patterns.append(remaining)
    return concat([mean(piece, axis=1) for piece in patterns], axis=-1)


class TestGatedTimeMeans:
    """The fused gating op: channels [B, T, N, K], lift [K, D], G parts [B, T, D] and [N, D]."""

    # no two of them equal, so a swapped axis cannot pass; K = 1 as in no model
    # path, so the lift's gradient sums a single channel
    B, T, N, K, D = 2, 5, 3, 1, 4
    # budgets giving blocks of 1 step, of 2 steps (the last one shorter), and of all 5
    BLOCKS = {1: 1, 2: 2 * B * N * D, 5: 2**16}

    def args(self, p, seed):
        rng = np.random.default_rng(seed)
        g = p - 1
        channels = Tensor(rng.normal(size=(self.B, self.T, self.N, self.K)))
        lift = Tensor(rng.normal(size=(self.K, self.D)))
        steps = [Tensor(rng.normal(size=(self.B, self.T, self.D))) for _ in range(g)]
        nodes = [Tensor(rng.normal(size=(self.N, self.D))) for _ in range(g)]
        return channels, lift, steps, nodes

    @pytest.mark.parametrize("block", sorted(BLOCKS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_sequential_oracle_bitwise(self, p, block, monkeypatch):
        # the means are summed in time order whatever the block, so they are
        # bit-identical to the oracle's within one block and across blocks
        monkeypatch.setattr(tensor_module, "STREAM_BUDGET", self.BLOCKS[block])
        channels, lift, steps, nodes = self.args(p, seed=40 + p)
        out = gated_time_means(channels, lift, steps, nodes)
        assert out.shape == (self.B, self.N, p * self.D)
        oracle = _sequential_gating(matmul(channels, lift), steps, nodes)
        assert np.array_equal(out.data, oracle.data)

    def _check_gradient(self, p, k, seed):
        store = ParameterStore(SplitRng(seed))
        g = p - 1
        channels = store.add("channels", (self.B, self.T, self.N, k), "normal(0,1)")
        lift = store.add("lift", (k, self.D), "normal(0,1)")
        steps = [store.add(f"s{i}", (self.B, self.T, self.D), "normal(0,1)") for i in range(g)]
        nodes = [store.add(f"n{i}", (self.N, self.D), "normal(0,1)") for i in range(g)]
        weights = Tensor(np.random.default_rng(60).normal(size=(self.B, self.N, p * self.D)))

        def loss(kernel):
            return sum_(kernel(channels, lift, steps, nodes) * weights)

        err = check_gradient(lambda: loss(gated_time_means), store.parameters(), h=1e-5)
        assert err < 1e-8
        # and the hand-written backward is the oracle's autodiff, to rounding
        fused = {q.name: q.tensor.grad.copy() for q in store.parameters()}
        store.zero_grad()
        loss(lambda c, lf, s, n: _sequential_gating(matmul(c, lf), s, n)).backward()
        for q in store.parameters():
            ref = q.tensor.grad
            assert np.max(np.abs(fused[q.name] - ref)) <= 1e-13 * np.max(np.abs(ref)), q.name

    @pytest.mark.parametrize("block", sorted(BLOCKS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gradient(self, p, block, monkeypatch):
        # with p = 1 there are no gates, so the residual's gradient is the
        # pattern's, broadcast over every step of a block
        monkeypatch.setattr(tensor_module, "STREAM_BUDGET", self.BLOCKS[block])
        self._check_gradient(p, self.K, seed=50 + p)

    @pytest.mark.parametrize("p", [1, 3])
    def test_gradient_of_several_channels(self, p, monkeypatch):
        monkeypatch.setattr(tensor_module, "STREAM_BUDGET", self.BLOCKS[2])
        self._check_gradient(p, 6, seed=55 + p)

    def test_keeps_nothing_without_gradient(self):
        channels, lift, steps, nodes = self.args(3, seed=70)
        assert gated_time_means(channels, lift, steps, nodes)._backward is None
        lift.requires_grad = True
        with no_grad():
            assert gated_time_means(channels, lift, steps, nodes)._backward is None
        assert gated_time_means(channels, lift, steps, nodes)._backward is not None

    @pytest.mark.parametrize(
        "steps, nodes",
        [
            ([(2, 5, 4)], []),  # a step part without its node part
            ([(2, 5, 3)], [(3, 4)]),  # step part not [B, T, D]
            ([(5, 2, 4)], [(3, 4)]),  # step part time-major
            ([(2, 5, 4)], [(4, 3)]),  # node part transposed
        ],
    )
    def test_shape_error_names_the_shapes(self, steps, nodes):
        rng = np.random.default_rng(71)
        channels = Tensor(rng.normal(size=(self.B, self.T, self.N, self.K)))
        lift = Tensor(rng.normal(size=(self.K, self.D)))
        parts = [[Tensor(rng.normal(size=shape)) for shape in group] for group in (steps, nodes)]
        with pytest.raises(ShapeError) as exc:
            gated_time_means(channels, lift, *parts)
        assert str((self.B, self.T, self.N, self.D)) in str(exc.value)

    def test_x_must_be_four_dimensional(self):
        with pytest.raises(ShapeError):
            gated_time_means(Tensor(np.ones((2, 5, 3))), Tensor(np.ones((3, 4))), [], [])

    def test_lift_rows_must_match_the_channels(self):
        with pytest.raises(ShapeError) as exc:
            gated_time_means(Tensor(np.ones((2, 5, 3, 2))), Tensor(np.ones((3, 4))), [], [])
        assert "(2, 5, 3, 2)" in str(exc.value) and "(3, 4)" in str(exc.value)


class TestLogistic:
    X = np.concatenate(
        [
            np.random.default_rng(19).normal(size=100_000),
            [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300],
        ]
    )

    def test_matches_reciprocal_form_bitwise(self):
        with np.errstate(over="ignore"):
            reciprocal_form = 1.0 / (1.0 + np.exp(-self.X))
        assert np.array_equal(sigmoid(Tensor(self.X)).data, reciprocal_form)

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(Tensor([-800.0, 800.0])).data
        assert out.tolist() == [0.0, 1.0]

    def test_relative_error_against_decimal_reference(self):
        x = np.concatenate(
            [np.linspace(-700.0, 700.0, 2001), np.random.default_rng(20).uniform(-700, 700, 2000)]
        )
        out = sigmoid(Tensor(x)).data
        worst = 0.0
        with decimal.localcontext(decimal.Context(prec=50)):
            for xi, yi in zip(x.tolist(), out.tolist()):
                exact = 1 / (1 + (-decimal.Decimal(xi)).exp())
                worst = max(worst, abs((decimal.Decimal(yi) - exact) / exact))
        assert worst <= 2 * np.finfo(np.float64).eps


class TestTensorBasics:
    def test_finite_after_ops(self):
        rng = np.random.default_rng(17)
        a = Tensor(rng.normal(size=(4, 4)))
        b = Tensor(rng.normal(size=(4, 4)) + 3.0)
        for out in (a + b, a - b, a * b, a / b, matmul(a, b), sigmoid(a), tanh(a), relu(a)):
            assert np.isfinite(out.data).all()

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2.0).backward()

    def test_no_grad_blocks_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        assert grad_enabled()
        with no_grad():
            assert not grad_enabled()
            out = a * 2.0
        assert not out.requires_grad and grad_enabled()

    def test_concat_is_c_contiguous_and_aligned_so_a_reshape_is_a_view(self):
        # the parts of the GRU's inputs: transposed hop states and a ones channel
        states = np.random.default_rng(18).normal(size=(2, 3, 2, 5))  # [B, T, C, N]
        parts = [transpose(Tensor(states), (1, 2, 0, 3)), Tensor(np.ones((3, 1, 2, 5)))]
        out = concat(parts, axis=1)
        assert out.data.flags.c_contiguous and out.data.ctypes.data % 64 == 0
        assert np.array_equal(out.data, np.concatenate([p.data for p in parts], axis=1))
        merged = reshape(out, (3, 3, 10))
        assert np.shares_memory(merged.data, out.data)

    @pytest.mark.parametrize("axis, shapes", [(2, [(2, 3), (2, 3)]), (0, [(2, 3), (2,)])])
    def test_concat_rejects_a_bad_axis_or_rank(self, axis, shapes):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones(s)) for s in shapes], axis=axis)

    def test_grad_shape_matches(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        sum_(a * a).backward()
        assert a.grad.shape == a.data.shape

    def test_diamond_graph_accumulates(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0
        loss = sum_(b * a + b)  # d/da (3a^2 + 3a) = 6a + 3 = 15
        loss.backward()
        assert abs(a.grad[0] - 15.0) < 1e-12


class TestGraphRelease:
    def _graph(self):
        a = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        w = Tensor(np.array([[1.5], [0.5]]), requires_grad=True)
        hidden = sigmoid(a * 3.0)
        out = matmul(reshape(hidden, (1, 2)), w)
        return a, w, hidden, out

    def test_interior_released_leaves_keep_grads(self):
        a, w, hidden, out = self._graph()
        loss = sum_(out * out)
        interior = weakref.ref(out._parents[0])  # the reshape, held by nothing else
        loss.backward()
        for t in (hidden, out, loss):
            assert t.grad is None and t._parents == ()
        assert interior() is None  # freed while ``loss`` is still referenced
        s = 1.0 / (1.0 + np.exp(-a.data * 3.0))
        y = s @ w.data[:, 0]
        assert np.allclose(w.grad[:, 0], 2.0 * y * s, rtol=0, atol=1e-15)
        assert np.allclose(a.grad, 2.0 * y * w.data[:, 0] * s * (1 - s) * 3.0, rtol=0, atol=1e-15)

    def test_second_backward_from_same_root_raises(self):
        a, w, _, out = self._graph()
        loss = sum_(out)
        loss.backward()
        grads = a.grad.copy(), w.grad.copy()
        with pytest.raises(GraphReleasedError, match="already consumed"):
            loss.backward()
        assert np.array_equal(a.grad, grads[0]) and np.array_equal(w.grad, grads[1])

    def test_new_loss_on_consumed_graph_raises(self):
        # two losses from one forward output: unchecked, the second walk would
        # stop at the consumed ``out`` and leave the leaves' gradients partial
        a, w, _, out = self._graph()
        sum_(out).backward()
        grads = a.grad.copy(), w.grad.copy()
        second = sum_(out * out)
        with pytest.raises(GraphReleasedError) as info:
            second.backward()
        assert isinstance(info.value, MhgnetError)
        assert np.array_equal(a.grad, grads[0]) and np.array_equal(w.grad, grads[1])


class TestRngAndParameters:
    def test_unique_names_enforced(self):
        store = ParameterStore(SplitRng(1))
        store.add("w", (2, 2))
        with pytest.raises(ConfigError):
            store.add("w", (2, 2))

    def test_seeded_init_bit_reproducible(self):
        def build(seed):
            store = ParameterStore(SplitRng(seed))
            return [
                store.add("a", (4, 4)),
                store.add("b", (4,), "normal(0,1)"),
                store.add("c", (2, 2), "uniform(-0.5,0.5)"),
            ]

        first = build(42)
        second = build(42)
        for x, y in zip(first, second):
            assert np.array_equal(x.data, y.data)
        third = build(43)
        assert not np.array_equal(first[0].data, third[0].data)

    def test_order_independent_streams(self):
        s1 = ParameterStore(SplitRng(9))
        s1.add("x", (8,), "normal(0,1)")
        s1.add("y", (8,), "normal(0,1)")
        s2 = ParameterStore(SplitRng(9))
        s2.add("y", (8,), "normal(0,1)")
        assert np.array_equal(s1.state()["y"], s2.state()["y"])

    def test_zeros_ones_specs(self):
        store = ParameterStore(SplitRng(10))
        assert np.array_equal(store.add("z", (3,), "zeros").data, np.zeros(3))
        assert np.array_equal(store.add("o", (3,), "ones").data, np.ones(3))

    def test_state_roundtrip(self):
        store = ParameterStore(SplitRng(11))
        w = store.add("w", (3, 3))
        snapshot = store.state()
        w.data = w.data * 0.0
        store.load_state(snapshot)
        assert np.array_equal(w.data, snapshot["w"])


_MAPPED_PROBE = """
import ctypes, sys
import numpy as np

if sys.argv[1] == "import":
    import mhgnet.numcore

class Info(ctypes.Structure):
    names = "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost"
    _fields_ = [(name, ctypes.c_size_t) for name in names.split()]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Info
held = np.ones(3 << 20)  # 24 MB
print(mallinfo2().hblkhd)
"""


def _glibc_with_mallinfo2() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and hasattr(ctypes.CDLL(None), "mallinfo2")
    except (AttributeError, ValueError, OSError):
        return False


class TestHeapThresholds:
    @pytest.mark.skipif(not _glibc_with_mallinfo2(), reason="needs glibc 2.33 or later")
    def test_a_24_mb_array_comes_from_the_heap_once_numcore_is_imported(self):
        import mhgnet

        env = {k: v for k, v in os.environ.items() if k not in heap.ENVIRONMENT}
        env["PYTHONPATH"] = str(Path(mhgnet.__file__).parents[1])

        def mapped(mode):
            cmd = [sys.executable, "-c", _MAPPED_PROBE, mode]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
            return int(out.stdout)

        # glibc's starting threshold (128 kB) maps the array; numcore's (32 MB) does not
        assert mapped("plain") >= 24 << 20
        assert mapped("import") < 1 << 20

    @pytest.mark.parametrize("name", heap.ENVIRONMENT)
    def test_thresholds_the_environment_sets_are_left_alone(self, monkeypatch, name):
        monkeypatch.setenv(name, "131072")
        assert heap.fix_thresholds() is False
