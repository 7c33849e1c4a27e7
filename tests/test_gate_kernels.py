"""The buffered gate kernels against their expression forms in ``kernel_oracle``.

``gru_sequence`` runs the lean GRU step in column spans; its states must
match ``kernel_oracle.gru_lean`` bit for bit, and its gradients, which it
sums step by step, within 1e-13 relative. Against the earlier arithmetic,
fed the full pre-activations ``w_xᵀ @ inputs``, everything matches within
1e-13 relative. Given a redistribution, ``gru_sequence`` returns the
encoding, which ``TestGruEncoding`` holds to the composed ops of
``kernel_oracle.gru_encode``. ``gated_time_means`` lifts K channels one
block of time steps at a time; the oracle is fed the full ``channels @ lift`` the kernel
never builds, formed by autodiff ops so that every gradient reaches the
same leaves. Its outputs and the logits' gradients must match bit for bit;
the lift's and the channels' gradients, which the kernel sums block by
block, within 1e-13 relative. This holds with and without a gradient, at
ragged shapes with K = 1, over several column spans, over streamed blocks
of one step, of several steps with a shorter remainder, and of the whole
window, and at pre-activations of ±800, where the logistic's exp
overflows. ``gated_time_means`` also runs the batch in window tiles and
takes each distinct step-logit row's gates once per tile: ``TestGateTables``
checks the same agreement over ragged tiles and blocks, with tables, per
block, with a table too large for the block allocation, and with tables
that widen it up to the bound ``TABLE_WINDOWS`` sets and past it, counts
the elements the logistic takes, and feeds rows that differ only in the
sign of a zero or that hold a NaN.
"""

import tracemalloc
import warnings

import kernel_oracle
import numpy as np
import pytest

from mhgnet.numcore import (
    Tensor,
    gated_time_means,
    gru_sequence,
    matmul,
    no_grad,
    slice_axis,
    sum_,
    transpose,
)
from mhgnet.numcore import tensor as tensor_module

RTOL = 1e-13


def _leaves(rng, shapes):
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def _forward_and_grads(op, leaves, weights):
    for leaf in leaves:
        leaf.grad = None
    out = op(*leaves)
    sum_(out * Tensor(weights)).backward()
    return out.data, [leaf.grad for leaf in leaves]


def _assert_same(kernel, oracle, leaves, weights, summed):
    """Bitwise agreement, but within RTOL for the leaves at indices ``summed``."""
    out, grads = _forward_and_grads(kernel, leaves, weights)
    ref, ref_grads = _forward_and_grads(oracle, leaves, weights)
    assert np.array_equal(out, ref)
    assert all(np.isfinite(grad).all() for grad in grads)
    for i, (grad, ref_grad) in enumerate(zip(grads, ref_grads)):
        if i in summed:
            assert np.max(np.abs(grad - ref_grad)) <= RTOL * np.max(np.abs(ref_grad)), i
        else:
            assert np.array_equal(grad, ref_grad), i
    with no_grad():
        assert np.array_equal(kernel(*leaves).data, ref)
    return out


def _gru_parent(inputs, w_zr, w_n):
    """The earlier kernel fed the full [T, 2W, M] and [T, W, M] pre-activations."""
    k, w = inputs.shape[1], w_n.shape[1]
    rows = transpose(inputs, (0, 2, 1))  # [T, M, K]
    px_zr, px_n = (
        transpose(matmul(rows, slice_axis(weight, 0, 0, k)), (0, 2, 1)) for weight in (w_zr, w_n)
    )
    w_zr_h, w_n_h = (slice_axis(weight, 0, k, k + w) for weight in (w_zr, w_n))
    return kernel_oracle.gru_sequence(px_zr, px_n, w_zr_h, w_n_h)


def _assert_close(kernel, oracle, leaves, weights):
    """Outputs and every gradient within RTOL of the oracle's."""
    out, grads = _forward_and_grads(kernel, leaves, weights)
    ref, ref_grads = _forward_and_grads(oracle, leaves, weights)
    for got, want in zip([out, *grads], [ref, *ref_grads]):
        assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


class TestGruSequenceBuffers:
    # (T, K, W, M): one step and one channel, ragged, and the model's K and W at an odd M
    SHAPES = [(1, 1, 1, 1), (3, 1, 2, 5), (5, 2, 3, 7), (12, 3, 10, 37)]
    SUMMED = (0, 1, 2)  # the inputs and both weights: summed step by step

    def shapes(self, t, k, w, m):
        return [(t, k, m), (k + w, 2 * w), (k + w, w)]

    def check(self, leaves, weights):
        """Bitwise against the lean step, within RTOL of the earlier arithmetic."""
        out = _assert_same(gru_sequence, kernel_oracle.gru_lean, leaves, weights, self.SUMMED)
        _assert_close(gru_sequence, _gru_parent, leaves, weights)
        return out

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_against_expression_form(self, shape):
        rng = np.random.default_rng(80 + sum(shape))
        leaves = _leaves(rng, self.shapes(*shape))
        t, _, w, m = shape
        self.check(leaves, rng.normal(size=(t, w, m)))

    @pytest.mark.parametrize("columns", [10, 20])
    def test_column_spans(self, columns, monkeypatch):
        # M = 37 runs in 4 spans of 9 or 10 columns, or in 2 of 18 or 19
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", columns)
        rng = np.random.default_rng(87)
        t, k, w, m = 4, 3, 10, 37
        leaves = _leaves(rng, self.shapes(t, k, w, m))
        self.check(leaves, rng.normal(size=(t, w, m)))

    def test_strided_inputs_match_a_contiguous_copy(self):
        rng = np.random.default_rng(88)
        t, k, w, m = 5, 3, 4, 24
        weights = rng.normal(size=(t, w, m))
        leaves = _leaves(rng, self.shapes(t, k, w, m))
        strided = rng.normal(size=(m, k, t)).transpose(2, 1, 0)  # [T, K, M], no unit stride along M
        leaves[0] = Tensor(strided, requires_grad=True)
        out, grads = _forward_and_grads(gru_sequence, leaves, weights)
        leaves[0] = Tensor(np.ascontiguousarray(strided), requires_grad=True)
        ref, ref_grads = _forward_and_grads(gru_sequence, leaves, weights)
        assert np.array_equal(out, ref)
        assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads))

    def test_without_gradient_keeps_nothing(self):
        rng = np.random.default_rng(85)
        args = [Tensor(rng.normal(size=s)) for s in self.shapes(4, 3, 3, 6)]
        out = gru_sequence(*args)
        assert out._backward is None
        assert np.array_equal(out.data, kernel_oracle.gru_lean(*args).data)
        ref = _gru_parent(*args).data
        assert np.max(np.abs(out.data - ref)) <= RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_saturated_gates_are_finite_and_quiet(self, sign):
        rng = np.random.default_rng(86)
        t, k, w, m = 4, 2, 3, 6
        leaves = _leaves(rng, self.shapes(t, k, w, m))
        # every update|reset pre-activation sits at ±800: one channel of ones
        # through input rows of ±800, and hidden rows of zero
        leaves[0].data[:, 0] = 0.0
        leaves[0].data[:, 1] = 1.0
        leaves[1].data[:k] = sign * 800.0
        leaves[1].data[k:] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.check(leaves, rng.normal(size=(t, w, m)))
        assert np.isfinite(out).all()


def _gated_oracle(g):
    """The earlier kernel fed the full x = channels @ lift, with G gates."""

    def oracle(channels, lift, *parts):
        return kernel_oracle.gated_time_means(matmul(channels, lift), parts[:g], parts[g:])

    return oracle


def _gated_kernel(g):
    return lambda channels, lift, *parts: gated_time_means(channels, lift, parts[:g], parts[g:])


def _encoder(mask):
    """``gru_sequence`` with a redistribution, and its composed oracle, on six leaves."""
    return (
        lambda *a: gru_sequence(*a[:3], a[3:], mask),
        lambda *a: kernel_oracle.gru_encode(*a[:3], a[3:], mask),
    )


class TestGruEncoding:
    """``gru_sequence`` given a redistribution against ``kernel_oracle.gru_encode``.

    The GRU weights' and the inputs' gradients are summed step by step, so
    they match within RTOL; the encoding and the redistribution's
    gradients match bit for bit, with and without a gradient.
    """

    # (T, K, W, M, V, U): one of each, ragged, and the model's shapes at an odd M
    SHAPES = [(1, 1, 1, 1, 1, 1), (3, 1, 2, 5, 4, 3), (12, 3, 10, 37, 10, 10)]
    SUMMED = (0, 1, 2)

    def leaves(self, rng, t, k, w, m, v, u):
        shapes = [(t, k, m), (k + w, 2 * w), (k + w, w), (t * w, v), (v, u), (u,)]
        return _leaves(rng, shapes)

    def mask(self, rng, t, w, m):
        return (rng.random((t, w, m)) < 0.6) / 0.6

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_against_composed_ops(self, shape, masked):
        rng = np.random.default_rng(90 + sum(shape))
        leaves = self.leaves(rng, *shape)
        t, _, w, m, _, u = shape
        mask = self.mask(rng, t, w, m) if masked else None
        _assert_same(*_encoder(mask), leaves, rng.normal(size=(u, m)), self.SUMMED)

    @pytest.mark.parametrize("columns", [7, 64])
    def test_ragged_column_spans(self, columns, monkeypatch):
        # M = 37 runs in 6 spans of 6 or 7 columns, or in one span narrower than 64
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", columns)
        rng = np.random.default_rng(97)
        shape = t, _, w, m, _, u = (4, 3, 10, 37, 10, 10)
        leaves = self.leaves(rng, *shape)
        kernel, oracle = _encoder(self.mask(rng, t, w, m))
        _assert_same(kernel, oracle, leaves, rng.normal(size=(u, m)), self.SUMMED)

    def test_one_column_spans_agree_within_rounding(self, monkeypatch):
        # numpy takes a matrix-vector product for a single column, which
        # rounds otherwise than the whole batch's GEMM: already in the GRU's
        # steps, and without a gradient in the GEMM by w1ᵀ too
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 1)
        rng = np.random.default_rng(98)
        shape = t, _, w, m, _, u = (4, 3, 10, 9, 10, 10)
        leaves = self.leaves(rng, *shape)
        kernel, oracle = _encoder(self.mask(rng, t, w, m))
        _assert_close(kernel, oracle, leaves, rng.normal(size=(u, m)))
        with no_grad():
            out, ref = kernel(*leaves).data, oracle(*leaves).data
        assert np.max(np.abs(out - ref)) <= RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("track", [False, True])
    def test_a_nan_in_one_sequence_leaves_the_others(self, track, monkeypatch):
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 8)
        rng = np.random.default_rng(99)
        t, k, w, m, v, u = 5, 3, 4, 24, 6, 5
        args = [leaf.data for leaf in self.leaves(rng, t, k, w, m, v, u)]
        poisoned = args[0].copy()
        poisoned[2, 1, 11] = np.nan  # sequence 11's input at step 2

        mask = self.mask(rng, t, w, m)

        def encode(inputs):
            leaves = [Tensor(a, requires_grad=track) for a in (inputs, *args[1:])]
            return gru_sequence(*leaves[:3], leaves[3:], mask).data

        clean, out = encode(args[0]), encode(poisoned)
        others = np.arange(m) != 11
        assert np.isnan(out[:, 11]).all()
        assert np.array_equal(out[:, others], clean[:, others])

    def test_without_gradient_keeps_no_states(self, monkeypatch):
        # the states alone, T·W·M floats, are more than the op may allocate
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 256)
        rng = np.random.default_rng(100)
        t, k, w, m, v, u = 12, 3, 10, 4096, 10, 10
        args = [leaf.data for leaf in self.leaves(rng, t, k, w, m, v, u)]
        mask = self.mask(rng, t, w, m)
        states = 8 * t * w * m
        peaks = []
        for track in (False, True):
            leaves = [Tensor(a, requires_grad=track) for a in args]
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = gru_sequence(*leaves[:3], leaves[3:], mask)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert out.requires_grad == track
        assert peaks[0] < states / 2 < states < peaks[1]


class TestGatedTimeMeansBuffers:
    # (B, T, N, K, D), all ragged, one with K = 1; the budgets give blocks of
    # one step, of two steps with a one-step remainder when T is odd, and of
    # the whole window
    SHAPES = [(2, 5, 3, 2, 4), (1, 7, 2, 1, 3), (3, 1, 5, 3, 2)]
    BLOCKS = {1: lambda b, n, d: 1, 2: lambda b, n, d: 2 * b * n * d, "all": lambda b, n, d: 2**16}
    SUMMED = (0, 1)  # channels and lift

    def leaves(self, shape, g, seed):
        b, t, n, k, d = shape
        rng = np.random.default_rng(seed)
        shapes = [(b, t, n, k), (k, d)] + [(b, t, d)] * g + [(n, d)] * g
        return _leaves(rng, shapes), rng.normal(size=(b, n, (g + 1) * d))

    @pytest.mark.parametrize("block", sorted(BLOCKS, key=str))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bitwise_against_expression_form(self, p, shape, block, monkeypatch):
        b, _, n, _, d = shape
        monkeypatch.setattr(tensor_module, "STREAM_BUDGET", self.BLOCKS[block](b, n, d))
        leaves, weights = self.leaves(shape, p - 1, seed=90 + p + sum(shape))
        _assert_same(_gated_kernel(p - 1), _gated_oracle(p - 1), leaves, weights, self.SUMMED)

    @pytest.mark.parametrize("block", [1, 2])
    def test_saturated_gates_are_finite_and_quiet(self, block, monkeypatch):
        shape = (2, 5, 3, 2, 4)
        b, _, n, _, d = shape
        monkeypatch.setattr(tensor_module, "STREAM_BUDGET", self.BLOCKS[block](b, n, d))
        leaves, weights = self.leaves(shape, 2, seed=99)
        # gate 0 saturates open (+800) everywhere, gate 1 closed (-800)
        leaves[2].data[:] = 400.0
        leaves[4].data[:] = 400.0
        leaves[3].data[:] = -400.0
        leaves[5].data[:] = -400.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _assert_same(_gated_kernel(2), _gated_oracle(2), leaves, weights, self.SUMMED)
        assert np.isfinite(out).all()
        # all of x goes to pattern 0, nothing to the closed gate's pattern
        x = leaves[0].data @ leaves[1].data
        assert np.allclose(out[..., :d], x.mean(axis=1), rtol=1e-15, atol=0.0)
        assert not out[..., d:].any()


def _consecutive_steps(rng, b, t, d, g):
    """G step-logit parts [B, T, D] of B consecutive windows: window w's step j
    reads timestamp w + j, so the batch holds B + T - 1 distinct rows."""
    rows = rng.normal(size=(g, b + t - 1, d))
    at = np.arange(b)[:, None] + np.arange(t)
    return [rows[i][at] for i in range(g)]


class TestGateTables:
    """Gates taken once per distinct stacked step-logit row, in window tiles."""

    G = 2

    def leaves(self, shape, seed, steps=None):
        b, t, n, k, d = shape
        rng = np.random.default_rng(seed)
        steps = _consecutive_steps(rng, b, t, d, self.G) if steps is None else steps
        parts = [rng.normal(size=(b, t, n, k)), rng.normal(size=(k, d))]
        parts += steps + [rng.normal(size=(n, d)) for _ in range(self.G)]
        return [Tensor(p, requires_grad=True) for p in parts], rng.normal(size=(b, n, 3 * d))

    def count_logistic(self, monkeypatch):
        """Patch the kernel's logistic to count the elements it is given."""
        seen = []
        logistic = tensor_module._logistic

        def counting(neg, out=None):
            seen.append(neg.size)
            return logistic(neg, out=out)

        monkeypatch.setattr(tensor_module, "_logistic", counting)
        return seen

    def test_a_window_alone_and_in_a_batch_match_bitwise(self):
        b, t, n, k, d = shape = (6, 5, 4, 2, 3)
        leaves, _ = self.leaves(shape, seed=120)
        batch = _gated_kernel(self.G)(*leaves).data  # one tile, kept for a gradient
        with no_grad():  # two tiles, the tables in the block allocation
            assert np.array_equal(_gated_kernel(self.G)(*leaves).data, batch)
        for w in range(b):
            alone = [Tensor(p.data[w : w + 1]) for p in leaves[:1]] + [leaves[1]]
            alone += [Tensor(s.data[w : w + 1]) for s in leaves[2 : 2 + self.G]]
            alone += leaves[2 + self.G :]
            with no_grad():
                assert np.array_equal(_gated_kernel(self.G)(*alone).data[0], batch[w])

    def test_logistic_sees_each_distinct_row_once(self, monkeypatch):
        # with a gradient the 6 windows are one tile
        b, t, n, k, d = shape = (6, 5, 4, 2, 3)
        leaves, weights = self.leaves(shape, seed=121)
        seen = self.count_logistic(monkeypatch)
        out, _ = _forward_and_grads(_gated_kernel(self.G), leaves, weights)
        assert sum(seen) == self.G * (b + t - 1) * n * d
        ref, _ = _forward_and_grads(_gated_oracle(self.G), leaves, weights)
        assert np.array_equal(out, ref)

    def test_without_gradient_each_half_of_the_batch_is_a_tile(self, monkeypatch):
        # two runs of 3 consecutive windows that share no timestamp, one per tile
        b, t, n, k, d = shape = (6, 5, 4, 2, 3)
        rng = np.random.default_rng(127)
        halves = [_consecutive_steps(rng, b // 2, t, d, self.G) for _ in range(2)]
        steps = [np.concatenate([h[i] for h in halves]) for i in range(self.G)]
        leaves, _ = self.leaves(shape, seed=128, steps=steps)
        seen = self.count_logistic(monkeypatch)
        with no_grad():
            out = _gated_kernel(self.G)(*leaves).data
        assert sum(seen) == self.G * 2 * (b // 2 + t - 1) * n * d
        with no_grad():
            assert np.array_equal(out, _gated_oracle(self.G)(*leaves).data)

    def test_a_fifth_of_the_logistic_at_n300_on_64_consecutive_windows(self, monkeypatch):
        b, t, n, d = 64, 12, 300, 10
        rng = np.random.default_rng(122)
        steps = [Tensor(s) for s in _consecutive_steps(rng, b, t, d, self.G)]
        nodes = [Tensor(rng.normal(size=(n, d))) for _ in range(self.G)]
        channels, lift = Tensor(rng.normal(size=(b, t, n, 2))), Tensor(rng.normal(size=(2, d)))
        seen = self.count_logistic(monkeypatch)
        gated_time_means(channels, lift, steps, nodes)
        assert sum(seen) <= self.G * b * t * n * d / 5

    # (B, T, N, K, D), budget, TABLE_WINDOWS, and the rows the logistic takes
    # with and without a gradient. With TABLE_WINDOWS = B a table without a
    # gradient has only the room the block allocation leaves. "tiles": with
    # a gradient, tiles of 1, 2 and 2 windows, the first taking its gates per
    # block (4 rows), the others a table of 5 rows each; without one, no
    # table fits beside one-step blocks. "blocks": blocks of 2 steps and a
    # 1-step remainder; with a gradient one tile (7 rows); without one, tiles
    # of 2 and 3 windows, the first with a table of 4 rows in the block
    # allocation, the second's too large for it (9 rows per block). "no
    # room": with a gradient one tile (8 rows); without one, no table fits
    # beside one-step blocks. With a larger TABLE_WINDOWS the allocation
    # widens for the largest table: "widened tiles" and "widened blocks"
    # then take every table (4 + 5 + 5 and 4 + 5 rows). In "no room" a table
    # of 6 rows takes 72 floats beside the 24 of its tile's block buffers:
    # the bound of 8 windows' blocks (96 floats) holds it, that of 7 (84)
    # does not.
    RAGGED = {
        "tiles": ((5, 4, 3, 2, 2), lambda b, n, d: 2 * n * d, 5, 14, 20),
        "blocks": ((5, 3, 2, 1, 3), lambda b, n, d: 2 * b * n * d, 5, 7, 13),
        "no room": ((4, 5, 3, 2, 2), lambda b, n, d: b * n * d, 4, 8, 20),
        "widened tiles": ((5, 4, 3, 2, 2), lambda b, n, d: 2 * n * d, 64, 14, 14),
        "widened blocks": ((5, 3, 2, 1, 3), lambda b, n, d: 2 * b * n * d, 64, 7, 9),
        "widened to the bound": ((4, 5, 3, 2, 2), lambda b, n, d: b * n * d, 8, 8, 12),
        "past the bound": ((4, 5, 3, 2, 2), lambda b, n, d: b * n * d, 7, 8, 20),
    }

    @pytest.mark.parametrize("case", sorted(RAGGED))
    def test_ragged_tiles_and_blocks_match_the_oracle(self, case, monkeypatch):
        shape, budget, table_windows, with_gradient, without = self.RAGGED[case]
        b, t, n, k, d = shape
        monkeypatch.setattr(tensor_module, "STREAM_BUDGET", budget(b, n, d))
        monkeypatch.setattr(tensor_module, "TABLE_WINDOWS", table_windows)
        leaves, weights = self.leaves(shape, seed=123)
        _assert_same(_gated_kernel(self.G), _gated_oracle(self.G), leaves, weights, (0, 1))
        seen = self.count_logistic(monkeypatch)
        _gated_kernel(self.G)(*leaves)
        assert sum(seen) == self.G * with_gradient * n * d
        seen.clear()
        with no_grad():
            _gated_kernel(self.G)(*leaves)
        assert sum(seen) == self.G * without * n * d

    @pytest.mark.parametrize("b", [16, 32])
    def test_small_batches_at_n300_take_tables_within_the_b64_allocation(self, b, monkeypatch):
        # a B = 16 validation pass and the 32-window cluster probe: two tiles
        # of B / 2 consecutive windows, each with a table of B / 2 + 11 rows
        t, n, d = 12, 300, 10
        rng = np.random.default_rng(129)
        steps = [Tensor(s) for s in _consecutive_steps(rng, 64, t, d, self.G)]
        nodes = [Tensor(rng.normal(size=(n, d))) for _ in range(self.G)]
        channels, lift = Tensor(rng.normal(size=(64, t, n, 2))), Tensor(rng.normal(size=(2, d)))

        def call(windows):
            head = [Tensor(s.data[:windows]) for s in steps]
            return gated_time_means(Tensor(channels.data[:windows]), lift, head, nodes)

        seen = self.count_logistic(monkeypatch)
        call(b)
        assert sum(seen) == self.G * 2 * (b // 2 + t - 1) * n * d
        peaks = []
        for windows in (b, 64):
            tracemalloc.start()
            try:
                call(windows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]

    def test_signed_zeros_and_nans_match_the_oracle(self):
        b, t, n, k, d = shape = (3, 4, 3, 2, 2)
        rng = np.random.default_rng(125)
        steps = _consecutive_steps(rng, b, t, d, self.G)
        # timestamp 1 is window 0's step 1 and window 1's step 0: -0.0 in one, 0.0 in the other
        steps[0][0, 1, 0], steps[0][1, 0, 0] = -0.0, 0.0
        # timestamp 3 holds a NaN in all three windows that read it
        for w in range(b):
            steps[1][w, 3 - w, 1] = np.nan
        leaves, weights = self.leaves(shape, seed=126, steps=steps)
        leaves[2 + self.G].data[0, 0] = -0.0  # the node logit the signed zeros meet
        rows, index = tensor_module._distinct_rows(np.stack(steps, axis=2))
        assert index[0, 1] != index[1, 0]  # told apart by their bytes
        assert index[0, 3] == index[1, 2] == index[2, 1]  # one NaN bit pattern
        assert len(rows) == b + t
        out, grads = _forward_and_grads(_gated_kernel(self.G), leaves, weights)
        ref, ref_grads = _forward_and_grads(_gated_oracle(self.G), leaves, weights)
        assert np.isnan(out).any() and np.array_equal(out, ref, equal_nan=True)
        for i, (grad, ref_grad) in enumerate(zip(grads, ref_grads)):
            if i >= 2:  # the logits' gradients; the lift's and channels' are all NaN
                assert np.array_equal(grad, ref_grad, equal_nan=True), i
        with no_grad():
            assert np.array_equal(_gated_kernel(self.G)(*leaves).data, ref, equal_nan=True)
