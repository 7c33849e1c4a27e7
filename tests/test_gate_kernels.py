"""The buffered gate kernels against their expression forms in ``kernel_oracle``.

``gru_sequence`` runs the lean GRU step in column spans; its states must
match ``kernel_oracle.gru_lean`` bit for bit, and its gradients, which it
sums step by step, within 1e-13 relative. Against the earlier arithmetic,
fed the full pre-activations ``w_xᵀ @ inputs``, everything matches within
1e-13 relative. ``gated_time_means`` lifts K channels one block of time
steps at a time; the oracle is fed the full ``channels @ lift`` the kernel
never builds, formed by autodiff ops so that every gradient reaches the
same leaves. Its outputs and the logits' gradients must match bit for bit;
the lift's and the channels' gradients, which the kernel sums block by
block, within 1e-13 relative. This holds with and without a gradient, at
ragged shapes with K = 1, over several column spans, over streamed blocks
of one step, of several steps with a shorter remainder, and of the whole
window, and at pre-activations of ±800, where the logistic's exp
overflows.
"""

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
