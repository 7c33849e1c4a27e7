"""The buffered gate kernels against their expression forms in ``kernel_oracle``.

Every output and every gradient must match bit for bit: with and without a
gradient, at ragged shapes, over streamed blocks of one step, of several
steps with a shorter remainder, and of the whole window, and at
pre-activations of ±800, where the logistic's exp overflows.
"""

import warnings

import kernel_oracle
import numpy as np
import pytest

from mhgnet.numcore import Tensor, gated_time_means, gru_sequence, no_grad, sum_
from mhgnet.numcore import tensor as tensor_module


def _leaves(rng, shapes):
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def _forward_and_grads(op, leaves, weights):
    for leaf in leaves:
        leaf.grad = None
    out = op(*leaves)
    sum_(out * Tensor(weights)).backward()
    return out.data, [leaf.grad for leaf in leaves]


def _assert_same(kernel, oracle, leaves, weights):
    out, grads = _forward_and_grads(kernel, leaves, weights)
    ref, ref_grads = _forward_and_grads(oracle, leaves, weights)
    assert np.array_equal(out, ref)
    assert all(np.isfinite(grad).all() for grad in grads)
    for grad, ref_grad in zip(grads, ref_grads):
        assert np.array_equal(grad, ref_grad)
    with no_grad():
        assert np.array_equal(kernel(*leaves).data, ref)
    return out


class TestGruSequenceBuffers:
    # (T, W, M): one step, one channel, ragged, and the model's W at an odd M
    SHAPES = [(1, 1, 1), (3, 2, 5), (5, 3, 7), (12, 10, 37)]

    def shapes(self, t, w, m):
        return [(t, 2 * w, m), (t, w, m), (w, 2 * w), (w, w)]

    def gru(self, *leaves):
        *inputs, w_zr_h, w_n_h = leaves
        return gru_sequence(*inputs, w_zr_h, w_n_h)

    def oracle(self, *leaves):
        *inputs, w_zr_h, w_n_h = leaves
        return kernel_oracle.gru_sequence(*inputs, w_zr_h, w_n_h)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_against_expression_form(self, shape):
        rng = np.random.default_rng(80 + sum(shape))
        leaves = _leaves(rng, self.shapes(*shape))
        _assert_same(self.gru, self.oracle, leaves, rng.normal(size=shape))

    def test_without_gradient_keeps_nothing(self):
        rng = np.random.default_rng(85)
        args = [Tensor(rng.normal(size=s)) for s in self.shapes(4, 3, 6)]
        out = gru_sequence(*args)
        assert out._backward is None
        assert np.array_equal(out.data, kernel_oracle.gru_sequence(*args).data)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_saturated_gates_are_finite_and_quiet(self, sign):
        rng = np.random.default_rng(86)
        t, w, m = 4, 3, 6
        leaves = _leaves(rng, self.shapes(t, w, m))
        # every update|reset pre-activation sits at ±800
        leaves[0].data[:] = sign * 800.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _assert_same(self.gru, self.oracle, leaves, rng.normal(size=(t, w, m)))
        assert np.isfinite(out).all()


class TestGatedTimeMeansBuffers:
    # (B, T, N, D), all ragged; the budgets give blocks of one step, of two
    # steps with a one-step remainder when T is odd, and of the whole window
    SHAPES = [(2, 5, 3, 4), (1, 7, 2, 3), (3, 1, 5, 2)]
    BLOCKS = {1: lambda b, n, d: 1, 2: lambda b, n, d: 2 * b * n * d, "all": lambda b, n, d: 2**16}

    def leaves(self, shape, g, seed):
        b, t, n, d = shape
        rng = np.random.default_rng(seed)
        leaves = _leaves(rng, [shape] + [(b, t, d)] * g + [(n, d)] * g)
        return leaves, rng.normal(size=(b, n, (g + 1) * d))

    @staticmethod
    def split(kernel, g):
        return lambda x, *parts: kernel(x, parts[:g], parts[g:])

    @pytest.mark.parametrize("block", sorted(BLOCKS, key=str))
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bitwise_against_expression_form(self, p, shape, block, monkeypatch):
        b, _, n, d = shape
        monkeypatch.setattr(tensor_module, "STREAM_BUDGET", self.BLOCKS[block](b, n, d))
        leaves, weights = self.leaves(shape, p - 1, seed=90 + p + sum(shape))
        _assert_same(
            self.split(gated_time_means, p - 1),
            self.split(kernel_oracle.gated_time_means, p - 1),
            leaves,
            weights,
        )

    @pytest.mark.parametrize("block", [1, 2])
    def test_saturated_gates_are_finite_and_quiet(self, block, monkeypatch):
        shape = (2, 5, 3, 4)
        b, _, n, d = shape
        monkeypatch.setattr(tensor_module, "STREAM_BUDGET", self.BLOCKS[block](b, n, d))
        leaves, weights = self.leaves(shape, 2, seed=99)
        # gate 0 saturates open (+800) everywhere, gate 1 closed (-800)
        leaves[1].data[:] = 400.0
        leaves[3].data[:] = 400.0
        leaves[2].data[:] = -400.0
        leaves[4].data[:] = -400.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _assert_same(
                self.split(gated_time_means, 2),
                self.split(kernel_oracle.gated_time_means, 2),
                leaves,
                weights,
            )
        assert np.isfinite(out).all()
        # all of x goes to pattern 0, nothing to the closed gate's pattern
        assert np.allclose(out[..., :d], leaves[0].data.mean(axis=1), rtol=1e-15, atol=0.0)
        assert not out[..., d:].any()
