import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhgnet.clusterer import (
    ClusterAssignment,
    FeatureSpace,
    assign,
    build_feature_space,
    single_pool,
)
from mhgnet.errors import ConfigError, ShapeError


def _loop_feature_space(patterns, x_hat, eps=1e-8):
    """Brute-force evaluation of the pattern shares, straight from the rule."""
    b, t, n, _ = x_hat.shape
    p = len(patterns)
    acc = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            vals = []
            for bb in range(b):
                for tt in range(t):
                    num = float(patterns[j][bb, tt, i].sum())
                    den = float(x_hat[bb, tt, i].sum())
                    sign = 1.0 if den >= 0 else -1.0
                    den = sign * max(abs(den), eps)
                    vals.append(num / den)
            acc[i, j] = np.mean(vals)
    return acc


def _gated(gates):
    """The pattern-mean map of fixed gates: the lifted input times each gate, averaged over time."""
    return lambda channels, lift: np.concatenate(
        [((channels @ lift) * g).mean(axis=1) for g in gates], axis=-1
    )


def _factored(rng, shape, k=2, shift=0.0):
    """An input x_hat of ``shape`` [B, T, N, D] as channels [x, 1] and a lift [K, D]."""
    channels = np.ones(shape[:-1] + (k,))
    channels[..., :-1] = rng.normal(size=shape[:-1] + (k - 1,))
    lift = rng.normal(size=(k, shape[-1]))
    lift[-1] += shift  # a constant the channel sums stay clear of 0 by
    return channels, lift


class TestFeatureSpace:
    def test_single_pattern_all_ones(self):
        rng = np.random.default_rng(0)
        channels, lift = _factored(rng, (2, 3, 4, 5), shift=2.0)
        fs = build_feature_space(_gated([1.0]), channels, lift, 1)
        assert np.allclose(fs.ratios, 1.0)
        assert np.allclose(fs.limits, [1.0])

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        channels, lift = _factored(rng, (1, 2, 3, 4), shift=3.0)
        fs1 = build_feature_space(_gated([1.0, 1.0]), channels, lift, 2)
        fs2 = build_feature_space(_gated([0.5, 0.5]), channels, lift, 2)
        assert np.allclose(fs2.ratios, 0.5 * fs1.ratios)
        assert np.allclose(fs2.limits, 0.5 * fs1.limits)

    def test_matches_loop_oracle(self):
        self._check_loop_oracle(2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_loop_oracle_for_other_channel_counts(self, k):
        self._check_loop_oracle(k)

    def _check_loop_oracle(self, k):
        # patterns whose gates ignore the input's values, as decoupling's do, so
        # gating the divided input gives the pattern shares the rule defines
        rng = np.random.default_rng(2)
        b, t, n, d, p = 2, 3, 3, 4, 2
        channels = rng.normal(size=(b, t, n, k))
        lift = rng.normal(size=(k, d))
        x_hat = channels @ lift
        gates = [rng.uniform(size=(b, t, n, d)) for _ in range(p)]
        fs = build_feature_space(_gated(gates), channels, lift, p)
        oracle = _loop_feature_space([x_hat * g for g in gates], x_hat)
        assert np.max(np.abs(fs.ratios - oracle)) < 1e-12

    def test_pattern_width_must_match_pattern_count(self):
        channels, lift = np.ones((1, 2, 3, 2)), np.ones((2, 4))
        with pytest.raises(ShapeError):
            build_feature_space(_gated([1.0]), channels, lift, 2)

    def test_limits_are_column_maxima(self):
        rng = np.random.default_rng(3)
        ratios = rng.normal(size=(7, 3))
        fs = FeatureSpace.from_ratios(ratios)
        assert np.array_equal(fs.limits, ratios.max(axis=0))


class TestAssign:
    def test_worked_example(self):
        fs = FeatureSpace.from_ratios(np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]]))
        assert np.allclose(fs.limits, [0.9, 0.8])
        asg = assign(fs)
        assert np.array_equal(asg.types, [1, 0, 1])
        assert asg.pools == [[1], [0, 2]]

    def test_single_pattern_single_pool(self):
        fs = FeatureSpace.from_ratios(np.random.default_rng(4).normal(size=(6, 1)))
        asg = assign(fs)
        assert np.array_equal(asg.types, np.zeros(6))
        assert asg.pools == [list(range(6))]

    def test_limit_attainer_gets_its_type(self):
        # node 0 attains the column-1 maximum, so its distance there is 0
        fs = FeatureSpace.from_ratios(np.array([[0.1, 0.9], [0.3, 0.2]]))
        asg = assign(fs)
        assert asg.types[0] == 1

    def test_tie_breaks_toward_lower_type(self):
        fs = FeatureSpace.from_ratios(np.array([[1.0, 1.0]]))
        asg = assign(fs)
        assert asg.types[0] == 0

    @given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_partition_matches_types(self, n, p, seed):
        ratios = np.random.default_rng(seed).normal(size=(n, p))
        asg = assign(FeatureSpace.from_ratios(ratios))
        flat = sorted(i for pool in asg.pools for i in pool)
        assert flat == list(range(n))
        assert all(pool == sorted(pool) for pool in asg.pools)
        assert all(i in asg.pools[t] for i, t in enumerate(asg.types))

    @given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_scan(self, n, p, seed):
        # coarse values make ties between types common
        ratios = np.random.default_rng(seed).integers(-2, 3, size=(n, p)) / 2.0
        fs = FeatureSpace.from_ratios(ratios)
        types, comparisons = [], 0
        for i in range(n):
            best, best_dist = 0, abs(ratios[i, 0] - fs.limits[0])
            comparisons += 1
            for j in range(1, p):
                dist = abs(ratios[i, j] - fs.limits[j])
                comparisons += 2  # one distance evaluation, one comparison
                if dist < best_dist:
                    best, best_dist = j, dist
            types.append(best)
        asg = assign(fs)
        assert np.array_equal(asg.types, types) and asg.comparisons == comparisons

    def test_linear_comparison_scaling(self):
        rng = np.random.default_rng(5)
        counts = {}
        for n in (1000, 2000):
            asg = assign(FeatureSpace.from_ratios(rng.normal(size=(n, 3))))
            counts[n] = asg.comparisons
        ratio = counts[2000] / counts[1000]
        assert 1.9 <= ratio <= 2.1

    def test_duplicate_row_is_monotone(self):
        rng = np.random.default_rng(6)
        ratios = rng.normal(size=(8, 3))
        base = assign(FeatureSpace.from_ratios(ratios))
        extended = np.vstack([ratios, ratios[4]])  # duplicates keep column maxima
        ext = assign(FeatureSpace.from_ratios(extended))
        assert np.array_equal(ext.types[:8], base.types)
        assert ext.types[8] == base.types[4]

    def test_single_pool_helper(self):
        asg = single_pool(5)
        assert asg.pools == [list(range(5))]
        assert np.array_equal(asg.types, np.zeros(5))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_types_outside_range_rejected(self, bad):
        with pytest.raises(ConfigError):
            ClusterAssignment.from_types(np.array([0, bad, 1]), 3)

    def test_empty_pools_permitted(self):
        asg = ClusterAssignment.from_types(np.array([2, 2, 2]), 3)
        assert asg.pools == [[], [], [0, 1, 2]]
        assert np.array_equal(asg.types, [2, 2, 2])
