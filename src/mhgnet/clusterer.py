"""Single-pass node clustering in the pattern-ratio feature space.

Each node gets a P-vector of pattern ratios R[i], the shares of its traffic
that fall in each decoupled pattern (they sum to 1); the per-pattern maxima
form the limit points C. A node is assigned the pattern whose limit point
is closest in per-coordinate absolute distance, in one O(N) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ShapeError

RATIO_EPS = 1e-8


@dataclass
class FeatureSpace:
    """Pattern-ratio features per node plus the per-pattern limit points."""

    ratios: np.ndarray  # [N, P]
    limits: np.ndarray  # [P], column maxima of ratios

    @classmethod
    def from_ratios(cls, ratios: np.ndarray) -> "FeatureSpace":
        ratios = np.asarray(ratios, dtype=np.float64)
        return cls(ratios=ratios, limits=ratios.max(axis=0))


@dataclass
class ClusterAssignment:
    """Node-to-type map with the induced pools.

    ``pools[j]`` lists the nodes of type j in ascending order.
    ``comparisons`` counts the distance evaluations and comparisons of one
    scan over the types per node (see :func:`assign`).
    """

    types: np.ndarray  # [N] ints in [0, P)
    pools: list[list[int]]
    comparisons: int = field(default=0, compare=False)

    @classmethod
    def from_types(cls, types: np.ndarray, num_types: int, comparisons: int = 0):
        types = np.asarray(types, dtype=np.int64)
        if types.size and not 0 <= types.min() <= types.max() < num_types:
            raise ConfigError(f"node types must lie in [0, {num_types})")
        by_type = np.argsort(types, kind="stable")  # by type, then by node
        ends = np.cumsum(np.bincount(types, minlength=num_types))[:-1]
        pools = [pool.tolist() for pool in np.split(by_type, ends)]
        return cls(types=types, pools=pools, comparisons=comparisons)


def single_pool(n: int) -> ClusterAssignment:
    """Trivial assignment: every node in one pool (whole-graph convolution)."""
    return ClusterAssignment.from_types(np.zeros(n, dtype=np.int64), 1)


def _guard_denominator(d: np.ndarray) -> np.ndarray:
    # sign(d) * max(|d|, eps), with sign(0) treated as +1
    sign = np.where(d >= 0, 1.0, -1.0)
    return sign * np.maximum(np.abs(d), RATIO_EPS)


def build_feature_space(
    patterns: Callable[[np.ndarray, np.ndarray], np.ndarray],
    channels: np.ndarray,
    lift: np.ndarray,
    p: int,
) -> FeatureSpace:
    """Per-node means of each pattern's share of the input's channel sum.

    The input is x_hat = ``channels @ lift``, K channels [B, T, N, K]
    through a [K, D] lift, and is never built. The ratio of pattern p at
    (b, t, i) is sum_d x_p / sum_d x_hat, its denominator guarded away from
    0, and R in [N, P] is its mean over batch and time. The patterns sum to
    x_hat, so each row of R sums to 1. ``patterns`` maps channels and a
    lift to the time means of the P patterns of their product, [B, N, P·D]
    (:func:`mhgnet.std.decouple` with the window's gate inputs bound). The
    denominator is ``channels @ lift.sum(axis=1)``, and ``patterns`` is
    applied to the channels divided by it, which is exact: a pattern is its
    input times a product of gates that ignore the input's values, and the
    lift, the channel sum and the time mean are linear. So no
    [B, T, N, D] array is built.
    """
    d = lift.shape[-1]
    denom = _guard_denominator(channels @ lift.sum(axis=1))  # [B, T, N]
    means = patterns(channels / denom[..., None], lift)
    if means.shape[-1] != p * d:
        raise ShapeError(
            f"pattern means of width {means.shape[-1]} for {p} patterns of width {d}"
        )
    shares = means.reshape(means.shape[:-1] + (p, d)).sum(axis=-1)  # [B, N, P]
    return FeatureSpace.from_ratios(shares.mean(axis=0))


def assign(fs: FeatureSpace) -> ClusterAssignment:
    """Assign each node to the nearest limit point; ties go to the lower type.

    The [N, P] distances |R[i, j] - C[j]| are reduced by one argmin per node,
    whose first minimum is the lower type. ``comparisons`` counts what a
    scan over the types spends: P distance evaluations plus P-1 comparisons
    per node, n * (2P - 1) in all (O(N) in the node count for fixed P).
    """
    n, p = fs.ratios.shape
    types = np.argmin(np.abs(fs.ratios - fs.limits), axis=1)
    return ClusterAssignment.from_types(types, p, comparisons=n * (2 * p - 1))
