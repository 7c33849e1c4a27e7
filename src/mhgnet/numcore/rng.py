"""Named, splittable random streams on a counter-based generator.

Every consumer of randomness (parameter init, shuffling, noise, dropout)
gets its own child stream derived from a root seed and a path of names, so
adding or reordering consumers never perturbs unrelated streams and every
draw is bit-reproducible across runs.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_key(seed: int, path: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{path}".encode()).digest()
    return int.from_bytes(digest[:16], "little")


class SplitRng:
    """A Philox-backed stream identified by (seed, path)."""

    def __init__(self, seed: int, path: str = ""):
        self.seed = int(seed)
        self.path = path
        self._gen: np.random.Generator | None = None

    def child(self, name: str) -> "SplitRng":
        """Derive an independent stream; same (seed, path, name) -> same stream."""
        sep = "/" if self.path else ""
        return SplitRng(self.seed, f"{self.path}{sep}{name}")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.Philox(key=_derive_key(self.seed, self.path))
            )
        return self._gen

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self.generator.uniform(low, high, size=shape)

    def normal(self, mean: float, std: float, shape) -> np.ndarray:
        return self.generator.normal(mean, std, size=shape)

    def random(self, shape) -> np.ndarray:
        """float32 uniforms on [0, 1): half the bytes of float64 draws, for masks."""
        return self.generator.random(size=shape, dtype=np.float32)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def __repr__(self) -> str:
        return f"SplitRng(seed={self.seed}, path={self.path!r})"
