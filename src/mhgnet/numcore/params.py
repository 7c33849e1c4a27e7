"""Learnable parameters: named tensors with seeded, reproducible init."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .rng import SplitRng
from .tensor import Tensor

_INIT_RE = re.compile(
    r"^(uniform|normal)\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)$|^(zeros|ones)$"
)


@dataclass
class Parameter:
    """A uniquely named learnable tensor."""

    name: str
    tensor: Tensor


def _draw(spec: str, shape, rng: SplitRng) -> np.ndarray:
    m = _INIT_RE.match(spec)
    if m is None:
        raise ConfigError(f"unknown init spec {spec!r}")
    if m.group(4) == "zeros":
        return np.zeros(shape)
    if m.group(4) == "ones":
        return np.ones(shape)
    a, b = float(m.group(2)), float(m.group(3))
    if m.group(1) == "uniform":
        return rng.uniform(a, b, shape)
    return rng.normal(a, b, shape)


def fan_in_uniform(shape) -> str:
    """Default weight init: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
    bound = 1.0 / math.sqrt(fan_in)
    return f"uniform({-bound!r},{bound!r})"


class ParameterStore:
    """Registry of named parameters; names must be unique."""

    def __init__(self, rng: SplitRng):
        self._rng = rng
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, shape, init: str | None = None) -> Tensor:
        """Register a parameter and return its tensor.

        ``init`` is one of uniform(a,b), normal(mu,sigma), zeros, ones;
        None selects the fan-in uniform default for weight matrices.
        """
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        shape = tuple(int(s) for s in shape)
        spec = init if init is not None else fan_in_uniform(shape)
        values = _draw(spec, shape, self._rng.child(name))
        t = Tensor(values, requires_grad=True)
        self._params[name] = Parameter(name, t)
        return t

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.tensor.grad = None

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.tensor.data.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy in the values of a :meth:`state` of a store with the same names
        and shapes; :func:`mhgnet.model.restore` checks a checkpoint's first."""
        for name, values in state.items():
            self._params[name].tensor.data = np.asarray(values, dtype=np.float64).copy()

