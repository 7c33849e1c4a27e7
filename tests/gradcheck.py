"""Finite-difference gradient checks for the autodiff engine and the model stages."""

import math
from typing import Callable

import numpy as np

from mhgnet.errors import MhgnetError
from mhgnet.numcore import Parameter, Tensor, no_grad


class EvaluationError(MhgnetError, ArithmeticError):
    """A numeric evaluation produced a non-finite result."""


def check_gradient(
    f: Callable[[], Tensor], params: list[Parameter], h: float = 1e-5
) -> float:
    """Max relative error of reverse-mode gradients vs central differences.

    ``f`` evaluates a scalar loss from the current parameter values. The
    error per coordinate is |g_ad - g_fd| / max(1, |g_fd|); the max over all
    coordinates of all ``params`` is returned.
    """
    loss = f()
    if not np.isfinite(loss.data).all():
        raise EvaluationError("loss is not finite at the evaluation point")
    for p in params:
        p.tensor.grad = None
    loss.backward()
    analytic = [
        np.zeros_like(p.tensor.data) if p.tensor.grad is None else p.tensor.grad.copy()
        for p in params
    ]

    worst = 0.0
    with no_grad():
        for p, g_ad in zip(params, analytic):
            flat = p.tensor.data.reshape(-1)
            g_flat = g_ad.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + h
                up = f().item()
                flat[i] = saved - h
                down = f().item()
                flat[i] = saved
                if not (math.isfinite(up) and math.isfinite(down)):
                    raise EvaluationError("non-finite loss during finite differencing")
                g_fd = (up - down) / (2.0 * h)
                err = abs(g_flat[i] - g_fd) / max(1.0, abs(g_fd))
                worst = max(worst, err)
    return worst
