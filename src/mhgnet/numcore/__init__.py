"""Minimal dense tensor engine with reverse-mode automatic differentiation."""

from . import heap
from .params import Parameter, ParameterStore
from .rng import SplitRng
from .tensor import (
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
    regression_head,
    relu,
    reshape,
    slice_axis,
    sum_,
    take,
    tanh,
    topk_row_mask,
    transpose,
)

heap.fix_thresholds()

__all__ = [
    "Parameter",
    "ParameterStore",
    "SplitRng",
    "Tensor",
    "abs_",
    "broadcast_to",
    "concat",
    "gated_time_means",
    "grad_enabled",
    "gru_sequence",
    "matmul",
    "mean",
    "no_grad",
    "regression_head",
    "relu",
    "reshape",
    "slice_axis",
    "sum_",
    "take",
    "tanh",
    "topk_row_mask",
    "transpose",
]
