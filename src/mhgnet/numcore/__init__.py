"""Minimal dense tensor engine with reverse-mode automatic differentiation."""

from .params import Parameter, ParameterStore
from .rng import SplitRng
from .tensor import (
    Tensor,
    abs_,
    broadcast_to,
    concat,
    gated_time_means,
    gru_sequence,
    matmul,
    mean,
    no_grad,
    relu,
    reshape,
    slice_axis,
    sum_,
    swap_last2,
    take,
    tanh,
    topk_row_mask,
    transpose,
)

__all__ = [
    "Parameter",
    "ParameterStore",
    "SplitRng",
    "Tensor",
    "abs_",
    "broadcast_to",
    "concat",
    "gated_time_means",
    "gru_sequence",
    "matmul",
    "mean",
    "no_grad",
    "relu",
    "reshape",
    "slice_axis",
    "sum_",
    "swap_last2",
    "take",
    "tanh",
    "topk_row_mask",
    "transpose",
]
