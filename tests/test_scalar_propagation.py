"""The forward that propagates the scalar input against the D-wide formulation.

``_d_wide_forward`` is the earlier formulation of :meth:`ForecastModel.forward`,
kept as an oracle: it propagates the lifted input x_hat [B, T, N, D] through
the dense walk of each cluster's graph, built pool by pool
(``graph_oracle``), projects the concatenated hop states by ``out_proj`` and
feeds the D-wide result to a GRU of its own, stepped in the batch-major
[B, T, N, W] layout, followed by its own dropout and redistribution. Its
pattern means come from the sequential gating loop that builds every
pattern (``std_oracle``).
"""

import copy

import numpy as np
import pytest

from gradcheck import check_gradient
from graph_oracle import model_pool_graphs
from kernel_oracle import sigmoid
from mhgnet import dstgg, sie, std
from mhgnet.clusterer import ClusterAssignment
from mhgnet.model import ForecastModel, ModelConfig
from mhgnet.numcore import (
    Tensor,
    broadcast_to,
    concat,
    matmul,
    mean,
    relu,
    reshape,
    slice_axis,
    sum_,
    take,
    tanh,
    transpose,
)
from std_oracle import decouple_patterns, time_means

MODES = {  # name: ModelConfig overrides
    "full": {},
    "no_sg": {"graph_mode": "no_sg"},
    "no_tg": {"graph_mode": "no_tg"},
    "single_cluster": {"single_cluster": True},
}
TYPES = [0, 1, 2, 0, 1, 0, 0, 2, 0]  # pool sizes 5, 2, 2 around k = 3


def _batch_major_gru(x, gru):
    """The GRU over axis 1 of x [B, T, N, D], one step at a time: [B, T, N, W]."""
    b, t, n, _ = x.shape
    h = Tensor(np.zeros((b, 1, n, gru.update_h.shape[0])))
    states = []
    for j in range(t):
        x_j = slice_axis(x, 1, j, j + 1)
        z = sigmoid(matmul(x_j, gru.update_x) + matmul(h, gru.update_h) + gru.update_b)
        r = sigmoid(matmul(x_j, gru.reset_x) + matmul(h, gru.reset_h) + gru.reset_b)
        c = tanh(matmul(x_j, gru.cand_x) + matmul(r * h, gru.cand_h) + gru.cand_b)
        h = (Tensor(1.0) - z) * h + z * c
        states.append(h)
    return concat(states, axis=1)


def _d_wide_forward(model, x, tod, dow):
    """The forecast from propagating x_hat, with each cluster's dense walk."""
    cfg, enc, gru = model.cfg, model.encoder, model.encoder.gru
    x = Tensor(x)
    b, t, n, _ = x.shape
    x_hat = std.embed_input(x, model.embed_w, model.embed_b)
    patterns = decouple_patterns(
        x_hat, tod, dow, model.node_embedding, model.timestamps, model.gates
    )
    parts = []
    for g in model_pool_graphs(model, tod, dow):
        h = take(x_hat, g.members, axis=2)
        a_tilde = g.a_hat + np.eye(g.members.size)
        walk = a_tilde / reshape(sum_(a_tilde, axis=1), (-1, 1))
        states, current = [h], h
        for _ in range(cfg.hops - 1):
            current = cfg.gamma * h + (1.0 - cfg.gamma) * matmul(walk, current)
            states.append(current)
        parts.append(matmul(concat(states, axis=-1), model.prop_cfg.out_proj))
    repositioned = sie.reassemble(parts, model.assignment)

    h_out = _batch_major_gru(repositioned, gru)
    width = h_out.shape[-1]
    if model.training and enc.dropout > 0.0:
        keep = 1.0 - enc.dropout
        mask = (model._dropout_rng.random(h_out.shape) < keep).astype(np.float64) / keep
        h_out = h_out * Tensor(mask)
    stacked = reshape(transpose(h_out, (0, 2, 1, 3)), (b, n, t * width))
    x_out = matmul(relu(matmul(stacked, enc.redist_w1)), enc.redist_w2) * enc.gain

    skip = [x_out, mean(x_hat, axis=1), time_means(patterns)]
    for rows in model.timestamps.rows(tod[:, -1], dow[:, -1]):
        skip.append(broadcast_to(reshape(rows, (b, 1, cfg.d_t)), (b, n, cfg.d_t)))
    hidden = relu(matmul(relu(concat(skip, axis=-1)), model.head_w1) + model.head_b1)
    out = (matmul(hidden, model.head_w2) + model.head_b2) * model.head_gain
    return reshape(transpose(out, (0, 2, 1)), (b, cfg.t_f, n, 1))


def _model(mode, hops=2, dropout=0.15, seed=5):
    """A small model with every parameter moved off its init, biases included."""
    cfg = ModelConfig(
        n=len(TYPES), p=3, d=4, d_s=3, d_t=3, t_h=5, t_f=3, k=3, hops=hops,
        steps_per_day=8, dropout=dropout, seed=seed, **MODES[mode],
    )
    model = ForecastModel(cfg)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.tensor.data = p.tensor.data + rng.normal(0.0, 0.3, p.tensor.shape)
    if not cfg.single_cluster:
        model.set_assignment(ClusterAssignment.from_types(np.array(TYPES), cfg.p))
    return model


def _inputs(model, b=3, seed=0):
    """Inputs whose temporal graph is not empty, so every walk mixes nodes."""
    cfg = model.cfg
    rng = np.random.default_rng(seed)
    while True:
        x = rng.normal(size=(b, cfg.t_h, cfg.n, 1))
        tod = rng.integers(0, cfg.steps_per_day, (b, cfg.t_h))
        dow = rng.integers(0, 7, (b, cfg.t_h))
        if dstgg.temporal_graph(model.timestamps, tod, dow, cfg.beta).item() > 0.0:
            return x, tod, dow


def _forecast_and_grads(forward, model, x, tod, dow, weights):
    model.zero_grad()
    out = forward(x, tod, dow)
    sum_(out * Tensor(weights)).backward()
    return out.data, {p.name: p.tensor.grad for p in model.parameters()}


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("hops", [1, 2, 3])
@pytest.mark.parametrize("mode", list(MODES))
def test_matches_d_wide_oracle(mode, hops, training):
    model = _model(mode, hops=hops)
    if training:
        model.train_mode()
    else:
        model.eval_mode()
    x, tod, dow = _inputs(model)
    weights = np.random.default_rng(1).normal(size=(3, model.cfg.t_f, model.cfg.n, 1))
    dropout_rng = copy.deepcopy(model._dropout_rng)  # both forwards draw the same mask
    new, new_grads = _forecast_and_grads(model.forward, model, x, tod, dow, weights)
    model._dropout_rng = dropout_rng
    old, old_grads = _forecast_and_grads(
        lambda *a: _d_wide_forward(model, *a), model, x, tod, dow, weights
    )
    assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))
    assert model.build_graph(tod, dow).a_hat.data.any()  # the walk mixes nodes
    for name, old_g in old_grads.items():
        new_g = new_grads[name]
        assert (new_g is None) == (old_g is None), name
        if old_g is not None:
            assert np.max(np.abs(new_g - old_g)) <= 1e-10 * np.max(np.abs(old_g)), name


@pytest.mark.parametrize("mode", list(MODES))
def test_propagation_reads_the_scalar_input(mode, monkeypatch):
    model = _model(mode)
    widths = []
    propagate = sie.propagate

    def recording_propagate(h, *args, **kwargs):
        widths.append(h.shape[-1])
        return propagate(h, *args, **kwargs)

    monkeypatch.setattr(sie, "propagate", recording_propagate)
    model.forward(*_inputs(model))
    assert widths == [1]  # one call, in node order, in every mode


@pytest.mark.parametrize("mode", ["full", "no_tg"])
def test_gradient_through_scalar_path(mode):
    model = _model(mode, hops=3, dropout=0.0)
    model.eval_mode()
    x, tod, dow = _inputs(model, b=2)
    weights = Tensor(np.random.default_rng(2).normal(size=(2, model.cfg.t_f, model.cfg.n, 1)))
    names = {"embed.weight", "embed.bias", "prop.out_proj"} | {
        f"gru.{gate}.{kind}" for gate in ("update", "reset", "cand") for kind in ("wx", "b")
    }
    params = [p for p in model.parameters() if p.name in names]
    assert {p.name for p in params} == names
    err = check_gradient(lambda: sum_(model.forward(x, tod, dow) * weights), params, h=1e-5)
    assert err < 1e-6
