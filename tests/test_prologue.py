"""The forward's prologue: the work that reads the parameters, the config and
the assignment alone, kept between forwards without a gradient.

Every forecast of a model that keeps its prologue must equal, bit for bit,
the forecast of a model built afresh with the same parameter values and
assignment, whatever was changed in between and however.
"""

import numpy as np
import pytest

from mhgnet import sie
from mhgnet.clusterer import ClusterAssignment
from mhgnet.data import make_bundle, synthesize
from mhgnet.model import ForecastModel, ModelConfig, restore, save_checkpoint
from mhgnet.numcore import no_grad
from mhgnet.train_eval import masked_mae_loss, predict

VARIANTS = [("full", False), ("no_sg", False), ("no_tg", False), ("full", True)]
IDS = ["full", "no_sg", "no_tg", "single_cluster"]


@pytest.fixture(scope="module")
def bundle():
    return make_bundle(synthesize(nodes=12, days=6, patterns=3, seed=2, steps_per_day=24), 6, 4)


def _model(bundle, mode, single, seed=1):
    cfg = ModelConfig(
        n=12, d=4, d_s=4, d_t=4, t_h=6, t_f=4, k=4, steps_per_day=24,
        graph_mode=mode, single_cluster=single, seed=seed,
    )
    model = ForecastModel(cfg)
    rng = np.random.default_rng(seed + 10)
    for p in model.parameters():  # no bias at zero
        p.tensor.data += 0.2 * rng.normal(size=p.tensor.shape)
    model.refresh_clusters(bundle.train, bundle.scaler)
    model.eval_mode()
    return model


def _fresh(model):
    """A model built afresh with ``model``'s parameter values and assignment."""
    fresh = ForecastModel(model.cfg)
    fresh.store.load_state(model.store.state())
    fresh.set_assignment(model.assignment)
    fresh.eval_mode()
    return fresh


def _forecast(model, windows, bundle):
    return predict(model, windows, bundle.scaler, batch_size=len(windows))


def _assert_fresh(model, windows, bundle):
    """The kept model's forecast equals a fresh model's, bit for bit; returns it."""
    kept = _forecast(model, windows, bundle)
    assert np.array_equal(kept, _forecast(_fresh(model), windows, bundle))
    return kept


@pytest.mark.parametrize("mode, single", VARIANTS, ids=IDS)
class TestKeptPrologue:
    def test_forecasts_equal_a_fresh_model(self, bundle, mode, single):
        model = _model(bundle, mode, single)
        for j in range(3):  # B = 1, each window after the first on the kept prologue
            _assert_fresh(model, bundle.test.slice(slice(j, j + 1)), bundle)
        windows = bundle.train.slice(slice(0, 64))
        assert len(windows) == 64
        _assert_fresh(model, windows, bundle)

    def test_in_place_write_to_any_parameter_is_seen(self, bundle, mode, single):
        model = _model(bundle, mode, single)
        for table in (model.timestamps.daily, model.timestamps.weekly):
            np.abs(table.data, out=table.data)  # e > 0: the spatial graph reaches the forecast
        windows = bundle.test.slice(slice(0, 2))
        before = _assert_fresh(model, windows, bundle)
        moved = 0
        for p in model.parameters():
            with no_grad():  # in place, as a finite-difference check writes
                np.add(p.tensor.data, 0.25, out=p.tensor.data)
            after = _assert_fresh(model, windows, bundle)
            moved += not np.array_equal(after, before)
            before = after
        assert moved == len(model.parameters())  # every write reaches the forecast

    def test_load_state_restore_and_assignment_are_seen(self, bundle, mode, single, tmp_path):
        model = _model(bundle, mode, single)
        windows = bundle.test.slice(slice(0, 2))
        _assert_fresh(model, windows, bundle)
        other = _model(bundle, mode, single, seed=5)
        model.store.load_state(other.store.state())
        _assert_fresh(model, windows, bundle)
        path = tmp_path / "m.mhgc"
        save_checkpoint(path, other.store.state(), other.assignment)
        restore(model, path)  # f32 values: other than the loaded state's
        _assert_fresh(model, windows, bundle)
        types = (np.arange(model.cfg.n) + 1) % model.cfg.p
        model.set_assignment(ClusterAssignment.from_types(types, model.cfg.p))
        _assert_fresh(model, windows, bundle)
        model.refresh_clusters(bundle.train, bundle.scaler)
        _assert_fresh(model, windows, bundle)

    def test_gradients_do_not_read_the_kept_prologue(self, bundle, mode, single):
        model = _model(bundle, mode, single)
        fresh = _fresh(model)
        _forecast(model, bundle.test.slice(slice(0, 1)), bundle)  # keeps a prologue

        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"a forward with a gradient read the kept {name}")

        key, _ = model._kept
        model._kept = (key, Unreadable())
        batch = bundle.train.slice(slice(0, 8))
        x = bundle.scaler.apply(batch.inputs[..., :1])
        grads = []
        for m in (model, fresh):
            m.train_mode()
            m.zero_grad()
            pred = m.forward(x, batch.tod_index, batch.dow_index)
            masked_mae_loss(pred, batch.targets, bundle.scaler).backward()
            grads.append({p.name: p.tensor.grad for p in m.parameters()})
        kept, built = grads
        assert all(g is not None for g in built.values())
        for name, g in built.items():
            assert np.array_equal(kept[name], g), name


def test_prologue_built_once_over_50_forecasts(bundle, monkeypatch):
    model = _model(bundle, "full", False)
    calls = []
    hop_lift = sie.hop_lift

    def counting_hop_lift(*args, **kwargs):
        calls.append(1)
        return hop_lift(*args, **kwargs)

    monkeypatch.setattr(sie, "hop_lift", counting_hop_lift)
    n = len(bundle.test)
    for j in range(50):
        _forecast(model, bundle.test.slice(slice(j % n, j % n + 1)), bundle)
    assert len(calls) == 1


def test_key_holds_21_of_the_35_parameters(bundle):
    # the key holds 21 of the 35 parameters at p = 3 in ``full``: the gates'
    # biases, the timestamp tables, the redistribution and the head are read
    # per window
    model = _model(bundle, "full", False)
    assert len(model.parameters()) == 35
    read = len(model._prologue_key()) - 3  # the types, the pool count, the settings
    assert read == 21
