import dataclasses
import weakref

import numpy as np
import pytest

from mhgnet import train_eval
from mhgnet.data import make_bundle, synthesize
from mhgnet.errors import ConfigError, DivergenceError, MetricsError
from mhgnet.model import ForecastModel, ModelConfig
from mhgnet.numcore import ParameterStore, SplitRng, Tensor, sum_
from mhgnet.train_eval import (
    ADAM_EPS,
    ADAM_WEIGHT_DECAY,
    Adam,
    Schedule,
    curriculum_horizon,
    evaluate,
    learning_rate,
    masked_metrics,
    predict,
    run_ablation,
    train,
)


def _loop_metrics(pred, target):
    """Naive elementwise loop over the masked-metric definitions."""
    errs, rels = [], []
    for p, t in zip(pred.ravel(), target.ravel()):
        if abs(t) > 1e-4:
            errs.append(abs(p - t))
            rels.append(abs(p - t) / abs(t))
    mae = float(np.mean(errs))
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    mape = float(np.mean(rels) * 100.0)
    return mae, rmse, mape


class TestMaskedMetrics:
    def test_hand_example(self):
        pred = np.array([[1.0], [2.0]])[None]
        target = np.array([[2.0], [4.0]])[None]
        r = masked_metrics(pred, target)
        assert abs(r.mae - 1.5) < 1e-12
        assert abs(r.rmse - np.sqrt(2.5)) < 1e-12
        assert abs(r.mape - 50.0) < 1e-12

    def test_perfect_forecast(self):
        x = np.random.default_rng(0).normal(5.0, 1.0, (3, 4, 2, 1))
        r = masked_metrics(x, x)
        assert (r.mae, r.rmse, r.mape) == (0.0, 0.0, 0.0)

    def test_zero_sentinel_masked(self):
        pred = np.array([[9.0], [4.0]])[None]
        target = np.array([[0.0], [4.0]])[None]
        r = masked_metrics(pred, target)
        assert (r.mae, r.rmse, r.mape) == (0.0, 0.0, 0.0)
        assert r.mask_count == 1

    def test_all_masked_raises(self):
        with pytest.raises(MetricsError):
            masked_metrics(np.ones((1, 2, 1)), np.zeros((1, 2, 1)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(10, 4, (5, 6, 3, 1))
        target = rng.normal(10, 4, (5, 6, 3, 1))
        target[rng.random(target.shape) < 0.2] = 0.0
        r = masked_metrics(pred, target)
        mae, rmse, mape = _loop_metrics(pred, target)
        assert abs(r.mae - mae) < 1e-12
        assert abs(r.rmse - rmse) < 1e-12
        assert abs(r.mape - mape) < 1e-12

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(10, 3, (4, 5, 2, 1))
        target = rng.normal(10, 3, (4, 5, 2, 1))
        r = masked_metrics(pred, target)
        assert r.rmse >= r.mae >= 0.0

    def test_per_horizon_lengths(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(10, 3, (4, 7, 2, 1))
        target = rng.normal(10, 3, (4, 7, 2, 1))
        r = masked_metrics(pred, target)
        assert len(r.horizon_mae) == len(r.horizon_rmse) == len(r.horizon_mape) == 7


class TestCurriculum:
    def test_spec_values(self):
        s = Schedule(warmup_epochs=20, curriculum_length=3, max_horizon=12)
        assert curriculum_horizon(0, s) == 1
        assert curriculum_horizon(19, s) == 1
        assert curriculum_horizon(20, s) == 2
        assert curriculum_horizon(23, s) == 3
        assert curriculum_horizon(50, s) == 12

    def test_horizon_cap(self):
        s = Schedule(warmup_epochs=20, curriculum_length=3, max_horizon=1)
        for epoch in (0, 20, 200):
            assert curriculum_horizon(epoch, s) == 1

    def test_monotone_nondecreasing(self):
        s = Schedule(warmup_epochs=5, curriculum_length=2, max_horizon=8)
        values = [curriculum_horizon(e, s) for e in range(60)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert max(values) <= 8

    def test_lr_ramp(self):
        s = Schedule(warmup_epochs=10, base_lr=0.01)
        assert abs(learning_rate(0, s) - 0.001) < 1e-15
        assert abs(learning_rate(9, s) - 0.01) < 1e-15
        assert abs(learning_rate(50, s) - 0.01) < 1e-15
        assert learning_rate(0, Schedule(warmup_epochs=0, base_lr=0.01)) == 0.01


class TestAdam:
    def _param(self, seed=0):
        store = ParameterStore(SplitRng(seed))
        t = store.add("w", (3, 3), "normal(0,1)")
        return store, t

    def test_zero_grad_moves_by_the_normalized_decay(self):
        # the first step's moments are the decay term d = wd * w and d * d,
        # so without a gradient each weight moves by lr * d / (|d| + eps)
        store, t = self._param()
        before = t.data.copy()
        opt = Adam(store.parameters(), lr=0.1)
        t.grad = None
        opt.step()
        decay = ADAM_WEIGHT_DECAY * before
        expected = before - 0.1 * decay / (np.abs(decay) + ADAM_EPS)
        assert np.max(np.abs(t.data - expected)) <= 1e-12

    def test_zero_grad_with_decay_moves(self):
        store, t = self._param(1)
        before = t.data.copy()
        opt = Adam(store.parameters(), lr=0.1)
        t.grad = np.zeros_like(t.data)
        opt.step()
        delta = t.data - before
        assert np.max(np.abs(delta)) > 0.0
        # decay pulls every coordinate toward zero
        assert (np.sign(delta) == -np.sign(before)).all()

    def test_descends_quadratic(self):
        store, t = self._param(2)
        opt = Adam(store.parameters(), lr=0.05)
        for _ in range(200):
            t.grad = None
            loss = sum_(t * t)
            loss.backward()
            opt.step()
        assert float((t.data ** 2).sum()) < 1e-2

    def test_step_updates_in_place_bit_equal_to_out_of_place(self):
        store = ParameterStore(SplitRng(3))
        params = [store.add("w", (3, 4), "normal(0,1)"), store.add("b", (4,), "normal(0,1)")]
        opt = Adam(store.parameters(), lr=0.01)
        rng = np.random.default_rng(4)
        expected = [t.data.copy() for t in params]
        m = [np.zeros_like(e) for e in expected]
        v = [np.zeros_like(e) for e in expected]
        for step in range(1, 4):
            arrays = [t.data for t in params]
            for i, t in enumerate(params):
                t.grad = rng.normal(size=t.shape)
                # reference: the out-of-place update, t.data = t.data - ...
                grad = t.grad + ADAM_WEIGHT_DECAY * expected[i]
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * grad
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * grad * grad
                m_hat, v_hat = m[i] / (1.0 - 0.9 ** step), v[i] / (1.0 - 0.999 ** step)
                expected[i] = expected[i] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            opt.step()
            for t, array, e in zip(params, arrays, expected):
                assert t.data is array
                assert np.array_equal(t.data, e)


def _small_bundle(days=4, nodes=8, seed=2, spd=24):
    series = synthesize(nodes=nodes, days=days, patterns=2, seed=seed, steps_per_day=spd)
    return series, make_bundle(series, 6, 6)


def _small_cfg(nodes=8, seed=1, spd=24, **kw):
    base = dict(
        n=nodes, p=2, d=4, d_s=4, d_t=4, t_h=6, t_f=6, k=4, hops=2,
        steps_per_day=spd, dropout=0.1, seed=seed,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestTrainLoop:
    def test_zero_epochs_noop(self):
        series, bundle = _small_bundle()
        model = ForecastModel(_small_cfg())
        before = model.store.state()
        result = train(model, bundle, Schedule(max_horizon=6), epochs=0)
        assert result.log == []
        after = model.store.state()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_epoch0_deterministic(self):
        series, bundle = _small_bundle()
        losses = []
        for _ in range(2):
            model = ForecastModel(_small_cfg(seed=7))
            result = train(model, bundle, Schedule(max_horizon=6, base_lr=0.004), epochs=1, batch_size=32)
            losses.append(result.log[0].train_mae)
        assert losses[0] == losses[1]

    def test_log_fields(self, tmp_path):
        series, bundle = _small_bundle()
        model = ForecastModel(_small_cfg())
        path = tmp_path / "log.csv"
        result = train(model, bundle, Schedule(max_horizon=6), epochs=2, batch_size=64, log_path=path)
        assert len(result.log) == 2
        header = path.read_text().splitlines()[0]
        assert header == "epoch,horizon,lr,train_mae,val_mae,val_rmse,val_mape,seconds"
        assert result.best_epoch >= 0 and result.best_state is not None

    def test_log_header_is_record_fields(self, tmp_path):
        path = tmp_path / "log.csv"
        records = [train_eval.EpochRecord(e, 1 + e, 0.5, 2.0, 3.0, 4.0, 5.0, 0.25) for e in range(2)]
        train_eval.write_log(records, path)
        header, *rows = path.read_text().splitlines()
        assert header.split(",") == [f.name for f in dataclasses.fields(train_eval.EpochRecord)]
        assert rows == ["0,1,0.5,2.0,3.0,4.0,5.0,0.25", "1,2,0.5,2.0,3.0,4.0,5.0,0.25"]

    def test_log_kept_when_a_later_epoch_diverges(self, tmp_path, monkeypatch):
        series, bundle = _small_bundle()
        model = ForecastModel(_small_cfg())
        finite_loss = train_eval.masked_mae_loss
        calls = []

        def loss_nan_from_epoch_1(pred, target, scaler):  # one batch per epoch
            calls.append(None)
            loss = finite_loss(pred, target, scaler)
            return loss if len(calls) == 1 else loss * float("nan")

        monkeypatch.setattr(train_eval, "masked_mae_loss", loss_nan_from_epoch_1)
        path = tmp_path / "log.csv"
        with pytest.raises(DivergenceError):
            train(model, bundle, Schedule(max_horizon=6), epochs=3,
                  batch_size=len(bundle.train), log_path=path)
        rows = path.read_text().splitlines()
        assert len(calls) == 2 and len(rows) == 2 and rows[1].startswith("0,")

    def test_non_finite_val_mae_raises_after_logging_the_epoch(self, tmp_path, monkeypatch):
        series, bundle = _small_bundle()
        model = ForecastModel(_small_cfg())
        evaluate = train_eval.evaluate

        def nan_mae(*args):
            return dataclasses.replace(evaluate(*args), mae=float("nan"))

        monkeypatch.setattr(train_eval, "evaluate", nan_mae)
        path = tmp_path / "log.csv"
        with pytest.raises(DivergenceError, match="non-finite val MAE nan: epoch=0 batch=0"):
            train(model, bundle, Schedule(max_horizon=6), epochs=2,
                  batch_size=len(bundle.train), log_path=path)
        rows = path.read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,")

    def test_step_graphs_do_not_coexist(self, monkeypatch):
        series, bundle = _small_bundle()
        model = ForecastModel(_small_cfg())
        forward = ForecastModel.forward
        previous = []  # a weakref to an interior tensor of the last step's graph
        steps = []

        def watching_forward(self, *args, **kwargs):
            if previous:
                assert previous.pop()() is None, "the last step's graph is still alive"
            out = forward(self, *args, **kwargs)
            if out._parents:  # a train step; evaluation runs under no_grad
                previous.append(weakref.ref(out._parents[0]))
                steps.append(None)
            return out

        monkeypatch.setattr(ForecastModel, "forward", watching_forward)
        train(model, bundle, Schedule(max_horizon=6), epochs=2, batch_size=16)
        assert len(steps) >= 4

    @pytest.mark.slow
    def test_loss_nonincreasing_first_epochs(self):
        passed = 0
        for seed in range(1, 6):
            series = synthesize(nodes=24, days=10, patterns=2, seed=seed)
            bundle = make_bundle(series, 12, 12)
            model = ForecastModel(ModelConfig(n=24, p=2, seed=seed))
            result = train(model, bundle, Schedule(max_horizon=12), epochs=5, batch_size=64)
            maes = [r.train_mae for r in result.log]
            if all(b <= a + 1e-9 for a, b in zip(maes, maes[1:])):
                passed += 1
        assert passed >= 4


class TestAblation:
    def test_unknown_variant(self):
        series, bundle = _small_bundle()
        with pytest.raises(ConfigError):
            run_ablation("nope", _small_cfg(), series, Schedule(max_horizon=6), epochs=0)

    def test_no_clusterer_single_graph(self):
        series, bundle = _small_bundle()
        cfg = _small_cfg(single_cluster=True)
        model = ForecastModel(cfg)
        model.refresh_clusters(bundle.train, bundle.scaler)
        model.eval_mode()
        rng = np.random.default_rng(0)
        tod = rng.integers(0, 24, (2, 6))
        dow = rng.integers(0, 7, (2, 6))
        assert model.build_graph(tod, dow).onehot.shape == (cfg.n, 1)

    @pytest.mark.slow
    def test_variants_run_and_report(self):
        series, _ = _small_bundle(days=5)
        schedule = Schedule(warmup_epochs=2, max_horizon=6, base_lr=0.004)
        for variant in ("no-clusterer", "no-sg", "no-tg", "p2", "p3"):
            report, result = run_ablation(
                variant, _small_cfg(), series, schedule, epochs=1, batch_size=128
            )
            assert np.isfinite(report.mae)
            assert len(result.log) == 1


class TestEvaluate:
    def test_predict_on_an_empty_split(self, monkeypatch):
        series, bundle = _small_bundle()
        cfg = _small_cfg()
        model = ForecastModel(cfg)

        def no_forward(*args):
            raise AssertionError("forward called on an empty split")

        monkeypatch.setattr(model, "forward", no_forward)
        pred = predict(model, bundle.val.slice(slice(0, 0)), bundle.scaler)
        assert pred.shape == (0, cfg.t_f, cfg.n, 1)

    def test_eval_runs_and_is_finite(self):
        series, bundle = _small_bundle()
        model = ForecastModel(_small_cfg())
        model.refresh_clusters(bundle.train, bundle.scaler)
        report = evaluate(model, bundle.val, bundle.scaler, batch_size=32)
        assert np.isfinite(report.mae) and np.isfinite(report.rmse)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_is_a_config_error(self, batch_size):
        series, bundle = _small_bundle()
        model = ForecastModel(_small_cfg())
        calls = [
            lambda: predict(model, bundle.val, bundle.scaler, batch_size),
            lambda: evaluate(model, bundle.val, bundle.scaler, batch_size),
            lambda: train(model, bundle, Schedule(), 1, batch_size),
        ]
        for call in calls:
            with pytest.raises(ConfigError, match="batch_size must be >= 1"):
                call()
