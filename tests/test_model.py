import numpy as np
import pytest

from mhgnet.clusterer import ClusterAssignment
from mhgnet.data import make_bundle, synthesize
from mhgnet.errors import ConfigError, FormatError
from mhgnet.model import (
    ForecastModel,
    ModelConfig,
    apply_variant,
    load_checkpoint,
    restore,
    save_checkpoint,
)
from mhgnet.numcore import check_gradient, sum_


def _tiny_cfg(**kw):
    base = dict(
        n=6, p=2, d=3, d_s=3, d_t=3, t_h=4, t_f=2, k=3, hops=2,
        steps_per_day=8, dropout=0.0, seed=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def _inputs(cfg, b=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, cfg.t_h, cfg.n, 1))
    tod = rng.integers(0, cfg.steps_per_day, (b, cfg.t_h))
    dow = rng.integers(0, 7, (b, cfg.t_h))
    return x, tod, dow


class TestShapes:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 24])
    @pytest.mark.parametrize("d", [4, 10])
    def test_shape_contract(self, p, n, d):
        cfg = ModelConfig(n=n, p=p, d=d, t_h=12, t_f=12, steps_per_day=288, seed=1)
        model = ForecastModel(cfg)
        model.eval_mode()
        x, tod, dow = _inputs(cfg, b=4)
        out = model.forward(x, tod, dow)
        assert out.shape == (4, 12, n, 1)

    def test_explicit_spec_shape(self):
        cfg = ModelConfig(n=24, p=2, seed=1)
        model = ForecastModel(cfg)
        model.eval_mode()
        x, tod, dow = _inputs(cfg, b=4)
        assert model.forward(x, tod, dow).shape == (4, 12, 24, 1)

    def test_bad_input_shape(self):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        with pytest.raises(ConfigError):
            model.forward(np.zeros((1, cfg.t_h + 1, cfg.n, 1)), np.zeros((1, 5), int), np.zeros((1, 5), int))

    def test_needs_concrete_node_count(self):
        ModelConfig(n=0).validate()  # 0 means "infer from data" in a config
        with pytest.raises(ConfigError):
            ForecastModel(ModelConfig(n=0))

    def test_assignment_size_checked(self):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        with pytest.raises(ConfigError):
            model.set_assignment(ClusterAssignment.from_types(np.zeros(4, int), 1))


class TestForward:
    def test_zero_head_zero_forecast(self):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        model.eval_mode()
        model.head_w2.data = np.zeros_like(model.head_w2.data)
        model.head_b2.data = np.zeros_like(model.head_b2.data)
        x, tod, dow = _inputs(cfg)
        out = model.forward(x, tod, dow)
        assert np.array_equal(out.data, np.zeros(out.shape))

    def test_eval_determinism(self):
        cfg = _tiny_cfg(dropout=0.3)
        model = ForecastModel(cfg)
        model.eval_mode()
        x, tod, dow = _inputs(cfg)
        a = model.forward(x, tod, dow)
        b = model.forward(x, tod, dow)
        assert np.array_equal(a.data, b.data)

    def test_train_mode_dropout_draws(self):
        cfg = _tiny_cfg(dropout=0.5)
        model = ForecastModel(cfg)
        model.train_mode()
        x, tod, dow = _inputs(cfg)
        a = model.forward(x, tod, dow)
        b = model.forward(x, tod, dow)
        assert not np.array_equal(a.data, b.data)

    def test_end_to_end_gradient(self):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        model.eval_mode()
        x, tod, dow = _inputs(cfg)
        err = check_gradient(
            lambda: sum_(model.forward(x, tod, dow)), model.parameters(), h=1e-5
        )
        assert err < 1e-3


class TestRefresh:
    def _bundle(self, nodes=6, spd=8):
        series = synthesize(nodes=nodes, days=4, patterns=2, seed=2, steps_per_day=spd)
        return make_bundle(series, 4, 2)

    def test_refresh_partitions(self):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        bundle = self._bundle()
        asg = model.refresh_clusters(bundle.train, bundle.scaler)
        flat = sorted(i for pool in asg.pools for i in pool)
        assert flat == list(range(cfg.n))

    def test_refresh_deterministic(self):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        bundle = self._bundle()
        a = model.refresh_clusters(bundle.train, bundle.scaler)
        b = model.refresh_clusters(bundle.train, bundle.scaler)
        assert np.array_equal(a.types, b.types)

    def test_p1_single_pool(self):
        cfg = _tiny_cfg(p=1)
        model = ForecastModel(cfg)
        bundle = self._bundle()
        asg = model.refresh_clusters(bundle.train, bundle.scaler)
        assert asg.pools == [list(range(cfg.n))]
        model.eval_mode()
        x, tod, dow = _inputs(cfg)
        graphs = model._build_graphs(tod, dow)
        assert len(graphs) == 1  # whole-graph convolution

    def test_single_cluster_flag(self):
        cfg = _tiny_cfg(single_cluster=True)
        model = ForecastModel(cfg)
        bundle = self._bundle()
        asg = model.refresh_clusters(bundle.train, bundle.scaler)
        assert asg.pools == [list(range(cfg.n))]


class TestVariants:
    def test_apply_variant(self):
        cfg = _tiny_cfg()
        assert apply_variant(cfg, "no-clusterer").single_cluster
        assert apply_variant(cfg, "no-sg").graph_mode == "no_sg"
        assert apply_variant(cfg, "no-tg").graph_mode == "no_tg"
        assert apply_variant(cfg, "p2").p == 2
        assert apply_variant(cfg, "p3").p == 3
        with pytest.raises(ConfigError):
            apply_variant(cfg, "bogus")

    def test_sg_tg_ablations_differ(self):
        x, tod, dow = _inputs(_tiny_cfg())
        outs = {}
        for mode in ("no_sg", "no_tg"):
            cfg = _tiny_cfg(graph_mode=mode)
            model = ForecastModel(cfg)
            model.eval_mode()
            graphs = model._build_graphs(tod, dow)
            outs[mode] = graphs[0].a_hat.data
        assert np.max(np.abs(outs["no_sg"] - outs["no_tg"])) > 0.0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        bundle_types = np.array([0, 1, 0, 1, 1, 0])
        model.set_assignment(ClusterAssignment.from_types(bundle_types, 2))
        path = tmp_path / "m.mhgc"
        save_checkpoint(path, model.store.state(), model.assignment)

        other = ForecastModel(_tiny_cfg(seed=99))
        restore(other, path)
        for a, b in zip(model.parameters(), other.parameters()):
            assert a.name == b.name
            # storage is f32, so equality holds at f32 resolution
            assert np.array_equal(
                a.tensor.data.astype(np.float32), b.tensor.data.astype(np.float32)
            )
        assert np.array_equal(other.assignment.types, bundle_types)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mhgc"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_name_mismatch_rejected(self, tmp_path):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        path = tmp_path / "m.mhgc"
        save_checkpoint(path, model.store.state(), model.assignment)
        other = ForecastModel(_tiny_cfg(p=3))  # different parameter set
        with pytest.raises(ConfigError):
            restore(other, path)


class TestParameterCount:
    def test_count_matches_registry(self):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        total = sum(p.tensor.size for p in model.parameters())
        assert model.parameter_count() == total

    def test_seeded_rebuild_identical(self):
        a = ForecastModel(_tiny_cfg())
        b = ForecastModel(_tiny_cfg())
        for x, y in zip(a.parameters(), b.parameters()):
            assert np.array_equal(x.tensor.data, y.tensor.data)
