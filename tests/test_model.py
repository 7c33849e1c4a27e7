import copy
import tracemalloc
import weakref

import numpy as np
import pytest

from gradcheck import check_gradient
from graph_oracle import pool_by_pool_forward
from mhgnet import dstgg, sie, std
from mhgnet.clusterer import ClusterAssignment
from mhgnet.data import make_bundle, synthesize
from mhgnet.errors import ConfigError, FormatError
from mhgnet.model import (
    CKPT_VERSION,
    ForecastModel,
    ModelConfig,
    apply_variant,
    load_checkpoint,
    restore,
    save_checkpoint,
)
from mhgnet.numcore import Tensor, no_grad, slice_axis, sum_
from mhgnet.train_eval import masked_mae_loss


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

    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_relabeling_nodes_commutes_with_forward(self, mode):
        cfg = ModelConfig(n=24, seed=1, graph_mode=mode)  # k = 10
        rng = np.random.default_rng(40)
        types = rng.permutation(np.repeat([0, 1, 2], [3, 9, 12]))  # two pools below k
        perm = rng.permutation(cfg.n)  # relabeled node j is original node perm[j]
        x, tod, dow = _inputs(cfg, b=4, seed=41)
        outs = []
        for order in (np.arange(cfg.n), perm):
            model = ForecastModel(cfg)
            model.eval_mode()
            node_indexed = [model.node_embedding]
            if model.graph_params is not None:  # no_sg builds no spatial graph
                node_indexed += [model.graph_params.e1, model.graph_params.e2]
            for param in node_indexed:
                param.data = param.data[order]
            model.set_assignment(ClusterAssignment.from_types(types[order], cfg.p))
            a_hat = model.build_graph(tod, dow).a_hat.data
            # each pool has a nonzero row
            assert all(a_hat[pool].any() for pool in model.assignment.pools)
            outs.append(model.forward(x[:, :, order], tod, dow).data)
        base, relabeled = outs
        assert np.max(np.abs(relabeled - base[:, :, perm])) <= 1e-12 * np.max(np.abs(base))


class TestPoolByPoolForm:
    """The forward against the one that built its graphs pool by pool."""

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("layout", ["three_pools", "one_pool"])
    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_matches_pool_by_pool_forward(self, mode, layout, training):
        cfg = ModelConfig(n=24, seed=1, graph_mode=mode)  # k = 10
        model = ForecastModel(cfg)
        rng = np.random.default_rng(50)
        for p in model.parameters():
            p.tensor.data = p.tensor.data + rng.normal(0.0, 0.3, p.tensor.shape)
        types = rng.permutation(np.repeat([0, 1, 2], [3, 9, 12]))  # two pools below k
        if layout == "one_pool":
            types[:] = 0
        model.set_assignment(ClusterAssignment.from_types(types, cfg.p))
        model.training = training
        while True:  # a window whose temporal graph is not empty
            x, tod, dow = _inputs(cfg, b=8, seed=int(rng.integers(1 << 30)))
            if dstgg.temporal_graph(model.timestamps, tod, dow, cfg.beta).item() > 0.0:
                break
        weights = rng.normal(size=(8, cfg.t_f, cfg.n, 1))
        dropout_rng = copy.deepcopy(model._dropout_rng)  # both forwards draw the same mask
        runs = []
        for forward in (model.forward, lambda *a: pool_by_pool_forward(model, *a)):
            model._dropout_rng = copy.deepcopy(dropout_rng)
            model.zero_grad()
            out = forward(x, tod, dow)
            sum_(out * Tensor(weights)).backward()
            runs.append((out.data, {p.name: p.tensor.grad.copy() for p in model.parameters()}))
        (new, new_grads), (old, old_grads) = runs
        # full takes the pool sums in another order, and no_tg walks each pool
        # within all N nodes, adding the zeros between pools
        summed = mode == "full" or (mode == "no_tg" and layout == "three_pools")
        if summed:
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))
        else:
            assert np.array_equal(new, old)
        for name, old_g in old_grads.items():
            diff = np.max(np.abs(new_grads[name] - old_g))
            if mode == "full":
                assert diff <= 1e-10 * np.max(np.abs(old_g)), name
            elif summed:
                assert diff <= 1e-12 * np.max(np.abs(old_g)), name
            elif mode == "no_sg" and name.startswith("time."):
                # the temporal scalar's gradient sums all nodes at once, not pool by pool
                assert diff <= 1e-14 * np.max(np.abs(old_g)), name
            else:
                assert diff == 0.0, name


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
        graph = model.build_graph(tod, dow)
        assert graph.onehot.shape == (cfg.n, 1)  # whole-graph convolution

    def test_single_cluster_flag(self):
        cfg = _tiny_cfg(single_cluster=True)
        model = ForecastModel(cfg)
        bundle = self._bundle()
        asg = model.refresh_clusters(bundle.train, bundle.scaler)
        assert asg.pools == [list(range(cfg.n))]

    def test_ratios_are_pattern_shares(self):
        # the patterns sum to the input, so each node's shares sum to 1
        model = ForecastModel(_tiny_cfg(p=3))
        bundle = self._bundle()
        fs = model.feature_space(bundle.train, bundle.scaler)
        assert fs.ratios.shape == (6, 3)
        assert np.max(np.abs(fs.ratios.sum(axis=1) - 1.0)) < 1e-12


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
            outs[mode] = model.build_graph(tod, dow).a_hat.data
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

    def test_restore_builds_p_pools(self, tmp_path):
        model = ForecastModel(_tiny_cfg())
        path = tmp_path / "m.mhgc"
        save_checkpoint(path, model.store.state(), ClusterAssignment.from_types(np.zeros(6), 1))
        restore(model, path)
        assert model.assignment.pools == [list(range(6)), []]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mhgc"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_rank_40_entry_with_a_zero_dim_gives_format_error(self, tmp_path):
        # 0 values, but the other 39 dims describe an array numpy cannot shape
        name = b"w"
        dims = [0] + [0xFFFFFFFF] * 39
        blob = b"MHGC" + np.array([CKPT_VERSION, 1], "<u4").tobytes()
        blob += len(name).to_bytes(2, "little") + name + bytes([len(dims)])
        blob += np.array(dims, "<u4").tobytes()
        values_at = len(blob)
        path = tmp_path / "rank40.mhgc"
        path.write_bytes(blob + np.array([0], "<u4").tobytes())
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == values_at

    def test_name_mismatch_rejected(self, tmp_path):
        cfg = _tiny_cfg()
        model = ForecastModel(cfg)
        path = tmp_path / "m.mhgc"
        save_checkpoint(path, model.store.state(), model.assignment)
        other = ForecastModel(_tiny_cfg(p=3))  # different parameter set
        with pytest.raises(ConfigError):
            restore(other, path)


class TestParameterCount:
    def test_seeded_rebuild_identical(self):
        a = ForecastModel(_tiny_cfg())
        b = ForecastModel(_tiny_cfg())
        for x, y in zip(a.parameters(), b.parameters()):
            assert np.array_equal(x.tensor.data, y.tensor.data)

    @pytest.mark.parametrize("single_cluster", [False, True])
    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_every_parameter_gets_a_gradient(self, mode, single_cluster):
        cfg = _tiny_cfg(graph_mode=mode, single_cluster=single_cluster)
        model = ForecastModel(cfg)
        bundle = make_bundle(synthesize(nodes=6, days=4, patterns=2, seed=2, steps_per_day=8), 4, 2)
        model.refresh_clusters(bundle.train, bundle.scaler)
        batch = bundle.train.slice(slice(0, 8))
        x = bundle.scaler.apply(batch.inputs[..., :1])
        pred = model.forward(x, batch.tod_index, batch.dow_index)
        masked_mae_loss(pred, batch.targets, bundle.scaler).backward()
        assert [p.name for p in model.parameters() if p.tensor.grad is None] == []


def _keeping_backward(root):
    """The walk that keeps the graph: every node keeps its grad, closure and links."""
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    root.grad = np.ones_like(root.data)
    root._grad_owned = True
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestGraphLifetime:
    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_consuming_walk_matches_keeping_walk(self, mode):
        # one train step at the test shapes (B=64, N=24, T=12) on two
        # identically built graphs; every leaf gradient must match bit for bit
        bundle = make_bundle(synthesize(nodes=24, days=3, patterns=3, seed=4), 12, 12)
        idx = np.arange(64)
        x = bundle.scaler.apply(bundle.train.inputs[idx][..., :1])
        target = bundle.train.targets[idx][:, :6]
        models, losses = [], []
        for _ in range(2):
            model = ForecastModel(ModelConfig(n=24, graph_mode=mode, seed=1))
            model.refresh_clusters(bundle.train, bundle.scaler)
            model.train_mode()
            pred = model.forward(x, bundle.train.tod_index[idx], bundle.train.dow_index[idx])
            losses.append(masked_mae_loss(slice_axis(pred, 1, 0, 6), target, bundle.scaler))
            models.append(model)
        assert sum(1 for pool in models[0].assignment.pools if pool) > 1
        losses[0].backward()
        _keeping_backward(losses[1])
        assert losses[0]._parents == () and losses[1]._parents != ()
        for consumed, kept in zip(models[0].parameters(), models[1].parameters()):
            assert (consumed.tensor.grad is None) == (kept.tensor.grad is None), consumed.name
            if kept.tensor.grad is not None:
                assert np.array_equal(consumed.tensor.grad, kept.tensor.grad), consumed.name

    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_no_grad_forward_frees_patterns_before_propagation(self, mode, monkeypatch):
        # decouple builds no patterns any more; what it does build for the
        # gates (each gate's per-step and per-node logits, and their arrays)
        # must be gone by the time propagation runs
        cfg = _tiny_cfg(p=3, graph_mode=mode)
        model = ForecastModel(cfg)
        model.eval_mode()
        decoupled = []  # weakrefs to the gate logit tensors and their data
        alive = []  # how many of them each propagate call saw alive
        gated, propagate = std.gated_time_means, sie.propagate

        def recording_gated(x_hat, per_step, per_node):
            for t in (*per_step, *per_node):
                decoupled.extend((weakref.ref(t), weakref.ref(t.data)))
            return gated(x_hat, per_step, per_node)

        def counting_propagate(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in decoupled))
            return propagate(*args, **kwargs)

        monkeypatch.setattr(std, "gated_time_means", recording_gated)
        monkeypatch.setattr(sie, "propagate", counting_propagate)
        with no_grad():
            model.forward(*_inputs(cfg))
        assert len(decoupled) == 8 and alive and set(alive) == {0}

    def test_no_grad_decouple_peak_below_one_pattern(self, monkeypatch):
        # B·N·D = 64·128·8 fills one streamed block per step, so what decouple
        # allocates stays below the bytes of a single [B, T, N, D] pattern
        cfg = ModelConfig(n=128, d=8, d_s=4, d_t=4, seed=1)
        model = ForecastModel(cfg)
        model.eval_mode()
        b = 64
        peaks = []
        decouple = std.decouple

        def measured_decouple(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = decouple(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(std, "decouple", measured_decouple)
        inputs = _inputs(cfg, b=b)
        tracemalloc.start()
        try:
            with no_grad():
                model.forward(*inputs)
        finally:
            tracemalloc.stop()
        pattern_bytes = 8 * b * cfg.t_h * cfg.n * cfg.d
        assert len(peaks) == 1 and 0 < peaks[0] < pattern_bytes
