"""Per-layer spans recorded by wrapping the entry points of each mhgnet module.

The package's modules call one another through module attributes
(``std.decouple``, ``dstgg.spatial_graph``), module globals
(``train_eval.evaluate``, ``sie.gru_scan``) or class attributes
(``ForecastModel.forward``, ``Tensor.backward``). Replacing those attributes
with timing wrappers therefore records every call without touching the
package's source; :meth:`Tracer.uninstall` puts the originals back.

Each span carries a *context*: the benchmark phase it ran in (``setup``,
``train``, ``serve``, ``batch``), narrowed to ``refresh`` or ``evaluate``
inside a cluster refresh or a validation pass. Spans in context ``train``
therefore belong to train steps.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from mhgnet import clusterer, data, dstgg, model, sie, std, train_eval
from mhgnet.numcore import Tensor

# Spans that open a context of their own for everything they call.
CONTEXT_SPANS = {"model.refresh_clusters": "refresh", "train_eval.evaluate": "evaluate"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 at the top
    context: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        # counter name -> list of (context, value)
        self.counters: dict[str, list[tuple[str, float]]] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_types: np.ndarray | None = None

    # ------------------------------------------------------------------
    # wrapping

    def current_context(self) -> str:
        return self.spans[self._stack[-1]].context if self._stack else self.phase

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span ``name``.

        ``before(args)`` runs ahead of the span and may return a value that
        ``after(args, result, token, context)`` receives; neither is timed.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            parent = tracer._stack[-1] if tracer._stack else -1
            context = CONTEXT_SPANS.get(name, tracer.current_context())
            span = Span(name, 0.0, 0.0, parent, context)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result, token, context)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        w = self.wrap
        w(data, "synthesize", "data.synthesize")
        w(data, "make_bundle", "data.make_bundle")
        w(std, "embed_input", "std.embed_input")
        w(std, "decouple", "std.decouple")
        w(std, "gate_features", "std.gate_features", after=self._gate_bytes)
        w(clusterer, "build_feature_space", "clusterer.build_feature_space")
        w(clusterer, "assign", "clusterer.assign")
        w(dstgg, "spatial_graph", "dstgg.spatial_graph")
        w(dstgg, "temporal_graph", "dstgg.temporal_graph", after=self._temporal_scalar)
        w(dstgg, "fuse_and_sparsify", "dstgg.fuse_and_sparsify", after=self._density)
        w(sie, "propagate", "sie.propagate")
        w(sie, "reassemble", "sie.reassemble")
        w(sie, "gru_scan", "sie.gru_scan")
        w(sie, "encode_sequence", "sie.encode_sequence")
        w(model.ForecastModel, "forward", "model.forward")
        w(
            model.ForecastModel,
            "refresh_clusters",
            "model.refresh_clusters",
            after=self._refresh,
        )
        w(model, "save_checkpoint", "model.save_checkpoint")
        w(model, "restore", "model.restore")
        w(Tensor, "backward", "numcore.backward")
        w(train_eval, "train", "train_eval.train")
        w(train_eval, "evaluate", "train_eval.evaluate")
        w(train_eval, "masked_mae_loss", "train_eval.masked_mae_loss")
        w(train_eval.Adam, "step", "train_eval.adam_step", before=_grad_norm, after=self._grad)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # counters read from arguments and results (never modified)

    def _gate_bytes(self, args, result, token, context) -> None:
        tod, _, node_embedding, ts = args[:4]
        b, t = np.shape(tod)
        n, d_s = node_embedding.shape
        d_t = ts.daily.shape[1]
        feature_bytes = 8.0 * b * t * n * (2 * d_t + d_s)  # float64 [B, T, N, 2*D_t + D_s]
        self.counters["std.gate_feature_bytes"].append((context, feature_bytes))

    def _temporal_scalar(self, args, result, token, context) -> None:
        self.counters["dstgg.temporal_scalar"].append((context, float(result.data.flat[0])))

    def _density(self, args, result, token, context) -> None:
        a = result.a_hat.data
        n_p = a.shape[0]
        k = args[3]
        for name, value in (
            ("dstgg.nnz", np.count_nonzero(a)),
            ("dstgg.nnz_cap", n_p * min(k, n_p)),
            ("dstgg.rows", n_p),
            ("dstgg.empty_rows", np.count_nonzero(~a.any(axis=1))),
        ):
            self.counters[name].append((context, float(value)))

    def _refresh(self, args, result, token, context) -> None:
        types = np.asarray(result.types).copy()
        if self._last_types is not None and self._last_types.size == types.size:
            churn = float(np.count_nonzero(types != self._last_types))
            self.counters["clusterer.churn"].append((context, churn))
        self._last_types = types
        sizes = [len(pool) for pool in result.pools]
        for name, value in (
            ("clusterer.pool_max", max(sizes)),
            ("clusterer.pool_min", min(sizes)),
            ("clusterer.comparisons", result.comparisons),
        ):
            self.counters[name].append((context, float(value)))

    def _grad(self, args, result, token, context) -> None:
        self.counters["train_eval.grad_norm"].append((context, token))

    # ------------------------------------------------------------------
    # aggregation

    def total(self, name: str, context: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name and s.context == context)

    def calls(self, name: str, context: str | None = None) -> int:
        return sum(
            1 for s in self.spans if s.name == name and (context is None or s.context == context)
        )

    def self_total(self, name: str, context: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        own = {
            i for i, s in enumerate(self.spans) if s.name == name and s.context == context
        }
        child = sum(s.seconds for s in self.spans if s.parent in own)
        return self.total(name, context) - child

    def values(self, name: str, context: str | None = None) -> list[float]:
        return [v for c, v in self.counters.get(name, []) if context is None or c == context]


def _grad_norm(args) -> float:
    optimizer = args[0]
    total = 0.0
    for p in optimizer.params:
        g = p.tensor.grad
        if g is not None:
            total += float(np.sum(g * g))
    return float(np.sqrt(total))


# name, unit, better: the per-layer metrics every traced run reports
PER_LAYER = [
    ("data.synthesize_ms", "ms", "lower"),
    ("data.make_bundle_ms", "ms", "lower"),
    ("std.embed_ms", "ms", "lower"),
    ("std.decouple_ms", "ms", "lower"),
    ("std.gate_feature_mb", "MB", "lower"),
    ("clusterer.refresh_ms", "ms", "lower"),
    ("clusterer.feature_space_ms", "ms", "lower"),
    ("clusterer.assign_ms", "ms", "lower"),
    ("clusterer.comparisons", "count", "lower"),
    ("clusterer.churn", "count", "lower"),
    ("clusterer.pool_max", "count", "lower"),
    ("clusterer.pool_min", "count", "higher"),
    ("dstgg.spatial_ms", "ms", "lower"),
    ("dstgg.temporal_ms", "ms", "lower"),
    ("dstgg.fuse_ms", "ms", "lower"),
    ("dstgg.calls_per_forward", "count", "lower"),
    ("dstgg.nnz_frac", "ratio", "higher"),
    ("dstgg.empty_row_frac", "ratio", "lower"),
    ("dstgg.temporal_scalar", "native", "higher"),
    ("sie.propagate_ms", "ms", "lower"),
    ("sie.reassemble_ms", "ms", "lower"),
    ("sie.gru_scan_ms", "ms", "lower"),
    ("sie.encode_self_ms", "ms", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("model.head_self_ms", "ms", "lower"),
    ("model.checkpoint_load_ms", "ms", "lower"),
    ("model.checkpoint_bytes", "bytes", "lower"),
    ("model.batch_gap_max", "native", "lower"),
    ("numcore.backward_ms", "ms", "lower"),
    ("train_eval.loss_ms", "ms", "lower"),
    ("train_eval.adam_ms", "ms", "lower"),
    ("train_eval.evaluate_ms", "ms", "lower"),
    ("train_eval.steps", "count", "higher"),
    ("train_eval.grad_norm", "native", "lower"),
    ("trace.step_coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, main: str, main_calls: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters of one traced run.

    Stage timings are ms per operation of the workload's ``main`` context:
    per train step when ``main`` is ``"train"``, per one-window forecast when
    it is ``"serve"``. Backward, loss and Adam are per train step; refresh,
    evaluate, set-up and checkpoint timings are per call.
    """
    t = tracer

    def per_main(total: float) -> float:
        return 1000.0 * total / main_calls

    def per_call(name: str, context: str) -> float:
        calls = t.calls(name, context)
        return 1000.0 * t.total(name, context) / calls if calls else 0.0

    steps = t.calls("numcore.backward", "train")
    refreshes = t.calls("model.refresh_clusters", "refresh")

    def per_step(name: str) -> float:
        return 1000.0 * t.total(name, "train") / steps if steps else 0.0

    def per_refresh(name: str) -> float:
        return 1000.0 * t.total(name, "refresh") / refreshes if refreshes else 0.0

    def last(name: str) -> float:
        values = t.values(name)
        return values[-1] if values else 0.0

    restores = t.calls("model.restore")
    restore_ms = 1000.0 * sum(s.seconds for s in t.spans if s.name == "model.restore")
    step_wall = (
        t.total("train_eval.train", "train")
        - t.total("model.refresh_clusters", "refresh")
        - t.total("train_eval.evaluate", "evaluate")
    )
    step_covered = sum(
        t.total(name, "train")
        for name in ("model.forward", "train_eval.masked_mae_loss", "numcore.backward")
    ) + t.total("train_eval.adam_step", "train")
    forwards = t.calls("model.forward", main)
    nnz_cap = sum(t.values("dstgg.nnz_cap", main))
    rows = sum(t.values("dstgg.rows", main))
    grad_norms = t.values("train_eval.grad_norm", "train")
    values = {
        "data.synthesize_ms": per_call("data.synthesize", "setup"),
        "data.make_bundle_ms": per_call("data.make_bundle", "setup"),
        "std.embed_ms": per_main(t.total("std.embed_input", main)),
        "std.decouple_ms": per_main(t.total("std.decouple", main)),
        "std.gate_feature_mb": _mean(t.values("std.gate_feature_bytes", main)) / 1e6,
        "clusterer.refresh_ms": per_call("model.refresh_clusters", "refresh"),
        "clusterer.feature_space_ms": per_refresh("clusterer.build_feature_space"),
        "clusterer.assign_ms": per_refresh("clusterer.assign"),
        "clusterer.comparisons": last("clusterer.comparisons"),
        "clusterer.churn": last("clusterer.churn"),
        "clusterer.pool_max": last("clusterer.pool_max"),
        "clusterer.pool_min": last("clusterer.pool_min"),
        "dstgg.spatial_ms": per_main(t.total("dstgg.spatial_graph", main)),
        "dstgg.temporal_ms": per_main(t.total("dstgg.temporal_graph", main)),
        "dstgg.fuse_ms": per_main(t.total("dstgg.fuse_and_sparsify", main)),
        "dstgg.calls_per_forward": t.calls("dstgg.fuse_and_sparsify", main) / max(forwards, 1),
        "dstgg.nnz_frac": sum(t.values("dstgg.nnz", main)) / nnz_cap if nnz_cap else 0.0,
        "dstgg.empty_row_frac": sum(t.values("dstgg.empty_rows", main)) / rows if rows else 0.0,
        "dstgg.temporal_scalar": _mean(t.values("dstgg.temporal_scalar", main)),
        "sie.propagate_ms": per_main(t.total("sie.propagate", main)),
        "sie.reassemble_ms": per_main(t.total("sie.reassemble", main)),
        "sie.gru_scan_ms": per_main(t.total("sie.gru_scan", main)),
        "sie.encode_self_ms": per_main(t.self_total("sie.encode_sequence", main)),
        "model.forward_ms": per_main(t.total("model.forward", main)),
        "model.head_self_ms": per_main(t.self_total("model.forward", main)),
        "model.checkpoint_load_ms": restore_ms / restores if restores else 0.0,
        "numcore.backward_ms": per_step("numcore.backward"),
        "train_eval.loss_ms": per_step("train_eval.masked_mae_loss"),
        "train_eval.adam_ms": per_step("train_eval.adam_step"),
        "train_eval.evaluate_ms": per_call("train_eval.evaluate", "evaluate"),
        "train_eval.steps": float(steps),
        "train_eval.grad_norm": float(np.median(grad_norms)) if grad_norms else 0.0,
        "trace.step_coverage": step_covered / step_wall if step_wall > 0 else 0.0,
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (value, units[name]) for name, value in values.items()}
