"""End-to-end forecast model: decoupling, clustering, graph convolution
within clusters, recurrent encoding, skip connections, and the regression head.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import clusterer, dstgg, sie, std
from .clusterer import ClusterAssignment
from .data import BinaryReader, Scaler, WindowedDataset
from .errors import ConfigError, FormatError, ShapeError
from .numcore import (
    ParameterStore,
    SplitRng,
    Tensor,
    grad_enabled,
    matmul,
    mean,
    no_grad,
    regression_head,
    reshape,
)

GRAPH_MODES = ("full", "no_sg", "no_tg")
PROBE_WINDOWS = 32  # training windows consulted when refreshing clusters


def probe_windows(train_split: WindowedDataset) -> WindowedDataset:
    """The fixed probe: the first PROBE_WINDOWS training windows (or all)."""
    return train_split.slice(slice(0, PROBE_WINDOWS))


@dataclass
class ModelConfig:
    n: int = 0  # node count; filled from data when 0
    p: int = 3  # number of traffic patterns
    d: int = 10  # hidden feature width
    d_s: int = 10  # node embedding width
    d_t: int = 10  # timestamp embedding width
    t_h: int = 12  # input window length
    t_f: int = 12  # forecast horizon
    k: int = 10  # per-row top-k of fused graphs
    hops: int = 2  # propagation depth
    gamma: float = 0.05  # feature retention during propagation
    alpha: float = 3.0  # spatial graph saturation scale
    beta: float = 0.5  # temporal/fusion scale
    dropout: float = 0.15
    seed: int = 1
    steps_per_day: int = 288
    graph_mode: str = "full"  # full | no_sg | no_tg
    single_cluster: bool = False  # collapse all pools into one

    def validate(self) -> None:
        if self.n < 0:
            raise ConfigError(f"n must be >= 0 (0 = infer from data), got {self.n}")
        for name in ("p", "d", "d_s", "d_t", "t_h", "t_f", "hops", "steps_per_day"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"graph_mode must be one of {GRAPH_MODES}")


@dataclass
class Prologue:
    """What a forward derives from the parameters, the config and the assignment alone.

    The rest of a forward reads the window. With a temporal graph the fused
    graph needs the window's scalar e, so only its row sums and pool sizes
    are here; without one (``no_tg``) the whole graph and its walk are.
    """

    lift: Tensor  # [2, D]: x_hat's lift [w; b]
    gru: sie.FoldedGru  # the GRU's stacked weights, the hop lift folded in
    gates: list[std.GateTerms]
    onehot: np.ndarray  # [N, P]: the pool one-hot of the assignment
    sizes: np.ndarray  # [N]: each node's pool size
    row_sums: Tensor | None  # [N, 1]: the spatial graph's per-pool row sums (``full``)
    graph: dstgg.DenseGraph | None  # ``no_tg``: the top-k graph of every pool
    walk_t: Tensor | None  # ``no_tg``: its walk, :func:`sie.dense_walk`


class ForecastModel:
    """Holds all parameters, the current cluster assignment, and a mode flag.

    A forward without a gradient keeps its :class:`Prologue` and reuses it
    while every parameter it reads, the node types and the config values
    it uses are equal, byte for byte, to those it was built from; so a
    change made in place is seen too. With a gradient the prologue is built
    as graph nodes on every call and the kept one is not read.
    """

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        if cfg.n < 1:
            raise ConfigError("model construction needs a concrete node count")
        self.cfg = cfg
        root = SplitRng(cfg.seed)
        self.store = ParameterStore(root.child("params"))
        self._dropout_rng = root.child("dropout")
        self._register()
        self.assignment: ClusterAssignment = clusterer.single_pool(cfg.n)
        self.training = True
        self._kept: tuple[list, Prologue] | None = None  # (what it was built from, prologue)

    # ------------------------------------------------------------------
    # construction

    def _register(self) -> None:
        cfg = self.cfg
        add = self.store.add
        width = cfg.d

        self.embed_w = add("embed.weight", (1, cfg.d))
        self.embed_b = add("embed.bias", (cfg.d,), "zeros")

        gate_in = 2 * cfg.d_t + cfg.d_s
        self.gates = [
            std.GateParams(
                w1=add(f"std.gate{i}.w1", (gate_in, cfg.d)),
                b1=add(f"std.gate{i}.b1", (cfg.d,), "zeros"),
                w2=add(f"std.gate{i}.w2", (cfg.d, cfg.d)),
                b2=add(f"std.gate{i}.b2", (cfg.d,), "zeros"),
            )
            for i in range(cfg.p - 1)
        ]
        self.node_embedding = add("std.node_embedding", (cfg.n, cfg.d_s), "normal(0,1)")
        self.timestamps = std.TimestampEmbeddings(
            daily=add("time.daily", (cfg.steps_per_day, cfg.d_t), "normal(0,1)"),
            weekly=add("time.weekly", (7, cfg.d_t), "normal(0,1)"),
        )

        self.graph_params = None
        if cfg.graph_mode != "no_sg":
            self.graph_params = dstgg.ClusterGraphParams(
                e1=add("graph.e1", (cfg.n, cfg.d_s), "normal(0,1)"),
                e2=add("graph.e2", (cfg.n, cfg.d_s), "normal(0,1)"),
                w1=add("graph.w1", (cfg.d_s, cfg.d_s)),
                w2=add("graph.w2", (cfg.d_s, cfg.d_s)),
            )

        self.prop_cfg = sie.PropagationConfig(
            gamma=cfg.gamma,
            hops=cfg.hops,
            out_proj=add("prop.out_proj", (cfg.hops * cfg.d, cfg.d)),
        )

        self.encoder = sie.RecurrentEncoder(
            gru=sie.GruParams(
                update_x=add("gru.update.wx", (cfg.d, width)),
                update_h=add("gru.update.wh", (width, width)),
                update_b=add("gru.update.b", (width,), "zeros"),
                reset_x=add("gru.reset.wx", (cfg.d, width)),
                reset_h=add("gru.reset.wh", (width, width)),
                reset_b=add("gru.reset.b", (width,), "zeros"),
                cand_x=add("gru.cand.wx", (cfg.d, width)),
                cand_h=add("gru.cand.wh", (width, width)),
                cand_b=add("gru.cand.b", (width,), "zeros"),
            ),
            redist_w1=add("redist.w1", (cfg.t_h * width, width)),
            redist_w2=add("redist.w2", (width, width)),
            gain=add("redist.gain", (width,), "ones"),
            dropout=cfg.dropout,
        )

        skip_width = width + cfg.d + cfg.p * cfg.d + 2 * cfg.d_t
        head_hidden = 4 * cfg.d
        self.head_w1 = add("head.w1", (skip_width, head_hidden))
        self.head_b1 = add("head.b1", (head_hidden,), "zeros")
        self.head_w2 = add("head.w2", (head_hidden, cfg.t_f))
        self.head_b2 = add("head.b2", (cfg.t_f,), "zeros")
        self.head_gain = add("head.gain", (cfg.t_f,), "ones")

    # ------------------------------------------------------------------
    # bookkeeping

    def parameters(self):
        return self.store.parameters()

    def zero_grad(self) -> None:
        self.store.zero_grad()

    def train_mode(self) -> None:
        self.training = True

    def eval_mode(self) -> None:
        self.training = False

    def set_assignment(self, assignment: ClusterAssignment) -> None:
        if assignment.types.size != self.cfg.n:
            raise ConfigError(
                f"assignment covers {assignment.types.size} nodes, model has {self.cfg.n}"
            )
        self.assignment = assignment

    # ------------------------------------------------------------------
    # forward pieces

    def _prologue_key(self) -> list:
        """The bytes of every parameter the prologue reads, the node types and
        pool count, and the config values it uses."""
        gru = self.encoder.gru
        tensors = [self.embed_w, self.embed_b, self.prop_cfg.out_proj, self.node_embedding]
        tensors += vars(gru).values()
        for gp in self.gates:
            tensors += (gp.w1, gp.w2)
        if self.graph_params is not None:
            tensors += vars(self.graph_params).values()
        cfg, prop, asg = self.cfg, self.prop_cfg, self.assignment
        settings = (cfg.graph_mode, cfg.alpha, cfg.beta, cfg.k, prop.gamma, prop.hops)
        return [t.data.tobytes() for t in tensors] + [asg.types.tobytes(), len(asg.pools), settings]

    def prologue(self) -> Prologue:
        """The forward's parameter-only part: the kept one without a gradient
        while nothing it was built from has changed, else built now."""
        if grad_enabled():
            return self._build_prologue()
        key = self._prologue_key()
        kept = self._kept  # read once: another thread's forward may replace it
        if kept is None or kept[0] != key:
            self._kept = kept = None  # the stale prologue goes before the new one is built
            self._kept = kept = (key, self._build_prologue())
        return kept[1]

    def _build_prologue(self) -> Prologue:
        cfg = self.cfg
        onehot = np.eye(len(self.assignment.pools))[self.assignment.types]  # [N, P]
        sizes = dstgg.pool_sizes(onehot)
        spatial = None
        if cfg.graph_mode != "no_sg":
            spatial = dstgg.spatial_graph(self.graph_params, cfg.alpha)
        row_sums = graph = walk_t = None
        if cfg.graph_mode == "no_tg":
            graph = dstgg.fuse_and_sparsify(spatial, None, cfg.beta, cfg.k, onehot)
            walk_t = sie.dense_walk(graph, self.prop_cfg.gamma)
        elif spatial is not None:
            row_sums = spatial.row_sums(onehot)
        # propagation reads the scalar x; hop_lift carries its hop states to
        # the D-wide features that propagating x_hat would give
        hops = sie.hop_lift(self.embed_w, self.embed_b, self.prop_cfg)
        return Prologue(
            lift=std.input_lift(self.embed_w, self.embed_b),
            gru=sie.fold_gru(hops, self.encoder.gru),
            gates=std.gate_terms(self.node_embedding, self.gates, cfg.d_t),
            onehot=onehot,
            sizes=sizes,
            row_sums=row_sums,
            graph=graph,
            walk_t=walk_t,
        )

    def build_graph(
        self, tod: np.ndarray, dow: np.ndarray, prologue: Prologue | None = None
    ) -> dstgg.ConstantRowGraph | dstgg.DenseGraph:
        """The fused graph of every pool, in node order: constant rows (``full``,
        ``no_sg``) or each row's top k within its pool (``no_tg``)."""
        cfg = self.cfg
        pro = self.prologue() if prologue is None else prologue
        if pro.graph is not None:
            return pro.graph
        e = dstgg.temporal_graph(self.timestamps, tod, dow, cfg.beta)
        return dstgg.fuse_and_sparsify(pro.row_sums, e, cfg.beta, cfg.k, pro.onehot, pro.sizes)

    def forward(self, x, tod: np.ndarray, dow: np.ndarray) -> Tensor:
        """Map scaled inputs [B, T_h, N, 1] to scaled forecasts [B, T_f, N, 1]."""
        cfg = self.cfg
        if self.assignment.types.size != cfg.n:
            raise ConfigError("cluster assignment does not match the node count")
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        b, t, n, _ = x.shape
        if t != cfg.t_h or n != cfg.n:
            raise ConfigError(
                f"input shape {x.shape} incompatible with T_h={cfg.t_h}, N={cfg.n}"
            )
        if b == 0:
            raise ShapeError(f"input shape {x.shape} holds no window to forecast")

        pro = self.prologue()
        # no name keeps the hop states, so without a gradient they go once
        # channel_major has laid them out for the GRU, and its inputs once
        # the encoder has read them
        x_out = sie.encode_sequence(
            sie.channel_major(
                sie.propagate(x, self.build_graph(tod, dow, pro), self.prop_cfg, pro.walk_t)
            ),
            pro.gru, self.encoder, training=self.training, rng=self._dropout_rng,
        )
        # x_hat = channels @ lift is never built; the kernels form it block by
        # block. The channels are built after the encoder and, without a
        # gradient, go once the pattern means and the mean term have read
        # them, so they are live in neither the GRU scan nor the head. The
        # gates get their gradient through these per-pattern time means in
        # the skip, [B, N, P·D]; the patterns themselves are never built
        channels = std.embed_input(x)
        pattern_means = std.decouple(
            channels, pro.lift, tod, dow, self.timestamps, self.gates, pro.gates
        )
        mean_term = matmul(mean(channels, axis=1), pro.lift)
        del channels

        # the skip: these node parts and the last step's timestamp rows, broadcast over nodes
        node_parts = [x_out, mean_term, pattern_means]
        window_parts = self.timestamps.rows(tod[:, -1], dow[:, -1])  # [B, D_t] each
        out = regression_head(
            node_parts, window_parts,
            self.head_w1, self.head_b1, self.head_w2, self.head_b2, self.head_gain,
        )  # [B, T_f, N]
        return reshape(out, (b, cfg.t_f, n, 1))

    # ------------------------------------------------------------------
    # clustering refresh

    def refresh_clusters(
        self, train_split: WindowedDataset, scaler: Scaler, fs: clusterer.FeatureSpace | None = None
    ) -> ClusterAssignment:
        """Recompute the node assignment from a fixed probe of training windows;
        ``fs`` is that probe's :meth:`feature_space` if the caller built it."""
        if self.cfg.single_cluster:
            assignment = clusterer.single_pool(self.cfg.n)
        else:
            fs = self.feature_space(train_split, scaler) if fs is None else fs
            assignment = clusterer.assign(fs)
        self.set_assignment(assignment)
        return assignment

    def feature_space(
        self, train_split: WindowedDataset, scaler: Scaler
    ) -> clusterer.FeatureSpace:
        """The probe-window feature space currently used for assignment."""
        probe = probe_windows(train_split)
        x = scaler.apply(probe.inputs[..., :1])
        with no_grad():
            pro = self.prologue()

            def pattern_means(channels: np.ndarray, lift: np.ndarray) -> np.ndarray:
                return std.decouple(
                    Tensor(channels), Tensor(lift), probe.tod_index, probe.dow_index,
                    self.timestamps, self.gates, pro.gates,
                ).data

            channels = std.embed_input(Tensor(x))
            return clusterer.build_feature_space(
                pattern_means, channels.data, pro.lift.data, self.cfg.p
            )


# ---------------------------------------------------------------------------
# checkpoint io: magic "MHGC" | u32 version | u32 param_count |
# repeated (u16 name_len | name | u8 rank | u32 dims[rank] | f32 values) |
# u32 N | u32 types[N]

CKPT_MAGIC = b"MHGC"
CKPT_VERSION = 2


def save_checkpoint(
    path, state: dict[str, np.ndarray], assignment: ClusterAssignment
) -> None:
    """Write parameter values (as f32; lossy) plus the node assignment."""
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(state)))
        for name, values in state.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", values.ndim))
            fh.write(struct.pack(f"<{values.ndim}I", *values.shape))
            fh.write(values.astype("<f4").tobytes())
        types = assignment.types.astype("<u4")
        fh.write(struct.pack("<I", types.size))
        fh.write(types.tobytes())


def load_checkpoint(
    path,
) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, tuple[int, int]], int]:
    """Parameter values, raw node types, where each parameter sits, and
    the byte offset of the node count.

    Each parameter name maps to the byte offsets of its name and of its
    dims; the node types follow the u32 node count. A repeated name raises
    FormatError at its second copy. Names, shapes and types are checked
    against a model by :func:`restore`, not here.
    """
    reader = BinaryReader(Path(path).read_bytes(), CKPT_MAGIC, CKPT_VERSION, "checkpoint")
    state: dict[str, np.ndarray] = {}
    fields: dict[str, tuple[int, int]] = {}
    try:
        (count,) = reader.unpack("<I", "parameter count")
        for _ in range(count):
            (name_len,) = reader.unpack("<H", "parameter name length")
            (encoded,) = reader.unpack(f"<{name_len}s", "parameter name")
            name_at = reader.field
            name = encoded.decode("utf-8")
            if name in state:
                raise FormatError(f"repeated parameter name {name!r}", offset=name_at)
            (rank,) = reader.unpack("<B", f"rank of {name!r}")
            dims = reader.unpack(f"<{rank}I", f"dims of {name!r}")
            fields[name] = (name_at, reader.field)
            values = reader.array(math.prod(dims), "<f4", f"values of {name!r}")
            state[name] = values.astype(np.float64).reshape(dims)
        (n,) = reader.unpack("<I", "node count")
        count_at = reader.field
        types = reader.array(n, "<u4", "node types").astype(np.int64)
    except FormatError:
        raise
    except (struct.error, ValueError) as exc:  # includes UnicodeDecodeError
        raise FormatError(f"malformed checkpoint: {exc}", offset=reader.field) from exc
    reader.finish()
    return state, types, fields, count_at


def restore(model: ForecastModel, path) -> None:
    """Load a checkpoint into a model built with the matching config.

    Faults raise FormatError at a byte offset, the first in file order: a
    parameter the model lacks at its name, a shape the model does not
    expect at its dims, a parameter the file lacks or a node count other
    than the model's N at the node count, and a node type outside [0, p)
    at that entry. Nothing is loaded before every check has passed.
    """
    state, types, fields, count_at = load_checkpoint(path)
    shapes = {p.name: p.tensor.shape for p in model.parameters()}
    for name, values in state.items():
        name_at, dims_at = fields[name]
        if name not in shapes:
            raise FormatError(f"the model has no parameter {name!r}", offset=name_at)
        if values.shape != shapes[name]:
            raise FormatError(
                f"parameter {name!r} has shape {values.shape}, the model's is {shapes[name]}",
                offset=dims_at,
            )
    missing = [name for name in shapes if name not in state]
    if missing:
        raise FormatError(f"checkpoint lacks parameters {missing}", offset=count_at)
    if types.size != model.cfg.n:
        raise FormatError(f"node count {types.size}, the model's is {model.cfg.n}", offset=count_at)
    bad = np.flatnonzero(types >= model.cfg.p)
    if bad.size:
        i = int(bad[0])
        raise FormatError(
            f"node {i} has type {types[i]}, outside [0, {model.cfg.p})",
            offset=count_at + 4 + 4 * i,
        )
    model.store.load_state(state)
    model.set_assignment(ClusterAssignment.from_types(types, model.cfg.p))


# ablation variant name -> ModelConfig overrides
VARIANTS = {
    "no-clusterer": {"single_cluster": True},
    "no-sg": {"graph_mode": "no_sg"},
    "no-tg": {"graph_mode": "no_tg"},
    "p2": {"p": 2},
    "p3": {"p": 3},
}


def apply_variant(cfg: ModelConfig, variant: str) -> ModelConfig:
    """Translate an ablation variant name into a config."""
    if variant not in VARIANTS:
        raise ConfigError(
            f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}"
        )
    return replace(cfg, **VARIANTS[variant])
