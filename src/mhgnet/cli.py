"""Command-line entry point.

Subcommands: train, eval, ablate, synth, convert, cluster-inspect,
graph-dump. Exit codes: 0 success, 2 usage error, 1 runtime error.
The run configuration is --config, else the config.cfg beside
--checkpoint, else the built-in defaults. The seed resolution order is:
--seed flag, then the MHGNET_SEED environment variable, then that
configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import train_eval
from .config import RunConfig, load_config, render_config
from .data import convert_csv, load_series, make_bundle, save_series, synthesize
from .errors import ConfigError, MhgnetError
from .model import ForecastModel
from .numcore import no_grad

REPORT_HORIZONS = (3, 6, 12)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhgnet", description="Multi-pattern spatiotemporal traffic forecasting"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--data", required=True, help="MHGT dataset file")
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--seed", type=int, help="override the config seed")

    p_train = sub.add_parser("train", help="train a model and keep the best-val checkpoint")
    add_common(p_train)
    p_train.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)

    p_abl = sub.add_parser("ablate", help="train and test a structural variant")
    add_common(p_abl)
    p_abl.add_argument("--variant", required=True, choices=model_mod.VARIANTS)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--nodes", type=int, required=True)
    p_synth.add_argument("--days", type=int, required=True)
    p_synth.add_argument("--patterns", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--steps-per-day", type=int, default=288)
    p_synth.add_argument("--out", required=True)

    p_conv = sub.add_parser("convert", help="convert a CSV series to MHGT")
    p_conv.add_argument("--csv", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--steps-per-day", type=int, default=288)
    p_conv.add_argument("--start-weekday", type=int, default=0)
    p_conv.add_argument("--seed", type=int, help="unused; accepted for uniformity")

    p_insp = sub.add_parser("cluster-inspect", help="print ratio features and pools as CSV")
    add_common(p_insp)
    p_insp.add_argument("--checkpoint", help="optional checkpoint to load first")

    p_dump = sub.add_parser("graph-dump", help="print fused subgraphs as CSV triples")
    add_common(p_dump)
    p_dump.add_argument("--checkpoint", help="optional checkpoint to load first")

    return parser


def _resolve_config(args) -> RunConfig:
    checkpoint = getattr(args, "checkpoint", None)
    sibling = Path(checkpoint).parent / "config.cfg" if checkpoint else None
    if args.config:
        cfg = load_config(args.config)
    elif sibling is not None and sibling.exists():
        cfg = load_config(sibling)
    else:
        cfg = RunConfig()
    env_seed = os.environ.get("MHGNET_SEED")
    if env_seed is not None:
        try:
            cfg.model.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"MHGNET_SEED is not an integer: {env_seed!r}") from exc
    if args.seed is not None:
        cfg.model.seed = args.seed
    cfg.validate()
    return cfg


def _prepare(cfg: RunConfig, data_path):
    series = load_series(data_path)
    bundle = make_bundle(series, cfg.model.t_h, cfg.model.t_f, cfg.ratios)
    model_cfg = cfg.to_model_config(series.nodes, series.steps_per_day)
    model = ForecastModel(model_cfg)
    return series, bundle, model


def _print_report(report: train_eval.MetricsReport, t_f: int) -> None:
    print("horizon,mae,rmse,mape")
    for h in REPORT_HORIZONS:
        if h <= t_f:
            print(
                f"{h},{report.horizon_mae[h - 1]:.4f},"
                f"{report.horizon_rmse[h - 1]:.4f},{report.horizon_mape[h - 1]:.4f}"
            )
    print(f"avg,{report.mae:.4f},{report.rmse:.4f},{report.mape:.4f}")


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    series, bundle, model = _prepare(cfg, args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train_eval.train(
        model,
        bundle,
        cfg.to_schedule(),
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        log_path=out_dir / "log.csv",
    )
    cfg.model.n = model.cfg.n
    (out_dir / "config.cfg").write_text(render_config(cfg))
    if result.best_state is not None:
        model_mod.save_checkpoint(
            out_dir / "checkpoint.mhgc", result.best_state, result.best_assignment
        )
        print(
            f"trained {cfg.epochs} epochs on {series.name}; "
            f"best val MAE {result.best_val_mae:.4f} at epoch {result.best_epoch}"
        )
    else:
        model_mod.save_checkpoint(
            out_dir / "checkpoint.mhgc", model.store.state(), model.assignment
        )
        print(f"trained 0 epochs on {series.name}; wrote initial checkpoint")
    return 0


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    series, bundle, model = _prepare(cfg, args.data)
    model_mod.restore(model, args.checkpoint)
    report = train_eval.evaluate(model, bundle.test, bundle.scaler, cfg.batch_size)
    _print_report(report, cfg.model.t_f)
    return 0


def _cmd_ablate(args) -> int:
    cfg = _resolve_config(args)
    series = load_series(args.data)
    report, result = train_eval.run_ablation(
        args.variant,
        cfg.to_model_config(series.nodes, series.steps_per_day),
        series,
        cfg.to_schedule(),
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        ratios=cfg.ratios,
    )
    print(f"variant,{args.variant}")
    _print_report(report, cfg.model.t_f)
    return 0


def _cmd_synth(args) -> int:
    series = synthesize(
        nodes=args.nodes,
        days=args.days,
        patterns=args.patterns,
        seed=args.seed,
        steps_per_day=args.steps_per_day,
    )
    save_series(series, args.out)
    types_path = Path(str(args.out) + ".types")
    types_path.write_text(
        "node,type\n"
        + "\n".join(f"{i},{t}" for i, t in enumerate(series.planted_types))
        + "\n"
    )
    print(f"wrote {args.out}: steps={series.steps} nodes={series.nodes}")
    return 0


def _cmd_convert(args) -> int:
    series = convert_csv(
        args.csv, args.out, steps_per_day=args.steps_per_day, start_weekday=args.start_weekday
    )
    print(f"wrote {args.out}: steps={series.steps} nodes={series.nodes}")
    return 0


def _load_for_inspection(args):
    cfg = _resolve_config(args)
    series, bundle, model = _prepare(cfg, args.data)
    if args.checkpoint:
        model_mod.restore(model, args.checkpoint)
    return cfg, bundle, model


def _cmd_cluster_inspect(args) -> int:
    cfg, bundle, model = _load_for_inspection(args)
    fs = model.feature_space(bundle.train, bundle.scaler)
    assignment = model.refresh_clusters(bundle.train, bundle.scaler)
    p = fs.ratios.shape[1]
    print("# ratios")
    print("node," + ",".join(f"r{j}" for j in range(p)) + ",type")
    for i, row in enumerate(fs.ratios):
        print(f"{i}," + ",".join(f"{v:.6f}" for v in row) + f",{assignment.types[i]}")
    print("# limits")
    print(",".join(f"{v:.6f}" for v in fs.limits))
    print("# pools")
    print("type,size,members")
    for j, pool in enumerate(assignment.pools):
        print(f"{j},{len(pool)}," + " ".join(str(i) for i in pool))
    return 0


def _cmd_graph_dump(args) -> int:
    cfg, bundle, model = _load_for_inspection(args)
    model.refresh_clusters(bundle.train, bundle.scaler)
    model.eval_mode()
    probe = bundle.train.slice(slice(0, min(model_mod.PROBE_WINDOWS, len(bundle.train))))
    with no_grad():
        graphs = model._build_graphs(probe.tod_index, probe.dow_index)
    print("cluster,row,col,weight")
    for c, graph in enumerate(graphs):
        a = graph.a_hat.data
        for i, j in zip(*np.nonzero(a)):
            print(f"{c},{i},{j},{a[i, j]:.6f}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "synth": _cmd_synth,
    "convert": _cmd_convert,
    "cluster-inspect": _cmd_cluster_inspect,
    "graph-dump": _cmd_graph_dump,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (MhgnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
