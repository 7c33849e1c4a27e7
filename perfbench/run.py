"""Benchmark of mhgnet: training and serving, end to end and layer by layer.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from the
checkout's ``src``. Each workload runs in its own process with BLAS pinned to
one thread; ``all`` runs every workload in turn, each in a child process.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The lines before the last list every metric with
its unit, the checks, the machine and the workload's shapes; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
``--smoke`` swaps in tiny shapes so the whole path runs in seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bootstrap

WORKLOAD_NAMES = ("train_small", "train_large", "forecast_online")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    getters = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in getters:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_one(args) -> dict:
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    scratch = bootstrap.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch))
    try:
        if args.trace:
            metrics, report, checks = workloads.run_traced(w, args.seed, args.seconds, workdir)
        else:
            metrics, report, checks = workloads.run_untraced(
                w, args.seed, args.seconds, workdir, args.smoke
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    error_rate = checks.failed / checks.attempted
    print(f"  {'attempted':<28} {checks.attempted:>14d}")
    print(f"  {'failed':<28} {checks.failed:>14d}")
    print(f"  {'error_rate':<28} {error_rate:>14.6g} ratio")
    for message in checks.messages:
        print(f"  FAILED: {message}")
    shapes = {
        "nodes": w.nodes,
        "days": w.days,
        "patterns": workloads.PATTERNS,
        "t_h": workloads.T_H,
        "t_f": workloads.T_F,
        "train_batch": w.batch_size,
        "eval_batch": workloads.EVAL_BATCH,
        "epochs": w.epochs,
        "train_windows_cap": w.train_windows,
        "val_windows_cap": w.val_windows,
        "test_windows_cap": w.test_windows,
    }
    report.update(error_rate=error_rate, failures=checks.messages)
    info = {"workload": w.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke}
    info.update(shapes=shapes, machine=machine(), report=report)
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_all(args) -> dict:
    """Every workload in turn, each in a child process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for tests")
    args = parser.parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
