"""Runs the benchmark over sets of seeds and checks the spread and drift of each metric.

    python3 perfbench/baseline.py --seeds 1-10,11-20 --traced-seed 1 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads train_large --seeds 1-5

Each comma-separated range of ``--seeds`` is one set of runs. The sets run
one after another; within a set every workload makes one untraced run per
seed. For each set it reports every end-to-end metric's median, quartiles
and spread (the distance between the first and third quartile over the
median, set against the bound in BENCHMARK.json), raw timings beside the
scaled ones. With two or more sets it also reports each later set's median
against the first set's, as a share of the first, in the metric's worse
direction. It exits with 1 when a run fails a check, a spread exceeds its
bound, or a later median is worse than the first by more than the bound,
and flags spreads above a third of their bound, the aim. With
``--traced-seed`` it adds one traced run per workload for the per-layer
numbers. ``--out`` writes everything as JSON (the committed baseline is
``perfbench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run_set(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = [run(workload, seed, seconds, 0) for seed in seeds]
    entry = {
        "seeds": seeds,
        "machine": runs[0]["info"]["machine"],
        "shapes": runs[0]["info"]["shapes"],
        "correct": all(r["result"]["correct"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "end_to_end": {},
    }
    for m in SPEC["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        entry["end_to_end"][m["name"]] = dict(summarise(values), unit=m["unit"])
    raw = [r["info"]["report"]["raw"] for r in runs]
    entry["raw_end_to_end"] = {name: summarise([x[name] for x in raw]) for name in raw[0]}
    entry["slowdowns"] = [r["info"]["report"]["slowdown"] for r in runs]
    return entry


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10,11-20", help="one range per set of runs")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seed_sets = [parse_seeds(text) for text in args.seeds.split(",")]
    summary: dict = {"seconds": args.seconds, "workloads": {w: {"sets": []} for w in workloads}}
    all_ok = True

    def save() -> None:
        if args.out is not None:
            args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")

    for index, seeds in enumerate(seed_sets):
        for workload in workloads:
            entry = run_set(workload, seeds, args.seconds)
            summary["workloads"][workload]["sets"].append(entry)
            save()
            all_ok = all_ok and entry["correct"]
            print(f"set {index} {workload} seeds {seeds[0]}-{seeds[-1]}:"
                  f" correct={entry['correct']} failed={entry['failed']}")
            for m in SPEC["end_to_end"]:
                stats = entry["end_to_end"][m["name"]]
                all_ok = all_ok and stats["spread"] <= m["bound"]
                flag = "" if stats["spread"] <= m["bound"] / 3 else "  <-- above bound/3"
                print(
                    f"  {m['name']:<22} median {stats['median']:>12.5g} {m['unit']:<7}"
                    f" spread {stats['spread']:.4f} (bound {m['bound']}){flag}"
                )
            for name, stats in entry["raw_end_to_end"].items():
                print(f"  raw {name:<18} median {stats['median']:>12.5g}"
                      f" spread {stats['spread']:.4f}")

    for workload in workloads:
        sets = summary["workloads"][workload]["sets"]
        if len(sets) > 1:
            drift = {}
            for m in SPEC["end_to_end"]:
                first = sets[0]["end_to_end"][m["name"]]["median"]
                worse = [
                    worse_by(first, later["end_to_end"][m["name"]]["median"], m["better"])
                    for later in sets[1:]
                ]
                drift[m["name"]] = {"worse_by": worse, "bound": m["bound"]}
                all_ok = all_ok and max(worse) <= m["bound"]
                print(f"{workload} {m['name']:<22} later sets worse by"
                      f" {', '.join(f'{x:+.4f}' for x in worse)} (bound {m['bound']})")
            summary["workloads"][workload]["drift"] = drift
        if args.traced_seed is not None:
            traced = run(workload, args.traced_seed, args.seconds, 1)
            summary["workloads"][workload]["per_layer"] = {
                "seed": args.traced_seed,
                "correct": traced["result"]["correct"],
                "metrics": traced["result"]["metrics"],
                "report": traced["info"]["report"],
            }
            all_ok = all_ok and traced["result"]["correct"]
            print(f"{workload} traced seed {args.traced_seed}: correct={traced['result']['correct']}")
        save()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
