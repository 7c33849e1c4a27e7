"""Runs the benchmark on two commits in alternating pairs and writes a BENCH_<n>.json.

    python3 tools/bench_pairs.py --base <parent> --change HEAD \\
        --workloads forecast_online --out BENCH_<n>.json

Each commit is extracted once with ``git archive`` into a temporary
directory that is removed at the end, so the repository gains no worktree,
and ``perfbench/run.py`` runs inside each, so each side measures its own
source, for BENCHMARK.json's ``run_seconds``. Each workload runs 10 pairs: pair i runs both sides on seed
``--first-seed + i``, the base first in even pairs and the change first in
odd ones, so a drift of the machine within a pair favours neither side.

For every end-to-end metric of BENCHMARK.json the output holds the per-pair
values, each side's median and quartiles, the pairs the change wins, the
median gap (change minus base) and the base's IQR. It does so for the
benchmark's corrected figures and, where ``report.raw`` has the metric, for
the raw ones. A verdict is "incomplete" until all 10 pairs have run. Then it
is "worse" when the change's median is worse than the base's by more than
the metric's bound (a share of the base's median), "better" when the change
wins at least 9 of the 10 pairs and its median beats the base's by more than
the base's IQR, and "worse" in the mirror case. Otherwise it is "unresolved"
when the base's IQR, as a share of its median, is wider than the bound, so
the pairs could not show a regression of that size, and "no change" when it
is not. A metric's ``verdict`` is the corrected one when it has no raw
figure or the raw verdict agrees, and "unresolved" when they disagree. The
file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
WINS = 9


def git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True)
    return out.stdout.strip()


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True, timeout=1800)
    lines = out.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "failed": result["failed"],
        "corrected": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": info["report"]["raw"],
        "machine": info["machine"],
    }


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    q1, _, q3 = statistics.quantiles(base, n=4)
    mid = statistics.median(base)
    gap = statistics.median(change) - mid
    worse_by = -sign * gap / mid
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    if len(base) < PAIRS:
        call = "incomplete"
    elif worse_by > bound:
        call = "worse"
    elif wins >= WINS and sign * gap > q3 - q1:
        call = "better"
    elif losses >= WINS and -sign * gap > q3 - q1:
        call = "worse"
    elif (q3 - q1) / mid > bound:
        call = "unresolved"
    else:
        call = "no change"
    summary = {"base": base, "change": change, "wins": wins, "losses": losses}
    for side, values in (("base", base), ("change", change)):
        s1, _, s3 = statistics.quantiles(values, n=4)
        summary[f"{side}_median"] = statistics.median(values)
        summary[f"{side}_quartiles"] = [s1, s3]
    summary.update(median_gap=gap, base_iqr=q3 - q1, worse_by=worse_by, bound=bound, verdict=call)
    return summary


def summarise(pairs: list[dict], spec: dict) -> dict:
    metrics = {}
    for m in spec["end_to_end"]:
        name, entry = m["name"], {"unit": m["unit"], "better": m["better"]}
        for kind in ("corrected", "raw"):
            if all(name in p[side][kind] for p in pairs for side in ("base", "change")):
                entry[kind] = verdict(
                    [p["base"][kind][name] for p in pairs],
                    [p["change"][kind][name] for p in pairs],
                    m["better"],
                    m["bound"],
                )
        calls = {entry[kind]["verdict"] for kind in ("corrected", "raw") if kind in entry}
        entry["verdict"] = calls.pop() if len(calls) == 1 else "unresolved"
        metrics[name] = entry
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", default="HEAD", help="the commit to compare with it")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in (("base", args.base), ("change", args.change))}
    seconds = spec["run_seconds"]
    report: dict = {"commits": commits, "seconds": seconds, "workloads": {}}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: tmp / side for side in commits}
    try:
        for side, sha in commits.items():
            trees[side].mkdir()
            archive = subprocess.run(
                ["git", "archive", sha], cwd=ROOT, check=True, capture_output=True
            ).stdout
            subprocess.run(["tar", "-x", "-C", str(trees[side])], input=archive, check=True)
        for workload in args.workloads.split(","):
            pairs: list[dict] = []
            for i in range(PAIRS):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, seconds)
                    report["machine"] = pair[side].pop("machine")
                pairs.append(pair)
                report["workloads"][workload] = {
                    "failed": sum(p[s]["failed"] for p in pairs for s in commits),
                    "pairs": pairs,
                    "metrics": summarise(pairs, spec) if len(pairs) > 1 else {},
                }
                args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed} done", flush=True)
            for name, entry in report["workloads"][workload]["metrics"].items():
                c = entry["corrected"]
                print(f"{workload} {name:<20} {c['base_median']:.5g} -> {c['change_median']:.5g}"
                      f" wins {c['wins']}/{PAIRS} iqr {c['base_iqr']:.4g}: {entry['verdict']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
