"""Times one cold set-up of a workload in a fresh interpreter, imports included.

    python3 perfbench/setup_probe.py --workload train_small --seed 1 --workdir DIR

Prints the seconds as the last word of its output. ``run.py`` starts it
several times, each between two runs of the import reference (see
reference.py), and reports the median of the scaled seconds as ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trained", type=Path, help="checkpoint to load instead of a round trip")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    bootstrap.prepare()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    w = workloads.smoke(w) if args.smoke else w
    workloads.set_up(w, args.seed, args.workdir, trained=args.trained)
    print(f"{time.perf_counter() - STARTED:.6f}")


if __name__ == "__main__":
    main()
