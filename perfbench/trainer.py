"""Trains a workload's model in a fresh interpreter and writes its checkpoint.

    python3 perfbench/trainer.py --workload forecast_online --seed 1 --checkpoint DIR/trained.mhgc

A serving workload gets its trained model from here, so that the process it
measures holds only set-up and serving: no training tensors, no backward, no
Adam. Prints one JSON object as its last line: the training figures, the
checks, and a digest of the saved state that the serving process checks the
loaded model against.
"""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

import bootstrap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkpoint", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    bootstrap.prepare()
    import workloads
    from mhgnet import model
    from reference import Reference

    w = workloads.WORKLOADS[args.workload]
    w = workloads.smoke(w) if args.smoke else w
    checks = workloads.Checks()
    bundle, net = workloads.set_up(w, args.seed, args.checkpoint.parent)
    training = workloads.run_training(w, bundle, net, checks, Reference())
    model.save_checkpoint(args.checkpoint, net.store.state(), net.assignment)
    print(
        json.dumps(
            {
                "training": asdict(training),
                "state_sha256": workloads.state_digest(net),
                "attempted": checks.attempted,
                "failed": checks.failed,
                "messages": checks.messages,
            }
        )
    )


if __name__ == "__main__":
    main()
