"""Reference forecasts, gradient norms, node types and losses, for a check across versions.

    PYTHONPATH=src python3 tools/reference.py           # compare with the file
    PYTHONPATH=src python3 tools/reference.py --write   # regenerate it

The quantities come from a fixed ``synthesize(8, 3, 2, seed=1,
steps_per_day=24)`` series, windowed 12 -> 12, and, in each of the graph
modes ``full``, ``no_sg`` and ``no_tg``, a ``ModelConfig(n=8,
steps_per_day=24, seed=1)`` model whose initial weights are perturbed by a
seeded 0.1·N(0, 1), so that no bias starts at zero, followed by one
cluster refresh on the train split. Per mode the file holds:

- ``node_types``: the refreshed assignment;
- ``forecasts``: the eval-mode forecasts of the first 4 test windows, in
  native units, [4, 12, 8, 1];
- ``grad_norms``: each parameter's gradient norm of the masked MAE over the
  first 8 train windows and the full horizon, in eval mode;
- ``losses``: the masked MAE of 3 train-mode Adam steps, on train windows
  0-7, 8-15 and 16-23.

``tests/test_reference.py`` recomputes them. Forecasts and losses must agree
within ``TOLERANCE["forecasts"]`` relative (to the largest magnitude of
each), gradient norms within ``TOLERANCE["grad_norms"]``, and node types
exactly. Without ``--write`` this script prints the largest departure of
each quantity from the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from mhgnet.data import make_bundle, synthesize
from mhgnet.model import ForecastModel, ModelConfig
from mhgnet.train_eval import Adam, Schedule, masked_mae_loss, predict

PATH = Path(__file__).resolve().parent.parent / "tests" / "reference" / "forecasts.json"
MODES = ("full", "no_sg", "no_tg")
TOLERANCE = {"forecasts": 1e-12, "losses": 1e-12, "grad_norms": 1e-10}
PERTURB_SEED = 7
BATCH = 8


def compute(mode: str) -> dict:
    """The reference quantities of one graph mode, as JSON-ready lists."""
    bundle = make_bundle(synthesize(8, 3, 2, seed=1, steps_per_day=24), 12, 12)
    model = ForecastModel(ModelConfig(n=8, steps_per_day=24, seed=1, graph_mode=mode))
    rng = np.random.default_rng(PERTURB_SEED)
    for p in model.parameters():
        p.tensor.data += 0.1 * rng.normal(size=p.tensor.shape)
    model.refresh_clusters(bundle.train, bundle.scaler)
    forecasts = predict(model, bundle.test.slice(slice(0, 4)), bundle.scaler)

    def loss_on(lo: int):
        windows = bundle.train.slice(slice(lo, lo + BATCH))
        x = bundle.scaler.apply(windows.inputs[..., :1])
        pred = model.forward(x, windows.tod_index, windows.dow_index)
        return masked_mae_loss(pred, windows.targets, bundle.scaler)

    model.eval_mode()
    model.zero_grad()
    loss_on(0).backward()
    grad_norms = {
        p.name: 0.0 if p.tensor.grad is None else float(np.linalg.norm(p.tensor.grad))
        for p in model.parameters()
    }

    model.train_mode()
    optimizer = Adam(model.parameters(), lr=Schedule().base_lr)
    losses = []
    for lo in (0, BATCH, 2 * BATCH):
        loss = loss_on(lo)
        model.zero_grad()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
    return {
        "node_types": model.assignment.types.tolist(),
        "forecasts": forecasts.tolist(),
        "grad_norms": grad_norms,
        "losses": losses,
    }


def departures(got: dict, want: dict) -> dict[str, float]:
    """Per quantity, the largest departure of ``got`` from ``want``, relative to
    the largest magnitude in ``want``; node types count 0 or 1 (equal or not)."""
    out = {"node_types": float(got["node_types"] != want["node_types"])}
    for key in ("forecasts", "losses"):
        a, b = np.asarray(got[key]), np.asarray(want[key])
        out[key] = float(np.max(np.abs(a - b)) / np.max(np.abs(b))) if a.shape == b.shape else np.inf
    if got["grad_norms"].keys() != want["grad_norms"].keys():
        out["grad_norms"] = np.inf
    else:
        out["grad_norms"] = max(
            abs(got["grad_norms"][k] - v) / max(abs(v), np.finfo(float).tiny)
            for k, v in want["grad_norms"].items()
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {PATH.name}")
    args = parser.parse_args()
    current = {mode: compute(mode) for mode in MODES}
    if args.write:
        PATH.parent.mkdir(parents=True, exist_ok=True)
        PATH.write_text(json.dumps({"tolerance": TOLERANCE, "modes": current}, indent=1) + "\n")
        print(f"wrote {PATH}")
        return 0
    stored = json.loads(PATH.read_text())["modes"]
    ok = True
    for mode in MODES:
        gaps = departures(current[mode], stored[mode])
        ok = ok and gaps["node_types"] == 0 and all(
            gaps[key] <= limit for key, limit in TOLERANCE.items()
        )
        print(mode, " ".join(f"{key}={value:.3g}" for key, value in gaps.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
