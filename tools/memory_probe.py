"""Tracemalloc peaks of a batched forecast and of a train step.

    PYTHONPATH=src python3 tools/memory_probe.py [--smoke]

Each case builds ``ModelConfig(n=N, seed=1)`` on ``synthesize(N, 7, 3,
seed=1)`` windowed to 12 -> 12 steps, refreshes its clusters on the probe
windows as training does, and reports the peak bytes that Python and numpy
allocate while the case runs (tracemalloc counts numpy's array buffers):

- ``forecast``: one ``no_grad`` eval-mode forward of the first B = 64
  training windows at N = 300;
- ``train step``: forward, masked MAE loss over the full horizon, backward
  and one Adam step on the first B training windows, at N = 24, B = 64 and
  at N = 300, B = 16. The second step is measured, so the gradients and
  Adam moments that the first step allocates for good are already in
  place.

``--smoke`` runs both kinds of case at N = 8, B = 4 in a second or two.
"""

from __future__ import annotations

import argparse
import tracemalloc

from mhgnet.data import make_bundle, synthesize
from mhgnet.model import ForecastModel, ModelConfig
from mhgnet.numcore import no_grad
from mhgnet.train_eval import Adam, Schedule, masked_mae_loss

FULL = [("forecast", 300, 64), ("train step", 24, 64), ("train step", 300, 16)]
SMOKE = [("forecast", 8, 4), ("train step", 8, 4)]


def _peak(run) -> int:
    """Peak traced bytes while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(case: str, n: int, b: int) -> int:
    bundle = make_bundle(synthesize(n, 7, 3, seed=1), 12, 12)
    model = ForecastModel(ModelConfig(n=n, seed=1))
    model.refresh_clusters(bundle.train, bundle.scaler)
    windows = bundle.train.slice(slice(0, b))
    x = bundle.scaler.apply(windows.inputs[..., :1])

    if case == "forecast":
        model.eval_mode()

        def forecast() -> None:
            with no_grad():
                model.forward(x, windows.tod_index, windows.dow_index)

        return _peak(forecast)

    model.train_mode()
    optimizer = Adam(model.parameters(), lr=Schedule().base_lr)

    def step() -> None:
        pred = model.forward(x, windows.tod_index, windows.dow_index)
        loss = masked_mae_loss(pred, windows.targets, bundle.scaler)
        model.zero_grad()
        loss.backward()
        optimizer.step(Schedule().base_lr)

    step()
    return _peak(step)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for CI")
    args = parser.parse_args()
    for case, n, b in SMOKE if args.smoke else FULL:
        print(f"{case:<10} N={n:<3} B={b:<2} tracemalloc peak {measure(case, n, b) / 1e6:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
