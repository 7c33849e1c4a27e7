"""Tracemalloc peaks of a batched forecast and of a train step, and a serving process's peak RSS.

    PYTHONPATH=src python3 tools/memory_probe.py [--smoke]

Each case builds ``ModelConfig(n=N, seed=1)`` on ``synthesize(N, days, 3,
seed=1)`` windowed to 12 -> 12 steps and refreshes its clusters on the
probe windows as training does. The first two kinds of case take 7 days
and report the peak bytes that Python and numpy allocate while the case
runs (tracemalloc counts numpy's array buffers):

- ``forecast``: one ``no_grad`` eval-mode forward of the first B = 64
  training windows at N = 300, with the peak inside each of the stages
  ``sie.gru_scan`` (the GRU and the redistribution), ``sie.encode_sequence``
  (which holds the GRU scan), ``std.decouple`` and the skip and regression
  head, ``numcore.regression_head``. It also says whether the GRU scan's and
  the head's peaks stay below ``std.decouple``'s: run on two threads, each
  of those two kernels holds a second half's buffers;
- ``train step``: forward, masked MAE loss over the full horizon, backward
  and one Adam step on the first B training windows, at N = 24, B = 64 and
  at N = 300, B = 16. The second step is measured, so the gradients and
  Adam moments that the first step allocates for good are already in
  place.

``serve`` runs in a fresh child process, as a server would, and sets up on
2 days as the benchmark's ``forecast_online`` does. After the set up it
forecasts the first B test windows one at a time, then all of them in one
``predict`` at batch size B (N = 300, B = 64). It reports the peak resident
set size, ``VmHWM`` of ``/proc/self/status`` (Linux only), after the set up
and at the end, in MiB as the benchmark's ``peak_rss_mb``.

``--smoke`` runs every kind of case at N = 8, B = 4 in a few seconds.
"""

from __future__ import annotations

import argparse
import functools
import subprocess
import sys
import tracemalloc

from mhgnet import model as model_module
from mhgnet import sie, std
from mhgnet.data import make_bundle, synthesize
from mhgnet.model import ForecastModel, ModelConfig
from mhgnet.numcore import no_grad
from mhgnet.train_eval import Adam, Schedule, masked_mae_loss, predict

FULL = [("forecast", 300, 64), ("train step", 24, 64), ("train step", 300, 16), ("serve", 300, 64)]
SMOKE = [("forecast", 8, 4), ("train step", 8, 4), ("serve", 8, 4)]


# the forecast's stages: (module, attribute the forward calls, name in the report)
STAGES = [
    (sie, "gru_scan", "sie.gru_scan"),
    (sie, "encode_sequence", "sie.encode_sequence"),
    (std, "decouple", "std.decouple"),
    (model_module, "regression_head", "numcore.regression_head"),
]


def _stage_peaks(run) -> tuple[int, dict[str, int]]:
    """Peak traced bytes while ``run()`` executes, and the peak inside each stage.

    Each stage is wrapped for the run. On entry it folds the peak so far into
    every open span and resets the peak with ``tracemalloc.reset_peak()``; on
    exit it folds the peak since into every open span, its own included. So
    a stage's peak is the largest traced size while it runs, and the run's
    peak does not lose what a reset inside it dropped.
    """
    peaks: dict[str, int] = {}
    open_spans = [0]  # the run's peak, then one per stage being run

    def fold() -> None:
        peak = tracemalloc.get_traced_memory()[1]
        open_spans[:] = [max(span, peak) for span in open_spans]

    def wrap(original, name):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            fold()
            tracemalloc.reset_peak()
            open_spans.append(0)
            try:
                return original(*args, **kwargs)
            finally:
                fold()
                peaks[name] = max(peaks.get(name, 0), open_spans.pop())

        return wrapper

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in STAGES]
    for owner, attr, name in STAGES:
        setattr(owner, attr, wrap(getattr(owner, attr), name))
    tracemalloc.start()
    try:
        run()
        fold()
        return open_spans[0], peaks
    finally:
        tracemalloc.stop()
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# the stages whose peaks should stay below the peak inside std.decouple
BELOW_DECOUPLE = ("sie.gru_scan", "numcore.regression_head")


def below_decouple(stages: dict[str, int]) -> bool:
    """Whether each of BELOW_DECOUPLE peaks below ``std.decouple``."""
    return all(stages[name] < stages["std.decouple"] for name in BELOW_DECOUPLE)


def _set_up(n: int, days: int = 7):
    bundle = make_bundle(synthesize(n, days, 3, seed=1), 12, 12)
    model = ForecastModel(ModelConfig(n=n, seed=1))
    model.refresh_clusters(bundle.train, bundle.scaler)
    return bundle, model


def _vm_hwm_mib() -> float:
    """The peak resident set size of this process, ``VmHWM``, in MiB."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0  # the field is in KiB


def serve(n: int, b: int) -> str:
    """The serve case's ``VmHWM`` after the set up and at the end (run in a fresh process)."""
    bundle, model = _set_up(n, days=2)
    windows = bundle.test.slice(slice(0, b))
    after_set_up = _vm_hwm_mib()
    for j in range(b):
        predict(model, windows.slice(slice(j, j + 1)), bundle.scaler, batch_size=1)
    predict(model, windows, bundle.scaler, batch_size=b)
    return f"VmHWM {_vm_hwm_mib():.1f} MiB ({after_set_up:.1f} after the set up)"


def forecast_peaks(n: int, b: int) -> tuple[int, dict[str, int]]:
    """The forecast case's peak traced bytes, and the peak inside each stage."""
    bundle, model = _set_up(n)
    windows = bundle.train.slice(slice(0, b))
    x = bundle.scaler.apply(windows.inputs[..., :1])
    model.eval_mode()

    def forecast() -> None:
        with no_grad():
            model.forward(x, windows.tod_index, windows.dow_index)

    return _stage_peaks(forecast)


def train_step_peak(n: int, b: int) -> int:
    """The train step case's peak traced bytes, in its second step."""
    bundle, model = _set_up(n)
    windows = bundle.train.slice(slice(0, b))
    x = bundle.scaler.apply(windows.inputs[..., :1])
    model.train_mode()
    optimizer = Adam(model.parameters(), lr=Schedule().base_lr)

    def step() -> None:
        pred = model.forward(x, windows.tod_index, windows.dow_index)
        loss = masked_mae_loss(pred, windows.targets, bundle.scaler)
        model.zero_grad()
        loss.backward()
        optimizer.step(Schedule().base_lr)

    step()
    return _stage_peaks(step)[0]


def measure(case: str, n: int, b: int) -> str:
    if case == "forecast":
        peak, stages = forecast_peaks(n, b)
        inside = ", ".join(f"{name} {stages[name] / 1e6:.1f}" for _, _, name in STAGES)
        verdict = "below" if below_decouple(stages) else "NOT below"
        return (
            f"tracemalloc peak {peak / 1e6:.1f} MB (inside {inside}); "
            f"{' and '.join(BELOW_DECOUPLE)} peak {verdict} std.decouple"
        )
    return f"tracemalloc peak {train_step_peak(n, b) / 1e6:.1f} MB"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for CI")
    parser.add_argument("--serve", nargs=2, type=int, metavar=("N", "B"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.serve:  # the child process of a serve case
        print(serve(*args.serve))
        return 0
    for case, n, b in SMOKE if args.smoke else FULL:
        if case == "serve":
            child = [sys.executable, __file__, "--serve", str(n), str(b)]
            report = subprocess.run(child, check=True, capture_output=True, text=True).stdout.strip()
        else:
            report = measure(case, n, b)
        print(f"{case:<10} N={n:<3} B={b:<2} {report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
