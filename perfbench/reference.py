"""Machine-speed reference for timings taken on a shared, drifting CPU.

On a small virtual machine whose neighbours come and go, the same work can
run 25% slower, or twice as slow, for seconds or minutes at a time, and
process CPU time drifts with wall time, so neither can separate the
program's speed from the machine's. This module times a fixed numpy kernel
that does not use mhgnet, between the benchmark's timed operations, and
divides each timing by the machine's slowdown nearby:
``(median kernel time / REFERENCE_MS) ** sensitivity``. A change to mhgnet
cannot move the kernel, so it moves the scaled timings exactly as it moves
the raw ones; the raw timings are reported beside them.

The kernel is sized like a one-window forecast: small arrays, many numpy
calls. Each kind of timing swings with the kernel by its own amount on a
log scale, its sensitivity: the slope of log raw timing against log kernel
slowdown over ten-seed runs of each workload on a busy machine. It came
out near 0.8-1 for the median one-window latency (0.8 is used), about 0.5
for its 99th percentile, whose stalls do not scale with the machine, and
for batched predicts on larger arrays, and 0.35-0.5 for ``train()`` calls
(0.35 is used).

Cold set-ups are mostly imports, which the numpy kernel tracks poorly. Their
reference is ``import_seconds``: the wall time of a fresh interpreter that
imports numpy and exits, which mhgnet cannot move either. Set-up time follows
it about one for one (sensitivity 1).

Over the six ten-seed sets in baseline.json (two per workload), scaling
brings the spread (quartile distance over median) of ``setup_s`` from
0.15-0.24 raw to 0.03-0.13, of ``forecast_ms_p50`` from 0.08-0.21 to
0.02-0.14, of ``train_windows_per_s`` from 0.05-0.15 to 0.06-0.10, and of
``eval_windows_per_s`` from 0.10-0.17 to 0.06-0.11.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# The kernel's median time on the machine the committed baseline comes from
# (2 vCPUs, x86_64, OpenBLAS 0.3.31 on one thread).
REFERENCE_MS = 1.2
LATENCY_SENSITIVITY = 0.8  # one-window forecasts, median
TAIL_SENSITIVITY = 0.5  # one-window forecasts, 99th percentile
TRAIN_SENSITIVITY = 0.35  # train() calls
BULK_SENSITIVITY = 0.5  # batched predicts
SETUP_SENSITIVITY = 1.0  # cold set-ups, against import_seconds
IMPORT_REFERENCE_S = 0.15  # median of import_seconds() on the same machine
INTERVAL_S = 0.1  # least time between two samples taken by maybe_sample


class Reference:
    """A fixed GRU-like loop: small matmuls, elementwise ops and Python overhead.

    The loop writes only into buffers made up front. A kernel that allocated
    would shift when the garbage collector runs in the program it samples,
    and with it the program's peak memory: sampling during ``train_large``
    training lowered its peak RSS from 961 MB to 831 MB.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._xs = list(rng.standard_normal((12, 300, 10)))
        self._w = rng.standard_normal((10, 10)) * 0.3
        self._g = rng.standard_normal((300, 300)) / 300.0
        self._h, self._z, self._a, self._b = (np.empty((300, 10)) for _ in range(4))
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, warm-up runs included
        self._last = float("-inf")

    def _run(self) -> float:
        started = time.perf_counter()
        h, z, a, b, w = self._h, self._z, self._a, self._b, self._w
        h.fill(0.0)
        for x in self._xs:
            # z = sigmoid(x @ w + h @ w)
            np.matmul(x, w, out=a)
            np.matmul(h, w, out=b)
            np.add(a, b, out=a)
            np.negative(a, out=a)
            np.exp(a, out=a)
            a += 1.0
            np.reciprocal(a, out=z)
            # h += z * (tanh(g @ x + h @ w) - h)
            np.matmul(self._g, x, out=a)
            a += b
            np.tanh(a, out=a)
            a -= h
            a *= z
            h += a
        return time.perf_counter() - started

    def sample(self) -> None:
        """Time the kernel with its data in cache: one warm-up run, one timed run."""
        warm = self._run()
        seconds = self._run()
        self.samples.append(seconds)
        self.spent += warm + seconds
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than INTERVAL_S old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()


def slowdown(samples: list[float], sensitivity: float) -> float:
    """The factor by which the machine slowed work of ``sensitivity`` over ``samples``."""
    return (statistics.median(samples) / (REFERENCE_MS / 1000.0)) ** sensitivity


def import_seconds(cwd) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, cwd=cwd, timeout=60)
    return time.perf_counter() - started
