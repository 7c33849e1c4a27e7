"""The tracemalloc peaks that ``tools/memory_probe.py`` measures, held to bounds.

The bounds are the probe's own cases, on one CPU and on two (where the GRU
scan and the head hold a second half's buffers): a ``no_grad`` forecast of
B = 64 windows at N = 300 may not peak above 15.0 MB, and the train steps
above 15.5 MB (N = 24, B = 64) and 42.0 MB (N = 300, B = 16). They peaked
at 18.3, 16.5 and 45.7 MB while the forward held the embedded channels
through the GRU scan, the gating built its sums for the whole batch before
it copied them into its output, and a train step held its dropout mask in
float64. On one CPU and on two, the GRU scan and the head peak below
``std.decouple``: the GRU scan frees its span scratch before it allocates
the encoding.
"""

import importlib.util
from pathlib import Path

import pytest

from mhgnet.numcore import worker

_PATH = Path(__file__).resolve().parent.parent / "tools" / "memory_probe.py"
_spec = importlib.util.spec_from_file_location("memory_probe", _PATH)
memory_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(memory_probe)


@pytest.fixture(params=[1, 2])
def cpus(request, monkeypatch):
    monkeypatch.setattr(worker, "usable_cpus", lambda: request.param)
    return request.param


def test_forecast_at_n300_peaks_below_22_mb():
    peak, stages = memory_probe.forecast_peaks(300, 64)
    assert peak < 22e6
    assert set(stages) == {name for _, _, name in memory_probe.STAGES}


def test_forecast_at_n300_peaks_no_higher(cpus):
    peak, stages = memory_probe.forecast_peaks(300, 64)
    assert peak <= 15_000_000
    assert set(stages) == {name for _, _, name in memory_probe.STAGES}
    assert memory_probe.peak_stage(peak, stages) in stages


@pytest.mark.parametrize("n, b, bound", [(24, 64, 15_500_000), (300, 16, 42_000_000)])
def test_train_step_peaks_no_higher(cpus, n, b, bound):
    assert memory_probe.train_step_peak(n, b) <= bound


def test_forecast_at_n300_peaks_in_decouple_not_in_the_gru_scan():
    # the hop states and their channel-major copy used to be held together
    # while the GRU ran, which put the forecast's peak inside sie.gru_scan
    _, stages = memory_probe.forecast_peaks(300, 64)
    assert stages["sie.gru_scan"] < stages["std.decouple"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_two_thread_kernels_peak_below_decouple(monkeypatch, cpus):
    # on two threads the GRU scan and the head each hold a second half's buffers
    monkeypatch.setattr(worker, "usable_cpus", lambda: cpus)
    _, stages = memory_probe.forecast_peaks(300, 64)
    assert memory_probe.below_decouple(stages)
