"""The tracemalloc peaks that ``tools/memory_probe.py`` measures, held to bounds.

The bounds are the probe's own cases: a ``no_grad`` forecast of B = 64
windows at N = 300, which keeps no [T, W, B·N] GRU state array (36.5 MB
when it did), and the two train steps, which may not peak above the 17.5
and 51.6 MB they took then (17,526,593 and 51,629,607 bytes).
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "memory_probe.py"
_spec = importlib.util.spec_from_file_location("memory_probe", _PATH)
memory_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(memory_probe)


def test_forecast_at_n300_peaks_below_22_mb():
    peak, stages = memory_probe.forecast_peaks(300, 64)
    assert peak < 22e6
    assert set(stages) == {name for _, _, name in memory_probe.STAGES}


@pytest.mark.parametrize("n, b, bound", [(24, 64, 17_526_593), (300, 16, 51_629_607)])
def test_train_step_peaks_no_higher(n, b, bound):
    assert memory_probe.train_step_peak(n, b) <= bound


def test_forecast_at_n300_peaks_in_decouple_not_in_the_gru_scan():
    # the hop states and their channel-major copy used to be held together
    # while the GRU ran, which put the forecast's peak inside sie.gru_scan
    _, stages = memory_probe.forecast_peaks(300, 64)
    assert stages["sie.gru_scan"] < stages["std.decouple"]
