"""Forecasts, gradient norms, node types and losses against ``tests/reference/forecasts.json``.

``tools/reference.py`` defines the quantities and writes the file; a change
that departs from it on purpose regenerates it with ``--write`` and states
the departure. Forecasts and losses must agree within 1e-12 relative to the
largest magnitude of each, every gradient norm within 1e-10 relative, and
node types exactly.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reference.py"
_spec = importlib.util.spec_from_file_location("reference", _PATH)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

STORED = json.loads(reference.PATH.read_text())


def test_file_states_the_tolerance():
    assert STORED["tolerance"] == reference.TOLERANCE == {
        "forecasts": 1e-12, "losses": 1e-12, "grad_norms": 1e-10
    }


@pytest.mark.parametrize("mode", reference.MODES)
def test_matches_the_reference(mode):
    want = STORED["modes"][mode]
    got = reference.compute(mode)
    gaps = reference.departures(got, want)
    assert got["node_types"] == want["node_types"]
    for key, limit in reference.TOLERANCE.items():
        assert gaps[key] <= limit, (key, gaps[key])


def test_departures_measure_each_quantity():
    want = STORED["modes"]["full"]
    got = json.loads(json.dumps(want))
    got["forecasts"][0][0][0][0] += 1e-3
    got["losses"][2] *= 1 + 1e-15
    name = next(iter(got["grad_norms"]))
    got["grad_norms"][name] *= 1 + 1e-9
    got["node_types"][0] += 1
    gaps = reference.departures(got, want)
    assert gaps["node_types"] == 1.0
    assert gaps["forecasts"] > reference.TOLERANCE["forecasts"]
    assert 0 < gaps["losses"] <= reference.TOLERANCE["losses"]
    assert gaps["grad_norms"] > reference.TOLERANCE["grad_norms"]
