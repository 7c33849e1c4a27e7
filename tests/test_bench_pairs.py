"""The verdicts of ``tools/bench_pairs.py`` on made-up pairs (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


class TestVerdict:
    def test_better_when_nine_of_ten_win_by_more_than_the_iqr(self):
        change = [b + 10.0 for b in BASE]
        change[3] = 50.0  # one lost pair still leaves 9 of 10
        out = bench_pairs.verdict(BASE, change, "higher", 0.25)
        assert (out["wins"], out["losses"], out["verdict"]) == (9, 1, "better")
        assert out["median_gap"] > out["base_iqr"]

    def test_lower_is_better_mirrors(self):
        change = [b - 10.0 for b in BASE]
        assert bench_pairs.verdict(BASE, change, "lower", 0.25)["verdict"] == "better"
        assert bench_pairs.verdict(BASE, change, "higher", 0.25)["verdict"] == "worse"

    def test_eight_wins_are_not_enough(self):
        change = [b + 10.0 for b in BASE]
        change[0] = change[9] = 0.0
        assert bench_pairs.verdict(BASE, change, "higher", 0.25)["verdict"] == "no change"

    def test_gap_within_the_iqr_is_no_change(self):
        change = [b + 1.0 for b in BASE]  # wins every pair, but by less than the IQR
        out = bench_pairs.verdict(BASE, change, "higher", 0.25)
        assert out["wins"] == 10
        assert out["verdict"] == "no change"

    def test_fewer_than_ten_pairs_are_incomplete(self):
        change = [b + 10.0 for b in BASE]
        for n in (2, 3, 9):
            out = bench_pairs.verdict(BASE[:n], change[:n], "higher", 0.25)
            assert out["wins"] == n
            assert out["verdict"] == "incomplete"

    def test_median_worse_than_the_bound_is_worse(self):
        change = [0.8 * b for b in BASE]
        change[0] = change[9] = 200.0  # only 8 of 10 pairs lost: the bound alone decides
        out = bench_pairs.verdict(BASE, change, "higher", 0.1)
        assert out["losses"] == 8
        assert 0.1 < out["worse_by"] < 0.25
        assert out["verdict"] == "worse"
        assert bench_pairs.verdict(BASE, change, "higher", 0.25)["verdict"] == "no change"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        change = [b + 1.0 for b in BASE]  # base IQR 5.5 over its median 104.5: 0.053
        assert bench_pairs.verdict(BASE, change, "higher", 0.06)["verdict"] == "no change"
        assert bench_pairs.verdict(BASE, change, "higher", 0.05)["verdict"] == "unresolved"


class TestSummarise:
    SPEC = {
        "end_to_end": [
            {"name": "eval_windows_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "test_mae", "unit": "native", "better": "lower", "bound": 0.1},
        ]
    }

    def pairs(self, corrected_gain, raw_gain):
        return [
            {
                side: {
                    "corrected": {"eval_windows_per_s": b + gain[0], "test_mae": 5.0},
                    "raw": {"eval_windows_per_s": b + gain[1]},
                }
                for side, gain in (("base", (0.0, 0.0)), ("change", (corrected_gain, raw_gain)))
            }
            for b in BASE
        ]

    @pytest.mark.parametrize(
        "raw_gain, expected", [(10.0, "better"), (0.0, "unresolved"), (-10.0, "unresolved")]
    )
    def test_raw_and_corrected_must_agree(self, raw_gain, expected):
        out = bench_pairs.summarise(self.pairs(10.0, raw_gain), self.SPEC)
        assert out["eval_windows_per_s"]["verdict"] == expected
        assert out["eval_windows_per_s"]["corrected"]["verdict"] == "better"

    def test_metric_without_raw_figure_takes_the_corrected_verdict(self):
        out = bench_pairs.summarise(self.pairs(10.0, 10.0), self.SPEC)
        assert "raw" not in out["test_mae"]
        assert out["test_mae"]["verdict"] == "no change"


class TestSchedLoadBalance:
    def test_reads_the_cpusets_flag(self, tmp_path):
        (tmp_path / "cpuset.sched_load_balance").write_text("0\n")
        assert bench_pairs.sched_load_balance(tmp_path) == 0
        (tmp_path / "cpuset.sched_load_balance").write_text("1\n")
        assert bench_pairs.sched_load_balance(tmp_path) == 1

    def test_null_without_the_file_or_with_garbage(self, tmp_path):
        assert bench_pairs.sched_load_balance(tmp_path / "missing") is None
        (tmp_path / "cpuset.sched_load_balance").write_text("yes\n")
        assert bench_pairs.sched_load_balance(tmp_path) is None
