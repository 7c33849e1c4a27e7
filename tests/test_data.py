import numpy as np
import pytest

from mhgnet.data import (
    Scaler,
    TrafficSeries,
    convert_csv,
    load_series,
    make_bundle,
    make_windows,
    save_series,
    split,
    synthesize,
)
from mhgnet.errors import ConfigError, FormatError, ShapeError


def _series(steps, nodes, channels=1, steps_per_day=None, start_weekday=0, seed=0):
    spd = steps_per_day or steps
    values = np.random.default_rng(seed).normal(50.0, 10.0, (steps, nodes, channels))
    return TrafficSeries(values, steps_per_day=spd, start_weekday=start_weekday)


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        series = synthesize(nodes=5, days=2, patterns=2, seed=3, steps_per_day=12)
        path = tmp_path / "x.mhgt"
        save_series(series, path)
        loaded = load_series(path)
        assert loaded.steps == series.steps
        assert loaded.nodes == series.nodes
        assert loaded.steps_per_day == 12
        # payload is stored as f32
        assert np.allclose(loaded.values, series.values, atol=1e-2)
        assert np.array_equal(loaded.values, series.values.astype(np.float32))

    def test_pems04_shaped_file(self, tmp_path):
        values = np.zeros((16992, 307, 1)) + 1.5
        series = TrafficSeries(values, steps_per_day=288, start_weekday=0)
        path = tmp_path / "pems04-like.mhgt"
        save_series(series, path)
        loaded = load_series(path)
        assert loaded.steps == 16992
        assert loaded.nodes == 307

    def test_one_day_minimum(self):
        series = synthesize(nodes=3, days=2, patterns=1, seed=0, steps_per_day=288)
        assert series.steps == 576
        with pytest.raises(ConfigError):
            TrafficSeries(np.ones((100, 2, 1)), steps_per_day=288, start_weekday=0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mhgt"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(FormatError) as exc:
            load_series(path)
        assert exc.value.offset == 0

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.mhgt"
        path.write_bytes(b"MHGT" + (99).to_bytes(4, "little") + b"\0" * 64)
        with pytest.raises(FormatError) as exc:
            load_series(path)
        assert exc.value.offset == 4

    def test_truncated_payload(self, tmp_path):
        series = synthesize(nodes=4, days=2, patterns=2, seed=1, steps_per_day=8)
        path = tmp_path / "t.mhgt"
        save_series(series, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError) as exc:
            load_series(path)
        assert "truncated" in str(exc.value)
        assert exc.value.offset == 28

    def test_trailing_bytes_rejected(self, tmp_path):
        series = synthesize(nodes=4, days=2, patterns=2, seed=1, steps_per_day=8)
        path = tmp_path / "tail.mhgt"
        save_series(series, path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 7)
        with pytest.raises(FormatError) as exc:
            load_series(path)
        assert "trailing" in str(exc.value)
        assert exc.value.offset == size

    def test_impossible_header_gives_format_error(self, tmp_path):
        path = tmp_path / "h.mhgt"
        path.write_bytes(b"MHGT" + np.array([1, 4, 1, 1, 0, 0], "<u4").tobytes() + b"\0" * 16)
        with pytest.raises(FormatError) as exc:  # steps_per_day = 0
            load_series(path)
        assert exc.value.offset == 8

    def test_zero_nodes_gives_format_error(self, tmp_path):
        path = tmp_path / "z.mhgt"
        path.write_bytes(b"MHGT" + np.array([1, 4, 0, 1, 4, 0], "<u4").tobytes())
        with pytest.raises(FormatError) as exc:  # an empty payload, so it is 0 bytes long
            load_series(path)
        assert exc.value.offset == 8
        assert "bad header" in str(exc.value) and "node" in str(exc.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_rejected_at_its_offset(self, tmp_path, bad):
        series = synthesize(nodes=4, days=2, patterns=2, seed=1, steps_per_day=8)
        path = tmp_path / "nf.mhgt"
        save_series(series, path)
        blob = bytearray(path.read_bytes())
        index = 13  # step 3, node 1
        blob[28 + 4 * index : 32 + 4 * index] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_series(path)
        assert exc.value.offset == 28 + 4 * index

    def test_signaling_nan_rejected(self, tmp_path):
        # casting a signaling NaN to float64 warns, so it must be caught first
        series = synthesize(nodes=4, days=2, patterns=2, seed=1, steps_per_day=8)
        path = tmp_path / "snan.mhgt"
        save_series(series, path)
        blob = bytearray(path.read_bytes())
        blob[28 + 4 * 5 : 32 + 4 * 5] = bytes.fromhex("0100807f")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_series(path)
        assert exc.value.offset == 28 + 4 * 5

    def test_csv_convert(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        rows = np.arange(24.0).reshape(8, 3)
        csv_path.write_text("\n".join(",".join(str(v) for v in r) for r in rows))
        out = tmp_path / "raw.mhgt"
        series = convert_csv(csv_path, out, steps_per_day=4, start_weekday=2)
        assert series.steps == 8 and series.nodes == 3
        loaded = load_series(out)
        assert loaded.start_weekday == 2
        assert np.allclose(loaded.values[:, :, 0], rows)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e39"])
    def test_csv_nonfinite_rejected_with_line(self, tmp_path, bad):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text(f"1,2,3\n\n4,{bad},6\n")
        out = tmp_path / "o.mhgt"
        with pytest.raises(FormatError, match="line 3"):
            convert_csv(csv_path, out)
        assert not out.exists()

    def test_csv_ragged_rejected(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("1,2,3\n4,5\n")
        with pytest.raises(FormatError):
            convert_csv(csv_path, tmp_path / "o.mhgt")

    def test_csv_reader_error_names_its_line(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("1\n2\n" + "3" * 200_000 + "\n")  # over csv's field size limit
        with pytest.raises(FormatError, match="line 3:"):
            convert_csv(csv_path, tmp_path / "o.mhgt", steps_per_day=1)

    def test_csv_ragged_error_names_first_bad_line(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("1,2,3\n\n4,5,6\n7,8\n9\n")
        with pytest.raises(FormatError, match="line 4:"):
            convert_csv(csv_path, tmp_path / "o.mhgt")


class TestWindows:
    def test_sample_count_pems04_scale(self):
        series = _series(16992, 2, steps_per_day=288)
        w = make_windows(series, 12, 12)
        assert len(w) == 16969

    def test_single_window(self):
        series = _series(24, 3, steps_per_day=12)
        w = make_windows(series, 12, 12)
        assert len(w) == 1

    def test_first_sample_calendar(self):
        series = _series(48, 2, steps_per_day=24, start_weekday=0)
        w = make_windows(series, 12, 12)
        assert np.array_equal(w.tod_index[0], np.arange(12))
        assert np.array_equal(w.dow_index[0], np.zeros(12))

    def test_calendar_formulas(self):
        series = _series(60, 2, steps_per_day=10, start_weekday=3)
        w = make_windows(series, 5, 5)
        s, j = 17, 4
        assert w.tod_index[s][j] == (s + j) % 10
        assert w.dow_index[s][j] == (3 + (s + j) // 10) % 7

    def test_roundtrip_values(self):
        series = _series(40, 3, channels=2, steps_per_day=10)
        w = make_windows(series, 7, 3)
        for s in (0, 5, 20):
            assert np.array_equal(w.inputs[s][6], series.values[s + 6])
            assert np.array_equal(w.targets[s][0, :, 0], series.values[s + 7, :, 0])

    def test_contiguity(self):
        series = _series(30, 2, steps_per_day=10)
        w = make_windows(series, 4, 2)
        # target window starts exactly where the input window ends
        assert np.array_equal(w.targets[3][0, :, 0], series.values[7, :, 0])

    def test_too_short(self):
        series = _series(10, 2, steps_per_day=10)
        with pytest.raises(ShapeError):
            make_windows(series, 8, 8)


class TestSplit:
    def _windows(self, n):
        series = _series(n + 5, 2, steps_per_day=n + 5)
        return make_windows(series, 3, 3)

    def test_pems04_split_sizes(self):
        series = _series(16992, 1, steps_per_day=288)
        w = make_windows(series, 12, 12)
        train, val, test = split(w, (0.6, 0.2, 0.2))
        assert (len(train), len(val), len(test)) == (10181, 3393, 3395)

    def test_small_split(self):
        w = self._windows(10)
        train, val, test = split(w, (0.8, 0.1, 0.1))
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_degenerate_rejected(self):
        w = self._windows(10)
        with pytest.raises(ConfigError):
            split(w, (0.5, 0.5, 0.0))

    def test_ratio_sum_checked(self):
        w = self._windows(10)
        with pytest.raises(ConfigError):
            split(w, (0.5, 0.3, 0.3))

    def test_chronological(self):
        series = _series(60, 2, steps_per_day=10)
        w = make_windows(series, 4, 2)
        train, val, test = split(w, (0.6, 0.2, 0.2))
        # splits are chronological: earliest samples go to train
        assert np.array_equal(train.inputs[0], w.inputs[0])
        assert np.array_equal(val.inputs[0], w.inputs[len(train)])
        assert np.array_equal(test.inputs[-1], w.inputs[len(w) - 1])

    def test_no_duplication(self):
        w = self._windows(20)
        parts = split(w, (0.6, 0.2, 0.2))
        total = sum(len(p) for p in parts)
        assert total == len(w)


class TestScaler:
    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        x = rng.normal(100.0, 30.0, (50, 4))
        scaler = Scaler.fit(x)
        back = scaler.invert(scaler.apply(x))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_fit_on_train_only(self):
        series = _series(100, 2, steps_per_day=10, seed=3)
        bundle = make_bundle(series, 4, 2, (0.6, 0.2, 0.2))
        expected = Scaler.fit(bundle.train.inputs[..., 0])
        assert bundle.scaler == expected
        tampered = series.values.copy()
        tampered[-10:] += 1e6  # test-region change must not affect the scaler
        series2 = TrafficSeries(tampered, steps_per_day=10, start_weekday=0)
        bundle2 = make_bundle(series2, 4, 2, (0.6, 0.2, 0.2))
        assert bundle2.scaler == bundle.scaler

    def test_zero_std_guard(self):
        scaler = Scaler.fit(np.ones(10))
        assert scaler.std == 1e-8


class TestSynthesize:
    def test_round_robin_assignment(self):
        series = synthesize(nodes=24, days=7, patterns=2, seed=1)
        assert series.steps == 2016
        counts = np.bincount(series.planted_types)
        assert np.array_equal(counts, [12, 12])

    def test_single_pattern(self):
        series = synthesize(nodes=4, days=2, patterns=1, seed=2, steps_per_day=24)
        assert np.array_equal(series.planted_types, np.zeros(4))
        # all nodes share the deterministic component up to noise
        spread = series.values[:, :, 0].std(axis=1).mean()
        assert spread < 0.1 * series.values.std()

    def test_deterministic(self):
        a = synthesize(nodes=6, days=3, patterns=3, seed=9, steps_per_day=24)
        b = synthesize(nodes=6, days=3, patterns=3, seed=9, steps_per_day=24)
        assert np.array_equal(a.values, b.values)
        c = synthesize(nodes=6, days=3, patterns=3, seed=10, steps_per_day=24)
        assert not np.array_equal(a.values, c.values)

    def test_nodes_less_than_patterns(self):
        with pytest.raises(ConfigError):
            synthesize(nodes=2, days=3, patterns=3, seed=1)

    def test_types_distinguishable(self):
        series = synthesize(nodes=8, days=7, patterns=2, seed=5, steps_per_day=48)
        x = series.values[:, :, 0]
        same = np.corrcoef(x[:, 0], x[:, 2])[0, 1]
        cross = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert same > cross + 0.2
