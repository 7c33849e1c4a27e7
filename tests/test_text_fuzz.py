"""Fuzz tests for the two text parsers (run configs, CSV series).

Any input either parses or raises the parser's typed error (ConfigError for
configs, FormatError for CSV); no other exception may escape. The example
count comes from the Hypothesis profile (see conftest.py).
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhgnet.config import RunConfig, load_config, parse_config, render_config
from mhgnet.data import convert_csv, load_series
from mhgnet.errors import ConfigError, FormatError

KEYS = [line.split(" = ")[0] for line in render_config(RunConfig()).splitlines()]
VALUES = st.one_of(
    st.integers(-3, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["true", "false", "full", "no_sg", "no_tg", "nan", "-inf", ""]),
    st.text(max_size=8),
)
CELLS = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "1e39", "", " 2", "x", '"3"', '"4\n5"']),
    st.text(max_size=4),
)


def _parses_or_config_error(text: str) -> None:
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    numbers = astuple(cfg.model) + astuple(cfg.schedule) + cfg.ratios
    assert all(math.isfinite(v) for v in numbers if isinstance(v, float))


@given(st.text(max_size=200))
def test_config_arbitrary_text(text):
    _parses_or_config_error(text)


@given(st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=8))
def test_config_key_value_lines(pairs):
    _parses_or_config_error("".join(f"{key} = {value}\n" for key, value in pairs))


@given(st.binary(max_size=120))
def test_config_file_arbitrary_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(blob)
    try:
        assert isinstance(load_config(path), RunConfig)
    except ConfigError:
        pass


def _converts_or_format_error(tmp_path_factory, blob: bytes) -> None:
    folder = tmp_path_factory.mktemp("csv")
    src, dst = folder / "in.csv", folder / "out.mhgt"
    src.write_bytes(blob)
    try:
        series = convert_csv(src, dst, steps_per_day=1)
    except FormatError:
        assert not dst.exists()
        return
    stored = load_series(dst).values
    assert np.array_equal(stored, series.values.astype(np.float32))


@given(st.binary(max_size=120))
def test_csv_arbitrary_bytes(tmp_path_factory, blob):
    _converts_or_format_error(tmp_path_factory, blob)


@given(
    st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=5),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_csv_rows(tmp_path_factory, rows, newline):
    text = newline.join(",".join(row) for row in rows)
    _converts_or_format_error(tmp_path_factory, text.encode("utf-8"))


@pytest.mark.parametrize(
    "blob,line",
    [(b"1,2\n3,\xfe4\n", 2), (b"\xff", 1), (b"1\r\n2\r\n\x80", 3)],
)
def test_csv_invalid_utf8_names_its_line(tmp_path, blob, line):
    src = tmp_path / "in.csv"
    src.write_bytes(blob)
    with pytest.raises(FormatError, match=f"line {line}:"):
        convert_csv(src, tmp_path / "out.mhgt", steps_per_day=1)
