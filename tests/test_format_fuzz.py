"""Fuzz tests for the two binary parsers (MHGT series, MHGC checkpoints).

Any input either parses or raises FormatError with a byte offset inside the
blob; no other exception may escape. The example count comes from the
Hypothesis profile (see conftest.py).
"""

from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mhgnet.data import MAGIC, load_series, save_series, synthesize
from mhgnet.errors import FormatError
from mhgnet.model import CKPT_MAGIC, ForecastModel, ModelConfig, load_checkpoint, save_checkpoint


class Format(NamedTuple):
    load: Callable
    magic: bytes
    valid: bytes  # a small file the loader accepts
    path: Path  # where each example is written


def _save_series(path):
    save_series(synthesize(nodes=2, days=2, patterns=1, seed=0, steps_per_day=3), path)


def _save_checkpoint(path):
    cfg = ModelConfig(n=3, p=2, d=1, d_s=1, d_t=1, t_h=1, t_f=1, k=1, hops=1, steps_per_day=2)
    model = ForecastModel(cfg)
    save_checkpoint(path, model.store.state(), model.assignment)


@pytest.fixture(scope="module", params=["series", "checkpoint"])
def fmt(request, tmp_path_factory):
    load, magic, save = {
        "series": (load_series, MAGIC, _save_series),
        "checkpoint": (load_checkpoint, CKPT_MAGIC, _save_checkpoint),
    }[request.param]
    path = tmp_path_factory.mktemp("fuzz") / "example"
    save(path)
    load(path)
    return Format(load, magic, path.read_bytes(), path)


def _parses_or_format_error(fmt: Format, blob: bytes) -> None:
    fmt.path.write_bytes(blob)
    try:
        fmt.load(fmt.path)
    except FormatError as exc:
        assert exc.offset is not None
        assert 0 <= exc.offset <= len(blob), (exc.offset, len(blob))


@given(data=st.data())
def test_arbitrary_bytes(fmt, data):
    prefix = data.draw(st.sampled_from([b"", fmt.magic, fmt.magic + b"\x01\x00\x00\x00"]))
    _parses_or_format_error(fmt, prefix + data.draw(st.binary(max_size=96)))


@given(data=st.data())
def test_truncated_valid_file(fmt, data):
    cut = data.draw(st.integers(0, len(fmt.valid)))
    _parses_or_format_error(fmt, fmt.valid[:cut])


@given(data=st.data())
def test_one_byte_changed(fmt, data):
    blob = bytearray(fmt.valid)
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]))
    _parses_or_format_error(fmt, bytes(blob))
