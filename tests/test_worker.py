"""The kernels' spans on two threads (``numcore.worker``) against one thread.

Without a gradient, ``gru_sequence`` and ``regression_head`` run two or more
spans in two halves, the second on a worker thread, when two CPUs are
usable. The spans and their arithmetic are those of one thread, so each
test here runs a call with the usable-CPU count patched to 1 and to 2, and
asserts that the results agree bit for bit and that the second call's
spans did run on the worker. Also: a NaN stays in its own columns, an
exception on either thread reaches the caller and leaves the worker usable,
a call after an interrupted wait gets its own half's report, one-span and
gradient calls start no worker, a forked child starts its own, and threads
that call the kernels at once get the one-thread bits.
"""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from mhgnet.data import make_bundle, synthesize
from mhgnet.model import ForecastModel, ModelConfig
from mhgnet.numcore import Tensor, gru_sequence, regression_head, worker
from mhgnet.numcore import tensor as tensor_module
from mhgnet.train_eval import predict

SPAN_FUNCTIONS = ("_gru_spans", "_head_spans")


@pytest.fixture
def cpus(monkeypatch):
    """Sets the usable-CPU count; returns the setter."""

    def use(count):
        monkeypatch.setattr(worker, "usable_cpus", lambda: count)

    use(2)
    return use


@pytest.fixture
def threads(monkeypatch):
    """The names of the threads that ran span functions since the last clear()."""
    seen = set()
    for name in SPAN_FUNCTIONS:

        def recording(*args, _original=getattr(tensor_module, name)):
            seen.add(threading.current_thread().name)
            return _original(*args)

        monkeypatch.setattr(tensor_module, name, recording)
    return seen


def _one_and_two(cpus, threads, call):
    """``call()`` on one usable CPU, then on two; asserts who ran the spans, returns both."""
    results = []
    for count, names in ((1, {"MainThread"}), (2, {"MainThread", "numcore-spans"})):
        cpus(count)
        threads.clear()
        results.append(call())
        assert threads == names, count
    return results


def _gru_args(seed, t=4, k=3, w=10, m=37, v=10, u=10):
    rng = np.random.default_rng(seed)
    shapes = [(t, k, m), (k + w, 2 * w), (k + w, w), (t * w, v), (v, u), (u,)]
    return [rng.normal(size=shape) for shape in shapes], (rng.random((t, w, m)) < 0.6) / 0.6


# the kernels take no gradient of untracked arguments; no_grad is not used,
# as it sets one flag for every thread
def _gru(args, mask, encode=True):
    if not encode:
        return gru_sequence(*args[:3]).data
    return gru_sequence(*args[:3], args[3:], mask).data


def _head_args(seed, b=7, n=5):
    rng = np.random.default_rng(seed)
    shapes = [(b, n, c) for c in (4, 3, 6)] + [(b, c) for c in (2, 2)]
    shapes += [(17, 5), (5,), (5, 3), (3,), (3,)]
    return [rng.normal(size=shape) for shape in shapes]


def _head(args):
    return regression_head(args[:3], args[3:5], *args[5:]).data


class TestBitwiseOnTwoThreads:
    # M = 37 in 6 spans of 6 or 7 columns, 4 spans of 9 or 10, or 3 spans (an odd count)
    @pytest.mark.parametrize("columns", [7, 10, 13])
    @pytest.mark.parametrize("masked", [False, True])
    def test_gru_encoding(self, cpus, threads, monkeypatch, columns, masked):
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", columns)
        args, mask = _gru_args(300 + columns)
        one, two = _one_and_two(cpus, threads, lambda: _gru(args, mask if masked else None))
        assert np.array_equal(one, two)

    def test_gru_states(self, cpus, threads, monkeypatch):
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 10)
        args, _ = _gru_args(310)
        one, two = _one_and_two(cpus, threads, lambda: _gru(args, None, encode=False))
        assert np.array_equal(one, two)

    # 7 windows of 5 nodes: 7 spans of one window, or 4 spans of 1 or 2 windows
    @pytest.mark.parametrize("rows", [5, 10])
    def test_head(self, cpus, threads, monkeypatch, rows):
        monkeypatch.setattr(tensor_module, "HEAD_ROWS", rows)
        args = _head_args(320 + rows)
        one, two = _one_and_two(cpus, threads, lambda: _head(args))
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("mode", ["full", "no_sg", "no_tg"])
    def test_predict_at_n300_b64(self, cpus, threads, mode):
        bundle = make_bundle(synthesize(300, 2, 3, seed=1), 12, 12)
        model = ForecastModel(ModelConfig(n=300, seed=1, graph_mode=mode))
        rng = np.random.default_rng(7)
        for p in model.parameters():
            p.tensor.data = p.tensor.data + 0.1 * rng.normal(size=p.tensor.data.shape)
        model.refresh_clusters(bundle.train, bundle.scaler)
        windows = bundle.test.slice(slice(0, 64))
        one, two = _one_and_two(
            cpus, threads, lambda: predict(model, windows, bundle.scaler, batch_size=64)
        )
        assert np.array_equal(one, two)


class TestIsolation:
    def test_a_nan_stays_in_its_gru_columns(self, cpus, threads, monkeypatch):
        # sequence 30 sits in the worker's half of 6 spans
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)
        args, mask = _gru_args(330)
        clean = _gru(args, mask)
        args[0][2, 1, 30] = np.nan
        threads.clear()
        out = _gru(args, mask)
        assert "numcore-spans" in threads
        others = np.arange(args[0].shape[2]) != 30
        assert np.isnan(out[:, 30]).all()
        assert np.array_equal(out[:, others], clean[:, others])

    def test_a_nan_stays_in_its_head_window(self, cpus, threads, monkeypatch):
        monkeypatch.setattr(tensor_module, "HEAD_ROWS", 5)
        args = _head_args(331)
        clean = _head(args)
        args[0][6, 2, 1] = np.nan  # window 6, node 2: the worker's half
        threads.clear()
        out = _head(args)
        assert "numcore-spans" in threads
        assert np.isnan(out[6, :, 2]).all()
        assert np.isfinite(np.delete(out[6], 2, axis=1)).all()
        assert np.array_equal(out[:6], clean[:6])


class TestErrors:
    @pytest.mark.parametrize("failing", ["numcore-spans", "MainThread"])
    def test_an_error_on_either_half_reaches_the_caller(self, cpus, monkeypatch, failing):
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)
        args, mask = _gru_args(340)
        want = _gru(args, mask)
        original = tensor_module._gru_spans

        def failing_half(*spans_args):
            if threading.current_thread().name == failing:
                raise KeyError("half")
            return original(*spans_args)

        monkeypatch.setattr(tensor_module, "_gru_spans", failing_half)
        with pytest.raises(KeyError, match="half"):
            _gru(args, mask)
        monkeypatch.setattr(tensor_module, "_gru_spans", original)
        assert np.array_equal(_gru(args, mask), want)
        assert worker._worker.thread.is_alive()


    def test_an_interrupted_wait_leaves_the_next_call_its_own_report(self, cpus, monkeypatch):
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)
        args, mask = _gru_args(341)
        want = _gru(args, mask)
        interrupted = worker._worker

        class InterruptedWait:
            """The worker's report queue, whose reader is interrupted once."""

            def __init__(self, reports):
                self.reports = reports

            def put(self, report):
                self.reports.put(report)

            def get(self):
                interrupted.done = self.reports
                raise KeyboardInterrupt

        interrupted.done = InterruptedWait(interrupted.done)
        with pytest.raises(KeyboardInterrupt):
            _gru(args, mask)
        assert np.array_equal(_gru(args, mask), want)
        assert worker._worker is not interrupted


class TestNoWorker:
    @pytest.fixture(autouse=True)
    def no_worker_yet(self, monkeypatch, cpus):
        monkeypatch.setattr(worker, "_worker", None)

    def test_one_span_calls(self, threads):
        bundle = make_bundle(synthesize(300, 2, 3, seed=1), 12, 12)
        model = ForecastModel(ModelConfig(n=300, seed=1))
        model.refresh_clusters(bundle.train, bundle.scaler)
        threads.clear()
        predict(model, bundle.test.slice(slice(0, 3)), bundle.scaler, batch_size=1)
        assert threads == {"MainThread"}
        assert worker._worker is None

    def test_gradient_calls(self, threads, monkeypatch):
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)
        monkeypatch.setattr(tensor_module, "HEAD_ROWS", 5)
        args, mask = _gru_args(350)
        leaves = [Tensor(a, requires_grad=True) for a in args]
        assert gru_sequence(*leaves[:3], leaves[3:], mask).requires_grad
        leaves = [Tensor(a, requires_grad=True) for a in _head_args(351)]
        assert regression_head(leaves[:3], leaves[3:5], *leaves[5:]).requires_grad
        assert threads == {"MainThread"}
        assert worker._worker is None

    def test_one_usable_cpu(self, cpus, threads, monkeypatch):
        cpus(1)
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)
        _gru(*_gru_args(352))
        assert threads == {"MainThread"}
        assert worker._worker is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker(cpus, monkeypatch):
    monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 256)
    monkeypatch.setattr(tensor_module, "HEAD_ROWS", 256)
    bundle = make_bundle(synthesize(24, 4, 3, seed=1), 12, 12)
    model = ForecastModel(ModelConfig(n=24, seed=1))
    model.refresh_clusters(bundle.train, bundle.scaler)
    windows = bundle.test.slice(slice(0, 64))
    want = predict(model, windows, bundle.scaler, batch_size=64)  # 6 GRU spans
    parent_worker = worker._worker
    assert parent_worker is not None and parent_worker.thread.is_alive()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, Python 3.12+
        pid = os.fork()
    if pid == 0:  # the child: exit code 0 when it forecast the same bits on a worker of its own
        code = 1
        try:
            fresh = worker._worker is None
            got = predict(model, windows, bundle.scaler, batch_size=64)
            started = worker._worker is not None and worker._worker.thread.is_alive()
            code = 0 if fresh and started and np.array_equal(got, want) else 2
        finally:
            sys.stdout.flush()
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its forecast")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_threads_calling_at_once_get_the_one_thread_bits(cpus, monkeypatch):
    monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)
    monkeypatch.setattr(tensor_module, "HEAD_ROWS", 5)
    cases = [_gru_args(360 + i) for i in range(3)] + [_head_args(370 + i) for i in range(3)]
    calls = [lambda c=c: _gru(*c) for c in cases[:3]] + [lambda c=c: _head(c) for c in cases[3:]]
    cpus(1)
    want = [call() for call in calls]
    cpus(2)
    mismatches = []

    def hammer(i):
        for _ in range(20):
            if not np.array_equal(calls[i](), want[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=hammer, args=(i,)) for i in range(len(calls))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert mismatches == []
