"""The kernels' spans on two threads (``numcore.worker``) against one thread.

Without a gradient, ``gru_sequence`` and ``regression_head`` run two or more
spans on the calling thread and a worker thread, which claim them one at a
time, when two CPUs are usable. The spans and their arithmetic are those of
one thread, so each test here runs a call with the usable-CPU count patched
to 1 and to 2, and asserts that the results agree bit for bit and that the
second call's spans did run on the worker. The worker is pinned to a CPU of
the caller's affinity other than the caller's, moved when the caller comes
onto its CPU, left unpinned when the caller's affinity has no other CPU, and
always runs the last span, however slow it is. Also: a NaN stays in its own columns, an
exception on either thread reaches the caller and leaves the worker usable,
a call after an interrupted wait gets its own half's report, one-span and
gradient calls start no worker, nor does a call whose thread cannot start, a
forked child starts its own, and threads that call the kernels at once get
the one-thread bits. Grad mode is per thread: interleaved ``no_grad`` blocks
leave it on in every thread, and a thread that trains beside one that
forecasts gets the gradients of a run alone.
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
from mhgnet.numcore import Tensor, grad_enabled, gru_sequence, no_grad, regression_head, worker
from mhgnet.numcore import tensor as tensor_module
from mhgnet.train_eval import masked_mae_loss, predict

SPAN_FUNCTIONS = ("_gru_spans", "_head_spans")
two_cpus = pytest.mark.skipif(worker.usable_cpus() < 2, reason="needs two usable CPUs")


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


# the kernels take no gradient of untracked arguments
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
        # sequence 30 sits in the last of 6 spans, which the worker runs first
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
        args[0][6, 2, 1] = np.nan  # window 6, node 2: the last span, the worker's
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

    def test_a_thread_that_cannot_start(self, cpus, threads, monkeypatch):
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)
        args, mask = _gru_args(353)
        cpus(1)
        want = _gru(args, mask)
        cpus(2)

        def cannot_start(thread):
            raise RuntimeError("can't start new thread")

        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", cannot_start)
            threads.clear()
            assert np.array_equal(_gru(args, mask), want)
            assert threads == {"MainThread"}
            assert worker._worker is None
        threads.clear()
        assert np.array_equal(_gru(args, mask), want)  # the next call starts one
        assert threads == {"MainThread", "numcore-spans"}


def _in_a_forked_child(check) -> bool:
    """Whether ``check()`` returns True in a forked child of this process."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, Python 3.12+
        pid = os.fork()
    if pid == 0:  # the child: exit code 0 when the check holds
        code = 1
        try:
            code = 0 if check() else 2
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
            pytest.fail("the forked child did not finish its check")
        time.sleep(0.01)
    return os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.fixture
def forecast_at_n24(cpus, monkeypatch):
    """A B=64 forecast at N=24 in 6 GRU spans, and the one to expect; the worker is started."""
    monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 256)
    monkeypatch.setattr(tensor_module, "HEAD_ROWS", 256)
    bundle = make_bundle(synthesize(24, 4, 3, seed=1), 12, 12)
    model = ForecastModel(ModelConfig(n=24, seed=1))
    model.refresh_clusters(bundle.train, bundle.scaler)
    windows = bundle.test.slice(slice(0, 64))

    def forecast():
        return predict(model, windows, bundle.scaler, batch_size=64)

    want = forecast()
    assert worker._worker is not None and worker._worker.thread.is_alive()
    return forecast, want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker(cpus, forecast_at_n24):
    forecast, want = forecast_at_n24

    def child():  # forecasts the same bits on a worker of its own
        fresh = worker._worker is None
        got = forecast()
        started = worker._worker is not None and worker._worker.thread.is_alive()
        return fresh and started and np.array_equal(got, want)

    assert _in_a_forked_child(child)


@two_cpus
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_pins_a_worker_of_its_own(forecast_at_n24):
    forecast, want = forecast_at_n24

    def child():
        got = forecast()
        own = worker._worker
        return (
            np.array_equal(got, want)
            and own.cpu in os.sched_getaffinity(0)
            and os.sched_getaffinity(own.thread.native_id) == {own.cpu}
        )

    assert _in_a_forked_child(child)


class TestPlacement:
    @pytest.fixture(autouse=True)
    def fresh_worker(self, monkeypatch, cpus):
        """A worker started by the test's first split, whose caller's CPU reads are recorded."""
        monkeypatch.setattr(worker, "_worker", None)
        monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)  # 37 sequences in 6 spans
        self.reads = []
        read = worker._cpu_reader()

        def recording():
            self.reads.append(read())
            return self.reads[-1]

        monkeypatch.setattr(worker, "_cpu_reader", lambda: recording)

    @staticmethod
    def pinned() -> set:
        return os.sched_getaffinity(worker._worker.thread.native_id)

    @two_cpus
    def test_the_worker_runs_on_another_cpu_of_the_callers_affinity(self):
        _gru(*_gru_args(380))
        (cpu,) = self.pinned()
        assert cpu == worker._worker.cpu
        assert cpu in os.sched_getaffinity(0)
        assert cpu != self.reads[-1]

    @two_cpus
    def test_a_caller_on_the_workers_cpu_moves_the_worker(self, monkeypatch):
        args, mask = _gru_args(381)
        want = _gru(args, mask)
        (cpu,) = self.pinned()
        # the caller reads the worker's CPU as its own, as after a move there
        monkeypatch.setattr(worker._worker, "caller_cpu", lambda: cpu)
        assert np.array_equal(_gru(args, mask), want)
        (moved,) = self.pinned()
        assert moved != cpu
        assert moved in os.sched_getaffinity(0)

    def test_a_one_cpu_affinity_leaves_the_worker_unpinned(self, cpus, threads):
        args, mask = _gru_args(382)
        cpus(1)
        want = _gru(args, mask)
        cpus(2)
        _gru(args, mask)  # starts the worker, pinned where the caller has another CPU
        allowed = os.sched_getaffinity(0)
        one = {min(allowed)}
        os.sched_setaffinity(0, one)
        try:
            threads.clear()
            got = _gru(args, mask)
            assert self.pinned() == one
            assert worker._worker.cpu is None
        finally:
            os.sched_setaffinity(0, allowed)
        assert threads == {"MainThread", "numcore-spans"}
        assert np.array_equal(got, want)

    def test_a_slowed_worker_still_runs_the_last_span(self, cpus, monkeypatch):
        args, mask = _gru_args(383)
        cpus(1)
        want = _gru(args, mask)
        cpus(2)
        ran = []
        original = tensor_module._gru_spans

        def slowed(spans, *rest):
            name = threading.current_thread().name

            def claimed():
                for i, span in spans:
                    if name == "numcore-spans":
                        time.sleep(0.2)
                    ran.append((name, i))
                    yield i, span

            return original(claimed(), *rest)

        monkeypatch.setattr(tensor_module, "_gru_spans", slowed)
        assert np.array_equal(_gru(args, mask), want)
        assert sorted(i for _, i in ran) == list(range(6))
        assert [i for name, i in ran if name == "numcore-spans"] == [5]


def test_threads_calling_at_once_get_the_one_thread_bits(cpus, monkeypatch):
    # tracked arguments under no_grad, each thread in blocks of its own
    monkeypatch.setattr(tensor_module, "GRU_COLUMNS", 7)
    monkeypatch.setattr(tensor_module, "HEAD_ROWS", 5)

    def tracked(args):
        return [Tensor(a, requires_grad=True) for a in args]

    def untracked(call, *args):
        with no_grad():
            return call(*args)

    gru_cases = [_gru_args(360 + i) for i in range(3)]
    head_cases = [tracked(_head_args(370 + i)) for i in range(3)]
    calls = [lambda c=c: untracked(_gru, tracked(c[0]), c[1]) for c in gru_cases]
    calls += [lambda c=c: untracked(_head, c) for c in head_cases]
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
    assert grad_enabled()
    leaves = head_cases[0]
    assert regression_head(leaves[:3], leaves[3:5], *leaves[5:]).requires_grad


class TestGradModePerThread:
    def test_interleaved_no_grad_blocks_leave_it_on_in_every_thread(self):
        # A enters, B enters, A leaves, B leaves: with one flag for the whole
        # process, B would restore the False it found on entering
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with no_grad():
                a_in.set()
                b_in.wait(10)
                seen["a inside"] = grad_enabled()
            seen["a after"] = grad_enabled()
            a_out.set()

        def b():
            a_in.wait(10)
            with no_grad():
                b_in.set()
                a_out.wait(10)
                seen["b inside"] = grad_enabled()
            seen["b after"] = grad_enabled()

        pair = [threading.Thread(target=a), threading.Thread(target=b)]
        for thread in pair:
            thread.start()
        for thread in pair:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pair)
        assert seen == {"a inside": False, "a after": True, "b inside": False, "b after": True}
        assert grad_enabled()
        fresh = []
        with no_grad():  # a thread started inside a block starts with grad mode on
            thread = threading.Thread(target=lambda: fresh.append(grad_enabled()))
            thread.start()
            thread.join(timeout=30)
            assert not grad_enabled()
        assert not thread.is_alive() and fresh == [True] and grad_enabled()

    def test_training_beside_a_forecasting_thread_gets_the_gradients_of_a_run_alone(self):
        bundle = make_bundle(synthesize(24, 4, 3, seed=1), 12, 12)
        windows = bundle.train.slice(slice(0, 16))
        x = bundle.scaler.apply(windows.inputs[..., :1])

        def gradients():
            # the cluster refresh runs under no_grad too; the step keeps dropout
            model = ForecastModel(ModelConfig(n=24, seed=1))
            model.refresh_clusters(bundle.train, bundle.scaler)
            pred = model.forward(x, windows.tod_index, windows.dow_index)
            masked_mae_loss(pred, windows.targets, bundle.scaler).backward()
            return [p.tensor.grad for p in model.parameters()]

        want = gradients()
        server = ForecastModel(ModelConfig(n=24, seed=2))
        server.refresh_clusters(bundle.train, bundle.scaler)
        served = bundle.test.slice(slice(0, 8))
        stop, forecasts = threading.Event(), []

        def serve():
            while not stop.is_set():
                forecasts.append(predict(server, served, bundle.scaler, batch_size=4))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        forecaster = threading.Thread(target=serve)
        forecaster.start()
        try:
            got = [gradients() for _ in range(3)]
        finally:
            stop.set()
            forecaster.join(timeout=60)
            sys.setswitchinterval(interval)
        assert forecasts and not forecaster.is_alive()
        for grads in got:
            assert all(g is not None and np.array_equal(g, w) for g, w in zip(grads, want))
        assert all(np.array_equal(f, forecasts[0]) for f in forecasts)
