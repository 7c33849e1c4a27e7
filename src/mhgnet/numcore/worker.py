"""A second thread for the kernels' column spans, on a CPU of its own.

Without a gradient, :func:`~mhgnet.numcore.tensor.gru_sequence` and
:func:`~mhgnet.numcore.tensor.regression_head` run independent spans of the
batch, each writing its own columns or rows of the output. numpy's GEMMs and
elementwise loops release the interpreter lock, so two threads can run
spans at once: :func:`run_split` runs them on the calling thread and on one
worker thread. The spans and their arithmetic are those of one thread, so
the results are bitwise the same.

*Placement.* Where a cpuset does not balance load
(``cpuset.sched_load_balance`` 0, as on the 2-vCPU machine the README's
figures come from), the kernel never moves a thread off the CPU it started
on, and an unpinned worker often shared the caller's CPU: there a split GRU
at M = 19,200 took 28 ms against 23.6 ms on one thread, and 16–18 ms when
the worker sat on the other CPU. So at each split the caller reads its own
CPU (glibc's ``sched_getcpu``, 0.2 µs) and, when the worker is not pinned
yet, sits on that CPU or on one outside the caller's affinity, pins it to
another CPU of the caller's affinity. When the caller's affinity has no
other CPU the worker runs unpinned, in the caller's affinity.

*Claiming.* The worker starts with the last span, so every split runs at
least one span on it; then both threads take the remaining spans one at a
time, in order, from one shared iterator. A worker slowed by a busy
neighbour on its CPU leaves its share to the caller: with a busy loop on the
other CPU, the pinned GRU above took 21–36 ms with fixed halves and 17–25 ms
with spans claimed one at a time.

The worker is started on first use, not at import. A process forked after
that starts its own. The caller allocates both threads' buffers; the worker
drops its references to them before the call returns, so they go when the
caller's do. The worker runs only when :func:`usable_cpus` gives two or
more: on one CPU the threads would take turns and gain nothing.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Sequence


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask), 1 where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return 1


def share(spans: Sequence) -> bool:
    """Whether :func:`run_split` would run these spans on two threads."""
    return len(spans) >= 2 and usable_cpus() >= 2


def _cpu_reader() -> Callable[[], int]:
    """glibc's ``sched_getcpu``: the calling thread's CPU, or -1 where it is unknown."""
    import ctypes  # loaded already, by numcore.heap

    try:
        read = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):  # no C library with it
        return lambda: -1
    read.argtypes, read.restype = [], ctypes.c_int
    return read


class _Worker:
    """One daemon thread that runs queued calls in order and reports each one's error."""

    def __init__(self):
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.caller_cpu = _cpu_reader()
        self.cpu: int | None = None  # the CPU it is pinned to
        self.thread = threading.Thread(target=self._serve, name="numcore-spans", daemon=True)
        self.thread.start()

    def place(self) -> None:
        """Pin the thread to a CPU of the caller's affinity other than the caller's own."""
        here = self.caller_cpu()
        if here < 0:
            return
        allowed = os.sched_getaffinity(0)
        if self.cpu in allowed and self.cpu != here:
            return
        others = sorted(allowed - {here})
        # the next CPU after the caller's, so that callers spread over CPUs spread their workers
        cpu = next((c for c in others if c > here), others[0]) if others else None
        try:
            os.sched_setaffinity(self.thread.native_id, allowed if cpu is None else {cpu})
        except OSError:  # a CPU the cpuset refuses: the thread keeps its affinity
            return
        self.cpu = cpu

    def _serve(self) -> None:
        while True:
            run, args = self.tasks.get()
            error = None
            try:
                run(*args)
            except BaseException as exc:  # re-raised on the calling thread
                error = exc
            del run, args  # before the caller is told, so its buffers go with its references
            self.done.put(error)
            del error  # and a failed call's frames with the caller's exception


_worker: _Worker | None = None
_lock = threading.Lock()  # held by the one caller whose spans the worker shares


def _forget_worker() -> None:
    """In a forked child: the worker thread was not copied, so the next call starts one."""
    global _worker, _lock
    _worker, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def run_split(run: Callable, spans: Sequence, first: tuple, second: tuple) -> None:
    """``run(claimed, *first)`` on this thread while the worker runs ``run(claimed, *second)``.

    Each ``claimed`` is an iterator over some of ``spans``, which together
    cover every span once: the worker's starts with the last span, and both
    then take the rest one at a time from one shared list iterator, whose
    ``next`` the interpreter lock makes atomic. ``first`` and ``second`` are
    each thread's buffers. Returns when both calls are done, and raises the
    worker's exception if it raised one and this thread's call did not.
    While another thread's call holds the worker, or when no worker thread
    can be started, ``run(spans, *first)`` runs here alone.
    """
    global _worker
    if not _lock.acquire(blocking=False):
        run(spans, *first)
        return
    try:
        if _worker is None:
            try:
                _worker = _Worker()
            except RuntimeError:  # no thread can be started now; the next call tries again
                run(spans, *first)
                return
        _worker.place()
        rest = iter(spans[:-1])
        reserved = (span for claimed in (spans[-1:], rest) for span in claimed)
        _worker.tasks.put((run, (reserved, *second)))
        try:
            run(rest, *first)
        finally:
            try:
                error = _worker.done.get()
            except BaseException:  # an interrupted wait: this worker's report would reach
                _worker = None  # the next call, so that call starts another worker
                raise
    finally:
        _lock.release()
    if error is not None:
        raise error
