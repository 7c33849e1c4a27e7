"""A second thread for the kernels' column spans, when a second CPU can run it.

Without a gradient, :func:`~mhgnet.numcore.tensor.gru_sequence` and
:func:`~mhgnet.numcore.tensor.regression_head` run independent spans of the
batch, each writing its own columns or rows of the output. numpy's GEMMs and
elementwise loops release the interpreter lock, so two halves of the spans
can run at once: :func:`run_halves` runs the first half on the calling
thread and the second on one worker thread. The spans and their arithmetic
are those of one thread, so the results are bitwise the same.

The worker is started on first use, not at import. A process forked after
that starts its own. The caller allocates both halves' buffers; the worker
drops its references to them before the call returns, so they go when the
caller's do. The worker runs only when :func:`usable_cpus` gives two or
more: on one CPU the halves would take turns and gain nothing.
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
    """Whether :func:`run_halves` would split these spans across two threads."""
    return len(spans) >= 2 and usable_cpus() >= 2


class _Worker:
    """One daemon thread that runs queued calls in order and reports each one's error."""

    def __init__(self):
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, name="numcore-spans", daemon=True)
        self.thread.start()

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
            del error  # and a failed half's frames with the caller's exception


_worker: _Worker | None = None
_lock = threading.Lock()  # held by the one caller whose halves the worker runs


def _forget_worker() -> None:
    """In a forked child: the worker thread was not copied, so the next call starts one."""
    global _worker, _lock
    _worker, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def run_halves(run: Callable, spans: Sequence, first: tuple, second: tuple) -> None:
    """``run(spans[:h], *first)`` on this thread while the worker runs ``run(spans[h:], *second)``.

    The calling thread takes the larger half, h = ceil(len(spans) / 2), as
    the worker starts later. Returns when both halves are done, and raises
    the worker's exception if it raised one and this thread's half did not.
    While another thread's halves hold the worker, both halves run here,
    one after the other.
    """
    global _worker
    half = (len(spans) + 1) // 2
    if not _lock.acquire(blocking=False):
        run(spans[:half], *first)
        run(spans[half:], *second)
        return
    try:
        if _worker is None:
            _worker = _Worker()
        _worker.tasks.put((run, (spans[half:], *second)))
        try:
            run(spans[:half], *first)
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
