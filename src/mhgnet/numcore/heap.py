"""Fixed glibc malloc settings, so large arrays are placed the same way in every run.

numcore's kernels allocate and free the same large arrays on every call (a
B=64 forecast at N=300 frees an 18 MB one). glibc decides where such a block
goes by two thresholds that slide with the process's history: a request of
at least the mmap threshold gets fresh pages of its own, and freeing one
raises the threshold to that block's size, and the trim threshold to twice
it; the heap gives its free top back to the system when it grows past the
trim threshold. So whether an array comes back warm from the heap or is
faulted in afresh on every call depends on which blocks the process freed
before, and on whether some small block happens to sit above it in the
heap. After an in-process training run, batched forecasts went from one of
these states to the other between runs of the same program, and took 25%
longer in one of them.

Setting both thresholds at import turns the sliding off. They are the
values glibc itself would reach once a block of its largest mmap threshold
(32 MB on 64-bit) had been freed: requests below 32 MB come from the heap,
which keeps up to 64 MB of free top.

The kernels' second thread (``numcore.worker``) would take its own
allocations from an arena of its own, whose freed pages stay resident
outside the heap these thresholds place. So the arena count is fixed at 1
too, and every thread allocates from the one heap.

Thresholds that the environment sets (``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_``) are left as they are, and so is an arena count
it sets (``MALLOC_ARENA_MAX``). ``GLIBC_TUNABLES`` leaves all of them, and
so does every C library other than glibc.
"""

from __future__ import annotations

import ctypes
import os

M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's malloc.h
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
# mallopt settings by group, each with the variables that leave the group
# alone when the environment sets any of them
SETTINGS = (
    (
        ((M_MMAP_THRESHOLD, MMAP_THRESHOLD), (M_TRIM_THRESHOLD, TRIM_THRESHOLD)),
        ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"),
    ),
    (((M_ARENA_MAX, 1),), ("MALLOC_ARENA_MAX",)),
)
ENVIRONMENT = (*(name for _, names in SETTINGS for name in names), "GLIBC_TUNABLES")


def fix_malloc() -> bool:
    """Set glibc's mmap and trim thresholds and its arena count; True when all were set."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc or "GLIBC_TUNABLES" in os.environ:
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    made = True
    for values, names in SETTINGS:
        if any(name in os.environ for name in names):
            made = False
            continue
        for param, value in values:
            made = bool(mallopt(param, value)) and made
    return made
