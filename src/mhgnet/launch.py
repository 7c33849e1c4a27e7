"""The ``mhgnet`` command, with one BLAS thread unless the environment sets another count.

OpenBLAS sizes its thread pool from the CPUs a process may run on, and with
more than one thread its dense products round differently: a ``no_tg``
forecast at N=300, whose [N, N] walk and top-k graph are such products,
differed between two CPUs and one (``taskset -c 0``) where
``OPENBLAS_NUM_THREADS`` was unset, and matched with it set to 1. So the
command sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where the environment leaves them unset, before
numpy is imported, and then runs :func:`mhgnet.cli.entry`. Importing
``mhgnet`` as a library leaves them alone.
"""

from __future__ import annotations

import os
from typing import MutableMapping

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_blas_thread(environ: MutableMapping[str, str] = os.environ) -> None:
    """Set each of ``BLAS_THREADS`` to 1 in ``environ`` unless it is set already."""
    for name in BLAS_THREADS:
        environ.setdefault(name, "1")


def main() -> None:
    one_blas_thread()
    from .cli import entry  # imports numpy, which reads the variables

    entry()
