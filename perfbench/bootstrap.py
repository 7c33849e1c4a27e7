"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: it pins every BLAS to one
thread and puts the checkout's ``src`` first on the import path, so the
benchmark measures the source tree it sits in and not an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    pass


def prepare() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "mhgnet" / "__init__.py").is_file():
        raise MissingSource(f"no mhgnet package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
