"""Process set-up shared by the benchmark's entry points.

Call ``configure()`` before anything imports numpy: OpenBLAS reads its
thread count once, at load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Fixed so results from machines with different core counts stay comparable;
# on a 2-core machine two threads cut a paper-width conv epoch by about 30%.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def configure() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def check_program() -> None:
    """Refuse to measure a discrel other than the one in this checkout."""
    import discrel
    where = Path(discrel.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"discrel imported from {where}, not from {SRC}")
