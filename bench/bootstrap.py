"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: it pins the BLAS thread pool
and puts the checkout's own ``src/`` first on the import path, so a run
measures the sources next to this directory and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: One BLAS thread.  On a shared 2-core machine a second OpenBLAS thread did
#: not speed up these solves, and its start-up made the first solve of a
#: process take 1.0 s instead of 0.15 s.
BLAS_THREADS = 1

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def prepare() -> None:
    """Pin BLAS threads and import ocfem from ``<checkout>/src``; exit 2 if absent."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "ocfem" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no ocfem sources under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import ocfem

    if Path(ocfem.__file__).resolve().parent != src / "ocfem":
        sys.stderr.write(f"bench: imported ocfem from {ocfem.__file__}, not {src}\n")
        raise SystemExit(2)
