"""Thread pinning and the environment record attached to every result.

`pin_blas_threads` must run before numpy is imported anywhere in the process:
OpenBLAS reads its thread count once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(threads: int) -> int:
    """Set every BLAS thread-count variable, overriding inherited values."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    if not 1 <= threads <= nproc():
        raise ValueError(f"BLAS threads must be between 1 and nproc={nproc()}")
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(threads)
    return threads


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int | None = None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ[BLAS_ENV_VARS[0]]),
        "seed": seed,
        "commit": commit(),
    }
