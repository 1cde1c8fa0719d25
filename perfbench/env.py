"""Environment record printed with every benchmark result.

``limit_blas_threads`` must run before numpy is first imported: OpenBLAS
reads its thread count from the environment once, when it loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> int:
    """Cap the BLAS thread count at ``nproc`` (or a lower value already set)."""
    threads = nproc()
    for var in _THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _openblas():
    """The OpenBLAS library numpy loaded, or None when it is not OpenBLAS."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                return ctypes.CDLL(path)
    return None


def blas_info() -> tuple:
    """(library description, threads in use); threads is -1 when unknown."""
    import numpy as np

    np.ones((2, 2)) @ np.ones((2, 2))  # make sure BLAS is loaded
    try:
        lib = _openblas()
    except OSError:
        lib = None
    if lib is None:
        return "unknown", -1
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode("ascii", "replace"), int(get_threads())
    return "OpenBLAS", -1


def record(**extra) -> dict:
    """nproc, interpreter, numpy and BLAS versions, thread count, plus ``extra``."""
    import numpy as np

    blas, threads = blas_info()
    out = {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "machine": platform.machine(),
    }
    out.update(extra)
    return out
