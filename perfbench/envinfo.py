"""The environment a run measured: interpreter, numpy, BLAS library and threads, cores."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_blas_path() -> str | None:
    """Path of the OpenBLAS library mapped into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    return min(paths) if paths else None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, read through ctypes; None if unavailable."""
    path = _loaded_blas_path()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in _THREAD_SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def record(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }
