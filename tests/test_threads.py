"""The root conftest.py pins BLAS to one thread for the whole test run."""

import ctypes
import os
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bundled_openblas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy wheels bundle, None for other builds."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_num_threads = getattr(lib, symbol)
                get_num_threads.argtypes = []
                get_num_threads.restype = ctypes.c_int
                return get_num_threads()
    return None


def test_blas_runs_on_one_thread():
    assert {var: os.environ.get(var) for var in THREAD_VARS} == dict.fromkeys(THREAD_VARS, "1")
    assert bundled_openblas_threads() in (1, None)
