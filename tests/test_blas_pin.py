"""The BLAS thread pin set in conftest.py reaches OpenBLAS."""

import ctypes
import os

import numpy as np
import pytest


def openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None without one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        handle = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def test_openblas_threads_pinned():
    np.ones((2, 2)) @ np.ones((2, 2))  # make sure the BLAS library is loaded
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])
