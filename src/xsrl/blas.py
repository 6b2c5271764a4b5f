"""The thread count of the OpenBLAS that numpy bundles.

A threaded BLAS reduction splits its sum by the thread count, so the last
bits of a dot product, and then of a trained checkpoint, depend on it.
The command line runs BLAS on one thread (:func:`use_one_thread`).  The
BiLSTM's right-to-left partner process runs only where BLAS runs on one
thread (:func:`threads`): two processes on two CPUs leave no CPU for a
second BLAS thread, and a spinning one starves the partner.
"""

from __future__ import annotations

import functools
import os

import numpy as np

__all__ = ["threads", "use_one_thread"]


@functools.cache
def _library():
    """numpy's bundled OpenBLAS with its thread-count functions typed, or None."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_set_num_threads64_.argtypes = (ctypes.c_int,)
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = ()
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        except (AttributeError, OSError):
            continue
        return lib
    return None


def threads() -> int | None:
    """The threads BLAS runs on; None where it cannot be read."""
    lib = _library()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def use_one_thread() -> bool:
    """Run BLAS on one thread from now on; False where it cannot be set."""
    lib = _library()
    if lib is None:
        return False
    lib.scipy_openblas_set_num_threads64_(1)
    return True
