"""BLAS thread count for small dense algebra.

numpy's OpenBLAS hands a call to its worker threads once the call is big
enough: a complex product above about 65k multiply-adds, a complex
matrix-vector product above about 4k entries, and `np.linalg.eigh` from
n = 26, where LAPACK switches to divide and conquer.  The Green route's
algebra sits on moment grids of a few dozen points, just past those sizes,
so each such call pays a hand-off to a worker for microseconds of work.  A
worker that has gone idle, or whose core the machine has given to another
process, takes 8-24 ms to answer (measured on a two-core machine; the same
calls take 0.03-0.4 ms on one thread), so the route's time followed the
machine's load.  `one_blas_thread` keeps such calls on the calling thread.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

import numpy as np

# (set, get) entry points of the OpenBLAS numpy links: the one its wheels
# bundle (scipy-openblas, 64-bit integers), then a system OpenBLAS
_OPENBLAS_NAMES = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _find_openblas():
    """(set, get) of the OpenBLAS numpy calls, or None for any other BLAS."""
    try:
        # dlsym on numpy's extension searches the libraries it links, its BLAS among them
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for set_name, get_name in _OPENBLAS_NAMES:
        try:
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


_OPENBLAS = _find_openblas()


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread; the previous count is restored on exit.

    The count is process-wide, so BLAS calls other threads make meanwhile
    run on one thread too.  With any BLAS other than OpenBLAS this does
    nothing.  Usable as a decorator.
    """
    if _OPENBLAS is None:
        yield
        return
    set_threads, get_threads = _OPENBLAS
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
