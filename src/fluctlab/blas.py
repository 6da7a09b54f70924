"""One OpenBLAS thread in training and forward passes, so no bit depends on the thread count.

Under some OpenBLAS kernels (`Haswell`, `Prescott`) a product split across
threads sums in another order than on one thread, and a run's bytes change
with the thread count.  The products here are too small to gain from
threads, so `one_thread()` pins the loaded OpenBLAS to one thread for the
duration of a block and restores the previous count on exit.  The library
is found through /proc/self/maps; when numpy has loaded no OpenBLAS, the
block runs unpinned.
"""

from __future__ import annotations

import contextlib
import functools

import numpy  # noqa: F401 - loads the OpenBLAS that _openblas looks for

# (set threads, get threads, kernel name) of the scipy-openblas wheels numpy
# ships with (64- and 32-bit integers), then of a system OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_",
     "scipy_openblas_get_corename64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads", "scipy_openblas_get_corename"),
    ("openblas_set_num_threads", "openblas_get_num_threads", "openblas_get_corename"),
)


@functools.cache
def _openblas():
    """(set, get, corename) functions of the OpenBLAS numpy has loaded, or None;
    the maps are scanned on the first call only."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _SYMBOLS:
            if all(hasattr(lib, name) for name in names):
                set_threads, get_threads, corename = (getattr(lib, name) for name in names)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return set_threads, get_threads, corename
    return None


def corename() -> str | None:
    """The OpenBLAS kernel in use, for example "SkylakeX"; None without OpenBLAS."""
    lib = _openblas()
    return None if lib is None else lib[2]().decode()


@contextlib.contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread, then restore its thread count."""
    lib = _openblas()
    if lib is None:
        yield
        return
    set_threads, get_threads, _ = lib
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
