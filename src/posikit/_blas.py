"""The thread count of the OpenBLAS that numpy loaded.

The Monte Carlo fold runs its own worker threads, and each worker's products
must then run on one BLAS thread: a threaded BLAS under several workers
oversubscribes the cores and is slower than one worker. The count is a
process-wide setting, so it is changed under a lock with a depth count and
restored when the last concurrent user leaves.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager

_lock = threading.Lock()
_depth = 0
_saved = 0


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split(None, 5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                    paths.add(fields[5].strip())
    except OSError:
        return []
    return sorted(paths)


@functools.cache
def _controls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    numpy's library is the OpenBLAS loaded from numpy's own directory (the
    wheels bundle it in ``numpy.libs``), or else the only OpenBLAS loaded.
    """
    import ctypes

    import numpy as np

    paths = _loaded_openblas()
    home = os.path.dirname(os.path.abspath(np.__file__))
    own = [path for path in paths if path.startswith(home)] or paths
    if len(own) != 1:
        return None
    try:
        lib = ctypes.CDLL(own[0])
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int | None:
    """numpy's current BLAS thread count; None when it cannot be controlled."""
    controls = _controls()
    return None if controls is None else int(controls[0]())


@contextmanager
def pinned_to_one_thread():
    """Run the block with numpy's BLAS on one thread, then restore the count
    it had before the first of any concurrent pins. The pin holds for the
    whole process: numpy products of other Python threads also run on one
    BLAS thread meanwhile, and a count they set is overwritten by the
    restore. Needs blas_threads() to be a count, not None."""
    global _depth, _saved
    get, put = _controls()
    with _lock:
        if _depth == 0:
            _saved = get()
            put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                put(_saved)
