"""BLAS thread count of one CLI command.

On a merge of small matrices OpenBLAS's worker threads cost CPU and wall
time. One thread was faster at a smaller side of 192, the two were at
parity at 256 and the default threads won above it (README, "Kernels").
Below 256 the thread count moved float64 results of the measured sets by
at most 2.3e-15 relative. ``CommandThreads`` sets one thread for a command
whose first container holds only such matrices, and restores the previous
count when the command ends. Only ``cli.main`` uses it; the library API
never touches process-wide BLAS state.
"""

from __future__ import annotations

import ctypes
import fnmatch
import os

import numpy as np

# smaller side from which OpenBLAS's default threads were at least as fast
SMALL_SIDE = 256
# a thread count the user chose wins over the rule
USER_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# (set, get) symbol pairs across the OpenBLAS builds numpy bundles
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class OpenBLAS:
    """The thread-count setter and getter of one loaded OpenBLAS."""

    def __init__(self, set_threads, get_threads):
        self.set_threads = set_threads
        self.get_threads = get_threads


def find_openblas() -> OpenBLAS | None:
    """numpy's bundled OpenBLAS, or None for any other BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:  # a numpy built against another BLAS has no such directory
        return None
    for name in fnmatch.filter(names, "*openblas*.so*"):
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return OpenBLAS(setter, getter)
    return None


class CommandThreads:
    """Context of one CLI command: one BLAS thread if its first container is small.

    The command passes the first container it reads to ``fit``. Nothing
    changes when the user set a thread variable, when numpy's BLAS is not
    its bundled OpenBLAS, or when a matrix has a smaller side of
    SMALL_SIDE or more. An empty thread variable counts as unset, as it
    does for OpenBLAS. Leaving the context restores the count ``fit``
    replaced.
    """

    def __init__(self):
        self._lib: OpenBLAS | None = None
        self._previous = 0

    def __enter__(self) -> CommandThreads:
        return self

    def fit(self, container) -> None:
        if self._lib is not None or any(os.environ.get(v) for v in USER_VARIABLES):
            return
        matrices = [a for a in container.tensors.values() if a.ndim == 2]
        if any(min(a.shape) >= SMALL_SIDE for a in matrices):
            return
        lib = find_openblas()
        if lib is None:
            return
        self._previous = lib.get_threads()
        lib.set_threads(1)
        self._lib = lib

    def __exit__(self, *exc) -> None:
        if self._lib is not None:
            self._lib.set_threads(self._previous)
            self._lib = None
