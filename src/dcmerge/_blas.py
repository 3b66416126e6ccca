"""BLAS thread count of one CLI process.

On a merge of small matrices OpenBLAS's worker threads cost CPU and wall
time. One thread was faster at a smaller side of 192, the two were at
parity at 256 and the default threads won above it (table in CHANGES.md).
Below 256 the thread count moved float64 results of the measured sets by
at most 2.3e-15 relative.

The rule applies when numpy's BLAS is its bundled OpenBLAS and none of
``USER_VARIABLES`` is set to a non-empty value; a count the user chose
always wins. ``dcmerge.cli`` calls ``start`` before it first imports
numpy, so OpenBLAS loads with one thread and starts no worker thread, which
would otherwise busy-wait through the rest of start-up. ``CommandThreads``
then sets one thread for a command whose first container holds only
matrices with a smaller side below 256 and the processor count otherwise,
and restores the previous count when the command ends. Where it set one
thread, its ``width`` is the processor count, the number of Python threads
the command may run its per-tensor work on; everywhere else it is 1. Every
other module leaves process-wide BLAS state alone; in a process that
imported numpy before ``dcmerge.cli``, OpenBLAS starts with its default
count.

This module does not import numpy: ``start`` must run before it loads.
"""

from __future__ import annotations

import ctypes
import fnmatch
import importlib.util
import os
import sys

# smaller side from which OpenBLAS's default threads were at least as fast
SMALL_SIDE = 256
# a thread count the user chose wins over the rule
USER_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# (set, get, processor count) symbols across the OpenBLAS builds numpy bundles
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_",
     "scipy_openblas_get_num_procs64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_",
     "openblas_get_num_procs64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads", "openblas_get_num_procs"),
)


class OpenBLAS:
    """The thread-count setter and getter, and the processor count, of one OpenBLAS."""

    def __init__(self, set_threads, get_threads, get_num_procs):
        self.set_threads = set_threads
        self.get_threads = get_threads
        self.get_num_procs = get_num_procs


def _user_chose_threads() -> bool:
    # an empty variable counts as unset, as it does for OpenBLAS
    return any(os.environ.get(v) for v in USER_VARIABLES)


def _bundled_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries bundled with numpy, found without importing it."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return []
    libs = os.path.join(os.path.dirname(spec.origin), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:  # a numpy built against another BLAS has no such directory
        return []
    return [os.path.join(libs, name) for name in fnmatch.filter(names, "*openblas*.so*")]


def find_openblas() -> OpenBLAS | None:
    """numpy's bundled OpenBLAS, or None for any other BLAS."""
    for path in _bundled_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _SYMBOLS:
            functions = [getattr(lib, name, None) for name in names]
            if None not in functions:
                setter, getter, procs = functions
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                procs.argtypes, procs.restype = [], ctypes.c_int
                return OpenBLAS(setter, getter, procs)
    return None


def start() -> None:
    """Import numpy with its bundled OpenBLAS started on one thread.

    Does nothing when numpy is already loaded, when the user set a thread
    variable, or when numpy bundles no OpenBLAS. The variable that carries
    the count is removed again once numpy has loaded, so child processes
    do not inherit it.
    """
    if "numpy" in sys.modules or _user_chose_threads() or not _bundled_libraries():
        return
    previous = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # OpenBLAS reads its thread count when numpy loads it
    finally:
        if previous is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = previous


class CommandThreads:
    """Context of one CLI command: one BLAS thread if its first container is small.

    The command passes the first container it reads to ``fit``, which sets
    one thread when every matrix has a smaller side below SMALL_SIDE and
    the processor count otherwise. Nothing changes when the user set a
    thread variable or when numpy's BLAS is not its bundled OpenBLAS.
    Leaving the context restores the count ``fit`` replaced.
    """

    def __init__(self):
        self._lib: OpenBLAS | None = None
        self._previous = 0
        self._width = 1

    def __enter__(self) -> CommandThreads:
        return self

    @property
    def width(self) -> int:
        """Threads for independent per-tensor work: the processor count where
        ``fit`` set one BLAS thread, else 1, so the two never multiply."""
        return self._width

    def fit(self, container) -> None:
        if self._lib is not None or _user_chose_threads():
            return
        lib = find_openblas()
        if lib is None:
            return
        matrices = [a for a in container.tensors.values() if a.ndim == 2]
        small = all(min(a.shape) < SMALL_SIDE for a in matrices)
        procs = lib.get_num_procs()
        self._previous = lib.get_threads()
        lib.set_threads(1 if small else procs)
        self._lib = lib
        self._width = procs if small else 1

    def __exit__(self, *exc) -> None:
        if self._lib is not None:
            self._lib.set_threads(self._previous)
            self._lib = None
            self._width = 1
