"""BLAS threads of one CLI process, and the width of its tensor pool.

The CLI runs OpenBLAS on one thread and spreads its independent per-tensor
work over the processors instead (``cli._per_tensor``): at every size
measured, one BLAS thread with a pool of tensor threads was faster, used
less CPU and gave the same float32 bytes as OpenBLAS's own threads, and
its float64 bits do not depend on the processor count (CHANGES.md).

``dcmerge.cli`` calls ``start`` before it first imports numpy, so OpenBLAS
loads with one thread and starts no worker thread, and takes the pool
width it returns. The rule applies when numpy's BLAS is its bundled
OpenBLAS and none of ``USER_VARIABLES`` is set to a non-empty value; a
count the user chose always wins. Where ``start`` did not pin OpenBLAS
(numpy already loaded, a user's thread variable, another BLAS) the width
is 1, so BLAS threads and tensor threads never multiply. Nothing else in
the package touches BLAS threads.

This module does not import numpy: ``start`` must run before it loads.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import os
import sys

# a thread count the user chose wins over the rule
USER_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _user_chose_threads() -> bool:
    # an empty variable counts as unset, as it does for OpenBLAS
    return any(os.environ.get(v) for v in USER_VARIABLES)


def _bundled_openblas() -> bool:
    """Whether numpy bundles an OpenBLAS, found without importing numpy."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return False
    libs = os.path.join(os.path.dirname(spec.origin), os.pardir, "numpy.libs")
    try:
        names = os.listdir(libs)
    except OSError:  # a numpy built against another BLAS has no such directory
        return False
    return bool(fnmatch.filter(names, "*openblas*.so*"))


def _cpus() -> int:
    """The processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def start() -> int:
    """Import numpy with its bundled OpenBLAS on one thread; return the pool width.

    The width is the processor count where OpenBLAS was started on one
    thread, and 1 where nothing was done: numpy was already loaded, the
    user set a thread variable, or numpy bundles no OpenBLAS. The variable
    that carries the count is removed again once numpy has loaded, so child
    processes do not inherit it.
    """
    if "numpy" in sys.modules or _user_chose_threads() or not _bundled_openblas():
        return 1
    previous = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # OpenBLAS reads its thread count when numpy loads it
    finally:
        if previous is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = previous
    return _cpus()
