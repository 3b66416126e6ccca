"""The thread rule of CLI processes (``_blas.start``), checked in fresh interpreters.

``start`` acts only before numpy is first imported, which the pytest
process has long done, so every test here starts a new interpreter. Thread
counts are the entries of ``/proc/self/task``: OpenBLAS started on one
thread has no worker thread.
"""

import os

import numpy as np
import pytest

from dcmerge import _blas
from dcmerge.container import TensorContainer, write_container

from helpers import merge_args, python, write_fft_set

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

needs_openblas = pytest.mark.skipif(
    not _blas._bundled_openblas() or not os.path.isdir("/proc/self/task"),
    reason="needs numpy's bundled OpenBLAS and /proc/self/task",
)


def _fresh_python(code, *argv, **variables):
    """Words of the last line ``code`` prints in a new interpreter whose only thread
    variables are ``variables``."""
    proc = python("-c", code, *argv, **variables)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


# pool width, threads of the process, and the variable OpenBLAS read
_STATE = """
import os
from dcmerge import cli
print(cli._pool_width, len(os.listdir("/proc/self/task")),
      repr(os.environ.get("OPENBLAS_NUM_THREADS")))
"""


def _merge_set(tmp_path, shapes=((8, 6),)):
    """merge argv over a base and two fft tasks holding one tensor t<i>.weight per shape."""
    base, tasks = write_fft_set(tmp_path, {f"t{i}.weight": s for i, s in enumerate(shapes)})
    return merge_args(base, tasks, tmp_path / "merged.dcm")


def test_import_dcmerge_loads_no_numpy():
    assert _fresh_python("import sys, dcmerge; print('numpy' in sys.modules)") == ["False"]


@needs_openblas
def test_the_cli_starts_openblas_on_one_thread_and_no_worker():
    assert _fresh_python(_STATE) == [str(CPUS), "1", "None"]


@needs_openblas
def test_a_user_thread_variable_wins_at_start():
    # OpenBLAS runs the user's two threads; the pool runs one
    assert _fresh_python(_STATE, OPENBLAS_NUM_THREADS="2") == ["1", str(min(2, CPUS)), "'2'"]


@needs_openblas
@pytest.mark.parametrize("var", _blas.USER_VARIABLES)
def test_a_user_thread_variable_disables_the_rule(var):
    width, _, openblas = _fresh_python(_STATE, **{var: "1"})
    assert (width, openblas) == ("1", "'1'" if var == "OPENBLAS_NUM_THREADS" else "None")


@needs_openblas
def test_an_empty_thread_variable_counts_as_unset():
    assert _fresh_python(_STATE, OPENBLAS_NUM_THREADS="") == [str(CPUS), "1", "''"]


@needs_openblas
def test_the_pool_width_is_the_processor_count_only_where_blas_runs_on_one_thread():
    # numpy loaded first: OpenBLAS keeps the threads it started with, the pool one
    default = _fresh_python("import os, numpy; print(len(os.listdir('/proc/self/task')))")
    assert _fresh_python("import numpy\n" + _STATE) == ["1", *default, "None"]


@needs_openblas
def test_main_leaves_the_callers_blas_threads_alone(tmp_path):
    code = """
import os, sys
import numpy
from dcmerge import cli

def threads():
    return len(os.listdir("/proc/self/task"))

seen = [threads()]
real_merge = cli.dc_merge

def merge(*args):
    seen.append(threads())
    return real_merge(*args)

cli.dc_merge = merge
assert cli.main(sys.argv[1:]) == 0
print(cli._pool_width, *set(seen + [threads()]))
"""
    default = _fresh_python("import os, numpy; print(len(os.listdir('/proc/self/task')))")
    assert _fresh_python(code, *_merge_set(tmp_path)) == ["1", *default]


def test_main_still_merges_without_openblas(tmp_path):
    code = """
import sys
from dcmerge import _blas
_blas._bundled_openblas = lambda: False  # as for numpy built against another BLAS
from dcmerge import cli
assert cli.main(sys.argv[1:]) == 0
print(cli._pool_width)
"""
    assert _fresh_python(code, *_merge_set(tmp_path)) == ["1"]
    assert (tmp_path / "merged.dcm").exists()


@needs_openblas
@pytest.mark.parametrize("task_shape, rc", [((8, 6), 0), ((8, 5), 2)])
def test_main_sets_one_thread_and_restores_the_count(tmp_path, task_shape, rc):
    # a task of another shape than the base fails the command when it is paired
    argv = _merge_set(tmp_path)
    write_container(TensorContainer(tensors={"t0.weight": np.zeros(task_shape)}),
                    tmp_path / "task1.dcm")
    code = """
import os, sys
from dcmerge import cli

def threads():
    return len(os.listdir("/proc/self/task"))

seen = []
real_pair = cli.pair_tensors

def pair(*args):
    seen.append(threads())
    return real_pair(*args)

cli.pair_tensors = pair
rc = cli.main(sys.argv[1:])
print(rc, len(seen), *set(seen), threads())
"""
    assert _fresh_python(code, *argv) == [str(rc), "2", "1", "1"]


# pool width, pool threads that merged, and the threads of the process while
# merging and after: the pool's threads meet inside dc_merge, so each takes one tensor
_POOL_RUN = """
import os, sys, threading, time
from dcmerge import cli

def threads():
    return len(os.listdir("/proc/self/task"))

met = threading.Barrier(min(cli._pool_width, 2), timeout=60)
seen, idents = [], set()
real_merge = cli.dc_merge

def merge(*args):
    met.wait()
    seen.append(threads())
    idents.add(threading.get_ident())
    return real_merge(*args)

cli.dc_merge = merge
assert cli.main(sys.argv[1:]) == 0
# a joined helper thread leaves /proc/self/task a moment after join returns
deadline = time.monotonic() + 10
while threads() > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
print(cli._pool_width, len(idents), max(seen), threads())
"""


@needs_openblas
@pytest.mark.parametrize(
    "shapes",
    [[(16, 16), (8, 8)], [(256, 300), (64, 64)]],
    ids=lambda shapes: "+".join(f"{m}x{n}" for m, n in shapes),
)
def test_main_runs_one_blas_thread_and_the_whole_pool_at_every_size(tmp_path, shapes):
    pool = min(CPUS, 2)
    # the pool's threads are all the process has while it merges: no BLAS worker
    assert _fresh_python(_POOL_RUN, *_merge_set(tmp_path, shapes)) == [
        str(CPUS), str(pool), str(pool), "1"]


@needs_openblas
def test_main_merges_two_equal_tensors_in_parallel_on_every_processor(tmp_path):
    # the processors go to the tensor pool, which merges the two 256x256 tensors at once
    width, merged, _, _ = _fresh_python(_POOL_RUN, *_merge_set(tmp_path, [(256, 256)] * 2))
    assert (width, merged) == (str(CPUS), str(min(CPUS, 2)))
