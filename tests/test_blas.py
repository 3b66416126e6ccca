import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcmerge
from dcmerge import _blas, cli
from dcmerge.cli import main
from dcmerge.container import TensorContainer, write_container


class FakeOpenBLAS:
    """Stands in for numpy's OpenBLAS and records every count set."""

    def __init__(self, threads=4, procs=4):
        self.threads = threads
        self.procs = procs
        self.calls = []

    def handle(self):
        return _blas.OpenBLAS(self.set_threads, lambda: self.threads, lambda: self.procs)

    def set_threads(self, n):
        self.calls.append(n)
        self.threads = n


@pytest.fixture
def fake(monkeypatch):
    for var in _blas.USER_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    lib = FakeOpenBLAS()
    monkeypatch.setattr(_blas, "find_openblas", lib.handle)
    return lib


def _container(*shapes):
    return TensorContainer(tensors={f"t{i}": np.zeros(s) for i, s in enumerate(shapes)})


@pytest.mark.parametrize(
    "shapes, inside",
    [
        ([(255, 300), (8,)], 1),
        ([(300, 255), (64, 64)], 1),
        ([(40,)], 1),
        ([(256, 300)], 4),
        ([(64, 64), (300, 256)], 4),
    ],
)
def test_one_thread_only_when_every_matrix_is_below_256(fake, shapes, inside):
    with _blas.CommandThreads() as threads:
        threads.fit(_container(*shapes))
        assert fake.threads == inside
    assert fake.threads == 4


def test_the_processor_count_from_256(fake):
    fake.procs = 6
    with _blas.CommandThreads() as threads:
        threads.fit(_container((8, 8), (256, 300)))
        assert fake.threads == 6
    assert fake.calls == [6, 4]


def test_only_the_first_container_counts(fake):
    with _blas.CommandThreads() as threads:
        threads.fit(_container((16, 16)))
        threads.fit(_container((512, 512)))
        assert fake.calls == [1]
    assert fake.calls == [1, 4]


@pytest.mark.parametrize("var", _blas.USER_VARIABLES)
def test_a_user_thread_variable_disables_the_rule(fake, monkeypatch, var):
    monkeypatch.setenv(var, "3")
    with _blas.CommandThreads() as threads:
        threads.fit(_container((16, 16)))
    assert fake.calls == []


def test_an_empty_thread_variable_counts_as_unset(fake, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    with _blas.CommandThreads() as threads:
        threads.fit(_container((16, 16)))
    assert fake.calls == [1, 4]


def _fixture(tmp_path, task_shape=(8, 6), base_shape=(8, 6)):
    rng = np.random.default_rng(0)
    base = rng.standard_normal(base_shape)
    write_container(TensorContainer(tensors={"w": base}), tmp_path / "base.dcm")
    tasks = []
    for i, shape in enumerate([base_shape, task_shape]):
        delta = 0.1 * rng.standard_normal(shape)
        write_container(
            TensorContainer(tensors={"w": np.resize(base, shape) + delta}),
            tmp_path / f"task{i}.dcm",
        )
        tasks.append(str(tmp_path / f"task{i}.dcm"))
    return ["merge", "--base", str(tmp_path / "base.dcm"), "--task", *tasks,
            "--out", str(tmp_path / "merged.dcm"), "--mode", "fft"]


@pytest.mark.parametrize("task_shape, rc", [((8, 6), 0), ((8, 5), 2)])
def test_main_sets_one_thread_and_restores_the_count(fake, monkeypatch, tmp_path,
                                                     task_shape, rc):
    seen = []
    real_extract = cli.extract_task_vectors

    def extract(*args):
        seen.append(fake.threads)
        return real_extract(*args)

    monkeypatch.setattr(cli, "extract_task_vectors", extract)
    assert main(_fixture(tmp_path, task_shape)) == rc
    assert seen and set(seen) == {1}
    assert fake.calls == [1, 4]


def test_main_still_merges_without_openblas(monkeypatch, tmp_path):
    for var in _blas.USER_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(_blas, "find_openblas", lambda: None)
    assert main(_fixture(tmp_path)) == 0
    assert (tmp_path / "merged.dcm").exists()


def test_main_restores_the_callers_count_in_the_real_library(monkeypatch, tmp_path):
    lib = _blas.find_openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    for var in _blas.USER_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    original = lib.get_threads()
    seen = []
    real_merge = cli.dc_merge

    def merge(*args):
        seen.append(lib.get_threads())
        return real_merge(*args)

    monkeypatch.setattr(cli, "dc_merge", merge)
    try:
        lib.set_threads(2)
        if lib.get_threads() != 2:
            pytest.skip("this OpenBLAS build cannot run 2 threads")
        assert main(_fixture(tmp_path)) == 0
        assert seen == [1]
        assert lib.get_threads() == 2
    finally:
        lib.set_threads(original)


# the start rule, in fresh processes

needs_openblas = pytest.mark.skipif(
    _blas.find_openblas() is None, reason="numpy's BLAS is not its bundled OpenBLAS"
)


def _fresh_python(code, **variables):
    """Words of the last line ``code`` prints in a new interpreter.

    The interpreter's only thread variables are ``variables``.
    """
    env = {k: v for k, v in os.environ.items() if k not in _blas.USER_VARIABLES}
    src = str(Path(dcmerge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(variables)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


_THREAD_STATE = """
import os, sys
import dcmerge.cli
from dcmerge._blas import find_openblas
threads = os.listdir("/proc/self/task") if sys.platform == "linux" else [0]
print(find_openblas().get_threads(), os.environ.get("OPENBLAS_NUM_THREADS"), len(threads))
"""


def test_import_dcmerge_loads_no_numpy():
    assert _fresh_python("import sys, dcmerge; print('numpy' in sys.modules)") == ["False"]


@needs_openblas
def test_the_cli_starts_openblas_on_one_thread_and_no_worker():
    assert _fresh_python(_THREAD_STATE) == ["1", "None", "1"]


@needs_openblas
def test_a_user_thread_variable_wins_at_start():
    threads = min(2, _blas.find_openblas().get_num_procs())
    state = _fresh_python(_THREAD_STATE, OPENBLAS_NUM_THREADS="2")
    assert state[:2] == [str(threads), "2"]


@needs_openblas
def test_main_from_256_runs_on_every_processor(tmp_path):
    argv = _fixture(tmp_path, task_shape=(256, 256), base_shape=(256, 256))
    code = f"""
from dcmerge import cli
from dcmerge._blas import find_openblas
lib = find_openblas()
seen = []
real_merge = cli.dc_merge

def merge(*args):
    seen.append(lib.get_threads())
    return real_merge(*args)

cli.dc_merge = merge
assert cli.main({argv!r}) == 0
print(lib.get_num_procs(), *seen, lib.get_threads())
"""
    procs, seen, after = _fresh_python(code)
    assert (seen, after) == (procs, "1")
