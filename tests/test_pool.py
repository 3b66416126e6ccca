"""``merge`` and ``report`` on a pool of threads: ``cli._per_tensor``.

The width comes from ``CommandThreads.width``; these tests set it in-process
by replacing that property with a constant.
"""

import sys
import threading
import time
import warnings

import numpy as np
import pytest

from dcmerge import cli
from dcmerge._blas import CommandThreads
from dcmerge.container import TensorContainer, read_container, write_container
from dcmerge.errors import NumericalError, ValidationError

from test_cli import merge_args, report_args, write_merge_set


def _rewrite_as_float64(paths):
    for path in paths:
        c = read_container(path)
        tensors = {name: arr.astype(np.float64) for name, arr in c.tensors.items()}
        write_container(TensorContainer(tensors=tensors), path)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_merge_and_report_bytes_do_not_depend_on_the_pool_width(tmp_path, monkeypatch, dtype):
    base_path, task_paths = write_merge_set(
        tmp_path, seed=4, mode="fft", n_tasks=4, layers=1, d=192
    )
    if dtype == "float64":
        _rewrite_as_float64([base_path, *task_paths])
    outputs = []
    for width in (1, 2):
        monkeypatch.setattr(CommandThreads, "width", width)
        merged, report = tmp_path / f"m{width}.dcm", tmp_path / f"r{width}.csv"
        assert cli.main(merge_args(base_path, task_paths, merged)) == 0
        assert cli.main(report_args(base_path, merged, task_paths, report)) == 0
        outputs.append((merged.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


def test_the_pool_runs_names_on_width_threads_and_returns_them_in_name_order():
    arrived = threading.Barrier(2, timeout=10)
    seen = {}

    def fn(name):
        if name in ("a", "b"):
            arrived.wait()  # returns only once two threads are inside fn at once
        seen[name] = threading.get_ident()
        return name.upper()

    out = cli._per_tensor(fn, ["d", "b", "c", "a"], 2)
    assert list(out.items()) == [("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")]
    assert seen["a"] != seen["b"]
    assert cli._per_tensor(fn, [], 2) == {}


def test_every_name_runs_once_on_more_threads_than_cores():
    calls = []
    names = [f"t{i:03d}" for i in range(300)]
    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = cli._per_tensor(lambda name: calls.append(name) or name, names, 16)
    finally:
        sys.setswitchinterval(interval)
    assert list(out) == names and list(out.values()) == names
    assert sorted(calls) == names  # no name skipped or taken twice
    assert threading.active_count() == threads_before  # every helper joined


@pytest.mark.parametrize("exc", [ValueError("a failed"), KeyboardInterrupt()])
def test_the_pool_starts_no_name_after_a_failure(exc):
    started = []

    def fn(name):
        started.append(name)
        if name == "a":
            raise exc
        time.sleep(0.01)

    with pytest.raises(type(exc)):
        cli._per_tensor(fn, list("abcdef"), 2)
    # the two threads took a and b; neither took another once a had failed
    assert set(started) <= {"a", "b"}


def _three_tensor_fixture(tmp_path, shapes=((10, 6), (10, 7), (10, 8))):
    rng = np.random.default_rng(31)
    names = [f"{x}.weight" for x in "abc"]
    base = {name: rng.standard_normal(shape) for name, shape in zip(names, shapes)}
    write_container(TensorContainer(tensors=base), tmp_path / "base.dcm")
    task_paths = []
    for i in range(2):
        task = {name: w + 0.1 * rng.standard_normal(w.shape) for name, w in base.items()}
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(TensorContainer(tensors=task), task_paths[-1])
    return tmp_path / "base.dcm", task_paths


def test_the_first_failing_tensor_in_name_order_is_reported(tmp_path, monkeypatch, capsys):
    base_path, task_paths = _three_tensor_fixture(tmp_path)
    real = cli.dc_merge

    def dc_merge(tasks, cfg):
        name = tasks[0].name
        if name == "b.weight":
            time.sleep(0.05)  # fails after c has
            raise NumericalError("b did not converge")
        if name == "c.weight":
            raise ValidationError("c is malformed")
        return real(tasks, cfg)

    monkeypatch.setattr(cli, "dc_merge", dc_merge)
    monkeypatch.setattr(CommandThreads, "width", 2)
    for _ in range(5):
        assert cli.main(merge_args(base_path, task_paths, tmp_path / "m.dcm")) == 3
        err = capsys.readouterr().err
        assert "numerical error: b did not converge" in err and "c is" not in err
    assert not (tmp_path / "m.dcm").exists()


def test_rank_clip_warnings_come_in_name_order(tmp_path, monkeypatch):
    base_path, task_paths = _three_tensor_fixture(tmp_path)
    monkeypatch.setattr(CommandThreads, "width", 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(merge_args(base_path, task_paths, tmp_path / "m.dcm", "--rank", "5"))
    assert rc == 0
    bounds = [str(w.message).split("min(m, n) = ")[1].split(";")[0] for w in caught
              if "clipping to rank" in str(w.message)]
    assert bounds == ["6", "7", "8"]

