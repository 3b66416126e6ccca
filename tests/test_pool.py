"""Per-tensor commands on a pool of threads: ``cli._per_tensor``.

The width is the processor count in a CLI process that started OpenBLAS on
one thread, and 1 under a thread variable the user set (``_blas.start``).
Tests that compare widths run the CLI in new processes, with and without
``OPENBLAS_NUM_THREADS=1`` (float32 bytes also at ``=2``); in-process tests
set ``cli._pool_width``.
"""

import sys
import threading
import time
import warnings

import numpy as np
import pytest

from dcmerge import cli
from dcmerge.container import TensorContainer, read_container, write_container
from dcmerge.errors import NumericalError, ValidationError

from helpers import (merge_args, optimize_args, perturb_args, python, recast, report_args,
                     write_fft_set, write_merge_set)

# a new CLI process at the processor count, then at width 1
WIDTHS = ({}, {"OPENBLAS_NUM_THREADS": "1"})


def _outcomes(argv, widths=WIDTHS, code=None):
    """The set of (exit code, stdout, stderr) of the CLI on ``argv`` in a new process at each
    of ``widths``, or of ``code`` run as the CLI if given."""
    entry = ("-m", "dcmerge.cli") if code is None else ("-c", code)
    return {(p.returncode, p.stdout, p.stderr)
            for p in (python(*entry, *argv, **extra) for extra in widths)}


# the three tensors of the small fft sets, drawn from seed 31
ABC = {"a.weight": (10, 6), "b.weight": (10, 7), "c.weight": (10, 8)}


@pytest.mark.parametrize("dtype, widths", [
    # float32 rounds away the last bits that OpenBLAS's own thread count moves
    ("float32", WIDTHS + ({"OPENBLAS_NUM_THREADS": "2"},)),
    ("float64", WIDTHS),
], ids=["float32", "float64"])
def test_merge_and_report_bytes_do_not_depend_on_the_pool_width(tmp_path, dtype, widths):
    base_path, task_paths = write_merge_set(
        tmp_path, seed=4, mode="fft", n_tasks=4, layers=1, d=192
    )
    if dtype == "float64":
        recast([base_path, *task_paths], np.float64)
    outputs = set()
    for i, extra in enumerate(widths):
        merged, report = tmp_path / f"m{i}.dcm", tmp_path / f"r{i}.csv"
        for argv in (merge_args(base_path, task_paths, merged),
                     report_args(base_path, merged, task_paths, report)):
            proc = python("-m", "dcmerge.cli", *argv, **extra)
            assert proc.returncode == 0, proc.stderr
        outputs.add((merged.read_bytes(), report.read_bytes()))
    assert len(outputs) == 1


@pytest.mark.parametrize("mode, kind", [("fft", "energy"), ("fft", "direction"),
                                        ("lora", "energy"), ("lora", "direction")],
                         ids=["energy", "direction", "lora-energy", "lora-direction"])
def test_perturb_and_inspect_output_does_not_depend_on_the_pool_width(tmp_path, mode, kind):
    base_path, (task_path,) = write_merge_set(
        tmp_path, seed=5, mode=mode, n_tasks=1, layers=2, d=48
    )
    outputs = []
    for i, extra in enumerate(WIDTHS):
        out = tmp_path / f"p{i}.dcm"
        argv = perturb_args(base_path, task_path, out, kind=kind, p=0.6, seed=11)
        perturbed = python("-m", "dcmerge.cli", *argv, **extra)
        inspected = python("-m", "dcmerge.cli", "inspect", out, **extra)
        assert (perturbed.returncode, inspected.returncode) == (0, 0), perturbed.stderr
        outputs.append((perturbed.stdout.replace(str(out), "OUT"), inspected.stdout,
                        out.read_bytes()))
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


def test_the_first_failing_tensor_in_name_order_is_reported(tmp_path, monkeypatch, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ABC, seed=31)
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
    monkeypatch.setattr(cli, "_pool_width", 2)
    for _ in range(5):
        assert cli.main(merge_args(base_path, task_paths, tmp_path / "m.dcm")) == 3
        err = capsys.readouterr().err
        assert "numerical error: b did not converge" in err and "c is" not in err
    assert not (tmp_path / "m.dcm").exists()


def test_rank_clip_warnings_come_in_name_order(tmp_path, monkeypatch):
    base_path, task_paths = write_fft_set(tmp_path, ABC, seed=31)
    monkeypatch.setattr(cli, "_pool_width", 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(merge_args(base_path, task_paths, tmp_path / "m.dcm", "--rank", "5"))
    assert rc == 0
    bounds = [str(w.message).split("min(m, n) = ")[1].split(";")[0] for w in caught
              if "clipping to rank" in str(w.message)]
    assert bounds == ["6 of 'a.weight'", "7 of 'b.weight'", "8 of 'c.weight'"]


def test_a_clip_warning_names_its_tensor_so_each_prints_at_every_width(tmp_path, monkeypatch):
    base, tasks = write_merge_set(str(tmp_path), seed=7, mode="fft", n_tasks=3, layers=1, d=32)
    names = [name for name, t in sorted(read_container(base).tensors.items()) if t.ndim == 2]
    for width in (1, 2):
        monkeypatch.setattr(cli, "_pool_width", width)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # the process entry's filter: repeats print once
            out = tmp_path / f"m{width}.dcm"
            assert cli.main(merge_args(base, tasks, out, "--rank", "16")) == 0
        assert [str(w.message) for w in caught] == [
            f"rank 16 with 3 tasks exceeds the cover-basis bound min(m, n) = 32 of {name!r}; "
            "clipping to rank 10" for name in names
        ]


def test_report_rank_clip_warnings_come_in_name_order_at_every_width(tmp_path, monkeypatch):
    # a shared LoRA rank of 5 with two tasks clips on every tensor
    rng = np.random.default_rng(37)
    shapes = {f"{x}.weight": (10, n) for x, n in zip("abc", (6, 7, 8))}
    base = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    write_container(TensorContainer(tensors=base), tmp_path / "base.dcm")
    task_paths = []
    for i in range(2):
        task = {}
        for name, (m, n) in shapes.items():
            task[name.replace(".weight", ".lora_B")] = rng.standard_normal((m, 5))
            task[name.replace(".weight", ".lora_A")] = rng.standard_normal((5, n))
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(TensorContainer(tensors=task), task_paths[-1])
    merged = tmp_path / "m.dcm"
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        assert cli.main(merge_args(tmp_path / "base.dcm", task_paths, merged, mode="lora")) == 0
    reports = []
    for width in (1, 2):
        monkeypatch.setattr(cli, "_pool_width", width)
        out = tmp_path / f"r{width}.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(report_args(tmp_path / "base.dcm", merged, task_paths, out)) == 0
        bounds = [str(w.message).split("min(m, n) = ")[1].split(";")[0] for w in caught
                  if "clipping to rank" in str(w.message)]
        assert bounds == ["6 of 'a.weight'", "7 of 'b.weight'", "8 of 'c.weight'"]
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_optimize_basis_plans_only_its_tensor(tmp_path, capsys):
    # at rank 4 with two tasks, a.weight (10 x 3) exits 2 and b.weight (10 x 7) clips
    base_path, task_paths = write_fft_set(tmp_path, {**ABC, "a.weight": (10, 3)}, seed=31)
    argv = optimize_args(base_path, task_paths, tmp_path / "t.csv", "c.weight", "--rank", 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    assert caught == [] and capsys.readouterr().err == ""
    assert cli.main([*argv, "--tensor", "d.weight"]) == 2
    assert capsys.readouterr().err == (
        "error: tensor 'd.weight' not found among merged matrices "
        "['a.weight', 'b.weight', 'c.weight']\n"
    )


def test_each_command_resolves_each_planned_rank_once_in_the_calling_thread(
    tmp_path, monkeypatch
):
    base_path, task_paths = write_fft_set(tmp_path, ABC, seed=31)
    real = cli.resolve_rank
    calls = []

    def resolve_rank(tasks, cfg):
        calls.append((tasks[0].name, threading.get_ident()))
        return real(tasks, cfg)

    monkeypatch.setattr(cli, "resolve_rank", resolve_rank)
    monkeypatch.setattr(cli, "_pool_width", 2)
    merged = tmp_path / "m.dcm"
    commands = [
        merge_args(base_path, task_paths, merged),
        report_args(base_path, merged, task_paths, tmp_path / "r.csv"),
        optimize_args(base_path, task_paths, tmp_path / "t.csv", "b.weight"),
    ]
    planned = []
    for argv in commands:
        calls.clear()
        assert cli.main(argv) == 0
        assert {ident for _, ident in calls} == {threading.get_ident()}
        planned.append([name for name, _ in calls])
    everything = ["a.weight", "b.weight", "c.weight"]
    assert planned == [everything, everything, ["b.weight"]]


def test_perturb_reports_the_first_failing_tensor_in_name_order(tmp_path):
    # a one-entry spectrum has no direction to move energy to: every tensor fails
    base_path, task_paths = write_fft_set(tmp_path, ABC, seed=31)
    out = tmp_path / "p.dcm"
    results = _outcomes(perturb_args(base_path, task_paths[0], out, "--rank", 1, kind="energy"))
    assert len(results) == 1
    ((rc, stdout, stderr),) = results
    assert (rc, stdout) == (2, "")
    assert stderr.startswith("error: a.weight: a one-entry spectrum") and "b.weight" not in stderr
    assert not out.exists()


_INSPECT_FAILING = """
import sys, time
from dcmerge import cli
from dcmerge.errors import NumericalError
real_svd = cli._dense_svd

def dense_svd(a, compute_uv=True):
    if a.shape[1] == 7:  # b.weight fails after c.weight has
        time.sleep(0.05)
        raise NumericalError("b did not converge")
    if a.shape[1] == 8:
        raise NumericalError("c did not converge")
    return real_svd(a, compute_uv)

cli._dense_svd = dense_svd
sys.exit(cli.main())
"""


def test_inspect_reports_the_first_failing_tensor_in_name_order(tmp_path):
    base_path, _ = write_fft_set(tmp_path, ABC, seed=31)
    results = _outcomes(["inspect", base_path], WIDTHS * 3, _INSPECT_FAILING)
    # the error alone: no tensor's lines print when one of them fails
    assert results == {(3, "", "numerical error: b did not converge\n")}
