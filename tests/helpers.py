"""Fixtures that several test modules build alike."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

import dcmerge
from dcmerge._blas import USER_VARIABLES
from dcmerge.container import TensorContainer, read_container, write_container
from dcmerge.task_vector import TaskVector, decompose

SRC = str(Path(dcmerge.__file__).resolve().parents[1])


def random_orthonormal(rng, d, k):
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.sign(np.diag(r))


def random_decomp(rng, m, n, r):
    return decompose(TaskVector(name="t", delta=rng.standard_normal((m, n))), r)


def relative_gap(got, want):
    # both norms at one power-of-two scale, since the norm squares every entry
    e = np.frexp(np.abs(want).max())[1]
    return np.linalg.norm(np.ldexp(got - want, -e)) / np.linalg.norm(np.ldexp(want, -e))


def write_merge_set(out_dir, **kwargs):
    """The benchmark's seeded checkpoint set (``perfbench/gen.py``)."""
    gen = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"))
    return gen["write_merge_set"](out_dir, **kwargs)


def write_fft_set(folder, shapes, n_tasks=2, seed=0, dtype=np.float64):
    """``base.dcm`` and ``task<i>.dcm`` in ``folder``: a Gaussian base holding ``shapes``
    (name: shape) and ``n_tasks`` fft tasks, each the base plus 0.1 times a Gaussian.

    One generator draws each base tensor, then each task's, in the order of ``shapes``;
    every tensor is cast to ``dtype`` once it is drawn. Returns the base and task paths.
    """
    folder = Path(folder)
    rng = np.random.default_rng(seed)
    base = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    write_container(TensorContainer(tensors=base), folder / "base.dcm")
    task_paths = []
    for i in range(n_tasks):
        task = {name: (w + 0.1 * rng.standard_normal(w.shape)).astype(dtype)
                for name, w in base.items()}
        task_paths.append(folder / f"task{i}.dcm")
        write_container(TensorContainer(tensors=task), task_paths[-1])
    return folder / "base.dcm", task_paths


def write_lora_set(folder, ranks, seed=12, shape=(8, 6)):
    """``base.dcm`` with a Gaussian q.weight of ``shape`` in ``folder``, and one task file of
    Gaussian LoRA factors q.lora_B, q.lora_A per rank in ``ranks``, drawn in that order."""
    folder, (m, n), rng = Path(folder), shape, np.random.default_rng(seed)
    write_container(TensorContainer({"q.weight": rng.standard_normal(shape)}), folder / "base.dcm")
    task_paths = [folder / f"task{i}.dcm" for i in range(len(ranks))]
    for path, r in zip(task_paths, ranks):
        write_container(TensorContainer({"q.lora_B": rng.standard_normal((m, r)),
                                         "q.lora_A": rng.standard_normal((r, n))}), path)
    return folder / "base.dcm", task_paths


def recast(paths, dtype):
    """Rewrite each container in ``paths`` with every tensor cast to ``dtype``."""
    for path in paths:
        tensors = {name: arr.astype(dtype) for name, arr in read_container(path).tensors.items()}
        write_container(TensorContainer(tensors=tensors), path)


def poison(path, name, value=np.nan, index=0):
    """Rewrite the container at ``path`` with ``value`` at flat ``index`` of tensor ``name``."""
    container = read_container(path)
    tensors = dict(container.tensors)
    tensors[name] = tensors[name].copy()
    tensors[name].reshape(-1)[index] = value
    write_container(TensorContainer(tensors=tensors, metadata=container.metadata), path)


def merge_args(base, tasks, out, *extra, mode="fft"):
    return ["merge", "--base", str(base), "--task", *map(str, tasks), "--out", str(out),
            "--mode", mode, *map(str, extra)]


def report_args(base, merged, tasks, out):
    return ["report", "--base", str(base), "--merged", str(merged),
            "--task", *map(str, tasks), "--out", str(out)]


def perturb_args(base, task, out, *extra, kind="direction", p=0.5, seed=1):
    return ["perturb", "--base", str(base), "--task", str(task), "--kind", kind,
            "--p", str(p), "--seed", str(seed), "--out", str(out), *map(str, extra)]


def optimize_args(base, tasks, out, tensor, *extra, eta="1e-3", iters=2):
    return ["optimize-basis", "--base", str(base), "--task", *map(str, tasks), "--tensor", tensor,
            "--eta", str(eta), "--iters", str(iters), "--out", str(out), *map(str, extra)]


def python(*args, **variables):
    """The finished run of a new interpreter on ``args``, with this ``src/`` on its path.

    Its only thread variables (``_blas.USER_VARIABLES``) are those in ``variables``.
    """
    env = {k: v for k, v in os.environ.items() if k not in USER_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(variables)
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True)
