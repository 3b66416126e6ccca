"""Fixtures that several test modules build alike."""

import runpy
from pathlib import Path

import numpy as np

from dcmerge.task_vector import TaskVector, decompose


def random_orthonormal(rng, d, k):
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.sign(np.diag(r))


def random_decomp(rng, m, n, r):
    return decompose(TaskVector(name="t", delta=rng.standard_normal((m, n))), r)


def write_merge_set(out_dir, **kwargs):
    """The benchmark's seeded checkpoint set (``perfbench/gen.py``)."""
    gen = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"))
    return gen["write_merge_set"](out_dir, **kwargs)
