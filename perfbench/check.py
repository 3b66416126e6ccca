"""Output checks for the benchmark's operations, and the retention metric.

Every check raises ``CheckError`` with a reason; the runner counts a raised
check as a failed operation.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from dcmerge.container import detect_mode, extract_task_vectors, read_container
from dcmerge.merge import MergeConfig, dc_merge
from dcmerge.metrics import projected_dir_sim
from dcmerge.task_vector import decompose

# a merged matrix must match an in-process dc_merge on the same inputs to
# this relative tolerance before the float32 rounding of the stored weights
REL_TOL = 1e-10
# the report's retention must match the in-process recomputation this closely
REPORT_TOL = 1e-9


class CheckError(Exception):
    pass


def load_tasks(base, task_paths):
    """Task vectors of every task file against ``base``, in file order."""
    mode = detect_mode(read_container(task_paths[0]))
    return [extract_task_vectors(base, read_container(p), mode) for p in task_paths]


class MergeReference:
    """Expected output of one merge: the base layout plus one spot-checked matrix."""

    def __init__(self, base_path, task_paths, cfg: MergeConfig, spot: str):
        self.base = read_container(base_path)
        extracts = load_tasks(self.base, task_paths)
        self.spot = spot
        self.delta = dc_merge([ex.matrices[spot] for ex in extracts], cfg)

    def check(self, out_path) -> None:
        out = read_container(out_path)
        if out.names() != self.base.names():
            raise CheckError(f"tensor names differ from the base: {out.names()}")
        for name, ref in self.base.tensors.items():
            arr = out.tensors[name]
            if arr.shape != ref.shape or arr.dtype != ref.dtype:
                raise CheckError(
                    f"{name}: {arr.dtype}{arr.shape}, base is {ref.dtype}{ref.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise CheckError(f"{name}: non-finite values")
        # the stored value is base + delta (alpha is 1) rounded to the base
        # dtype; rounding is monotone, so a delta within the tolerance lands
        # between the roundings of the two ends of the tolerance band
        base = self.base.tensors[self.spot]
        exact = base.astype(np.float64) + self.delta
        band = REL_TOL * np.abs(self.delta).max()
        lo = (exact - band).astype(base.dtype)
        hi = (exact + band).astype(base.dtype)
        got = out.tensors[self.spot]
        bad = int(np.count_nonzero((got < lo) | (got > hi)))
        if bad:
            raise CheckError(
                f"{self.spot}: {bad} entries differ from the in-process dc_merge "
                f"by more than {REL_TOL:g} relative"
            )


def _report_rank(tv, n_tasks: int) -> int:
    m, n = tv.shape
    cap = max(1, min(m, n) // n_tasks)
    return min(tv.lora_rank if tv.lora_rank is not None else cap, cap)


def retention(base_path, merged_path, task_paths) -> float:
    """Mean projected_dir_sim of each task against the merged delta.

    Averages over every matrix tensor and task, at the rank ``dcmerge report``
    uses, so it equals the mean of the report's ``ALL`` projected_dir_sim rows.
    """
    base = read_container(base_path)
    merged = read_container(merged_path)
    extracts = load_tasks(base, task_paths)
    per_task = []
    for ex in extracts:
        sims = []
        for name, tv in sorted(ex.matrices.items()):
            delta = merged.tensors[name].astype(np.float64) - base.tensors[name].astype(
                np.float64
            )
            kd = decompose(tv, _report_rank(tv, len(extracts)))
            sims.append(projected_dir_sim(kd, delta))
        per_task.append(float(np.mean(sims)))
    return float(np.mean(per_task))


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_report(csv_path, n_tensors: int, n_tasks: int) -> float:
    """Check a ``dcmerge report`` CSV; return the mean of its ALL projected_dir_sim rows."""
    rows = _read_csv(csv_path)
    if not rows or rows[0] != ["tensor", "task", "metric", "value"]:
        raise CheckError("report CSV header is missing or wrong")
    body = rows[1:]
    per_tensor = 2 * n_tasks + 1 + n_tasks * n_tasks
    expected = n_tensors * per_tensor + 2 * n_tasks + 1
    if len(body) != expected:
        raise CheckError(f"report has {len(body)} rows, expected {expected}")
    values = []
    for row in body:
        if len(row) != 4:
            raise CheckError(f"report row has {len(row)} fields: {row!r}")
        value = float(row[3])
        if not math.isfinite(value):
            raise CheckError(f"report value is not finite: {row!r}")
        if row[0] == "ALL" and row[2] == "projected_dir_sim":
            values.append(value)
    if len(values) != n_tasks:
        raise CheckError(f"report has {len(values)} ALL projected_dir_sim rows")
    return float(np.mean(values))


def check_report_against(report_value: float, recomputed: float) -> None:
    if abs(report_value - recomputed) > REPORT_TOL:
        raise CheckError(
            f"report retention {report_value!r} differs from the in-process "
            f"value {recomputed!r}"
        )


def check_optimizer_trace(csv_path, iters: int) -> None:
    """An optimize-basis trace logs every iteration plus the final score,
    and the final score is not below the initial one."""
    rows = _read_csv(csv_path)
    if not rows or rows[0] != ["iter", "score"]:
        raise CheckError("optimizer trace header is missing or wrong")
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(iters + 1)):
        raise CheckError(f"optimizer trace does not log iterations 0..{iters}")
    scores = [float(r[1]) for r in body]
    if not all(math.isfinite(s) for s in scores):
        raise CheckError("optimizer trace has non-finite scores")
    if scores[-1] < scores[0]:
        raise CheckError(f"optimizer final score {scores[-1]} < initial {scores[0]}")
