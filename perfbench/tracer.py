"""Outside-in span recorder for one dcmerge CLI command.

Run as ``python3 perfbench/tracer.py SPANS_JSON -- <dcmerge arguments>``.
Before the command starts, every function named in ``TARGETS`` is replaced,
in each dcmerge module that binds it, by a wrapper that records a span. The
program itself is not modified. Spans stay in memory and are written to
SPANS_JSON as one list when the command ends; ``layer_stats`` turns such
lists into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# public functions of each package module, wrapped where callers look them up
TARGETS = {
    "container": ("read_container", "write_container", "extract_task_vectors"),
    "task_vector": ("decompose", "smooth_energy", "reconstruct"),
    "linalg": ("truncated_svd", "whiten", "matrix_exp_skew"),
    "cover": ("build_cover_basis", "project", "make_mask", "back_project"),
    "merge": ("dc_merge", "merge_ta", "merge_ties", "assemble_model"),
    "metrics": ("cos_sim", "projected_dir_sim", "alignment_score"),
    "optimizer": ("optimize_cover_basis",),
}
# CLI subcommand handlers, recorded as cli.<subcommand>
COMMANDS = {
    "_cmd_merge": "cli.merge",
    "_cmd_report": "cli.report",
    "_cmd_optimize_basis": "cli.optimize-basis",
}
SVD = "numpy.linalg.svd"


class Recorder:
    """Spans as (id, parent id, name, thread, start, end, extra) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def _stack(self) -> list:
        return self._local.__dict__.setdefault("stack", [])

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks run as children of the submitting span."""
        recorder = self

        def adopt(parent, fn, *args, **kwargs):
            stack = recorder._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = recorder._stack()
                parent = stack[-1] if stack else None
                return super().submit(adopt, parent, fn, *args, **kwargs)

        return TracedPool

    def wrap(self, name, fn, extra=None):
        """Return ``fn`` recording a span per call; ``extra(args, kwargs)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                info = extra(args, kwargs) if extra is not None else None
                with self._lock:
                    self.spans.append(
                        (span_id, parent, name, threading.get_ident(), start, end, info)
                    )

        return traced


def _size_of_first(args, kwargs):
    return {"elems": int(getattr(args[0], "size", 0))}


def _file_size(index):
    def extra(args, kwargs):
        return {"bytes": os.path.getsize(args[index])}

    return extra


def _iters(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"iters": cfg.max_iters}


EXTRAS = {
    "container.read_container": _file_size(0),
    "container.write_container": _file_size(1),
    "linalg.whiten": _size_of_first,
    "optimizer.optimize_cover_basis": _iters,
    SVD: _size_of_first,
}


def install(recorder: Recorder) -> None:
    """Wrap every target in every loaded dcmerge module that binds it."""
    import numpy as np

    import dcmerge
    from dcmerge import cli

    modules = [
        m for n, m in list(sys.modules.items()) if n == "dcmerge" or n.startswith("dcmerge.")
    ]
    for mod_name, functions in TARGETS.items():
        home = getattr(dcmerge, mod_name)
        for fn_name in functions:
            original = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped = recorder.wrap(name, original, EXTRAS.get(name))
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    setattr(module, fn_name, wrapped)
    for fn_name, name in COMMANDS.items():
        setattr(cli, fn_name, recorder.wrap(name, getattr(cli, fn_name)))
    cli.ThreadPoolExecutor = recorder.pool_class()
    np.linalg.svd = recorder.wrap(SVD, np.linalg.svd, EXTRAS[SVD])


def _sum(values) -> float:
    return float(sum(values))


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_stats(spans: list) -> dict[str, float]:
    """Per-layer metrics from the spans of one operation (one or more commands).

    Busy time sums span durations over all threads. Self time is a span's
    duration minus the part of it that its child spans cover; children
    submitted to a thread pool may overlap, so their union is taken.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))
    child_time = {parent: _covered(intervals) for parent, intervals in children.items()}

    def named(name):
        return [s for s in spans if s[2] == name]

    def busy(name):
        return _sum(s[5] - s[4] for s in named(name))

    def self_time(name):
        return _sum(s[5] - s[4] - child_time.get(s[0], 0.0) for s in named(name))

    def has_ancestor(span, name):
        parent = span[1]
        while parent is not None:
            if by_id[parent][2] == name:
                return True
            parent = by_id[parent][1]
        return False

    def parent_name(span):
        return by_id[span[1]][2] if span[1] is not None else None

    out: dict[str, float] = {}
    for mod_name, functions in TARGETS.items():
        for fn_name in functions:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = len(named(name))
            out[f"{name}.busy_s"] = busy(name)
    for io in ("read_container", "write_container"):
        out[f"container.{io}.bytes"] = _sum(s[6]["bytes"] for s in named(f"container.{io}"))
    out["linalg.whiten.input_elems"] = _sum(s[6]["elems"] for s in named("linalg.whiten"))
    out["task_vector.decompose.svd_input_elems"] = _sum(
        s[6]["elems"] for s in named(SVD) if has_ancestor(s, "task_vector.decompose")
    )

    merges = named("merge.dc_merge")
    out["merge.dc_merge.self_s"] = self_time("merge.dc_merge")
    dc_busy = out["merge.dc_merge.busy_s"]
    under_merge = _sum(
        s[5] - s[4] for s in named("task_vector.decompose") if parent_name(s) == "merge.dc_merge"
    )
    out["merge.dc_merge.decompose_share"] = under_merge / dc_busy if dc_busy > 0 else 0.0
    if merges:
        phase = max(s[5] for s in merges) - min(s[4] for s in merges)
        out["merge.parallelism"] = dc_busy / phase if phase > 0 else 1.0
    else:
        out["merge.parallelism"] = 0.0

    out["cli.report.decompose.busy_s"] = _sum(
        s[5] - s[4] for s in named("task_vector.decompose") if parent_name(s) == "cli.report"
    )
    commands = [s for s in spans if s[2] in COMMANDS.values()]
    out["cli.command.busy_s"] = _sum(s[5] - s[4] for s in commands)
    out["cli.command.self_s"] = _sum(s[5] - s[4] - child_time.get(s[0], 0.0) for s in commands)

    iters = sum(s[6]["iters"] for s in named("optimizer.optimize_cover_basis"))
    opt_busy = out["optimizer.optimize_cover_basis.busy_s"]
    out["optimizer.s_per_iter"] = opt_busy / iters if iters else 0.0
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <dcmerge arguments>", file=sys.stderr)
        return 2
    from dcmerge import cli

    recorder = Recorder()
    install(recorder)
    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
