"""Workloads, operations and the closed measurement loop of the benchmark.

Importing this module needs ``dcmerge`` importable from the checkout under
test; ``run.py`` arranges that.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import check
import gen
import tracer
from dcmerge.errors import DcMergeError
from dcmerge.merge import MergeConfig

HERE = os.path.dirname(os.path.abspath(__file__))
# least number of timed `dcmerge --help` launches per run; set-up time is
# their median
MIN_HELP_LAUNCHES = 5
# optimize-basis input of the analyze workload
OPT_TASKS = 3
OPT_TENSOR = "layers.0.attn.q.weight"
OPT_ETA = 1e-2


@dataclasses.dataclass(frozen=True)
class Workload:
    """Input sizes and command flags of one workload.

    ``analyze`` workloads report on a merge of their inputs made at set-up and
    then run optimize-basis for opt_iters iterations on a separate
    opt_dim-wide model; the others run one ``dcmerge merge``.
    """

    mode: str
    tasks: int
    layers: int
    d: int
    merger: str = "ta"
    lora_rank: int = 16
    analyze: bool = False
    opt_dim: int = 32
    opt_iters: int = 4


# Sizes keep one operation near 2-3 s on a 2-CPU machine, so that a 20 s run
# holds enough operations for a steady median.
WORKLOADS = {
    "merge-fft": Workload(mode="fft", tasks=4, layers=1, d=192),
    "merge-lora": Workload(mode="lora", tasks=4, layers=1, d=192),
    "merge-fft-t8-ties": Workload(mode="fft", tasks=8, layers=3, d=96, merger="ties"),
    "analyze": Workload(mode="fft", tasks=4, layers=1, d=192, analyze=True),
}


@dataclasses.dataclass
class Sample:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def spawn(argv: list[str], env: dict, log_prefix: str) -> tuple[int, Sample]:
    """Run one process to exit; time it from spawn to exit, with its own rusage."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_prefix + ".out", flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, log_prefix + ".err", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    return os.waitstatus_to_exitcode(status), sample


class Runner:
    """Spawns dcmerge commands of one checkout with this process's environment.

    ``run.py`` removes the thread-count variables from that environment, so
    the commands run with the program's own thread defaults.
    """

    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def cli(self, args: list[str], spans: str | None = None) -> Sample:
        if spans is None:
            argv = [sys.executable, "-m", "dcmerge.cli", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans, "--", *args]
        log = os.path.join(self.work, "proc")
        rc, sample = spawn(argv, self.env, log)
        if rc != 0:
            with open(log + ".err") as fh:
                tail = fh.read()[-2000:]
            raise check.CheckError(f"dcmerge {args[0]} exited with {rc}: {tail}")
        return sample


class MergeJob:
    """One ``dcmerge merge`` per operation, spot-checked against dc_merge in-process."""

    def __init__(self, wl: Workload, seed: int, runner: Runner):
        work = runner.work
        self.base, self.tasks = gen.write_merge_set(
            work, seed, wl.mode, wl.tasks, wl.layers, wl.d, wl.lora_rank
        )
        self.out = os.path.join(work, "merged.dcm")
        self.argv = ["merge", "--base", self.base, "--task", *self.tasks,
                     "--out", self.out, "--mode", wl.mode, "--merger", wl.merger]
        names = sorted(gen.matrix_shapes(wl.layers, wl.d))
        cfg = MergeConfig(mode=wl.mode, merger=wl.merger)
        self.reference = check.MergeReference(
            self.base, self.tasks, cfg, names[seed % len(names)]
        )

    def commands(self) -> list[list[str]]:
        return [self.argv]

    def check(self) -> None:
        self.reference.check(self.out)

    def retention(self) -> float:
        return check.retention(self.base, self.out, self.tasks)


class AnalyzeJob:
    """``dcmerge report`` then ``dcmerge optimize-basis`` per operation."""

    def __init__(self, wl: Workload, seed: int, runner: Runner):
        work = runner.work
        self.wl = wl
        base, tasks = gen.write_merge_set(work, seed, wl.mode, wl.tasks, wl.layers, wl.d)
        merged = os.path.join(work, "merged.dcm")
        runner.cli(["merge", "--base", base, "--task", *tasks, "--out", merged,
                    "--mode", wl.mode])
        self.expected = check.retention(base, merged, tasks)
        self.n_tensors = len(gen.matrix_shapes(wl.layers, wl.d))
        self.report = os.path.join(work, "report.csv")
        self.report_argv = ["report", "--base", base, "--merged", merged,
                            "--task", *tasks, "--out", self.report]

        opt_dir = os.path.join(work, "opt")
        os.mkdir(opt_dir)
        opt_base, opt_tasks = gen.write_merge_set(
            opt_dir, seed, "fft", OPT_TASKS, 1, wl.opt_dim
        )
        self.trace = os.path.join(work, "trace.csv")
        self.opt_argv = ["optimize-basis", "--base", opt_base, "--task", *opt_tasks,
                         "--tensor", OPT_TENSOR, "--eta", repr(OPT_ETA),
                         "--iters", str(wl.opt_iters), "--out", self.trace]
        self.value = None

    def commands(self) -> list[list[str]]:
        return [self.report_argv, self.opt_argv]

    def check(self) -> None:
        value = check.check_report(self.report, self.n_tensors, self.wl.tasks)
        check.check_report_against(value, self.expected)
        check.check_optimizer_trace(self.trace, self.wl.opt_iters)
        self.value = value

    def retention(self) -> float:
        return self.value


def run_op(job, runner: Runner, traced: bool) -> tuple[Sample, list]:
    """One operation: its commands back to back, then the output check."""
    total = Sample()
    spans: list = []
    for i, args in enumerate(job.commands()):
        span_file = os.path.join(runner.work, f"spans{i}.json") if traced else None
        s = runner.cli(args, span_file)
        total.wall_s += s.wall_s
        total.cpu_s += s.cpu_s
        total.rss_mb = max(total.rss_mb, s.rss_mb)
        if traced:
            with open(span_file) as fh:
                # span ids restart in every process; qualify them by command
                for span in json.load(fh):
                    span[0] = (i, span[0])
                    span[1] = None if span[1] is None else (i, span[1])
                    spans.append(span)
    try:
        job.check()
    except (DcMergeError, OSError, ValueError) as exc:
        raise check.CheckError(f"output could not be checked: {exc!r}") from exc
    return total, spans


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None for another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    top, commit = lines
    # a checkout copied into some other repository has no commit of its own
    return commit if os.path.realpath(top) == os.path.realpath(root) else None


def _src_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_default_threads": _blas_threads(),
        "commit": _commit(root),
        "src_sha256": _src_digest(root),
    }


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(root: str, spec: dict, name: str, seed: int, seconds: float, trace: bool,
            wl: Workload | None = None,
            min_help_launches: int = MIN_HELP_LAUNCHES) -> tuple[dict, dict]:
    """Set up, run the closed loop and return (result line, info line).

    ``spec`` is the parsed BENCHMARK.json. ``wl`` replaces the named
    workload's sizes; with ``min_help_launches`` it lets a test run at toy size.
    The info line carries the end-to-end values in traced runs too.
    """
    wl = wl or WORKLOADS[name]
    work = os.path.join(root, ".perfbench_work", f"{name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(root, work)
        info = {"workload": name, "seed": seed, "env": environment(root)}
        # the first launch may compile the package's bytecode; it is not timed
        runner.cli(["--help"])
        help_walls: list[float] = []
        job = (AnalyzeJob if wl.analyze else MergeJob)(wl, seed, runner)

        plain: list[Sample] = []
        traced: list[Sample] = []
        layers: list[dict] = []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while True:
            for with_trace in (False, True) if trace else (False,):
                attempted += 1
                try:
                    sample, spans = run_op(job, runner, with_trace)
                except check.CheckError as exc:
                    failed += 1
                    print(f"failed operation: {exc}", file=sys.stderr)
                    continue
                if with_trace:
                    traced.append(sample)
                    layers.append(tracer.layer_stats(spans))
                else:
                    plain.append(sample)
            # one set-up launch per round spreads them over the same period
            help_walls.append(runner.cli(["--help"]).wall_s)
            if time.perf_counter() >= deadline:
                break
        while len(help_walls) < min_help_launches:
            help_walls.append(runner.cli(["--help"]).wall_s)
        retention = job.retention() if failed == 0 else 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op_s = _median([s.wall_s for s in plain])
    end_to_end = {
        "op_s": op_s,
        "cpu_s": _median([s.cpu_s for s in plain]),
        "peak_rss_mb": _median([s.rss_mb for s in plain]),
        "setup_s": _median(help_walls),
        "retention": retention,
        "success_rate": (attempted - failed) / attempted,
    }
    per_layer = {key: _median([row[key] for row in layers]) for key in layers[0]} if layers else {}
    per_layer["trace.overhead_s"] = _median([s.wall_s for s in traced]) - op_s
    values = per_layer if trace else end_to_end
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    info["end_to_end"] = end_to_end
    info["samples"] = {
        "op_wall_s": [s.wall_s for s in plain],
        "op_cpu_s": [s.cpu_s for s in plain],
        "op_rss_mb": [s.rss_mb for s in plain],
        "traced_wall_s": [s.wall_s for s in traced],
        "setup_s": help_walls,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info
