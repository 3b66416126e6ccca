"""Command-line entry points.

Subcommands: merge, report, inspect, perturb, optimize-basis,
accuracy-report. Exit codes: 0 on success, 2 on input validation failure
(including file problems), 3 on numerical failure. Importing this module
before numpy loads numpy with one OpenBLAS thread and sets the width of the
tensor pool to the processor count (``_blas.start``); where numpy was
loaded first, the user chose a thread count or numpy uses another BLAS, the
width is 1 and the BLAS keeps its own count.

``merge``, ``report``, ``perturb`` and ``inspect`` work on their tensors in
sorted-name order on the pool (``_per_tensor``). The headers are checked, and
ranks resolved (for ``merge``, ``report`` and ``optimize-basis`` in one plan,
``_Plan``), in the calling thread first; then ``--out``, unless it is an input
(``_check_out``), is opened through ``container._replacing``, which refuses a
bad one before any tensor is read and replaces it only on success. Every
command but ``merge`` then reads each tensor only when it works on it, so it
holds about one tensor per thread; ``merge`` reads every tensor before its
first merge. Each command prints its per-tensor results in name order once
every tensor is done, so warnings, errors, stdout and output bytes do not
depend on the width.

``run`` is the process entry and ``main(argv)`` the in-process one. The
modules every data command reads with load here; ``metrics``, ``optimizer``,
``perturb`` and ``csv`` load inside the handlers that use them, so ``--help``
and ``merge`` do not load them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import os
import sys
import threading
import warnings

from . import _blas

# before the first import of numpy, so that OpenBLAS starts with one thread
_pool_width = _blas.start()

import numpy as np

from .container import (
    _DTYPE_NAMES,
    ContainerReader,
    _replacing,
    _write_at,
    container_writer,
    detect_mode,
    pair_tensors,
    vector_delta,
)
from .cover import CoverBasis, frame, make_mask
from .errors import NumericalError, ValidationError
from .linalg import _all_finite, _checked_matrix, _dense_svd
from .merge import MergeConfig, assemble_tensor, dc_merge, merge_ta, resolve_rank
from .task_vector import SmoothingStrategy, TaskVector, decompose, from_lora_factors


def _rank_arg(text: str):
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a positive integer, got {value}")
    return value


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(fd: int, header, rows) -> None:
    """``header`` and ``rows``, each row's last value by ``_fmt``, as CSV lines into ``fd``."""
    import csv
    import io

    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [header, *((*row[:-1], _fmt(row[-1])) for row in rows)])
    _write_at(fd, memoryview(text.getvalue().encode()), 0)


def _or_nan(metric, *args) -> float:
    try:
        return metric(*args)
    except NumericalError:
        return float("nan")


def _nanmean(values) -> float:
    """Mean of the defined values; nan, without a warning, when there are none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(np.nanmean(values))


def _merge_config(args) -> MergeConfig:
    """``merge``'s config from its flags, which the library types check and complete."""
    kind = {"none": "truncate_only", "avg": "averaging", "linear": "linear", "interp": "interpolate",
            None: MergeConfig(mode=args.mode).resolved_smoothing().kind}[args.smoothing]
    return MergeConfig(mode=args.mode, smoothing=SmoothingStrategy(kind, args.rho, args.tau),
                       merger=args.merger, ties_keep=args.ties_keep, mask_block=args.mask_block)


def _check_out(out, **inputs) -> None:
    """Refuse an ``--out`` that is the file of an input, named by its flag in ``inputs``."""
    for flag, paths in inputs.items():
        for path in paths:
            if os.path.exists(out) and os.path.samefile(out, path):
                raise ValidationError(f"--out {out} is the --{flag} file {path}; write elsewhere")


def _per_tensor(fn, names, width: int) -> dict:
    """``{name: fn(name)}`` over ``names`` in sorted order, on up to ``width`` threads.

    The calling thread is one of them, and every thread takes the next name
    in order. After an exception (a Ctrl-C in the calling thread included)
    no further name is started; once the started ones end, the exception of
    the first failing name in sorted order is raised, which is the one a
    single thread would have raised.
    """
    names = sorted(names)
    results: dict = {}
    errors: dict[int, BaseException] = {}
    pending = iter(enumerate(names))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                item = None if errors else next(pending, None)
            if item is None:
                return
            i, name = item
            try:
                results[name] = fn(name)
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    helpers = []
    try:
        for _ in range(min(width, len(names)) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    except BaseException as exc:  # a Ctrl-C between two names stops the helpers too
        errors[-1] = exc
        raise
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return {name: results[name] for name in names}


@contextlib.contextmanager
def _naming(path):
    """Lead any ValidationError raised in the block with the file's path."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


class _Plan:
    """The task files of a command, paired with the base from the headers alone.

    Every file is opened on ``files`` (an ExitStack), paired in the mode
    (``None``: the first file's), and must hold the same matrix tensors, no
    tensor that the base lacks (``unmatched``) and, in a LoRA file, no
    tensor that is not read (``unpaired``). ``ranks`` maps the matrix
    tensors, or ``tensor`` alone, in name order, to the rank from
    ``resolve_rank``, resolved here in the calling thread so warnings and
    errors keep that order. No tensor is read until ``task_vectors``.
    """

    def __init__(self, files, base, task_paths, mode=None, rank=None, tensor=None):
        self.tasks, self.pairings = [], []
        for path in task_paths:
            task = files.enter_context(ContainerReader(path))
            found = detect_mode(task)
            mode = mode or found
            if found != mode:
                raise ValidationError(f"{path}: holds {found} checkpoint tensors, not {mode}")
            with _naming(path):
                self.pairings.append(pair_tensors(base.specs, task.specs, mode))
            self.tasks.append(task)
        first = self.pairings[0].matrices
        names = sorted(first)
        if any(p.matrices.keys() != first.keys() for p in self.pairings[1:]):
            raise ValidationError(
                "task checkpoints expose different matrix tensors; "
                "they must share one architecture"
            )
        if not names:
            raise ValidationError("the task checkpoints share no matrix tensor with the base")
        for path, task, p in zip(task_paths, self.tasks, self.pairings):
            if p.unmatched:
                raise ValidationError(
                    f"{path}: holds tensor {p.unmatched[0]!r}, which the base lacks")
            if p.unpaired:
                ndim = task.specs[p.unpaired[0]].ndim
                raise ValidationError(f"{path}: holds {ndim}-D tensor {p.unpaired[0]!r}, " + (
                    "which is no LoRA factor; a lora checkpoint holds its matrices as "
                    "<p>.lora_B, <p>.lora_A pairs" if ndim == 2 else
                    "which is not read: the LoRA pair of that name stands for the matrix"))
        if tensor is not None and tensor not in names:
            raise ValidationError(f"tensor {tensor!r} not found among merged matrices {names}")
        cfg = MergeConfig(mode=mode, rank=rank)
        self.ranks = {}
        for name in names if tensor is None else [tensor]:
            self.ranks[name] = resolve_rank([p.matrices[name] for p in self.pairings], cfg)

    def task_vectors(self, name, base):
        """Matrix ``name``'s task vectors, one per file in file order, with the base's array.

        Each file's tensors are read here; the first file with a non-finite
        one is reported.
        """
        tvs = []
        for task, p in zip(self.tasks, self.pairings):
            with _naming(task.path):
                tvs.append(p.matrices[name].task_vector(task.read, base))
        return tvs

    def measure(self, name, base):
        """Matrix ``name``'s task vectors, their decompositions at its rank, and their G and H."""
        tvs = self.task_vectors(name, base)
        decomps = [decompose(tv, self.ranks[name]) for tv in tvs]
        _, Gu, Gv = frame(decomps, basis=False)
        return tvs, decomps, Gu, Gv


def _cmd_merge(args) -> int:
    if not 0 < args.alpha < np.inf:
        raise ValidationError(f"alpha must be positive and finite, got {args.alpha}")
    cfg = _merge_config(args)
    with contextlib.ExitStack() as files:
        base = files.enter_context(ContainerReader(args.base))
        plan = _Plan(files, base, args.task, args.mode, args.rank)
        # a tensor averaged from one task file is averaged over all of them, so each must hold it
        vector_names = sorted(set().union(*(p.vectors for p in plan.pairings)))
        for path, p in zip(args.task, plan.pairings):
            lost = [name for name in vector_names if name not in p.vectors]
            if lost:
                raise ValidationError(f"{path}: lacks {base.specs[lost[0]].ndim}-D tensor "
                                      f"{lost[0]!r}, which another task has")
        _check_out(args.out, base=[args.base], task=args.task)
        with container_writer(args.out, base.specs, base.metadata) as put:
            # every input is read and checked, by name and then by file, before the first merge
            arrays = {name: base.read(name) for name in sorted(base.specs)}
            tasks, deltas = {}, {}
            for name, arr in arrays.items():
                if name in plan.ranks:
                    tasks[name] = plan.task_vectors(name, arr)
                elif name in vector_names:
                    vecs = []
                    for task in plan.tasks:
                        with _naming(task.path):
                            vecs.append(vector_delta(name, task.read(name), arr))
                    deltas[name] = np.mean(np.stack(vecs), axis=0)
            deltas.update(_per_tensor(
                lambda name: dc_merge(tasks[name], dataclasses.replace(cfg, rank=plan.ranks[name])),
                plan.ranks, _pool_width,
            ))
            for name, arr in arrays.items():
                put(name, assemble_tensor(name, arr, deltas[name], args.alpha)
                    if name in deltas else arr)
    print(
        f"merged {len(plan.ranks)} matrix tensors and {len(vector_names)} "
        f"averaged tensors from {len(args.task)} tasks -> {args.out}"
    )
    return 0


def _cmd_report(args) -> int:
    from .metrics import _alignment, cos_sim, projected_dir_sim

    with contextlib.ExitStack() as files:
        base = files.enter_context(ContainerReader(args.base))
        merged = files.enter_context(ContainerReader(args.merged))
        plan = _Plan(files, base, args.task)

        # every check the headers allow before any tensor is read
        for name in plan.ranks:
            spec = merged.specs.get(name)
            if spec is None:
                raise ValidationError(f"merged checkpoint is missing tensor {name!r}")
            label = f"{args.merged}: tensor {name!r}"
            if spec.ndim != 2:
                raise ValidationError(f"{label} must be 2-D, got shape {spec.shape}")
            if spec.shape != (shape := base.specs[name].shape):
                raise ValidationError(f"{label} has shape {spec.shape}, base is {shape}")
        _check_out(args.out, base=[args.base], merged=[args.merged], task=args.task)
        out = files.enter_context(_replacing(args.out))

        def tensor_rows(name):
            arr = base.read(name)
            tvs, decomps, Gu, Gv = plan.measure(name, arr)
            label = f"{args.merged}: tensor {name!r}"
            merged_delta = np.subtract(_checked_matrix(merged.read(name), label), arr,
                                       dtype=np.float64)
            rows = []
            for path, tv, kd in zip(args.task, tvs, decomps):
                # undefined where a task or the merge left the tensor at the base
                rows.append((name, path, "cos_sim", _or_nan(cos_sim, tv.delta, merged_delta)))
                rows.append(
                    (name, path, "projected_dir_sim", _or_nan(projected_dir_sim, kd, merged_delta))
                )
            rows.append((name, "", "alignment_score", _alignment(Gu, Gv)))

            # block structure, one block per task, of sum_i U~^T U_i diag(sigma_i) V_i^T V~
            summed = (Gu * np.concatenate([kd.sigma for kd in decomps])) @ Gv.T
            blocks = make_mask(Gu.shape[0], plan.ranks[name])
            rows += [(name, "", f"block_mean_abs[{i},{j}]", float(np.mean(np.abs(summed[bi, bj]))))
                     for i, bi in enumerate(blocks) for j, bj in enumerate(blocks)]
            return rows

        rows = [row for rs in _per_tensor(tensor_rows, plan.ranks, _pool_width).values()
                for row in rs]

        def column(task, metric):
            return [value for _, t, m, value in rows if t == task and m == metric]

        summary = [("ALL", path, metric, _nanmean(column(path, metric)))
                   for path in args.task for metric in ("cos_sim", "projected_dir_sim")]
        align = float(np.mean(column("", "alignment_score")))
        rows += summary + [("ALL", "", "alignment_score", align)]
        _write_csv(out, ("tensor", "task", "metric", "value"), rows)
    print(f"wrote {len(rows)} metric rows for {len(plan.ranks)} tensors -> {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    with ContainerReader(args.file) as container:

        def describe(name):
            spec = container.specs[name]
            head = f"{name}  {_DTYPE_NAMES[spec.dtype]}  {spec.shape}"
            if spec.ndim != 2 or min(spec.shape) == 0:
                return [head]
            arr = container.read(name)
            if not _all_finite(arr):
                return [head, "    spectrum: non-finite entries"]
            sigma = _dense_svd(arr.astype(np.float64), compute_uv=False)
            total = float(sigma.sum())
            if total == 0.0:
                return [head, "    spectrum: all zero"]
            full = sigma.size
            marks = []
            r = 1
            while r < full:
                marks.append(r)
                r *= 2
            marks.append(full)
            parts = [f"r={r} {float(sigma[:r].sum()) / total:.4f}" for r in marks]
            return [head, "    top-r energy fraction: " + ", ".join(parts)]

        described = _per_tensor(describe, container.specs, _pool_width)
    for lines in described.values():
        print("\n".join(lines))
    if container.metadata:
        print("metadata:")
        for key in sorted(container.metadata):
            print(f"    {key} = {container.metadata[key]}")
    return 0


def _cmd_perturb(args) -> int:
    from .perturb import _check_p_and_seed, perturb_rank, perturb_task_vector

    _check_p_and_seed(args.p, args.seed)
    with contextlib.ExitStack() as files:
        base = files.enter_context(ContainerReader(args.base))
        task = files.enter_context(ContainerReader(args.task))
        with _naming(args.task):
            pairing = pair_tensors(base.specs, task.specs, detect_mode(task))
        matrix_names = sorted(pairing.matrices)
        if not matrix_names:
            raise ValidationError("no matrix tensors found to perturb")

        # one seed per tensor in sorted-name order, whichever thread perturbs it
        children = np.random.SeedSequence(args.seed).spawn(len(matrix_names))
        seeds = {name: int(child.generate_state(1, dtype=np.uint64)[0])
                 for name, child in zip(matrix_names, children)}
        # each matrix's working rank, which sets the shape of the LoRA factors written
        ranks, specs = {}, dict(task.specs)
        for name, pm in sorted(pairing.matrices.items()):
            r = ranks[name] = perturb_rank(pm, args.kind, args.rank)
            if pm.lora_rank is not None:
                for src, shape in zip(pm.sources, ((pm.shape[0], r), (r, pm.shape[1]))):
                    specs[src] = specs[src]._replace(shape=shape)
        # every task tensor that is no matrix source goes out as it is; a 1-D tensor can
        # share its name with a LoRA pair's matrix, so each job is (name, is_matrix)
        kept = set(task.specs).difference(*(pm.sources for pm in pairing.matrices.values()))
        jobs = [(name, False) for name in kept] + [(name, True) for name in matrix_names]

        def written_through(name):
            arr = task.read(name)
            if name in pairing.vectors:
                with _naming(args.task):
                    vector_delta(name, arr, base.read(name))
            put(name, arr)

        def perturbed(name):
            """Put matrix ``name``'s output tensors; the line to print and whether it changed."""
            pm = pairing.matrices[name]
            arrays = {src: task.read(src) for src in pm.sources}
            base_arr = base.read(name) if pm.lora_rank is None else None
            with _naming(args.task):
                tv = pm.task_vector(arrays.__getitem__, base_arr)
            result = perturb_task_vector(tv, args.kind, args.p, seeds[name], args.rank)
            if result is None:
                # the task's own tensors go out, as zero factors where the working rank
                # gives them another shape
                for src, arr in arrays.items():
                    spec = specs[src]
                    put(src, arr if arr.shape == spec.shape else np.zeros(spec.shape, spec.dtype))
                return f"{name}: zero delta, left unchanged", False
            (U, sigma, V), achieved = result
            if pm.lora_rank is None:
                delta_hat = (U * sigma) @ V.T
                put(name, assemble_tensor(name, base_arr, delta_hat, 1.0, specs[name].dtype))
            else:  # B = U diag(sigma), A = V^T, each in the task's dtype
                for src, factor in zip(pm.sources, (U * sigma, V.T)):
                    with np.errstate(over="ignore"):  # reported just below
                        factor = factor.astype(specs[src].dtype)
                    if not _all_finite(factor):
                        raise NumericalError(f"tensor {src!r} is not finite after perturbation")
                    put(src, factor)
            return f"{name}: rank {ranks[name]}, achieved similarity {achieved:.6f}", True

        metadata = {**task.metadata, "dcmerge.perturb.kind": args.kind,
                    "dcmerge.perturb.p": repr(args.p), "dcmerge.perturb.seed": str(args.seed)}
        _check_out(args.out, base=[args.base], task=[args.task])
        with container_writer(args.out, specs, metadata) as put:
            done = _per_tensor(lambda job: (perturbed if job[1] else written_through)(job[0]),
                               jobs, _pool_width)
    results = [result for (_, is_matrix), result in done.items() if is_matrix]
    print("\n".join(line for line, _ in results))
    print(f"perturbed {sum(changed for _, changed in results)} tensors -> {args.out}")
    return 0


def _cmd_optimize_basis(args) -> int:
    from .metrics import _alignment
    from .optimizer import OptimizerConfig, optimize_cover_basis

    cfg = OptimizerConfig(learning_rate=args.eta, max_iters=args.iters, log_every=args.log_every)
    with contextlib.ExitStack() as files:
        base = files.enter_context(ContainerReader(args.base))
        plan = _Plan(files, base, args.task, rank=args.rank, tensor=args.tensor)
        lora = plan.pairings[0].matrices[args.tensor].lora_rank is not None
        _check_out(args.out, base=[args.base], task=args.task)
        out = files.enter_context(_replacing(args.out))
        tvs, decomps, Gu, Gv = plan.measure(args.tensor,
                                            None if lora else base.read(args.tensor))

        # naive initialization: decomposition of the plain task-arithmetic sum; the
        # LoRA sum is the one product [B_1..B_T] [A_1; ..; A_T], decomposed from its factors
        if lora:
            Bs, As = zip(*(tv.factors for tv in tvs))
            ta = from_lora_factors(np.hstack(Bs), np.vstack(As))
        else:
            summed = merge_ta(tv.delta for tv in tvs)
            summed.setflags(write=False)  # so the task vector keeps it uncopied
            ta = TaskVector("", summed)
        init_svd = decompose(ta, Gu.shape[0])
        init = CoverBasis(U_tilde=init_svd.U, V_tilde=init_svd.V)
        _, trace = optimize_cover_basis(decomps, init, cfg)
        _write_csv(out, ("iter", "score"), (point[:2] for point in trace.points))
    print(f"initial score (naive TA basis): {trace.points[0][1]:.6f}")
    print(f"whitening score:                {_alignment(Gu, Gv):.6f}")
    print(f"optimized score ({args.iters} iters): {trace.final_score:.6f}")
    print(f"trace -> {args.out}")
    return 0


def _cmd_accuracy_report(args) -> int:
    import csv

    from .metrics import TaskAccuracy, accuracy_report

    try:  # _write_csv writes UTF-8; a spreadsheet's export may start with a byte-order mark
        with open(args.table, encoding="utf-8-sig", newline="") as fh:
            raw = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError:
        raise ValidationError(f"accuracy table {args.table!r} is not UTF-8 text") from None
    if not raw:
        raise ValidationError(f"accuracy table {args.table!r} is empty")

    def parse_row(row):
        if len(row) != 4:
            raise ValidationError(
                f"accuracy rows need 4 columns (task, merged, finetuned, "
                f"zeroshot), got {len(row)}: {row!r}"
            )
        try:
            values = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise ValidationError(f"bad number in accuracy table: {exc}") from None
        return TaskAccuracy(row[0].strip(), *values)

    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    start = 0 if any(map(is_number, raw[0][1:4])) else 1  # a header holds no number
    if start == len(raw):
        raise ValidationError("accuracy table has a header but no data rows")
    table = [parse_row(row) for row in raw[start:]]

    report = accuracy_report(table)
    print(f"{'task':<24} {'normalized':>12} {'nai':>12}")
    for (task, normalized), (_, nai) in zip(report.per_task_normalized, report.per_task_nai):
        print(f"{task:<24} {normalized:>12.6f} {nai:>12.6f}")
    print(f"{'average':<24} {report.avg_normalized:>12.6f} {report.avg_nai:>12.6f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcmerge",
        description="Directional-consistent merging of task-adapted model weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="merge task checkpoints into one model")
    p.add_argument("--base", required=True, help="base checkpoint container")
    p.add_argument("--task", required=True, nargs="+", action="extend",
                   help="task checkpoint containers")
    p.add_argument("--out", required=True, help="output container path")
    p.add_argument("--mode", required=True, choices=["lora", "fft"])
    p.add_argument("--rank", type=_rank_arg, default=None,
                   help="working rank per task: 'auto' or a positive integer")
    p.add_argument("--smoothing", choices=["none", "avg", "linear", "interp"],
                   default=None,
                   help="energy smoothing (default: avg for lora, none for fft)")
    p.add_argument("--rho", type=float, default=None,
                   help="max-to-min ratio clamp for linear smoothing "
                        f"(default: {SmoothingStrategy('linear').rho:g})")
    p.add_argument("--tau", type=float, default=None,
                   help="blend factor for interpolated smoothing "
                        f"(default: {SmoothingStrategy('interpolate').tau:g})")
    p.add_argument("--merger", choices=["ta", "ties"], default="ta")
    p.add_argument("--ties-keep", type=float, default=None,
                   help="fraction of entries TIES keeps "
                        f"(default: {MergeConfig(merger='ties').ties_keep:g})")
    p.add_argument("--mask-block", type=_rank_arg, default=None,
                   help="structural mask block size: 'auto' or a positive integer")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="rescaling coefficient applied at assembly")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("report", help="similarity metrics for a merged model")
    p.add_argument("--base", required=True)
    p.add_argument("--merged", required=True)
    p.add_argument("--task", required=True, nargs="+", action="extend")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("inspect", help="list tensors and spectrum statistics")
    p.add_argument("file")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("perturb", help="degrade a task checkpoint by a known amount")
    p.add_argument("--task", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--kind", required=True, choices=["energy", "direction"])
    p.add_argument("--p", required=True, type=float,
                   help="similarity retained, in [0, 1]")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--rank", type=_rank_arg, default=None)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("optimize-basis",
                       help="gradient-ascend the alignment score from a naive basis")
    p.add_argument("--base", required=True)
    p.add_argument("--task", required=True, nargs="+", action="extend")
    p.add_argument("--tensor", required=True)
    p.add_argument("--eta", required=True, type=float)
    p.add_argument("--iters", required=True, type=int)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--rank", type=_rank_arg, default=None)
    p.add_argument("--log-every", type=int, default=1)
    p.set_defaults(func=_cmd_optimize_basis)

    p = sub.add_parser("accuracy-report",
                       help="normalized accuracy and NAI from a results table")
    p.add_argument("--table", required=True,
                   help="CSV with columns task, merged, finetuned, zeroshot")
    p.set_defaults(func=_cmd_accuracy_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Process entry of the ``dcmerge`` script and ``python -m dcmerge.cli``.

    Freezes the objects that exist once the modules are loaded, so the
    collections at interpreter exit skip numpy's and the package's import-time
    heap; atexit handlers, stream flushes and finalizers still run. ``main``
    is the entry for in-process callers and leaves the collector and the
    warning display alone; here a warning prints as ``warning: <message>``.
    """
    gc.freeze()
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        code = main()
    sys.exit(code)


if __name__ == "__main__":
    run()
