"""Command-line entry points.

Subcommands: merge, report, inspect, perturb, optimize-basis,
accuracy-report. Exit codes: 0 on success, 2 on input validation failure
(including file problems), 3 on numerical failure. Importing this module
before numpy loads numpy with one OpenBLAS thread (``_blas.start``); ``main``
runs a command whose first container holds only matrices smaller than 256
on one side with one BLAS thread and a larger one with the processor count
(``_blas.CommandThreads``), and restores the count when it returns.
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings

from . import _blas

# before the first import of numpy, so that OpenBLAS starts with one thread
_blas.start()

import numpy as np

from ._blas import CommandThreads
from .container import (
    TensorContainer,
    detect_mode,
    extract_task_vectors,
    read_container,
    write_container,
)
from .cover import CoverBasis, make_mask, project
from .errors import NumericalError, ValidationError
from .linalg import _dense_svd, as_matrix, truncated_svd
from .merge import (
    MergeConfig,
    assemble_model,
    cover_space,
    dc_merge,
    merge_ta,
    resolve_rank,
)
from .metrics import (
    TaskAccuracy,
    accuracy_report,
    alignment_score,
    cos_sim,
    dir_sim,
    projected_dir_sim,
)
from .optimizer import OptimizerConfig, optimize_cover_basis
from .perturb import direction_perturb, energy_perturb
from .task_vector import SmoothingStrategy, decompose

__all__ = ["main"]


def _rank_arg(text: str):
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"rank must be positive, got {value}")
    return value


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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


def _smoothing_from_flags(args) -> SmoothingStrategy | None:
    if args.smoothing is None:
        return None
    if args.smoothing == "none":
        return SmoothingStrategy.truncate_only()
    if args.smoothing == "avg":
        return SmoothingStrategy.averaging()
    if args.smoothing == "linear":
        return SmoothingStrategy.linear(args.rho)
    return SmoothingStrategy.interpolate(args.tau)


def _extract(base, task, mode, path):
    """``extract_task_vectors``, with the task file's path leading any ValidationError."""
    try:
        return extract_task_vectors(base, task, mode)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _load_tasks(base, task_paths, mode=None):
    """Task vectors against ``base`` and the mode (``None``: from the first file)."""
    extracts = []
    for path in task_paths:
        task = read_container(path)
        if mode is None:
            mode = detect_mode(task)
        extracts.append(_extract(base, task, mode, path))
        del task  # hold one task container at a time
    names = [set(ex.matrices) for ex in extracts]
    if any(s != names[0] for s in names[1:]):
        raise ValidationError(
            "task checkpoints expose different matrix tensors; "
            "they must share one architecture"
        )
    return extracts, mode


def _cmd_merge(args, threads: CommandThreads) -> int:
    if not args.alpha > 0:
        raise ValidationError(f"alpha must be positive, got {args.alpha}")
    base = read_container(args.base)
    threads.fit(base)
    extracts, _ = _load_tasks(base, args.task, args.mode)
    cfg = MergeConfig(
        mode=args.mode,
        rank=args.rank,
        smoothing=_smoothing_from_flags(args),
        merger=args.merger,
        ties_keep=args.ties_keep,
        mask_block=args.mask_block,
    )
    matrix_names = sorted(extracts[0].matrices)
    deltas = {
        name: dc_merge([ex.matrices[name] for ex in extracts], cfg)
        for name in matrix_names
    }
    shared_vec = set.intersection(*(set(ex.vectors) for ex in extracts))
    vector_deltas = {
        name: [ex.vectors[name] for ex in extracts] for name in sorted(shared_vec)
    }
    merged = assemble_model(base, deltas, vector_deltas, alpha=args.alpha)
    write_container(merged, args.out)
    print(
        f"merged {len(matrix_names)} matrix tensors and {len(vector_deltas)} "
        f"1-D tensors from {len(extracts)} tasks -> {args.out}"
    )
    return 0


def _cmd_report(args, threads: CommandThreads) -> int:
    base = read_container(args.base)
    threads.fit(base)
    merged = read_container(args.merged)
    extracts, mode = _load_tasks(base, args.task)
    cfg = MergeConfig(mode=mode)
    matrix_names = sorted(extracts[0].matrices)

    rows = []
    per_task_cos = {path: [] for path in args.task}
    per_task_dir = {path: [] for path in args.task}
    align_values = []
    for name in matrix_names:
        if name not in merged.tensors:
            raise ValidationError(f"merged checkpoint is missing tensor {name!r}")
        if name not in base.tensors:
            raise ValidationError(f"base checkpoint is missing tensor {name!r}")
        merged_delta = as_matrix(
            merged.tensors[name], f"{args.merged}: tensor {name!r}"
        ) - base.tensors[name].astype(np.float64)
        tvs = [ex.matrices[name] for ex in extracts]
        r = resolve_rank(tvs, cfg)
        decomps, basis = cover_space(tvs, r, SmoothingStrategy.truncate_only())
        for path, tv, kd in zip(args.task, tvs, decomps):
            # undefined where a task or the merge left the tensor at the base
            c = _or_nan(cos_sim, tv.delta, merged_delta)
            d = _or_nan(projected_dir_sim, kd, merged_delta)
            rows.append((name, path, "cos_sim", c))
            rows.append((name, path, "projected_dir_sim", d))
            per_task_cos[path].append(c)
            per_task_dir[path].append(d)
        a = alignment_score(basis.U_tilde, basis.V_tilde, decomps)
        rows.append((name, "", "alignment_score", a))
        align_values.append(a)

        # block structure of the aggregated coordinates: one block per task
        summed = merge_ta([project(kd, basis) for kd in decomps])
        blocks = make_mask(basis.k, r)
        for i, bi in enumerate(blocks):
            for j, bj in enumerate(blocks):
                block = summed[bi, bj]
                rows.append(
                    (name, "", f"block_mean_abs[{i},{j}]", float(np.mean(np.abs(block))))
                )

    for path in args.task:
        rows.append(("ALL", path, "cos_sim", _nanmean(per_task_cos[path])))
        rows.append(("ALL", path, "projected_dir_sim", _nanmean(per_task_dir[path])))
    rows.append(("ALL", "", "alignment_score", float(np.mean(align_values))))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tensor", "task", "metric", "value"])
        for tensor, task, metric, value in rows:
            writer.writerow([tensor, task, metric, _fmt(value)])
    print(f"wrote {len(rows)} metric rows for {len(matrix_names)} tensors -> {args.out}")
    return 0


def _cmd_inspect(args, threads: CommandThreads) -> int:
    container = read_container(args.file)
    threads.fit(container)
    dtype_names = {np.dtype("float32"): "F32", np.dtype("float64"): "F64"}
    for name in container.names():
        arr = container.tensors[name]
        print(f"{name}  {dtype_names[arr.dtype]}  {tuple(arr.shape)}")
        if arr.ndim != 2 or min(arr.shape) == 0:
            continue
        if not np.all(np.isfinite(arr)):
            print("    spectrum: non-finite entries")
            continue
        sigma = _dense_svd(arr.astype(np.float64), compute_uv=False)
        total = float(sigma.sum())
        if total == 0.0:
            print("    spectrum: all zero")
            continue
        full = sigma.size
        marks = []
        r = 1
        while r < full:
            marks.append(r)
            r *= 2
        marks.append(full)
        parts = [f"r={r} {float(sigma[:r].sum()) / total:.4f}" for r in marks]
        print("    top-r energy fraction: " + ", ".join(parts))
    if container.metadata:
        print("metadata:")
        for key in sorted(container.metadata):
            print(f"    {key} = {container.metadata[key]}")
    return 0


def _cmd_perturb(args, threads: CommandThreads) -> int:
    base = read_container(args.base)
    threads.fit(base)
    task = read_container(args.task)
    mode = detect_mode(task)
    extracted = _extract(base, task, mode, args.task)
    matrix_names = sorted(extracted.matrices)
    if not matrix_names:
        raise ValidationError("no matrix tensors found to perturb")

    out_tensors = {name: arr.copy() for name, arr in task.tensors.items()}
    children = np.random.SeedSequence(args.seed).spawn(len(matrix_names))
    for name, child in zip(matrix_names, children):
        tv = extracted.matrices[name]
        m, n = tv.shape
        # a single checkpoint has no task count, so merge's rank rule does not apply
        auto = tv.lora_rank if tv.lora_rank is not None else max(1, min(m, n) // 4)
        r = min(args.rank if args.rank is not None else auto, min(m, n))
        kd = decompose(tv, r)
        sub_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        if args.kind == "energy":
            sigma_hat = energy_perturb(kd.sigma, args.p, fallback_seed=sub_seed)
            U_new, V_new = kd.U, kd.V
            achieved = float(
                kd.sigma
                @ sigma_hat
                / (np.linalg.norm(kd.sigma) * np.linalg.norm(sigma_hat))
            )
        else:
            kd_new = direction_perturb(kd, args.p, sub_seed)
            U_new, V_new = kd_new.U, kd_new.V
            sigma_hat = kd_new.sigma
            achieved = dir_sim(kd, kd_new)
        print(f"{name}: rank {r}, achieved similarity {achieved:.6f}")

        if mode == "lora":
            prefix = name[: -len(".weight")]
            b_name, a_name = prefix + ".lora_B", prefix + ".lora_A"
            b_dtype = task.tensors[b_name].dtype
            a_dtype = task.tensors[a_name].dtype
            out_tensors[b_name] = (U_new * sigma_hat).astype(b_dtype)
            out_tensors[a_name] = V_new.T.astype(a_dtype)
        else:
            delta_hat = (U_new * sigma_hat) @ V_new.T
            restored = base.tensors[name].astype(np.float64) + delta_hat
            out_tensors[name] = restored.astype(task.tensors[name].dtype)

    metadata = dict(task.metadata)
    metadata.update(
        {
            "dcmerge.perturb.kind": args.kind,
            "dcmerge.perturb.p": repr(args.p),
            "dcmerge.perturb.seed": str(args.seed),
        }
    )
    write_container(TensorContainer(tensors=out_tensors, metadata=metadata), args.out)
    print(f"perturbed {len(matrix_names)} tensors -> {args.out}")
    return 0


def _cmd_optimize_basis(args, threads: CommandThreads) -> int:
    base = read_container(args.base)
    threads.fit(base)
    extracts, mode = _load_tasks(base, args.task)
    if args.tensor not in extracts[0].matrices:
        raise ValidationError(
            f"tensor {args.tensor!r} not found among merged matrices "
            f"{sorted(extracts[0].matrices)}"
        )
    tvs = [ex.matrices[args.tensor] for ex in extracts]
    r = resolve_rank(tvs, MergeConfig(mode=mode, rank=args.rank))
    decomps, whitened = cover_space(tvs, r, SmoothingStrategy.truncate_only())

    # naive initialization: truncated SVD of the plain task-arithmetic sum
    ta_sum = sum(tv.delta for tv in tvs)
    init_svd = truncated_svd(ta_sum, whitened.k)
    init = CoverBasis(U_tilde=init_svd.U, V_tilde=init_svd.V)

    score_init = alignment_score(init.U_tilde, init.V_tilde, decomps)
    score_white = alignment_score(whitened.U_tilde, whitened.V_tilde, decomps)

    cfg = OptimizerConfig(
        learning_rate=args.eta, max_iters=args.iters, log_every=args.log_every
    )
    final_basis, trace = optimize_cover_basis(decomps, init, cfg)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "score"])
        for it, score, _elapsed in trace.points:
            writer.writerow([it, _fmt(score)])
    print(f"initial score (naive TA basis): {score_init:.6f}")
    print(f"whitening score:                {score_white:.6f}")
    print(f"optimized score ({args.iters} iters): {trace.final_score:.6f}")
    print(f"trace -> {args.out}")
    return 0


def _cmd_accuracy_report(args, threads: CommandThreads) -> int:
    # reads no container, so the BLAS keeps the count the process started with
    with open(args.table, "r", newline="") as fh:
        reader = csv.reader(fh)
        raw = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not raw:
        raise ValidationError(f"accuracy table {args.table!r} is empty")

    def parse_row(row):
        if len(row) != 4:
            raise ValidationError(
                f"accuracy rows need 4 columns (task, merged, finetuned, "
                f"zeroshot), got {len(row)}: {row!r}"
            )
        return TaskAccuracy(
            task=row[0].strip(),
            merged=float(row[1]),
            finetuned=float(row[2]),
            zeroshot=float(row[3]),
        )

    start = 0
    try:
        float(raw[0][1])
    except (ValueError, IndexError):
        start = 1
    if start == len(raw):
        raise ValidationError("accuracy table has a header but no data rows")
    try:
        table = [parse_row(row) for row in raw[start:]]
    except ValueError as exc:
        raise ValidationError(f"bad number in accuracy table: {exc}") from None

    report = accuracy_report(table)
    print(f"{'task':<24} {'normalized':>12} {'nai':>12}")
    for entry, (_, nai) in zip(table, report.per_task_nai):
        normalized = entry.merged / entry.finetuned
        print(f"{entry.task:<24} {normalized:>12.6f} {nai:>12.6f}")
    nai_values = [v for _, v in report.per_task_nai]
    print(f"{'average':<24} {report.avg_normalized:>12.6f} "
          f"{float(np.mean(nai_values)):>12.6f}")
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
    p.add_argument("--rho", type=float, default=5.0,
                   help="max-to-min ratio clamp for linear smoothing")
    p.add_argument("--tau", type=float, default=0.5,
                   help="blend factor for interpolated smoothing")
    p.add_argument("--merger", choices=["ta", "ties"], default="ta")
    p.add_argument("--ties-keep", type=float, default=0.1)
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
        with CommandThreads() as threads:
            return args.func(args, threads)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
