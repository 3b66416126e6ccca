"""Directional-consistent merging of task vectors.

The pipeline for one weight matrix:

1. decompose each task vector at a working rank r and smooth its energy
   spectrum;
2. stack the smoothed singular directions from all tasks and whiten each
   side, giving one orthonormal cover basis of width k = sum of ranks and,
   from the same factorization, the stack's coordinates in it,
   G = U~^T [U_1..U_T], H = V~^T [V_1..V_T];
3. aggregate the k x k coordinates: the plain sum (G diag(sigma)) H^T, or
   the trim-elect-disjoint mean of each task's block (G_i diag(sigma_i)) H_i^T;
4. zero all coordinates outside the block diagonal and map back to the
   ambient shape.

The block mask keeps only interactions between directions that entered the
cover basis together, which is what suppresses cross-task interference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .container import PairedMatrix, TensorContainer, pair_tensors
from .cover import back_project, frame, make_mask
from .errors import NumericalError, ValidationError
from .linalg import _all_finite
from .task_vector import (
    SmoothingStrategy,
    TaskVector,
    decompose,
    smooth_energy,
)


@dataclass(frozen=True)
class MergeConfig:
    """Knobs for one dc_merge run.

    ``rank=None`` means auto: the shared LoRA rank in lora mode, or
    min(m, n) // T in fft mode. ``smoothing=None`` picks the mode
    default (averaging for lora, truncate_only for fft). ``mask_block=None``
    uses the resolved rank as the block size; a block wider than the cover
    basis is clamped to its width, which keeps every coordinate.
    ``ties_keep`` is given only with ``merger='ties'`` (default 0.1).
    """

    mode: str = "fft"
    rank: int | None = None
    smoothing: SmoothingStrategy | None = None
    merger: str = "ta"
    ties_keep: float | None = None
    mask_block: int | None = None

    def __post_init__(self):
        if self.mode not in ("lora", "fft"):
            raise ValidationError(f"mode must be 'lora' or 'fft', got {self.mode!r}")
        for name in ("rank", "mask_block"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 1):
                raise ValidationError(f"{name} must be a positive int or None, got {value!r}")
        if self.smoothing is not None and not isinstance(self.smoothing, SmoothingStrategy):
            raise ValidationError("smoothing must be a SmoothingStrategy or None")
        if self.merger not in ("ta", "ties"):
            raise ValidationError(f"merger must be 'ta' or 'ties', got {self.merger!r}")
        if self.merger == "ta" and self.ties_keep is not None:
            raise ValidationError("ties_keep applies only to merger 'ties', not 'ta'")
        if self.merger == "ties":
            object.__setattr__(self, "ties_keep", 0.1 if self.ties_keep is None else self.ties_keep)
            if not 0.0 < self.ties_keep <= 1.0:
                raise ValidationError(f"ties_keep must be in (0, 1], got {self.ties_keep}")

    def resolved_smoothing(self) -> SmoothingStrategy:
        return self.smoothing or SmoothingStrategy(
            "averaging" if self.mode == "lora" else "truncate_only")


def resolve_rank(tasks: list[TaskVector], cfg: MergeConfig) -> int:
    """Working rank for one tensor's tasks: ``cfg.rank`` or the auto rule.

    The tasks may also be the PairedMatrix entries of the task files'
    headers, which give the same shapes and LoRA ranks, so a rank can be
    resolved before any tensor is read.

    Rejects an empty list, anything but TaskVectors and mixed shapes; then
    more tasks T than min(m, n), since the cover basis holds at least one
    direction per task, and a rank above min(m, n). Clips r * T > min(m, n)
    with a warning that names the tensor, where the tasks share a name.
    """
    if not tasks:
        raise ValidationError("dc_merge needs at least one task vector")
    for tv in tasks:
        if not isinstance(tv, (TaskVector, PairedMatrix)):
            raise ValidationError(f"expected TaskVector, got {type(tv).__name__}")
    shapes = {tv.shape for tv in tasks}
    if len(shapes) != 1:
        raise ValidationError(f"task vectors have mixed shapes {sorted(shapes)}")
    m, n = tasks[0].shape
    if len(tasks) > min(m, n):
        raise ValidationError(
            f"{len(tasks)} tasks exceed min(m, n) = {min(m, n)} for shape ({m}, {n}); "
            f"a cover basis holds at least one direction per task"
        )
    if cfg.rank is not None:
        r = cfg.rank
        if r > min(m, n):
            raise ValidationError(
                f"rank {r} exceeds min(m, n) = {min(m, n)} for shape ({m}, {n})"
            )
    elif cfg.mode == "lora":
        ranks = {tv.lora_rank for tv in tasks}
        if None in ranks or len(ranks) != 1:
            raise ValidationError(
                "auto rank in lora mode needs every task to carry the same "
                "LoRA rank; pass an explicit rank instead"
            )
        r = ranks.pop()
        if r > min(m, n):
            raise ValidationError(
                f"LoRA rank {r} exceeds min(m, n) = {min(m, n)}"
            )
    else:
        r = min(m, n) // len(tasks)
    # keep the stacked basis width T*r inside the ambient bound
    if r * len(tasks) > min(m, n):
        clipped = min(m, n) // len(tasks)
        name = tasks[0].name
        of = f" of {name!r}" if name and all(tv.name == name for tv in tasks) else ""
        warnings.warn(
            f"rank {r} with {len(tasks)} tasks exceeds the cover-basis bound "
            f"min(m, n) = {min(m, n)}{of}; clipping to rank {clipped}",
            stacklevel=3,
        )
        r = clipped
    return r


def merge_ta(mats) -> np.ndarray:
    """Element-wise sum of equally shaped matrices, taken one at a time from an iterable."""
    out = None
    for m in mats:
        if out is None:
            out = np.zeros(m.shape, dtype=np.float64)
        elif m.shape != out.shape:
            raise ValidationError(f"merge_ta got mixed shapes {sorted({out.shape, m.shape})}")
        out += m
    if out is None:
        raise ValidationError("merge_ta needs at least one matrix")
    return out


def merge_ties(mats: list[np.ndarray], keep: float) -> np.ndarray:
    """Trim-elect-disjoint-mean aggregation.

    Each matrix keeps its ceil(keep * size) largest-magnitude entries
    (ties broken toward earlier row-major positions) and drops the rest.
    Per entry, the elected sign is the sign of the summed survivors, and
    the output is the mean of the survivors that match it. Entries with
    no survivors, or a zero elected sign, come out zero, and empty matrices
    give an empty output.
    """
    if not mats:
        raise ValidationError("merge_ties needs at least one matrix")
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise ValidationError(f"merge_ties got mixed shapes {sorted(shapes)}")
    if not 0.0 < keep <= 1.0:
        raise ValidationError(f"keep must be in (0, 1], got {keep}")
    shape = mats[0].shape
    total = mats[0].size
    if total == 0:
        return np.zeros(shape)
    n_keep = math.ceil(keep * total)

    trimmed = []
    for m in mats:
        flat = np.ascontiguousarray(m, dtype=np.float64).reshape(-1)
        mag = np.abs(flat)
        # the n_keep-th largest magnitude: every entry above it survives, and
        # the slots left go to the entries equal to it in row-major order
        thresh = np.partition(mag, total - n_keep)[total - n_keep]
        above = mag > thresh
        at = np.flatnonzero(mag == thresh)[: n_keep - np.count_nonzero(above)]
        kept = np.where(above, flat, 0.0)
        kept[at] = flat[at]
        trimmed.append(kept)
    stack = np.stack(trimmed)

    gamma = np.sign(stack.sum(axis=0))
    match = (np.sign(stack) == gamma) & (stack != 0) & (gamma != 0)
    counts = match.sum(axis=0)
    sums = np.where(match, stack, 0.0).sum(axis=0)
    out = np.divide(sums, counts, out=np.zeros(total), where=counts > 0)
    return out.reshape(shape)


def dc_merge(tasks: list[TaskVector], cfg: MergeConfig | None = None) -> np.ndarray:
    """Merge task vectors for one weight matrix.

    Returns the merged ambient-space delta, unscaled: the rescaling
    coefficient alpha belongs to model assembly (``assemble_model``), so
    the same delta can be swept over several alphas.
    """
    if cfg is None:
        cfg = MergeConfig()
    r = resolve_rank(tasks, cfg)
    smoothed = [smooth_energy(decompose(tv, r), cfg.resolved_smoothing()) for tv in tasks]
    basis, G, H = frame(smoothed)
    G = G * np.concatenate([kd.sigma for kd in smoothed])
    if cfg.merger == "ta":
        merged = G @ H.T
    else:  # the stack holds the tasks in input order, r columns each
        merged = merge_ties([G[:, b] @ H[:, b].T for b in make_mask(basis.k, r)], cfg.ties_keep)

    block = cfg.mask_block if cfg.mask_block is not None else r
    return back_project(merged, min(block, basis.k), basis)


def assemble_model(
    base: TensorContainer,
    merged_deltas: dict[str, np.ndarray],
    vector_deltas: dict[str, list[np.ndarray]] | None = None,
    alpha: float = 1.0,
) -> TensorContainer:
    """Apply merged deltas on top of a base checkpoint.

    Matrix tensors named in ``merged_deltas`` become base + alpha * delta.
    Tensors of any other ndim named in ``vector_deltas`` get the mean of
    their per-task deltas, scaled the same way. Everything else is copied
    through verbatim. Each output tensor keeps the base dtype, and a 0-D one
    stays an array, not a numpy scalar. Each tensor follows
    ``assemble_tensor``'s rules; ``alpha`` may be zero, which reproduces the
    base model exactly.
    """
    if vector_deltas is None:
        vector_deltas = {}
    out: dict[str, np.ndarray] = {}
    for name, arr in base.tensors.items():
        if name in merged_deltas:
            delta = merged_deltas[name]
        elif name in vector_deltas:
            deltas = vector_deltas[name]
            if not deltas:
                raise ValidationError(f"empty delta list for {arr.ndim}-D tensor {name!r}")
            for d in deltas:
                pair_tensors({name: arr}, {name: d}, "fft")  # the pairing rule's shape check
            delta = np.mean(np.stack(deltas), axis=0)
        else:
            out[name] = arr.copy()
            continue
        out[name] = assemble_tensor(name, arr, delta, alpha)
    missing = set(merged_deltas) - set(base.tensors)
    if missing:
        raise ValidationError(
            f"merged deltas reference tensors absent from base: {sorted(missing)}"
        )
    return TensorContainer(tensors=out, metadata=dict(base.metadata))


def assemble_tensor(name: str, base: np.ndarray, delta: np.ndarray, alpha: float,
                    dtype=None) -> np.ndarray:
    """``base + alpha * delta``, summed in float64 and stored in ``dtype``
    (default: the base's); the per-tensor rule of ``assemble_model``.

    ``alpha`` must be finite and non-negative, and ``delta`` of the base's
    shape (ValidationErrors). A result that is NaN or Inf is a
    NumericalError that names the tensor.
    """
    if not 0 <= alpha < np.inf:
        raise ValidationError(f"alpha must be non-negative and finite, got {alpha}")
    if delta.shape != base.shape:
        raise ValidationError(f"delta for {name!r} has shape {delta.shape}, base is {base.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        out = np.asarray(base.astype(np.float64) + alpha * delta, dtype=dtype or base.dtype)
    if not _all_finite(out):
        raise NumericalError(f"tensor {name!r} is not finite after assembly at alpha {alpha}")
    return out
