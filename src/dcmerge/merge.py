"""Directional-consistent merging of task vectors.

The pipeline for one weight matrix:

1. decompose each task vector at a working rank r and smooth its energy
   spectrum;
2. stack the smoothed singular directions from all tasks and whiten each
   side, giving one orthonormal cover basis of width k = sum of ranks;
3. project every smoothed decomposition into the k x k coordinate space
   of that basis, without rebuilding the dense task vector;
4. aggregate the coordinate matrices (plain sum, or trim-elect-disjoint
   mean);
5. zero all coordinates outside the block diagonal and map back to the
   ambient shape.

The block mask keeps only interactions between directions that entered the
cover basis together, which is what suppresses cross-task interference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .container import TensorContainer
from .cover import CoverBasis, back_project, build_cover_basis, project
from .errors import ValidationError
from .task_vector import (
    KnowledgeDecomposition,
    SmoothingStrategy,
    TaskVector,
    decompose,
    smooth_energy,
)

__all__ = [
    "MergeConfig",
    "resolve_rank",
    "cover_space",
    "merge_ta",
    "merge_ties",
    "dc_merge",
    "assemble_model",
    "assemble_sweep",
]


@dataclass(frozen=True)
class MergeConfig:
    """Knobs for one dc_merge run.

    ``rank=None`` means auto: the shared LoRA rank in lora mode, or
    max(1, min(m, n) // T) in fft mode. ``smoothing=None`` picks the mode
    default (averaging for lora, truncate_only for fft). ``mask_block=None``
    uses the resolved rank as the block size; a block wider than the cover
    basis is clamped to its width, which keeps every coordinate.
    """

    mode: str = "fft"
    rank: int | None = None
    smoothing: SmoothingStrategy | None = None
    merger: str = "ta"
    ties_keep: float = 0.1
    mask_block: int | None = None

    def __post_init__(self):
        if self.mode not in ("lora", "fft"):
            raise ValidationError(f"mode must be 'lora' or 'fft', got {self.mode!r}")
        if self.rank is not None and (not isinstance(self.rank, int) or self.rank < 1):
            raise ValidationError(f"rank must be a positive int or None, got {self.rank!r}")
        if self.smoothing is not None and not isinstance(self.smoothing, SmoothingStrategy):
            raise ValidationError("smoothing must be a SmoothingStrategy or None")
        if self.merger not in ("ta", "ties"):
            raise ValidationError(f"merger must be 'ta' or 'ties', got {self.merger!r}")
        if not 0.0 < self.ties_keep <= 1.0:
            raise ValidationError(f"ties_keep must be in (0, 1], got {self.ties_keep}")
        if self.mask_block is not None and (
            not isinstance(self.mask_block, int) or self.mask_block < 1
        ):
            raise ValidationError(
                f"mask_block must be a positive int or None, got {self.mask_block!r}"
            )

    def resolved_smoothing(self) -> SmoothingStrategy:
        if self.smoothing is not None:
            return self.smoothing
        if self.mode == "lora":
            return SmoothingStrategy.averaging()
        return SmoothingStrategy.truncate_only()


def resolve_rank(tasks: list[TaskVector], cfg: MergeConfig) -> int:
    """Working rank for one tensor's tasks: ``cfg.rank`` or the auto rule.

    Rejects a rank above min(m, n); clips r * T > min(m, n) with a warning.
    """
    m, n = tasks[0].shape
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
        r = max(1, min(m, n) // len(tasks))
    # keep the stacked basis width T*r inside the ambient bound
    if r * len(tasks) > min(m, n):
        clipped = max(1, min(m, n) // len(tasks))
        warnings.warn(
            f"rank {r} with {len(tasks)} tasks exceeds the cover-basis bound "
            f"min(m, n) = {min(m, n)}; clipping to rank {clipped}",
            stacklevel=3,
        )
        r = clipped
    return r


def cover_space(
    tasks: list[TaskVector], r: int, strategy: SmoothingStrategy
) -> tuple[list[KnowledgeDecomposition], CoverBasis]:
    """Rank-r decompositions of ``tasks``, smoothed per ``strategy``, and their cover basis."""
    decomps = [smooth_energy(decompose(tv, r), strategy) for tv in tasks]
    return decomps, build_cover_basis(decomps)


def merge_ta(mats: list[np.ndarray]) -> np.ndarray:
    """Element-wise sum of equally shaped coordinate matrices."""
    if not mats:
        raise ValidationError("merge_ta needs at least one matrix")
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise ValidationError(f"merge_ta got mixed shapes {sorted(shapes)}")
    out = np.zeros(mats[0].shape, dtype=np.float64)
    for m in mats:
        out += m
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
    if not tasks:
        raise ValidationError("dc_merge needs at least one task vector")
    for tv in tasks:
        if not isinstance(tv, TaskVector):
            raise ValidationError(f"expected TaskVector, got {type(tv).__name__}")
    shapes = {tv.shape for tv in tasks}
    if len(shapes) != 1:
        raise ValidationError(f"task vectors have mixed shapes {sorted(shapes)}")

    r = resolve_rank(tasks, cfg)
    smoothed, basis = cover_space(tasks, r, cfg.resolved_smoothing())
    coords = [project(kd, basis) for kd in smoothed]

    if cfg.merger == "ta":
        merged = merge_ta(coords)
    else:
        merged = merge_ties(coords, cfg.ties_keep)

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
    1-D tensors named in ``vector_deltas`` get the mean of their per-task
    deltas, scaled the same way. Everything else is copied through
    verbatim. Each output tensor keeps the base dtype. ``alpha`` may be
    zero here; that reproduces the base model exactly.
    """
    if vector_deltas is None:
        vector_deltas = {}
    if alpha < 0:
        raise ValidationError(f"alpha must be non-negative, got {alpha}")
    out: dict[str, np.ndarray] = {}
    for name, arr in base.tensors.items():
        if name in merged_deltas:
            delta = merged_deltas[name]
            if delta.shape != arr.shape:
                raise ValidationError(
                    f"merged delta for {name!r} has shape {delta.shape}, "
                    f"base is {arr.shape}"
                )
            updated = arr.astype(np.float64) + alpha * delta
            out[name] = updated.astype(arr.dtype)
        elif name in vector_deltas:
            deltas = vector_deltas[name]
            if not deltas:
                raise ValidationError(f"empty delta list for 1-D tensor {name!r}")
            for d in deltas:
                if d.shape != arr.shape:
                    raise ValidationError(
                        f"1-D delta for {name!r} has shape {d.shape}, "
                        f"base is {arr.shape}"
                    )
            mean = np.mean(np.stack(deltas), axis=0)
            out[name] = (arr.astype(np.float64) + alpha * mean).astype(arr.dtype)
        else:
            out[name] = arr.copy()
    missing = set(merged_deltas) - set(base.tensors)
    if missing:
        raise ValidationError(
            f"merged deltas reference tensors absent from base: {sorted(missing)}"
        )
    return TensorContainer(tensors=out, metadata=dict(base.metadata))


def assemble_sweep(
    base: TensorContainer,
    merged_deltas: dict[str, np.ndarray],
    vector_deltas: dict[str, list[np.ndarray]] | None = None,
    alphas: tuple[float, ...] = (1.0,),
) -> dict[float, TensorContainer]:
    """Assemble one model per alpha from a single set of merged deltas.

    Picking the rescaling coefficient needs a validation sweep, which is
    outside this package; this helper makes that sweep cheap by reusing
    the (expensive) merged deltas across all requested alphas.
    """
    if not alphas:
        raise ValidationError("alphas must be non-empty")
    return {
        float(a): assemble_model(base, merged_deltas, vector_deltas, alpha=float(a))
        for a in alphas
    }
