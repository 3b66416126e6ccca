"""Similarity and alignment metrics between task vectors and merges.

The directional-overlap matrix R is the workhorse: entry (i, j) multiplies
the left-side and right-side inner products of dyad i from one
decomposition with dyad j from another. The Frobenius cosine of two task
vectors factors exactly through R and the two spectra, and the
spectrum-free directional similarity is R's uniform-weight aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import SvdTriplet, as_matrix, truncated_svd
from .task_vector import KnowledgeDecomposition, stack_bases

__all__ = [
    "RMatrix",
    "TaskAccuracy",
    "AccuracyReport",
    "cos_sim",
    "r_matrix",
    "dir_sim",
    "projected_dir_sim",
    "alignment_score",
    "accuracy_report",
]


@dataclass(frozen=True)
class RMatrix:
    """Pairwise directional-overlap matrix between two decompositions.

    values[i, j] = (u_s^i . u_t^j) * (v_t^j . v_s^i); every entry is a
    product of inner products of unit vectors and so lies in [-1, 1].
    """

    values: np.ndarray

    def __post_init__(self):
        values = as_matrix(self.values, "R values").copy()
        if np.abs(values).max(initial=0.0) > 1.0 + 1e-9:
            raise ValidationError("R entries must lie in [-1, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def cos_sim(A, B) -> float:
    """Frobenius cosine between two equal-shaped matrices."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape != B.shape:
        raise ValidationError(f"shape mismatch: {A.shape} vs {B.shape}")
    na = np.linalg.norm(A)
    nb = np.linalg.norm(B)
    if na == 0.0 or nb == 0.0:
        raise NumericalError("cosine undefined for a zero matrix")
    return float(np.sum(A * B) / (na * nb))


def _check_same_ambient(kdS: KnowledgeDecomposition, kdT: KnowledgeDecomposition):
    if kdS.source_shape != kdT.source_shape:
        raise ValidationError(
            f"ambient shapes differ: {kdS.source_shape} vs {kdT.source_shape}"
        )


def r_matrix(kdS: KnowledgeDecomposition, kdT: KnowledgeDecomposition) -> RMatrix:
    """Directional overlap between all dyad pairs of two decompositions."""
    _check_same_ambient(kdS, kdT)
    return RMatrix((kdS.U.T @ kdT.U) * (kdS.V.T @ kdT.V))


def dir_sim(kdS: KnowledgeDecomposition, kdT: KnowledgeDecomposition) -> float:
    """Spectrum-free directional similarity: sum(R) / sqrt(r_s * r_t).

    Jointly negating any (u_j, v_j) column pair of either decomposition
    negates both factors of every affected R entry, so the value does not
    depend on the sign convention of the SVD.
    """
    R = r_matrix(kdS, kdT).values
    return float(R.sum() / np.sqrt(kdS.rank * kdT.rank))


def projected_dir_sim(kdTask: KnowledgeDecomposition, merged) -> float:
    """Directional similarity after restricting ``merged`` to the task's subspace.

    Projects the merged delta onto the column space of the task's left
    singular vectors, re-decomposes the projection at the task's own rank,
    and measures dir_sim against the task. The projection U (U^T merged)
    is decomposed from the r x n matrix C = U^T merged: with C's rank-r
    SVD U_c diag(sigma) V_c^T, the projection's is (U U_c) diag(sigma) V_c^T.

    Raises
    ------
    NumericalError
        If the projection is numerically zero; the task's directions are
        then absent from the merge, which is different from directions
        that cancel to similarity zero.
    """
    merged = as_matrix(merged, "merged")
    if merged.shape != kdTask.source_shape:
        raise ValidationError(
            f"merged shape {merged.shape} does not match task shape "
            f"{kdTask.source_shape}"
        )
    C = kdTask.U.T @ merged
    # ||C|| equals the projection's norm because U has orthonormal columns
    if np.linalg.norm(C) <= 1e-12 * max(1.0, np.linalg.norm(merged)):
        raise NumericalError(
            "merged vector has no component in the task's singular subspace"
        )
    core = truncated_svd(C, kdTask.rank)
    kdP = KnowledgeDecomposition(
        SvdTriplet(kdTask.U @ core.U, core.sigma, core.V), kdTask.source_shape
    )
    return dir_sim(kdTask, kdP)


def alignment_score(U_tilde, V_tilde, decomps) -> float:
    """How much of every task's dyad structure a basis pair captures.

    Computes ``norm((U~^T [U_1..U_T]) * (V~^T [V_1..V_T]), 'fro')**2``,
    the closed form of the sum over tasks and dyads of the squared
    diagonal coefficient vectors of each projected dyad.
    """
    U_tilde = as_matrix(U_tilde, "U_tilde")
    V_tilde = as_matrix(V_tilde, "V_tilde")
    Ucat, Vcat = stack_bases(decomps)
    for mat, label in ((U_tilde, "U_tilde"), (V_tilde, "V_tilde")):
        gram = mat.T @ mat
        if np.abs(gram - np.eye(mat.shape[1])).max() > 1e-6:
            raise ValidationError(f"{label} columns are not orthonormal")
    if U_tilde.shape[0] != Ucat.shape[0] or V_tilde.shape[0] != Vcat.shape[0]:
        raise ValidationError("basis ambient dimensions do not match tasks")
    G = U_tilde.T @ Ucat
    H = V_tilde.T @ Vcat
    return float(np.sum((G * H) ** 2))


@dataclass(frozen=True)
class TaskAccuracy:
    """One row of an externally measured accuracy table, fractions in [0, 1]."""

    task: str
    merged: float
    finetuned: float
    zeroshot: float

    def __post_init__(self):
        for field in ("merged", "finetuned", "zeroshot"):
            v = getattr(self, field)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ValidationError(
                    f"{field} accuracy for task {self.task!r} must be in [0, 1]"
                )


@dataclass(frozen=True)
class AccuracyReport:
    avg_normalized: float
    per_task_nai: tuple


def accuracy_report(table) -> AccuracyReport:
    """Average normalized accuracy and per-task normalized adaptation index.

    Normalized accuracy of a task is merged / finetuned; the adaptation
    index is (merged - zeroshot) / (finetuned - zeroshot), which is 1 when
    the merge fully recovers the fine-tuned gain and 0 when it does no
    better than the base model.
    """
    rows = list(table)
    if not rows:
        raise ValidationError("accuracy table is empty")
    nai = []
    normed = []
    for row in rows:
        if row.finetuned == 0.0:
            raise ValidationError(
                f"task {row.task!r}: fine-tuned accuracy is zero, "
                "normalized accuracy undefined"
            )
        gain = row.finetuned - row.zeroshot
        if gain <= 0.0:
            raise ValidationError(
                f"task {row.task!r}: fine-tuned accuracy must exceed zero-shot"
            )
        normed.append(row.merged / row.finetuned)
        nai.append((row.task, (row.merged - row.zeroshot) / gain))
    return AccuracyReport(float(np.mean(normed)), tuple(nai))
