"""Similarity and alignment metrics between task vectors and merges.

The directional-overlap matrix R is the workhorse: entry (i, j) multiplies
the left-side and right-side inner products of dyad i from one
decomposition with dyad j from another. The Frobenius cosine of two task
vectors factors exactly through R and the two spectra, and the
spectrum-free directional similarity is R's uniform-weight aggregate.

Between a task (U, s, V) and the rank-r decomposition of the projection
U U^T M, sum(R) comes from a polar factor: with C = U^T M = U_c diag(s_c)
V_c^T it is sum(V * (V_c U_c^T)), and V_c U_c^T = ``whiten(C^T)``, which
``whiten``'s cut defines for a rank-deficient C too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cover import CoverBasis, project
from .errors import NumericalError, ValidationError
from .linalg import SvdTriplet, _frozen, _unit_scaled, as_matrix, whiten
from .task_vector import _negligible


@dataclass(frozen=True)
class RMatrix:
    """Pairwise directional-overlap matrix between two decompositions.

    values[i, j] = (u_s^i . u_t^j) * (v_t^j . v_s^i); every entry is a
    product of inner products of unit vectors and so lies in [-1, 1].
    """

    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values, "R values")
        if np.abs(values).max(initial=0.0) > 1.0 + 1e-9:
            raise ValidationError("R entries must lie in [-1, 1]")
        object.__setattr__(self, "values", values)


def cos_sim(A, B) -> float:
    """Frobenius cosine between two equal-shaped matrices."""
    A, _ = _unit_scaled(as_matrix(A, "A"))  # exact, and safe from over- and underflow
    B, _ = _unit_scaled(as_matrix(B, "B"))
    if A.shape != B.shape:
        raise ValidationError(f"shape mismatch: {A.shape} vs {B.shape}")
    # numpy's pairwise sums rather than BLAS dot, whose threads split the
    # sum and so change the last bits with the thread count
    na = np.sqrt(np.sum(A * A))
    nb = np.sqrt(np.sum(B * B))
    if na == 0.0 or nb == 0.0:
        raise NumericalError("cosine undefined for a zero matrix")
    return float(np.sum(A * B) / (na * nb))


def r_matrix(kdS: SvdTriplet, kdT: SvdTriplet) -> RMatrix:
    """Directional overlap between all dyad pairs of two decompositions."""
    if kdS.source_shape != kdT.source_shape:
        raise ValidationError(
            f"ambient shapes differ: {kdS.source_shape} vs {kdT.source_shape}"
        )
    return RMatrix((kdS.U.T @ kdT.U) * (kdS.V.T @ kdT.V))


def dir_sim(kdS: SvdTriplet, kdT: SvdTriplet) -> float:
    """Spectrum-free directional similarity: sum(R) / sqrt(r_s * r_t).

    Jointly negating any (u_j, v_j) column pair of either decomposition
    negates both factors of every affected R entry, so the value does not
    depend on the sign convention of the SVD.
    """
    R = r_matrix(kdS, kdT).values
    return float(R.sum() / np.sqrt(kdS.rank * kdT.rank))


def projected_dir_sim(kdTask: SvdTriplet, merged) -> float:
    """Directional similarity after restricting ``merged`` to the task's subspace.

    The dir_sim of the task's r live dyads (those it determines, by
    ``stack_bases``' rule) against the rank-r decomposition of the projection
    U (U^T merged): sum(V * whiten(C^T)) / r for C = U^T merged, with U and
    V the live columns.

    Raises
    ------
    NumericalError
        If the task's spectrum is all zero, so that its directions are
        arbitrary. Also if the projection's norm is at most 1e-12 of the
        merge's: the task's directions are then absent from the merge, which
        differs from directions that cancel to similarity zero.
    """
    merged = as_matrix(merged, "merged")
    if merged.shape != kdTask.source_shape:
        raise ValidationError(
            f"merged shape {merged.shape} does not match task shape "
            f"{kdTask.source_shape}"
        )
    live = ~_negligible(kdTask.sigma, kdTask.source_shape, kdTask.sigma[0])
    if not live.any():  # an all-zero spectrum
        raise NumericalError("task decomposition is zero; its directions are undefined")
    U, V = kdTask.U[:, live], kdTask.V[:, live]
    merged, _ = _unit_scaled(merged)  # the value is scale-invariant; no norm overflows
    C = U.T @ merged
    # ||C|| equals the projection's norm because U has orthonormal columns
    if np.linalg.norm(C) <= 1e-12 * np.linalg.norm(merged):
        raise NumericalError(
            "merged vector has no component in the task's singular subspace"
        )
    return float(np.sum(V * whiten(C.T)) / U.shape[1])


def _alignment(G: np.ndarray, H: np.ndarray) -> float:
    """The alignment objective ||G o H||_F^2 of the coefficient matrices G and H."""
    return float(np.sum((G * H) ** 2))


def alignment_score(U_tilde, V_tilde, decomps) -> float:
    """How much of every task's dyad structure a basis pair captures.

    Computes ``norm((U~^T [U_1..U_T]) * (V~^T [V_1..V_T]), 'fro')**2``,
    the closed form of the sum over tasks and dyads of the squared
    diagonal coefficient vectors of each projected dyad. The pair must
    pass the ``CoverBasis`` checks. For the whitened pair the two factors
    are ``cover.frame(decomps, basis=False)[1:]``, found without the pair.
    """
    return _alignment(*project(decomps, CoverBasis(U_tilde, V_tilde)))


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
    per_task_normalized: tuple
    avg_nai: float


def accuracy_report(table) -> AccuracyReport:
    """Per-task normalized accuracy and adaptation index, as (task, value) pairs, and their means.

    Normalized accuracy of a task is merged / finetuned; the adaptation
    index is (merged - zeroshot) / (finetuned - zeroshot), which is 1 when
    the merge fully recovers the fine-tuned gain and 0 when it does no
    better than the base model.
    """
    rows = list(table)
    if not rows:
        raise ValidationError("accuracy table is empty")
    normed, nai = [], []
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
        normed.append((row.task, row.merged / row.finetuned))
        nai.append((row.task, (row.merged - row.zeroshot) / gain))
    means = [float(np.mean([v for _, v in pairs])) for pairs in (normed, nai)]
    return AccuracyReport(means[0], tuple(nai), tuple(normed), means[1])
