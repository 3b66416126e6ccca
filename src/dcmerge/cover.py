"""Shared cover space: basis construction, projection, masking, back-projection.

The cover basis is the pair of orthonormal matrices obtained by whitening
the column-concatenated per-task singular bases. Task deltas are expressed
as k x k coordinate matrices against it, merged coordinate-wise, filtered
by a block-diagonal structural mask, and mapped back to weight space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, whiten
from .task_vector import KnowledgeDecomposition, stack_bases

__all__ = [
    "CoverBasis",
    "StructuralMask",
    "build_cover_basis",
    "project",
    "back_project",
    "make_mask",
]


@dataclass(frozen=True)
class CoverBasis:
    """Orthonormal pair (U_tilde m x k, V_tilde n x k) spanning all tasks."""

    U_tilde: np.ndarray
    V_tilde: np.ndarray

    def __post_init__(self):
        U = as_matrix(self.U_tilde, "U_tilde").copy()
        V = as_matrix(self.V_tilde, "V_tilde").copy()
        if U.shape[1] != V.shape[1]:
            raise ValidationError(
                f"basis widths differ: {U.shape[1]} vs {V.shape[1]}"
            )
        k = U.shape[1]
        if k > min(U.shape[0], V.shape[0]):
            raise ValidationError(
                f"basis width {k} exceeds ambient dimension "
                f"min({U.shape[0]}, {V.shape[0]})"
            )
        for mat, label in ((U, "U_tilde"), (V, "V_tilde")):
            if np.abs(mat.T @ mat - np.eye(k)).max() > 1e-8:
                raise ValidationError(f"{label} columns are not orthonormal")
        U.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "U_tilde", U)
        object.__setattr__(self, "V_tilde", V)

    @property
    def k(self) -> int:
        return self.U_tilde.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U_tilde.shape[0], self.V_tilde.shape[0])


@dataclass(frozen=True)
class StructuralMask:
    """Block-diagonal zero/one mask with b x b all-ones blocks."""

    size: int
    block: int
    values: np.ndarray

    def __post_init__(self):
        values = as_matrix(self.values, "mask values").copy()
        if values.shape != (self.size, self.size):
            raise ValidationError("mask values shape does not match size")
        groups = np.arange(self.size) // self.block
        expected = (groups[:, None] == groups[None, :]).astype(np.float64)
        if not np.array_equal(values, expected):
            raise ValidationError("mask is not block-diagonal ones of the stated block")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def make_mask(k: int, b: int) -> StructuralMask:
    """Block-diagonal ones mask of size k with block width b.

    Entry (p, q) is 1 exactly when floor(p / b) == floor(q / b); the final
    block is truncated when b does not divide k.
    """
    if not 1 <= b <= k:
        raise ValidationError(f"block must be in [1, {k}], got {b}")
    groups = np.arange(k) // b
    values = (groups[:, None] == groups[None, :]).astype(np.float64)
    return StructuralMask(size=k, block=b, values=values)


def build_cover_basis(decomps) -> CoverBasis:
    """Whiten the concatenated per-task singular bases into a shared pair.

    Columns follow task input order, so with uniform per-task rank r the
    mask block at b = r lines up one block per task.
    """
    Ucat, Vcat = stack_bases(decomps)
    k, bound = Ucat.shape[1], min(Ucat.shape[0], Vcat.shape[0])
    if k > bound:
        raise ValidationError(
            f"total rank {k} exceeds min ambient dimension {bound}; reduce per-task rank"
        )
    return CoverBasis(whiten(Ucat), whiten(Vcat))


def project(delta, basis: CoverBasis) -> np.ndarray:
    """Coordinates of a delta in the cover space: U~^T delta V~ (k x k).

    ``delta`` is a dense matrix or a KnowledgeDecomposition; the latter is
    projected from its singular factors as (U~^T U) diag(sigma) (V^T V~),
    without forming the dense product.
    """
    if isinstance(delta, KnowledgeDecomposition):
        shape = delta.source_shape
    else:
        delta = as_matrix(delta, "delta")
        shape = delta.shape
    if shape != basis.shape:
        raise ValidationError(
            f"delta shape {shape} does not match basis ambient {basis.shape}"
        )
    if isinstance(delta, KnowledgeDecomposition):
        return ((basis.U_tilde.T @ delta.U) * delta.sigma) @ (delta.V.T @ basis.V_tilde)
    return basis.U_tilde.T @ delta @ basis.V_tilde


def back_project(M_merged, mask: StructuralMask, basis: CoverBasis) -> np.ndarray:
    """Masked coordinates mapped back to weight space: U~ (M * mask) V~^T."""
    M_merged = as_matrix(M_merged, "M_merged")
    k = basis.k
    if M_merged.shape != (k, k):
        raise ValidationError(
            f"coordinate matrix must be {k} x {k}, got {M_merged.shape}"
        )
    if mask.size != k:
        raise ValidationError(
            f"mask size {mask.size} does not match basis width {k}"
        )
    return basis.U_tilde @ (M_merged * mask.values) @ basis.V_tilde.T
