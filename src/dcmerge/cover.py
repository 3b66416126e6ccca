"""Shared cover space: basis construction, projection, masking, back-projection.

The cover basis is the pair of partial isometries (orthonormal columns, or
zero ones where ``whiten`` cuts a direction) obtained by whitening the
column-concatenated per-task singular bases. ``project`` gives the stack's
coordinates in it, from which the tasks' k x k coordinate matrices follow;
these are merged, filtered by a block-diagonal structural mask, and mapped
back to weight space. For the whitened pair the coordinates are the square
roots of the stack's Gram matrices (``stack_coordinates``), found without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import _ORTHO_TOL, _frozen, _gram_eigh, as_matrix, whiten
from .task_vector import stack_bases

# the Gram square root needs lambda_min > this * lambda_max: its rounding grows as
# 1 / (2 sqrt(lambda_min)), an inverse root's (whiten's Gram path) as lambda_min^(-3/2)
_GRAM_ROOT_FLOOR = 1e-10

__all__ = [
    "CoverBasis",
    "build_cover_basis",
    "stack_coordinates",
    "project",
    "back_project",
    "make_mask",
]


@dataclass(frozen=True)
class CoverBasis:
    """Pair (U_tilde m x k, V_tilde n x k) spanning all tasks; each side's
    W^T W is a projection (symmetric and idempotent within 1e-8)."""

    U_tilde: np.ndarray
    V_tilde: np.ndarray

    def __post_init__(self):
        U = _frozen(self.U_tilde, "U_tilde")
        V = _frozen(self.V_tilde, "V_tilde")
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
        for W, label in ((U, "U_tilde"), (V, "V_tilde")):
            G = W.T @ W
            if not max(np.abs(G - G.T).max(), np.abs(G @ G - G).max()) <= _ORTHO_TOL:
                raise ValidationError(f"{label} is not a partial isometry: W^T W is no projection")
        object.__setattr__(self, "U_tilde", U)
        object.__setattr__(self, "V_tilde", V)

    @property
    def k(self) -> int:
        return self.U_tilde.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U_tilde.shape[0], self.V_tilde.shape[0])


def make_mask(k: int, b: int) -> tuple[slice, ...]:
    """Diagonal blocks of the structural mask of size k with block width b.

    The mask keeps entry (p, q) exactly when floor(p / b) == floor(q / b);
    its blocks are returned as the index ranges [0, b), [b, 2b), ..., the
    final one truncated when b does not divide k.
    """
    if not 1 <= b <= k:
        raise ValidationError(f"block must be in [1, {k}], got {b}")
    return tuple(slice(lo, min(lo + b, k)) for lo in range(0, k, b))


def _stacks(decomps) -> tuple[np.ndarray, np.ndarray]:
    """``stack_bases(decomps)``, whose total rank k must fit in min(m, n)."""
    Ucat, Vcat = stack_bases(decomps)
    k, bound = Ucat.shape[1], min(Ucat.shape[0], Vcat.shape[0])
    if k > bound:
        raise ValidationError(
            f"total rank {k} exceeds min ambient dimension {bound}; reduce per-task rank"
        )
    return Ucat, Vcat


def build_cover_basis(decomps) -> CoverBasis:
    """Whiten the concatenated per-task singular bases into a shared pair.

    Columns follow task input order, so with uniform per-task rank r the
    mask block at b = r lines up one block per task.
    """
    return CoverBasis(*map(whiten, _stacks(decomps)))


def _gram_root(M: np.ndarray) -> np.ndarray:
    """``whiten(M).T @ M``, which is (M^T M)^(1/2): from ``eigh`` above the floor."""
    eig = _gram_eigh(M)
    if eig is not None and eig[0][0] > _GRAM_ROOT_FLOOR * eig[0][-1]:
        w, Q = eig
        return (Q * np.sqrt(w)) @ Q.T
    return whiten(M).T @ M


def stack_coordinates(decomps) -> tuple[np.ndarray, np.ndarray]:
    """(U~^T [U_1..U_T], V~^T [V_1..V_T]) for ``build_cover_basis``'s pair, as Gram roots.

    Below ``_GRAM_ROOT_FLOOR`` (duplicate or nearly parallel tasks) each is
    ``whiten(stack).T @ stack``, the value through the pair itself."""
    return tuple(map(_gram_root, _stacks(decomps)))


def project(decomps, basis: CoverBasis) -> tuple[np.ndarray, np.ndarray]:
    """The stack's coordinates (G, H) = (U~^T [U_1..U_T], V~^T [V_1..V_T]) in ``basis``.

    Task i's coordinates U~^T U_i diag(sigma_i) V_i^T V~ are (G_i * sigma_i) H_i^T
    on its columns, so the tasks sum to (G * sigma) H^T for the concatenated sigma.
    """
    Ucat, Vcat = stack_bases(decomps)
    if (len(Ucat), len(Vcat)) != basis.shape:
        raise ValidationError(f"tasks of shape {(len(Ucat), len(Vcat))} vs basis {basis.shape}")
    return basis.U_tilde.T @ Ucat, basis.V_tilde.T @ Vcat


def back_project(M_merged, block: int, basis: CoverBasis) -> np.ndarray:
    """Block-diagonal coordinates mapped back to weight space: U~ (M * mask) V~^T.

    Only the ``make_mask(k, block)`` diagonal blocks of ``M_merged`` are
    kept; everything else is zeroed before the single product.
    """
    M_merged = as_matrix(M_merged, "M_merged")
    k = basis.k
    if M_merged.shape != (k, k):
        raise ValidationError(
            f"coordinate matrix must be {k} x {k}, got {M_merged.shape}"
        )
    kept = np.zeros_like(M_merged)
    for blk in make_mask(k, block):
        kept[blk, blk] = M_merged[blk, blk]
    return basis.U_tilde @ kept @ basis.V_tilde.T
