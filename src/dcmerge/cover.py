"""Shared cover space: basis construction, projection, masking, back-projection.

The cover basis is the pair of partial isometries (orthonormal columns, or
zero ones where ``whiten`` cuts a direction) obtained by whitening the
column-concatenated per-task singular bases. ``frame`` gives the pair and the
stack's coordinates in it from one factorization per side (without the pair,
the Gram square roots alone); ``project`` gives the coordinates in any other
pair. The tasks' k x k coordinate matrices are merged, filtered by a
block-diagonal structural mask, and mapped back to weight space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import _ORTHO_TOL, _check_count, _frozen, _polar_frame, as_matrix
from .task_vector import stack_bases


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
        _check_count(U.shape[1], min(U.shape[0], V.shape[0]), "basis width")
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
    _check_count(b, k, "block")
    return tuple(slice(lo, min(lo + b, k)) for lo in range(0, k, b))


def frame(decomps, basis: bool = True) -> tuple[CoverBasis | None, np.ndarray, np.ndarray]:
    """(pair, G, H): the whitened pair, G = U~^T [U_1..U_T] and H = V~^T [V_1..V_T].

    Each side is stacked and factored once; G = (S^T S)^(1/2) for the stack S, its columns
    in task input order. ``basis=False`` gives no pair, and G and H from the Gram alone.
    """
    Ucat, Vcat = stack_bases(decomps)
    _check_count(Ucat.shape[1], min(Ucat.shape[0], Vcat.shape[0]), "total rank")
    (U, G), (V, H) = (_polar_frame(M, basis) for M in (Ucat, Vcat))
    del Ucat, Vcat  # the pair's check sets merge's peak: hold no stack, and W read-only, uncopied
    for W in (U, V) if basis else ():
        W.setflags(write=False)
    return (CoverBasis(U, V) if basis else None), G, H


def build_cover_basis(decomps) -> CoverBasis:
    """The whitened pair of ``frame``, without its coordinates."""
    return frame(decomps)[0]


def project(decomps, basis: CoverBasis) -> tuple[np.ndarray, np.ndarray]:
    """The stack's coordinates (G, H) = (U~^T [U_1..U_T], V~^T [V_1..V_T]) in any ``basis``.

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
