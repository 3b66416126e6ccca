"""Gradient ascent on the alignment score over orthonormal bases.

The basis pair is parameterized through matrix exponentials of skew
matrices applied to a fixed starting pair:

    U = exp(A - A^T) U0,    V = exp(B - B^T) V0

so every iterate is exactly orthonormal and the ascent is unconstrained
in A and B. Each step rebuilds the exponential from the accumulated A and
B rather than retracting incrementally. This is a validation tool for the
whitening construction, not a production path, so it is limited to small
ambient dimensions where dense exponentials are cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cover import CoverBasis
from .errors import ValidationError
from .linalg import matrix_exp_skew
from .task_vector import KnowledgeDecomposition, stack_bases

__all__ = ["OptimizerConfig", "OptimizationTrace", "optimize_cover_basis"]

_GRADIENT_MODES = ("finite_difference", "analytic")


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-2
    max_iters: int = 500
    gradient_mode: str = "finite_difference"
    fd_step: float = 1e-5
    log_every: int = 1
    dim_limit: int = 64

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValidationError(f"max_iters must be a positive int, got {self.max_iters!r}")
        if self.gradient_mode not in _GRADIENT_MODES:
            raise ValidationError(
                f"gradient_mode must be one of {_GRADIENT_MODES}, got {self.gradient_mode!r}"
            )
        if not self.fd_step > 0:
            raise ValidationError(f"fd_step must be positive, got {self.fd_step}")
        if not isinstance(self.log_every, int) or self.log_every < 1:
            raise ValidationError(f"log_every must be a positive int, got {self.log_every!r}")
        if not isinstance(self.dim_limit, int) or self.dim_limit < 1:
            raise ValidationError(f"dim_limit must be a positive int, got {self.dim_limit!r}")


@dataclass(frozen=True)
class OptimizationTrace:
    """Logged (iteration, alignment score, elapsed seconds) triples."""

    points: tuple[tuple[int, float, float], ...]

    @property
    def iterations(self) -> list[int]:
        return [p[0] for p in self.points]

    @property
    def scores(self) -> list[float]:
        return [p[1] for p in self.points]

    @property
    def final_score(self) -> float:
        return self.points[-1][1]


def _score(G: np.ndarray, H: np.ndarray) -> float:
    prod = G * H
    return float(np.sum(prod * prod))


def _fd_side_gradient(A, orient, other_gram, cat, h):
    """Central-difference gradient of the score w.r.t. one skew parameter.

    Probes each strict upper-triangle entry of A both ways, rebuilding the
    exponential from scratch; the opposite side's cross-Gram is a constant
    during these probes, so only this side's Gram is recomputed.
    """
    d = A.shape[0]
    grad = np.zeros_like(A)
    for i in range(d):
        for j in range(i + 1, d):
            saved = A[i, j]
            A[i, j] = saved + h
            W = matrix_exp_skew(A) @ orient
            f_plus = _score(W.T @ cat, other_gram)
            A[i, j] = saved - h
            W = matrix_exp_skew(A) @ orient
            f_minus = _score(W.T @ cat, other_gram)
            A[i, j] = saved
            g = (f_plus - f_minus) / (2.0 * h)
            grad[i, j] = g
            grad[j, i] = -g
    return grad


def _analytic_side_gradient(A, orient, G, other_gram, cat):
    """Exact gradient via the adjoint of the exponential's derivative.

    With E = exp(S), S = A - A^T and W = E @ orient, the chain is
    dL/dW = cat @ (2 G * H * H)^T, dL/dE = dL/dW @ orient^T, and the
    adjoint of the exponential's directional derivative at S is the same
    map taken at S^T, so dL/dS = Dexp(S^T)[dL/dE]. Antisymmetrizing gives
    the gradient in A.
    """
    from scipy.linalg import expm_frechet  # kept out of the package's import time

    dL_dG = 2.0 * G * other_gram * other_gram
    dL_dW = cat @ dL_dG.T
    dL_dE = dL_dW @ orient.T
    S = A - A.T
    dL_dS = expm_frechet(S.T, dL_dE, compute_expm=False)
    return dL_dS - dL_dS.T


def optimize_cover_basis(
    decomps: list[KnowledgeDecomposition],
    init: CoverBasis,
    cfg: OptimizerConfig | None = None,
) -> tuple[CoverBasis, OptimizationTrace]:
    """Ascend the alignment score starting from ``init``.

    Logs the score every ``cfg.log_every`` iterations before the update is
    applied, then appends one final point after the last step. Returns the
    final basis (orthonormal by construction) and the trace.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    U_cat, V_cat = stack_bases(decomps)
    m, n = U_cat.shape[0], V_cat.shape[0]
    if init.shape != (m, n):
        raise ValidationError(
            f"init basis is for ambient shape {init.shape}, tasks are ({m}, {n})"
        )
    if max(m, n) > cfg.dim_limit:
        raise ValidationError(
            f"ambient dimension {max(m, n)} exceeds the dense-exponential "
            f"limit {cfg.dim_limit}; raise dim_limit to override"
        )

    U0 = init.U_tilde
    V0 = init.V_tilde
    A = np.zeros((m, m))
    B = np.zeros((n, n))
    eta = cfg.learning_rate
    points: list[tuple[int, float, float]] = []
    start = time.perf_counter()

    for it in range(cfg.max_iters):
        Wu = matrix_exp_skew(A) @ U0
        Wv = matrix_exp_skew(B) @ V0
        G = Wu.T @ U_cat
        H = Wv.T @ V_cat
        if it % cfg.log_every == 0:
            points.append((it, _score(G, H), time.perf_counter() - start))
        if cfg.gradient_mode == "finite_difference":
            GA = _fd_side_gradient(A, U0, H, U_cat, cfg.fd_step)
            GB = _fd_side_gradient(B, V0, G, V_cat, cfg.fd_step)
        else:
            GA = _analytic_side_gradient(A, U0, G, H, U_cat)
            GB = _analytic_side_gradient(B, V0, H, G, V_cat)
        A += eta * GA
        B += eta * GB

    Wu = matrix_exp_skew(A) @ U0
    Wv = matrix_exp_skew(B) @ V0
    final = _score(Wu.T @ U_cat, Wv.T @ V_cat)
    points.append((cfg.max_iters, final, time.perf_counter() - start))
    return CoverBasis(U_tilde=Wu, V_tilde=Wv), OptimizationTrace(points=tuple(points))
