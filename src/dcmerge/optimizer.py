"""Gradient ascent on the alignment score over orthonormal bases.

The basis pair is parameterized through matrix exponentials of skew
matrices applied to a fixed starting pair:

    U = exp(A - A^T) U0,    V = exp(B - B^T) V0

so every iterate is exactly orthonormal and the ascent is unconstrained
in A and B. Each step rebuilds the exponential from the accumulated A and
B rather than retracting incrementally. The gradient in A is supported on
span(U0) + span([U_1..U_T]), so no iterate leaves it: the ascent runs on
coordinates in Q_U, the reduced QR factor of [U0, U_1..U_T] (Q_V likewise),
and gives the ambient iterates in exact arithmetic. For a width-k start and
a k-column stack, A is p x p with p = min(m, 2k), and B likewise. The
gradient is exact: each iteration takes one unitary eigendecomposition per
side, of i (A - A^T) and of i (B - B^T), and that one decomposition gives
both the exponential and the adjoint of its derivative, so O(p^3) per side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cover import CoverBasis
from .errors import NumericalError, ValidationError
from .linalg import (
    SvdTriplet,
    _all_finite,
    _check_orthonormal,
    _skew_eigh,
    _skew_exp,
    _skew_exp_adjoint,
)
from .metrics import _alignment
from .task_vector import stack_bases


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-2
    max_iters: int = 500
    log_every: int = 1

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValidationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        for name in ("max_iters", "log_every"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValidationError(f"{name} must be a positive int, got {value!r}")


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


def _analytic_side_gradient(orient, G, other_gram, cat, eig):
    """Exact gradient via the adjoint of the exponential's derivative.

    With E = exp(S), S = A - A^T and W = E @ orient, the chain is
    dL/dW = cat @ (2 G * H * H)^T, dL/dE = dL/dW @ orient^T, and the
    adjoint of the exponential's directional derivative at S is the same
    map taken at S^T, so dL/dS = Dexp(S^T)[dL/dE]. Antisymmetrizing gives
    the gradient in A. ``eig`` is ``_skew_eigh(A)``.
    """
    dL_dG = 2.0 * G * other_gram * other_gram
    dL_dW = cat @ dL_dG.T
    dL_dE = dL_dW @ orient.T
    dL_dS = _skew_exp_adjoint(*eig, dL_dE)
    return dL_dS - dL_dS.T


def _iterate(A, orient, it: int, label: str):
    """exp(A - A^T) @ orient and the eigenfactors of A - A^T behind it.

    Raises NumericalError when A is non-finite or the iterate's columns are
    not orthonormal, which is how a too-large step shows.
    """
    advice = "the step is too large; lower the learning rate (--eta)"
    if not _all_finite(A):
        raise NumericalError(f"iteration {it}: {label} parameters are non-finite; {advice}")
    eig = _skew_eigh(A)
    W = _skew_exp(*eig) @ orient
    try:
        _check_orthonormal(W, f"{label} iterate")
    except ValidationError as exc:
        raise NumericalError(f"iteration {it}: {exc}; {advice}") from None
    return W, eig


def optimize_cover_basis(
    decomps: list[SvdTriplet],
    init: CoverBasis,
    cfg: OptimizerConfig | None = None,
) -> tuple[CoverBasis, OptimizationTrace]:
    """Ascend the alignment score starting from ``init``, whose columns must be orthonormal.

    Logs the score every ``cfg.log_every`` iterations before the update is
    applied, then appends one final point after the last step. Returns the
    final basis (orthonormal by construction) and the trace. Raises
    NumericalError, naming the iteration, when a step leaves A or B
    non-finite or an iterate outside the orthonormality tolerance.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    U_cat, V_cat = stack_bases(decomps)
    m, n = U_cat.shape[0], V_cat.shape[0]
    if init.shape != (m, n):
        raise ValidationError(
            f"init basis is for ambient shape {init.shape}, tasks are ({m}, {n})"
        )
    for W in (init.U_tilde, init.V_tilde):
        _check_orthonormal(W, "a partial-isometry start (duplicate or zero tasks) cannot be "
                              "rotated: init")
    # coordinates in the span every iterate stays in
    Q_u = np.linalg.qr(np.hstack([init.U_tilde, U_cat]))[0]
    Q_v = np.linalg.qr(np.hstack([init.V_tilde, V_cat]))[0]
    U0, U_cat = Q_u.T @ init.U_tilde, Q_u.T @ U_cat
    V0, V_cat = Q_v.T @ init.V_tilde, Q_v.T @ V_cat
    A = np.zeros((Q_u.shape[1],) * 2)
    B = np.zeros((Q_v.shape[1],) * 2)
    eta = cfg.learning_rate
    points: list[tuple[int, float, float]] = []
    start = time.perf_counter()

    for it in range(cfg.max_iters):
        Wu, eig_a = _iterate(A, U0, it, "U")
        Wv, eig_b = _iterate(B, V0, it, "V")
        G = Wu.T @ U_cat
        H = Wv.T @ V_cat
        if it % cfg.log_every == 0:
            points.append((it, _alignment(G, H), time.perf_counter() - start))
        A += eta * _analytic_side_gradient(U0, G, H, U_cat, eig_a)
        B += eta * _analytic_side_gradient(V0, H, G, V_cat, eig_b)

    Wu, _ = _iterate(A, U0, cfg.max_iters, "U")
    Wv, _ = _iterate(B, V0, cfg.max_iters, "V")
    final = _alignment(Wu.T @ U_cat, Wv.T @ V_cat)
    points.append((cfg.max_iters, final, time.perf_counter() - start))
    return CoverBasis(U_tilde=Q_u @ Wu, V_tilde=Q_v @ Wv), OptimizationTrace(points=tuple(points))
