"""Task vectors, their rank-r knowledge decompositions, and energy smoothing.

A task vector is the weight delta a fine-tuning run added on top of a base
model, either as a dense difference or as a LoRA product. Decomposing it
with a truncated SVD splits the delta into rank-1 knowledge components
whose singular values act as per-component energies; the smoothing
strategies here redistribute that energy while keeping the directions
fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import SvdTriplet, as_matrix, truncated_svd

__all__ = [
    "TaskVector",
    "KnowledgeDecomposition",
    "SmoothingStrategy",
    "from_fft_delta",
    "from_lora_factors",
    "decompose",
    "smooth_energy",
    "reconstruct",
    "stack_bases",
]


@dataclass(frozen=True)
class TaskVector:
    """A named weight delta. ``lora_rank`` and ``factors`` are set when built from factors.

    ``delta`` is always the dense matrix; when ``factors`` = (B, A) is set,
    it must equal B A, which ``from_lora_factors`` guarantees.
    """

    name: str
    delta: np.ndarray
    lora_rank: int | None = None
    factors: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        label = self.name or "task vector"
        delta = as_matrix(self.delta, f"delta of {label}")
        delta = delta.copy()
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        if self.factors is not None:
            B, A = (as_matrix(f, f"LoRA factor of {label}").copy() for f in self.factors)
            if (
                B.shape[1] != A.shape[0]
                or (B.shape[0], A.shape[1]) != delta.shape
                or self.lora_rank != B.shape[1]
            ):
                raise ValidationError(
                    f"LoRA factors {B.shape} x {A.shape} do not match delta "
                    f"shape {delta.shape} and lora_rank {self.lora_rank}"
                )
            B.setflags(write=False)
            A.setflags(write=False)
            object.__setattr__(self, "factors", (B, A))

    @property
    def shape(self) -> tuple[int, int]:
        return self.delta.shape


@dataclass(frozen=True)
class KnowledgeDecomposition:
    """Rank-r SVD triplet of a task vector plus the source shape."""

    svd: SvdTriplet
    source_shape: tuple[int, int]

    def __post_init__(self):
        m, n = self.source_shape
        if self.svd.U.shape[0] != m or self.svd.V.shape[0] != n:
            raise ValidationError(
                f"decomposition factors do not match source shape {self.source_shape}"
            )
        if self.rank > min(m, n):
            raise ValidationError("rank exceeds min(source_shape)")

    @property
    def U(self) -> np.ndarray:
        return self.svd.U

    @property
    def sigma(self) -> np.ndarray:
        return self.svd.sigma

    @property
    def V(self) -> np.ndarray:
        return self.svd.V

    @property
    def rank(self) -> int:
        return self.svd.rank


_KINDS = ("truncate_only", "averaging", "linear", "interpolate")


@dataclass(frozen=True)
class SmoothingStrategy:
    """Which spectrum flattening to apply, with its parameter if any."""

    kind: str
    rho: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(
                f"unknown smoothing kind {self.kind!r}, expected one of {_KINDS}"
            )
        if self.kind == "linear":
            if self.rho is None or not self.rho > 1:
                raise ValidationError("linear smoothing requires rho > 1")
        elif self.kind == "interpolate":
            if self.tau is None or not 0 <= self.tau <= 1:
                raise ValidationError("interpolate requires tau in [0, 1]")

    @classmethod
    def truncate_only(cls) -> "SmoothingStrategy":
        return cls("truncate_only")

    @classmethod
    def averaging(cls) -> "SmoothingStrategy":
        return cls("averaging")

    @classmethod
    def linear(cls, rho: float) -> "SmoothingStrategy":
        return cls("linear", rho=float(rho))

    @classmethod
    def interpolate(cls, tau: float) -> "SmoothingStrategy":
        return cls("interpolate", tau=float(tau))


def from_fft_delta(W_ft, W_0, name: str = "") -> TaskVector:
    """Task vector from a fully fine-tuned weight and its base: W_ft - W_0."""
    W_ft = as_matrix(W_ft, "W_ft")
    W_0 = as_matrix(W_0, "W_0")
    if W_ft.shape != W_0.shape:
        raise ValidationError(
            f"shape mismatch: {W_ft.shape} vs {W_0.shape}"
        )
    return TaskVector(name, W_ft - W_0)


def from_lora_factors(B, A, name: str = "") -> TaskVector:
    """Task vector from LoRA factors: delta = B A, with B m x r and A r x n."""
    B = as_matrix(B, "B")
    A = as_matrix(A, "A")
    if B.shape[1] != A.shape[0]:
        raise ValidationError(
            f"inner dimensions differ: B is {B.shape}, A is {A.shape}"
        )
    return TaskVector(name, B @ A, lora_rank=B.shape[1], factors=(B, A))


def _factor_svd(B: np.ndarray, A: np.ndarray, r: int) -> SvdTriplet | None:
    """Rank-r SVD of B A from the factors, or None where the dense SVD must decide.

    With B = Q_B R_B and A^T = Q_A R_A, B A = Q_B (R_B R_A^T) Q_A^T, so the
    SVD of the small core gives the product's: U = Q_B U_c, V = Q_A V_c.
    None when r is not a valid rank of the core, when the core's
    numerical rank is below r (its r-th singular value is at most
    max(m, n) * eps * s[0]; the leading directions are then not
    determined by the product alone), or when the core's SVD does not
    converge, so the dense path reports it.
    """
    m, p = B.shape
    n = A.shape[1]
    if not isinstance(r, (int, np.integer)) or not 1 <= r <= min(m, n, p):
        return None
    Q_B, R_B = np.linalg.qr(B)
    Q_A, R_A = np.linalg.qr(A.T)
    try:
        U_c, s, Vt_c = np.linalg.svd(R_B @ R_A.T, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    if s[r - 1] <= max(m, n) * np.finfo(np.float64).eps * s[0]:
        return None
    return SvdTriplet(Q_B @ U_c[:, :r], s[:r], Q_A @ Vt_c[:r].T)


def decompose(tv: TaskVector, r: int) -> KnowledgeDecomposition:
    """Rank-r knowledge decomposition of a task vector.

    A task vector with LoRA factors is decomposed from them in
    O((m + n) p^2 + p^3) for inner dimension p; it falls back to the dense
    truncated SVD of ``delta`` when r exceeds the core or the factors'
    numerical rank is below r.
    """
    svd = _factor_svd(*tv.factors, r) if tv.factors is not None else None
    if svd is None:
        svd = truncated_svd(tv.delta, r)
    return KnowledgeDecomposition(svd, tv.shape)


def _linear_weights(sigma: np.ndarray, rho: float) -> np.ndarray:
    r = sigma.size
    if r == 1:
        return np.ones(1)
    smax, smin = sigma[0], sigma[-1]
    # a zero tail makes the spectrum ratio infinite; the clamp handles it
    ratio = rho if smin == 0 else min(smax / smin, rho)
    w = ratio + np.arange(r) * (1.0 - ratio) / (r - 1)
    return w / w.sum()


def smooth_energy(
    kd: KnowledgeDecomposition, s: SmoothingStrategy
) -> KnowledgeDecomposition:
    """Return a copy of ``kd`` with its spectrum flattened per strategy ``s``.

    All strategies preserve the total energy (the plain sum of singular
    values) and leave the singular vectors untouched:

    - ``truncate_only``: spectrum unchanged (the truncation already
      happened at decomposition time).
    - ``averaging``: every entry replaced by the mean.
    - ``linear(rho)``: linearly decreasing weights whose endpoint ratio is
      the spectrum's own max/min ratio clamped at rho, normalized to sum 1
      and scaled by the total energy.
    - ``interpolate(tau)``: tau * sigma + (1 - tau) * mean(sigma).
    """
    sigma = kd.sigma
    if s.kind == "truncate_only":
        return kd
    if s.kind == "averaging":
        new = np.full_like(sigma, sigma.mean())
    elif s.kind == "linear":
        new = sigma.sum() * _linear_weights(sigma, s.rho)
    else:
        new = s.tau * sigma + (1.0 - s.tau) * sigma.mean()
    return KnowledgeDecomposition(kd.svd._with_sigma(new), kd.source_shape)


def reconstruct(kd: KnowledgeDecomposition) -> np.ndarray:
    """Dense matrix U diag(sigma) V^T with the decomposition's source shape."""
    return (kd.U * kd.sigma) @ kd.V.T


def stack_bases(decomps) -> tuple[np.ndarray, np.ndarray]:
    """Column-concatenated singular bases ([U_1..U_T], [V_1..V_T]) in input order."""
    decomps = list(decomps)
    if not decomps:
        raise ValidationError("at least one decomposition required")
    for kd in decomps:
        if not isinstance(kd, KnowledgeDecomposition):
            raise ValidationError(
                f"expected KnowledgeDecomposition, got {type(kd).__name__}"
            )
    shapes = {kd.source_shape for kd in decomps}
    if len(shapes) != 1:
        raise ValidationError(f"decompositions have mixed ambient shapes {sorted(shapes)}")
    return np.hstack([kd.U for kd in decomps]), np.hstack([kd.V for kd in decomps])
