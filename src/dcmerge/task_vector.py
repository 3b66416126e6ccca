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
    it must equal B A, which ``from_lora_factors`` guarantees. Arrays are
    stored read-only: a read-only float64 C-contiguous array that owns its
    data is kept as it is, and anything else is copied.
    """

    name: str
    delta: np.ndarray
    lora_rank: int | None = None
    factors: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        label = self.name or "task vector"
        delta = _frozen(self.delta, f"delta of {label}")
        object.__setattr__(self, "delta", delta)
        if self.factors is not None:
            B, A = (_frozen(f, f"LoRA factor of {label}") for f in self.factors)
            if (
                B.shape[1] != A.shape[0]
                or (B.shape[0], A.shape[1]) != delta.shape
                or self.lora_rank != B.shape[1]
            ):
                raise ValidationError(
                    f"LoRA factors {B.shape} x {A.shape} do not match delta "
                    f"shape {delta.shape} and lora_rank {self.lora_rank}"
                )
            object.__setattr__(self, "factors", (B, A))

    @property
    def shape(self) -> tuple[int, int]:
        return self.delta.shape


def _frozen(a, label: str) -> np.ndarray:
    """``as_matrix(a)`` as an array no one else can write through."""
    arr = as_matrix(a, label)
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


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


def _built(inputs, labels, name, delta, lora_rank=None, factors=None) -> TaskVector:
    """A TaskVector over arrays built here, made read-only so it keeps them uncopied.

    A ValidationError names the first of ``inputs`` that is not a finite
    matrix, by its entry in ``labels``.
    """
    for arr in (delta, *(factors or ())):
        arr.setflags(write=False)
    try:
        return TaskVector(name, delta, lora_rank, factors)
    except ValidationError:
        for arr, label in zip(inputs, labels):
            as_matrix(arr, label)
        raise


def from_fft_delta(W_ft, W_0, name: str = "", labels=("W_ft", "W_0")) -> TaskVector:
    """Task vector from a fully fine-tuned weight and its base: W_ft - W_0.

    The difference is taken in float64 without converting either input
    first; ``labels`` name the inputs in error messages.
    """
    W_ft, W_0 = np.asarray(W_ft), np.asarray(W_0)
    if W_ft.shape != W_0.shape:
        raise ValidationError(
            f"shape mismatch: {W_ft.shape} vs {W_0.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # _built reports a non-finite delta
        delta = np.subtract(W_ft, W_0, dtype=np.float64)
    return _built((W_ft, W_0), labels, name, delta)


def from_lora_factors(B, A, name: str = "", labels=("B", "A")) -> TaskVector:
    """Task vector from LoRA factors: delta = B A, with B m x r and A r x n.

    ``labels`` name the factors in error messages.
    """
    B = np.array(B, dtype=np.float64, order="C")
    A = np.array(A, dtype=np.float64, order="C")
    if B.ndim != 2 or A.ndim != 2 or B.shape[1] != A.shape[0]:
        raise ValidationError(
            f"inner dimensions differ: B is {B.shape}, A is {A.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # _built reports a non-finite delta
        delta = B @ A
    return _built((B, A), labels, name, delta, lora_rank=B.shape[1], factors=(B, A))


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


def decompose(tv: TaskVector, r: int) -> SvdTriplet:
    """Rank-r knowledge decomposition of a task vector, as an SvdTriplet.

    A task vector with LoRA factors is decomposed from them in
    O((m + n) p^2 + p^3) for inner dimension p; it falls back to the dense
    truncated SVD of ``delta`` when r exceeds the core or the factors'
    numerical rank is below r.
    """
    svd = _factor_svd(*tv.factors, r) if tv.factors is not None else None
    return svd if svd is not None else truncated_svd(tv.delta, r)


def _linear_weights(sigma: np.ndarray, rho: float) -> np.ndarray:
    r = sigma.size
    if r == 1:
        return np.ones(1)
    smax, smin = sigma[0], sigma[-1]
    # a zero tail makes the spectrum ratio infinite; the clamp handles it
    ratio = rho if smin == 0 else min(smax / smin, rho)
    w = ratio + np.arange(r) * (1.0 - ratio) / (r - 1)
    return w / w.sum()


def smooth_energy(kd: SvdTriplet, s: SmoothingStrategy) -> SvdTriplet:
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
    return kd._with_sigma(new)


def reconstruct(kd: SvdTriplet) -> np.ndarray:
    """Dense matrix U diag(sigma) V^T, of shape ``kd.source_shape``."""
    return (kd.U * kd.sigma) @ kd.V.T


def stack_bases(decomps) -> tuple[np.ndarray, np.ndarray]:
    """Column-concatenated singular bases ([U_1..U_T], [V_1..V_T]) in input order."""
    decomps = list(decomps)
    if not decomps:
        raise ValidationError("at least one decomposition required")
    for kd in decomps:
        if not isinstance(kd, SvdTriplet):
            raise ValidationError(f"expected SvdTriplet, got {type(kd).__name__}")
    shapes = {kd.source_shape for kd in decomps}
    if len(shapes) != 1:
        raise ValidationError(f"decompositions have mixed ambient shapes {sorted(shapes)}")
    return np.hstack([kd.U for kd in decomps]), np.hstack([kd.V for kd in decomps])
