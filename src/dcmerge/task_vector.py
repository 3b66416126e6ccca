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
from .linalg import SvdTriplet, _abs_max, _all_finite, _frozen, truncated_svd


@dataclass(frozen=True, init=False)
class TaskVector:
    """A named weight delta, held as a dense matrix or as LoRA factors (B, A).

    ``TaskVector(name, delta)`` keeps a dense delta. ``from_lora_factors``
    builds the factor-backed kind: it keeps B (m x p) and A (p x n), with
    ``lora_rank`` = p, and not their product; ``delta`` builds B A on each
    read, and B A is formed to check finiteness only when the bound
    p max|B| max|A| on its entries does not rule out an overflow. Arrays
    are stored read-only: a read-only float64 C-contiguous array that owns
    its data is kept as it is, and anything else is copied.
    ``from_fft_delta`` makes a third kind, which keeps the fine-tuned
    weight and its base and takes their difference on each read.
    """

    name: str
    lora_rank: int | None
    factors: tuple[np.ndarray, np.ndarray] | None
    _inputs: tuple[np.ndarray, ...] | None

    def __init__(self, name: str, delta, lora_rank: int | None = None):
        self._set(name, lora_rank, None, (_frozen(delta, f"delta of {name or 'task vector'}"),))

    def _set(self, name, lora_rank, factors, inputs) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lora_rank", lora_rank)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_inputs", inputs)

    def _check_finite(self, bound: float) -> None:
        """Reject a non-finite ``delta``, built to check only if ``bound`` may overflow.

        ``bound`` bounds the magnitude of every entry of the exact delta.
        """
        if not bound <= _DELTA_BOUND:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = _all_finite(self.delta)
            if not finite:
                label = self.name or "task vector"
                raise ValidationError(f"delta of {label} contains non-finite entries")

    @property
    def delta(self) -> np.ndarray:
        """The dense float64 matrix, read-only; built on each read unless stored.

        A factor-backed task vector builds B A; one from ``from_fft_delta``
        builds W_ft - W_0 in float64.
        """
        if self.factors is not None:
            B, A = self.factors
            delta = B @ A
        elif len(self._inputs) == 1:
            return self._inputs[0]
        else:
            delta = np.subtract(*self._inputs, dtype=np.float64)
        delta.setflags(write=False)
        return delta

    @property
    def shape(self) -> tuple[int, int]:
        if self.factors is not None:
            B, A = self.factors
            return B.shape[0], A.shape[1]
        return self._inputs[0].shape


# every entry of B A is at most p max|B| max|A| in magnitude, and the
# computed one exceeds that by at most a factor 1 + p eps; every entry of
# W_ft - W_0 is at most max|W_ft| + max|W_0|, and rounds to within a factor
# 1 + eps of that. So a bound at or below half the largest float64 rules
# out an overflow
_DELTA_BOUND = np.finfo(np.float64).max / 2


_KINDS = ("truncate_only", "averaging", "linear", "interpolate")


@dataclass(frozen=True)
class SmoothingStrategy:
    """Which spectrum flattening to apply: ``rho`` (default 5.0) goes only with
    ``linear``, ``tau`` (default 0.5) only with ``interpolate``."""

    kind: str
    rho: float | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(
                f"unknown smoothing kind {self.kind!r}, expected one of {_KINDS}"
            )
        for param, kind, default in (("rho", "linear", 5.0), ("tau", "interpolate", 0.5)):
            if self.kind == kind and getattr(self, param) is None:
                object.__setattr__(self, param, default)
            elif self.kind != kind and getattr(self, param) is not None:
                raise ValidationError(
                    f"{param} applies only to smoothing kind {kind!r}, not {self.kind!r}")
        if self.kind == "linear" and not self.rho > 1:
            raise ValidationError("linear smoothing requires rho > 1")
        if self.kind == "interpolate" and not 0 <= self.tau <= 1:
            raise ValidationError("interpolate requires tau in [0, 1]")


# dtypes an fft input is kept in; any other is converted to float64, which
# leaves the float64 difference unchanged
_STORED = (np.dtype(np.float32), np.dtype(np.float64))


def from_fft_delta(W_ft, W_0, name: str = "", labels=("W_ft", "W_0")) -> TaskVector:
    """Task vector from a fully fine-tuned weight and its base: W_ft - W_0.

    Keeps both inputs, not their difference: ``delta`` takes the difference
    in float64 on each read, without converting either input first. A
    float32 or float64 input keeps its dtype, and one that is read-only,
    C-contiguous and owns its data (as ``read_container`` returns them) is
    kept uncopied, so a base shared by several tasks is held once. Each
    input must be a finite matrix; the difference is formed here only when
    max|W_ft| + max|W_0| does not rule out an overflow. ``labels`` name the
    inputs in error messages.
    """
    W_ft, W_0 = np.asarray(W_ft), np.asarray(W_0)
    if W_ft.shape != W_0.shape:
        raise ValidationError(
            f"{labels[0]} has shape {W_ft.shape} vs {labels[1]} {W_0.shape}"
        )
    W_ft, W_0 = _frozen(W_ft, labels[0], _STORED), _frozen(W_0, labels[1], _STORED)
    tv = object.__new__(TaskVector)
    tv._set(name, None, None, (W_ft, W_0))
    tv._check_finite(_abs_max(W_ft) + _abs_max(W_0))
    return tv


def from_lora_factors(B, A, name: str = "", labels=("B", "A")) -> TaskVector:
    """Task vector from LoRA factors B (m x p) and A (p x n), with delta = B A.

    ``labels`` name the factors in error messages. The product is not
    formed here (see ``TaskVector``).
    """
    _product_shape(np.shape(B), np.shape(A), labels)
    B, A = _frozen(B, labels[0]), _frozen(A, labels[1])
    tv = object.__new__(TaskVector)
    tv._set(name, B.shape[1], (B, A), None)
    tv._check_finite(B.shape[1] * _abs_max(B) * _abs_max(A))
    return tv


def _product_shape(b_shape, a_shape, labels) -> tuple[int, int]:
    """Shape (m, n) of B A for factors of shapes (m, p) and (p, n), p >= 1, else a ValidationError."""
    if len(b_shape) != 2 or len(a_shape) != 2 or b_shape[1] != a_shape[0]:
        raise ValidationError(
            f"{labels[0]} {b_shape} and {labels[1]} {a_shape} are not 2-D factors of one product"
        )
    if b_shape[1] == 0:
        raise ValidationError(
            f"{labels[0]} {b_shape} and {labels[1]} {a_shape} have inner dimension 0"
        )
    return b_shape[0], a_shape[1]


def _negligible(sigma, shape, top):
    """Where a singular value of an (m, n) matrix is round-off: sigma <= max(m, n) eps top."""
    return sigma <= max(shape) * np.finfo(np.float64).eps * top


def _factor_svd(B: np.ndarray, A: np.ndarray, r: int) -> SvdTriplet | None:
    """Rank-r SVD of B A from the factors, or None where the dense SVD must decide.

    With B = Q_B R_B and A^T = Q_A R_A, B A = Q_B (R_B R_A^T) Q_A^T, so the
    SVD of the small core gives the product's: U = Q_B U_c, V = Q_A V_c.
    None when r is not a valid rank of the core, when the core's r-th
    singular value is ``_negligible`` against s[0] (the leading directions
    are then not determined by the product alone), or when the core's SVD
    does not converge, so the dense path reports it.
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
    if _negligible(s[r - 1], (m, n), s[0]):
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
    smax, smin = sigma[0], sigma[-1]
    # a zero tail makes the spectrum ratio infinite; the clamp handles it
    ratio = rho if smin == 0 else min(smax / smin, rho)
    w = ratio + np.arange(r) * (1.0 - ratio) / max(r - 1, 1)
    return w / w.sum()


def smooth_energy(kd: SvdTriplet, s: SmoothingStrategy) -> SvdTriplet:
    """Return a copy of ``kd`` with its spectrum flattened per strategy ``s``.

    All strategies preserve the total energy (the plain sum of singular
    values) and leave the singular vectors untouched. They smooth the live entries
    only: a dead one (``stack_bases``' rule on the task) keeps its value:

    - ``truncate_only``: spectrum unchanged (the truncation already
      happened at decomposition time).
    - ``averaging``: every entry replaced by the mean, ``interpolate(0)``.
    - ``linear(rho)``: linearly decreasing weights whose endpoint ratio is
      the spectrum's own max/min ratio clamped at rho, normalized to sum 1
      and scaled by the total energy.
    - ``interpolate(tau)``: tau * sigma + (1 - tau) * mean(sigma).
    """
    if s.kind == "truncate_only":
        return kd
    new = np.array(kd.sigma)
    live = ~_negligible(new, kd.source_shape, new.max(initial=0.0))
    if live.any():
        sigma = new[live]
        if s.kind == "linear":
            new[live] = sigma.sum() * _linear_weights(sigma, s.rho)
        else:  # averaging is interpolation at tau = 0
            tau = s.tau if s.kind == "interpolate" else 0.0
            new[live] = tau * sigma + (1.0 - tau) * sigma.mean()
    return SvdTriplet(kd.U, new, kd.V)


def reconstruct(kd: SvdTriplet) -> np.ndarray:
    """Dense matrix U diag(sigma) V^T, of shape ``kd.source_shape``."""
    return (kd.U * kd.sigma) @ kd.V.T


def stack_bases(decomps) -> tuple[np.ndarray, np.ndarray]:
    """Column-concatenated singular bases ([U_1..U_T], [V_1..V_T]) in input order.

    A dead triplet, with sigma <= max(m, n) * eps * sigma_max over all tasks,
    gets zero columns: its directions are arbitrary and add nothing.
    """
    decomps = list(decomps)
    if not decomps:
        raise ValidationError("at least one decomposition required")
    for kd in decomps:
        if not isinstance(kd, SvdTriplet):
            raise ValidationError(f"expected SvdTriplet, got {type(kd).__name__}")
    shapes = {kd.source_shape for kd in decomps}
    if len(shapes) != 1:
        raise ValidationError(f"decompositions have mixed ambient shapes {sorted(shapes)}")
    Ucat, Vcat = np.hstack([kd.U for kd in decomps]), np.hstack([kd.V for kd in decomps])
    sigma = np.concatenate([kd.sigma for kd in decomps])
    dead = _negligible(sigma, decomps[0].source_shape, sigma.max())
    Ucat[:, dead] = Vcat[:, dead] = 0.0
    return Ucat, Vcat
