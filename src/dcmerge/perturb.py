"""Controlled perturbations of a decomposition's spectrum and directions.

Both perturbations take a parameter p in [0, 1] that sets how much of the
original structure survives: p = 1 returns the input unchanged, p = 0
replaces it entirely (with the flat spectrum's orthogonal part, or with
directions drawn from the orthogonal complement). They exist so that
merging behavior can be probed under known, graded amounts of damage.
``perturb_task_vector`` applies them to a task vector as ``dcmerge perturb`` does.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import SvdTriplet, _all_finite, _check_seed, _unit_scaled, orthogonal_complement_sample
from .metrics import cos_sim, dir_sim
from .task_vector import _negligible, decompose


def _check_p_and_seed(p: float, seed: int | None) -> None:
    """The rules both perturbations share: p in [0, 1] and the package's seed rule."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be in [0, 1], got {p}")
    _check_seed(seed)


def _check_room(shape, r: int, label: str) -> None:
    """The rule of ``direction``: the complements of rank r need 2r <= min(m, n)."""
    if 2 * r > min(shape):
        raise ValidationError(f"{label} needs 2 x rank <= min(m, n); the largest rank that "
                              f"fits is {min(shape) // 2}")


def perturb_rank(tv, kind: str, rank: int | None = None) -> int:
    """``perturb_task_vector``'s working rank for a TaskVector or a header's PairedMatrix:
    ``rank`` clipped to min(m, n), else the LoRA rank, else min(m, n) // 4 (at least 1).
    'direction' needs 2r <= min(m, n) (``direction_perturb``'s room), else a ValidationError."""
    if kind not in ("energy", "direction"):
        raise ValidationError(f"kind must be 'energy' or 'direction', got {kind!r}")
    if rank is not None and (type(rank) is not int or rank < 1):
        raise ValidationError(f"rank must be a positive int or None, got {rank!r}")
    m, n = tv.shape
    r = min(rank or tv.lora_rank or max(1, min(m, n) // 4), m, n)
    if kind == "direction":
        clip = f" (rank {rank} clipped to min(m, n))" if (rank or 0) > r else ""
        _check_room(tv.shape, r, f"tensor {tv.name!r} {tv.shape}: kind 'direction' at "
                                 f"working rank {r}{clip}")
    return r


def perturb_task_vector(tv, kind: str, p: float, seed: int, rank: int | None = None):
    """((U, sigma, V), achieved) of ``tv`` perturbed by ``kind`` to similarity ``p``, or None.

    U diag(sigma) V^T is the perturbed delta at ``perturb_rank`` and ``achieved`` the
    spectra's cosine or ``dir_sim``. 'energy' moves energy between live entries only
    (``smooth_energy``'s rule), so sigma may come out unsorted or negative, and one live
    entry below p = 1 is a ValidationError. An all-zero spectrum gives None.
    """
    _check_p_and_seed(p, seed)
    kd = decompose(tv, perturb_rank(tv, kind, rank))
    if not kd.sigma.any():
        return None
    if kind == "direction":
        out = direction_perturb(kd, p, seed)
        return (out.U, out.sigma, out.V), dir_sim(kd, out)
    live = ~_negligible(kd.sigma, kd.source_shape, kd.sigma[0])
    sigma = kd.sigma.copy()
    try:
        sigma[live] = energy_perturb(kd.sigma[live], p, fallback_seed=seed)
    except ValidationError as exc:  # p and seed are valid, so: one live entry
        hint = "pass rank 2 or more" if kd.rank == 1 else "its delta has rank 1"
        raise ValidationError(f"{tv.name or 'task vector'}: {exc}; {hint}") from None
    return (kd.U, sigma, kd.V), cos_sim(kd.sigma[None], sigma[None])


def energy_perturb(
    sigma: np.ndarray,
    p: float,
    fallback_seed: int | None = None,
) -> np.ndarray:
    """Rotate a spectrum (finite, non-negative) toward the flat one, keeping its norm.

    The result is ||sigma|| * (p * s + sqrt(1 - p^2) * s_perp) where s is
    the unit spectrum and s_perp is the unit component of the flat
    spectrum mean(sigma) * 1 orthogonal to s. By construction the output
    has the same Euclidean norm as the input and cosine exactly p against
    it. At p = 1 the input comes back unchanged; below 1 a one-entry
    spectrum, which has no orthogonal direction, is a ValidationError.

    A flat spectrum has no such component to rotate toward; with
    ``fallback_seed`` set, a seeded Gaussian direction is projected and
    used instead, otherwise this is reported as a NumericalError.
    """
    _check_p_and_seed(p, fallback_seed)
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValidationError("sigma must be a non-empty 1-D array")
    if not (_all_finite(sigma) and sigma.min() >= 0):
        raise ValidationError("sigma must be finite and non-negative")
    # the norm squares every entry, so it is taken at a power-of-two scale undone at the end
    unit, e = _unit_scaled(sigma)
    norm = np.linalg.norm(unit)
    if norm == 0.0:
        raise NumericalError("cannot perturb an all-zero spectrum")
    s = unit / norm

    ref = np.full_like(unit, float(np.mean(unit)))
    if p == 1.0:
        return sigma.copy()
    if sigma.size == 1:
        raise ValidationError("a one-entry spectrum has no direction to rotate toward below p = 1")

    resid = ref - (ref @ s) * s
    if np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(ref):
        if fallback_seed is None:
            raise NumericalError(
                "the spectrum is flat, so the flat reference has no component "
                "orthogonal to it (pass fallback_seed to draw a direction)"
            )
        rng = np.random.default_rng(fallback_seed)
        for _ in range(8):
            g = rng.standard_normal(sigma.size)
            resid = g - (g @ s) * s
            if np.linalg.norm(resid) >= 1e-8:
                break
        else:
            raise NumericalError("failed to draw a direction orthogonal to sigma")
    s_perp = resid / np.linalg.norm(resid)
    return np.ldexp(norm * (p * s + np.sqrt(1.0 - p * p) * s_perp), e)


def direction_perturb(kd: SvdTriplet, p: float, seed: int) -> SvdTriplet:
    """Blend singular directions with fresh orthogonal-complement ones.

    Each side is replaced by sqrt(p) * original + sqrt(1 - p) * complement,
    where the complement columns are orthonormal and orthogonal to the
    originals, so the blended columns stay orthonormal without any
    re-orthogonalization. The directional similarity between the input and
    the output is exactly p (every original dyad overlaps its blended
    counterpart by sqrt(p) on each side and the cross terms vanish).

    Needs ambient room for the complements: 2r <= min(m, n).
    """
    _check_p_and_seed(p, seed)
    if not isinstance(kd, SvdTriplet):
        raise ValidationError("kd must be an SvdTriplet")
    r = kd.rank
    _check_room(kd.source_shape, r, f"a rank-{r} triplet of shape {kd.source_shape}")
    seeds = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    U_perp = orthogonal_complement_sample(kd.U, r, int(seeds[0]))
    V_perp = orthogonal_complement_sample(kd.V, r, int(seeds[1]))
    root_p = np.sqrt(p)
    root_q = np.sqrt(1.0 - p)
    U_new = root_p * kd.U + root_q * U_perp
    V_new = root_p * kd.V + root_q * V_perp
    return SvdTriplet(U=U_new, sigma=kd.sigma, V=V_new)
