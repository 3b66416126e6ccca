"""Deterministic dense linear-algebra kernels.

Everything downstream (decomposition, cover construction, the basis
optimizer) is built on the four operations here. All kernels compute in
64-bit floats regardless of the precision tensors were stored in, and all
are pure: identical inputs give bitwise-identical outputs within a process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "SvdTriplet",
    "as_matrix",
    "truncated_svd",
    "whiten",
    "matrix_exp_skew",
    "orthogonal_complement_sample",
]

_ORTHO_TOL = 1e-8

# truncated_svd's eigh fast path gives way to the dense SVD unless the Gram
# gap at the cut is wide enough: lambda_{r-1} - lambda_r must exceed
# _SVD_GRAM_GAP * sigma_0 * sigma_{r-1}. The fast path's subspace error
# grows as eps * lambda_0 / (lambda_{r-1} - lambda_r), so both a small
# sigma_{r-1} / sigma_0 and a narrow gap fail the guard. Above the bound the
# rank-r part measured within 3e-11 relative of the dense SVD on synthetic
# spectra.
_SVD_GRAM_GAP = 1e-4


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 C-contiguous 2-D array.

    Parameters
    ----------
    a : array_like
        Anything numpy can interpret as a matrix.
    name : str
        Label used in error messages.

    Raises
    ------
    ValidationError
        If the value is not 2-D or contains NaN/Inf entries.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def _sign_normalize(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip (U[:,j], V[:,j]) pairs so each U column's largest-|.| entry is positive.

    Ties are broken by the lowest row index (argmax returns the first hit).
    Flipping both sides of a pair leaves U diag(s) V^T unchanged, so this is
    a pure gauge fix that makes factorizations reproducible.
    """
    idx = np.argmax(np.abs(U), axis=0)
    flip = U[idx, np.arange(U.shape[1])] < 0
    if np.any(flip):
        U = U.copy()
        V = V.copy()
        U[:, flip] *= -1.0
        V[:, flip] *= -1.0
    return U, V


@dataclass(frozen=True)
class SvdTriplet:
    """Rank-r factor triplet (U, sigma, V) with deterministic column signs.

    U is m x r and V is n x r with orthonormal columns; sigma is
    non-negative and non-increasing. On construction the columns are
    sign-normalized (largest-magnitude entry of each U column positive,
    V flipped jointly) and the arrays are frozen read-only.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = as_matrix(self.U, "U").copy()
        V = as_matrix(self.V, "V").copy()
        sigma = _checked_sigma(self.sigma, U.shape[1], V.shape[1])
        _check_orthonormal(U, "U")
        _check_orthonormal(V, "V")
        U, V = _sign_normalize(U, V)
        for arr in (U, sigma, V):
            arr.setflags(write=False)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "V", V)

    @property
    def rank(self) -> int:
        return self.sigma.size

    def _with_sigma(self, sigma) -> "SvdTriplet":
        """This triplet's U and V, already validated and frozen, with a new spectrum.

        Only ``sigma`` is checked; the sign rule depends on U alone, so the
        shared columns keep it.
        """
        sigma = _checked_sigma(sigma, self.U.shape[1], self.V.shape[1])
        sigma.setflags(write=False)
        out = object.__new__(SvdTriplet)
        object.__setattr__(out, "U", self.U)
        object.__setattr__(out, "sigma", sigma)
        object.__setattr__(out, "V", self.V)
        return out


def _check_orthonormal(mat: np.ndarray, label: str) -> None:
    """Reject ``mat`` unless its columns are orthonormal within ``_ORTHO_TOL``."""
    if np.abs(mat.T @ mat - np.eye(mat.shape[1])).max() > _ORTHO_TOL:
        raise ValidationError(f"{label} columns are not orthonormal")


def _checked_sigma(sigma, u_cols: int, v_cols: int) -> np.ndarray:
    """A float64 copy of ``sigma`` after the SvdTriplet spectrum checks."""
    sigma = np.array(sigma, dtype=np.float64)
    if sigma.ndim != 1:
        raise ValidationError("sigma must be a 1-D vector")
    if not np.all(np.isfinite(sigma)):
        raise ValidationError("sigma contains non-finite entries")
    r = sigma.size
    if u_cols != r or v_cols != r:
        raise ValidationError(
            f"rank mismatch: U has {u_cols} columns, V has "
            f"{v_cols}, sigma has {r} entries"
        )
    if np.any(sigma < 0):
        raise ValidationError("sigma entries must be non-negative")
    if np.any(np.diff(sigma) > 0):
        raise ValidationError("sigma must be sorted non-increasing")
    return sigma


def _dense_svd(M: np.ndarray):
    """Thin SVD of M; non-convergence is a NumericalError."""
    try:
        return np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from None


def _gram_svd(M: np.ndarray, r: int):
    """Rank-r (U, sigma, V) of M from the smaller Gram matrix, or None.

    With A the taller of M and M^T, the r leading eigenvectors Q of A^T A
    are taken in stable descending order, so tied eigenvalues keep eigh's
    column order; the thin SVD of A Q (Rayleigh-Ritz) gives A's left factor
    and spectrum and rotates Q into its right factor. None when r leaves no
    column of A out (the small SVD would be as large as the dense one), the
    guard fails, or a LAPACK routine does not converge.
    """
    m, n = M.shape
    A = M if m >= n else M.T
    if r >= A.shape[1]:
        return None
    try:
        w, Q = np.linalg.eigh(A.T @ A)
        order = np.argsort(-w, kind="stable")
        lead, cut, rest = w[order[0]], w[order[r - 1]], w[order[r]]
        if not (cut > 0 and cut - rest > _SVD_GRAM_GAP * np.sqrt(lead * cut)):
            return None
        Q = Q[:, order[:r]]
        L, s, Wt = np.linalg.svd(A @ Q, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    R = Q @ Wt.T
    return (L, s, R) if m >= n else (R, s, L)


def truncated_svd(M, r: int) -> SvdTriplet:
    """Best rank-r approximation factors of a dense matrix.

    The factors come from an eigendecomposition of the smaller Gram matrix
    (M^T M or M M^T) followed by a Rayleigh-Ritz step: the thin SVD of M
    times the r leading eigenvectors. The dense SVD of M is taken instead
    when r = min(m, n), when the Gram gap at the cut is at or below
    ``_SVD_GRAM_GAP`` * sigma_0 * sigma_{r-1}, or when the fast path does
    not converge.

    Parameters
    ----------
    M : array_like, shape (m, n)
    r : int
        Number of leading singular triplets to keep, 1 <= r <= min(m, n).

    Returns
    -------
    SvdTriplet
        U diag(sigma) V^T is the closest rank-r matrix to M in Frobenius
        norm, with the package sign convention applied.

    Raises
    ------
    NumericalError
        If the dense SVD does not converge.
    """
    M = as_matrix(M, "M")
    m, n = M.shape
    if not isinstance(r, (int, np.integer)) or not 1 <= r <= min(m, n):
        raise ValidationError(
            f"rank must be an integer in [1, {min(m, n)}], got {r!r}"
        )
    factors = _gram_svd(M, r)
    if factors is None:
        U, s, Vt = _dense_svd(M)
        factors = (U[:, :r], s[:r], Vt[:r].T)
    return SvdTriplet(*factors)


def whiten(M) -> np.ndarray:
    """Polar orthonormal factor: the closest matrix with orthonormal columns.

    With thin SVD M = P S Q^T the result is P Q^T. Among all d x k matrices
    with orthonormal columns it maximizes trace(W^T M). For rank-deficient
    input the factor is not unique; the output is then whatever the
    deterministic SVD routine yields, which is reproducible but arbitrary
    in the null directions. A non-converging SVD is a NumericalError.
    """
    M = as_matrix(M, "M")
    d, k = M.shape
    if d < k:
        raise ValidationError(f"whiten needs d >= k, got shape {M.shape}")
    P, _, Qt = _dense_svd(M)
    return P @ Qt


def matrix_exp_skew(A) -> np.ndarray:
    """Orthogonal matrix exp(A - A^T) for a square input A."""
    # imported here so that commands other than optimize-basis never load scipy
    import scipy.linalg

    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValidationError(f"square matrix required, got shape {A.shape}")
    return scipy.linalg.expm(A - A.T)


def orthogonal_complement_sample(U, count: int, seed: int) -> np.ndarray:
    """Sample an orthonormal basis of ``count`` directions orthogonal to U.

    Draws a Gaussian block with the seeded generator, projects out the span
    of U, and orthonormalizes (twice, for numerical cleanliness). The output
    is deterministic for a given (U, count, seed).
    """
    U = as_matrix(U, "U")
    d, r = U.shape
    if count < 1:
        raise ValidationError("count must be at least 1")
    if r + count > d:
        raise ValidationError(
            f"ambient dimension too small: need {r}+{count} <= {d}"
        )
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, count))
    for _ in range(2):
        G = G - U @ (U.T @ G)
        G, R = np.linalg.qr(G)
        # canonicalize QR signs so the sample is stable
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        G = G * signs
    if np.abs(U.T @ G).max() > _ORTHO_TOL:
        raise NumericalError("complement sample failed orthogonality check")
    return G
