"""Deterministic dense linear-algebra kernels.

Everything downstream (decomposition, cover construction, the basis
optimizer) is built on the kernels here, and ``SvdTriplet`` is the one
type for a rank-r decomposition. All kernels compute in
64-bit floats regardless of the precision tensors were stored in, and all
are pure: identical inputs give bitwise-identical outputs within a process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_ORTHO_TOL = 1e-8
_WHITEN_CUT = 1e-8  # whiten drops the directions at or below this share of S[0]
_WHITEN_GRAM_FLOOR = 1e-2  # kappa < 10 above it, so the Gram path's rounding is near 1e-14
# the Gram square root needs lambda_min > this * lambda_max: its rounding grows as
# 1 / (2 sqrt(lambda_min)), an inverse root's (whiten's Gram path) as lambda_min^(-3/2)
_GRAM_ROOT_FLOOR = 1e-10

# truncated_svd's eigh fast path gives way to the dense SVD unless the Gram
# gap at the cut is wide enough: lambda_{r-1} - lambda_r must exceed
# _SVD_GRAM_GAP * sigma_0 * sigma_{r-1}. The fast path's subspace error
# grows as eps * lambda_0 / (lambda_{r-1} - lambda_r), so both a small
# sigma_{r-1} / sigma_0 and a narrow gap fail the guard. Above the bound the
# rank-r part measured within 3e-11 relative of the dense SVD on synthetic
# spectra.
_SVD_GRAM_GAP = 1e-4

_SCALE_EXP = 128  # within 2^(+-128) of 1, squares and their sums stay finite and normal


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
    return _checked_matrix(np.asarray(a, dtype=np.float64), name)


def _checked_matrix(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValidationError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def _all_finite(arr: np.ndarray) -> bool:
    """Whether no entry is NaN or Inf, from the extremes: no array-sized temporary."""
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _abs_max(arr: np.ndarray) -> float:
    """max|arr| (0 for an empty array), without an array-sized temporary."""
    return max(-float(arr.min()), float(arr.max())) if arr.size else 0.0


def _check_count(value, hi: int, name: str) -> None:
    """The rule of a number of columns (a rank, a width, a count): an integer in [1, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 1 <= value <= hi:
        raise ValidationError(f"{name} must be an integer in [1, {hi}], got {value!r}")


def _check_seed(seed) -> None:
    """The package's seed rule: None, or not negative."""
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")


def _unit_scaled(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(arr * 2^-e, e), exact: 2^e puts max|arr| in [0.5, 1) where it lies outside
    2^(+-_SCALE_EXP), and elsewhere e = 0 and ``arr`` comes back uncopied."""
    e = int(np.frexp(_abs_max(arr))[1])
    return (np.ldexp(arr, -e), e) if abs(e) > _SCALE_EXP else (arr, 0)


def _frozen(a, label: str, keep=()) -> np.ndarray:
    """``as_matrix(a)``, read-only: copied unless it is so and owns its data, or is new.

    An array whose dtype is in ``keep`` is checked the same way but keeps its dtype.
    """
    src = np.asarray(a)
    arr = _checked_matrix(src, label) if src.dtype in keep else as_matrix(src, label)
    if arr.base is not None or (arr is src and arr.flags.writeable):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _sign_normalize(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip (U[:,j], V[:,j]) pairs so each U column's largest-|.| entry is positive.

    Ties are broken by the lowest row index (argmax returns the first hit).
    Flipping both sides of a pair leaves U diag(s) V^T unchanged, so this is
    a pure gauge fix that makes factorizations reproducible. Flipped pairs
    come back as read-only copies.
    """
    idx = np.argmax(np.abs(U), axis=0)
    flip = U[idx, np.arange(U.shape[1])] < 0
    if np.any(flip):
        signs = np.where(flip, -1.0, 1.0)
        U, V = U * signs, V * signs
        U.setflags(write=False)
        V.setflags(write=False)
    return U, V


@dataclass(frozen=True)
class SvdTriplet:
    """Rank-r factor triplet (U, sigma, V) with deterministic column signs.

    U is m x r and V is n x r with orthonormal columns; sigma is
    non-negative and non-increasing. On construction the columns are
    sign-normalized (largest-magnitude entry of each U column positive,
    V flipped jointly) and the arrays are frozen read-only; a triplet built
    from another's U and V keeps them uncopied.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = _frozen(self.U, "U")
        V = _frozen(self.V, "V")
        sigma = np.array(self.sigma, dtype=np.float64)
        if sigma.ndim != 1:
            raise ValidationError("sigma must be a 1-D vector")
        if not _all_finite(sigma):
            raise ValidationError("sigma contains non-finite entries")
        r = sigma.size
        if U.shape[1] != r or V.shape[1] != r:
            raise ValidationError(
                f"rank mismatch: U has {U.shape[1]} columns, V has "
                f"{V.shape[1]}, sigma has {r} entries"
            )
        _check_count(r, min(U.shape[0], V.shape[0]), "rank")
        if np.any(sigma < 0):
            raise ValidationError("sigma entries must be non-negative")
        if np.any(np.diff(sigma) > 0):
            raise ValidationError("sigma must be sorted non-increasing")
        sigma.setflags(write=False)
        _check_orthonormal(U, "U")
        _check_orthonormal(V, "V")
        U, V = _sign_normalize(U, V)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "V", V)

    @property
    def rank(self) -> int:
        return self.sigma.size

    @property
    def source_shape(self) -> tuple[int, int]:
        """Shape (m, n) of the matrix U diag(sigma) V^T."""
        return (self.U.shape[0], self.V.shape[0])


def _check_orthonormal(mat: np.ndarray, label: str) -> None:
    """Reject ``mat`` unless its columns are orthonormal within ``_ORTHO_TOL``.

    A NaN deviation fails the test too.
    """
    if not np.abs(mat.T @ mat - np.eye(mat.shape[1])).max() <= _ORTHO_TOL:
        raise ValidationError(f"{label} columns are not orthonormal")


def _dense_svd(M: np.ndarray, compute_uv: bool = True):
    """Thin SVD of M, or its singular values alone; non-convergence is a NumericalError."""
    try:
        return np.linalg.svd(M, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from None


def _gram_eigh(A: np.ndarray):
    """(w, Q) with A^T A = Q diag(w) Q^T, w ascending; None where ``eigh`` does not converge."""
    try:
        return np.linalg.eigh(A.T @ A)
    except np.linalg.LinAlgError:
        return None


def _gram_svd(M: np.ndarray, r: int):
    """Rank-r (U, sigma, V) of M from the smaller Gram matrix, or None.

    With A the taller of M and M^T, the r leading eigenvectors Q of A^T A
    are taken in stable descending order, so tied eigenvalues keep eigh's
    column order; the thin SVD of A Q (Rayleigh-Ritz) gives A's left factor
    and spectrum and rotates Q into its right factor, all on ``_unit_scaled(A)``
    so that no input scale over- or underflows the Gram. None when r leaves
    no column of A out (the small SVD would be as large as the dense one),
    the guard fails, or a LAPACK routine does not converge.
    """
    m, n = M.shape
    if r >= min(m, n):
        return None
    A, e = _unit_scaled(M if m >= n else M.T)
    if (eig := _gram_eigh(A)) is None:
        return None
    w, Q = eig
    order = np.argsort(-w, kind="stable")
    lead, cut, rest = w[order[0]], w[order[r - 1]], w[order[r]]
    if not (cut > 0 and cut - rest > _SVD_GRAM_GAP * np.sqrt(lead * cut)):
        return None
    Q = Q[:, order[:r]]
    try:
        L, s, Wt = np.linalg.svd(A @ Q, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    R, s = Q @ Wt.T, np.ldexp(s, e)
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
    _check_count(r, min(m, n), "rank")
    factors = _gram_svd(M, r)
    if factors is None:
        U, s, Vt = _dense_svd(M)
        factors = (U[:, :r], s[:r], Vt[:r].T)
    return SvdTriplet(*factors)


def whiten(M) -> np.ndarray:
    """Rank-revealing polar factor of M, a d x k partial isometry.

    With thin SVD M = P S Q^T the result is P_j Q_j^T over the j singular
    values above ``_WHITEN_CUT`` * S[0]; for full-rank input that is P Q^T,
    which maximizes trace(W^T M) over orthonormal columns. A cut direction
    is dropped, not completed arbitrarily: duplicate columns share one
    direction, zero ones map to zero, and the result jumps where a singular
    value crosses the cut. A non-converging SVD is a NumericalError. A tall M
    (d >= 2k) whose Gram, of A = ``_unit_scaled(M)``, has lambda_min above
    ``_WHITEN_GRAM_FLOOR`` * lambda_max gives it as A (A^T A)^(-1/2) from ``eigh``.
    """
    M = as_matrix(M, "M")
    if M.shape[0] < M.shape[1]:
        raise ValidationError(f"whiten needs d >= k, got shape {M.shape}")
    return _polar_frame(M, basis=True)[0]


def _polar_frame(M: np.ndarray, basis: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """(W, W^T M) for W = ``whiten(M)``, or (None, W^T M) without a ``basis``.

    W^T M = (M^T M)^(1/2) comes from one Gram ``eigh`` without a basis at any shape above
    ``_GRAM_ROOT_FLOOR``, and W from it for d >= 2k above ``_WHITEN_GRAM_FLOOR`` (floors on
    lambda_min / lambda_max); anything else, or a failed ``eigh``, takes the SVD and its cut."""
    d, k = M.shape
    A, e = _unit_scaled(M)
    eig = _gram_eigh(A) if d >= 2 * k > 0 or not basis else None
    floor = _WHITEN_GRAM_FLOOR if basis else _GRAM_ROOT_FLOOR
    if eig is not None and eig[0][0] > floor * eig[0][-1]:
        w, Q = eig
        if not basis:
            return None, np.ldexp((Q * np.sqrt(w)) @ Q.T, e)
        W = A @ ((Q / np.sqrt(w)) @ Q.T)
    else:
        P, S, Qt = _dense_svd(M)
        j = np.count_nonzero(S > _WHITEN_CUT * S.max(initial=0.0))
        W = P[:, :j] @ Qt[:j]
    return (W if basis else None), W.T @ M


def _skew_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary eigendecomposition of the skew matrix S = A - A^T.

    Returns real ``w`` and unitary ``Q`` from the Hermitian eigenproblem of
    i S, so that S = Q diag(-i w) Q^H. A non-converging ``eigh`` is a
    NumericalError.
    """
    try:
        return np.linalg.eigh(1j * (A - A.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh did not converge: {exc}") from None


def _skew_exp(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """exp(S) = Re(Q diag(e^{-i w}) Q^H) from ``_skew_eigh``'s factors."""
    return ((Q * np.exp(-1j * w)) @ Q.conj().T).real


def _skew_exp_adjoint(w: np.ndarray, Q: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Adjoint of exp's derivative at S, applied to E: Dexp(S^T)[E].

    S^T = Q diag(i w) Q^H is normal, so its Frechet derivative is
    Q (Phi o (Q^H E Q)) Q^H with the divided differences
    Phi_jk = (e^{i w_j} - e^{i w_k}) / (i (w_j - w_k))
           = e^{i (w_j + w_k) / 2} sinc((w_j - w_k) / (2 pi)),
    whose diagonal is e^{i w_j}; the sinc form needs no branch for nearly
    equal eigenvalues.
    """
    half = 0.5 * w
    phi = np.exp(1j * (half[:, None] + half[None, :]))
    phi *= np.sinc((w[:, None] - w[None, :]) / (2.0 * np.pi))
    Qh = Q.conj().T
    return (Q @ (phi * (Qh @ E @ Q)) @ Qh).real


def matrix_exp_skew(A) -> np.ndarray:
    """Orthogonal matrix exp(A - A^T) for a square input A.

    Computed from one unitary eigendecomposition of the skew matrix
    (``_skew_eigh``); a non-converging ``eigh`` is a NumericalError.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValidationError(f"square matrix required, got shape {A.shape}")
    return _skew_exp(*_skew_eigh(A))


def orthogonal_complement_sample(U, count: int, seed: int) -> np.ndarray:
    """Sample an orthonormal basis of ``count`` directions orthogonal to U.

    Draws a Gaussian block with the seeded generator, projects out the span
    of U, and orthonormalizes (twice, for numerical cleanliness). The output
    is deterministic for a given (U, count, seed). U of shape (d, r) leaves
    room for count <= d - r.
    """
    U = as_matrix(U, "U")
    d, r = U.shape
    _check_count(count, d - r, "count")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, count))
    for _ in range(2):
        G = G - U @ (U.T @ G)
        G, R = np.linalg.qr(G)
        # canonicalize QR signs so the sample is stable
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        G = G * signs
    if np.abs(U.T @ G).max(initial=0.0) > _ORTHO_TOL:
        raise NumericalError("complement sample failed orthogonality check")
    return G
