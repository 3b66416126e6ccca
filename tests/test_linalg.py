import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmerge.errors import NumericalError, ValidationError
from dcmerge.linalg import (
    _SVD_GRAM_GAP,
    SvdTriplet,
    matrix_exp_skew,
    orthogonal_complement_sample,
    truncated_svd,
    whiten,
)


def random_orthonormal(rng, d, k):
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.sign(np.diag(r))


def with_spectrum(rng, m, n, s):
    """An m x n matrix with singular values ``s`` (length min(m, n)) and random vectors."""
    p = min(m, n)
    return (random_orthonormal(rng, m, p) * s) @ random_orthonormal(rng, n, p).T


def dense_truncated_svd(M, r):
    """Reference: the leading r triplets of numpy's dense SVD, sign-normalized."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return SvdTriplet(U[:, :r], s[:r], Vt[:r].T)


def fail(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


# truncated_svd


def test_truncated_svd_identity():
    t = truncated_svd(np.eye(2), 2)
    np.testing.assert_allclose(t.U, np.eye(2))
    np.testing.assert_allclose(t.sigma, [1.0, 1.0])
    np.testing.assert_allclose(t.V, np.eye(2))


def test_truncated_svd_two_dyad_sum_directions():
    # sum of [1,0] dyad and the [0.1104, 0.9939] dyad
    m = np.array([[1.0121, 0.1098], [0.1098, 0.9878]])
    t = truncated_svd(m, 2)
    expected = np.array([[0.7451, 0.6669], [0.6669, -0.7451]])
    for j in range(2):
        col = t.U[:, j]
        ref = expected[:, j]
        err = min(np.abs(col - ref).max(), np.abs(col + ref).max())
        assert err < 2e-3
        # deterministic orientation: the dominant entry of each column is positive
        assert col[np.argmax(np.abs(col))] > 0


def test_truncated_svd_exact_rank_two_residual():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
    t = truncated_svd(m, 2)
    recon = (t.U * t.sigma) @ t.V.T
    assert np.linalg.norm(m - recon) <= 1e-8


def test_truncated_svd_residual_equals_spectrum_tail():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.standard_normal((9, 7))
        full = np.linalg.svd(m, compute_uv=False)
        for r in (1, 3, 5):
            t = truncated_svd(m, r)
            resid = np.linalg.norm(m - (t.U * t.sigma) @ t.V.T) ** 2
            tail = np.sum(full[r:] ** 2)
            np.testing.assert_allclose(resid, tail, rtol=1e-6, atol=1e-12)


def test_truncated_svd_is_pure():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 5))
    a = truncated_svd(m, 3)
    b = truncated_svd(m, 3)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.V, b.V)


@settings(max_examples=80)
@given(
    shape=st.sampled_from(["tall", "wide", "square"]),
    long=st.integers(1, 40),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_svd_agrees_with_the_dense_svd(shape, long, data, seed):
    short = long if shape == "square" else data.draw(st.integers(1, long), label="short")
    m, n = (long, short) if shape == "tall" else (short, long)
    r = data.draw(st.integers(1, short), label="r")
    # sigma_{r-1} / sigma_0 and the relative gap to sigma_r, which together
    # put the spectrum on either side of the Gram guard
    ratio = 10.0 ** data.draw(st.floats(-6.0, 0.0), label="log10 ratio")
    gap = 10.0 ** data.draw(st.floats(-6.0, -0.3), label="log10 gap")
    rng = np.random.default_rng(seed)
    head = ratio ** (np.arange(r) / max(r - 1, 1))
    tail = head[-1] * (1.0 - gap) * 0.5 ** np.arange(short - r)
    s = np.concatenate([head, tail])
    M = with_spectrum(rng, m, n, 10.0 ** rng.uniform(-3.0, 3.0) * s)
    t = truncated_svd(M, r)
    ref = dense_truncated_svd(M, r)
    if r == short or s[r - 1] ** 2 - s[r] ** 2 <= 0.5 * _SVD_GRAM_GAP * s[0] * s[r - 1]:
        assert np.array_equal(t.U, ref.U)
        assert np.array_equal(t.sigma, ref.sigma)
        assert np.array_equal(t.V, ref.V)
    dense = (ref.U * ref.sigma) @ ref.V.T
    recon = (t.U * t.sigma) @ t.V.T
    assert np.linalg.norm(recon - dense) <= 1e-10 * np.linalg.norm(dense)
    assert np.abs(t.sigma - ref.sigma).max() <= 1e-10 * ref.sigma[0]


def test_gram_path_failures_fall_back_to_the_dense_svd(monkeypatch):
    rng = np.random.default_rng(14)
    M = rng.standard_normal((9, 6))
    want = dense_truncated_svd(M, 3)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    t = truncated_svd(M, 3)
    assert np.array_equal(t.U, want.U)
    assert np.array_equal(t.sigma, want.sigma)
    assert np.array_equal(t.V, want.V)
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalError):
        truncated_svd(M, 3)
    with pytest.raises(NumericalError):
        whiten(M)


def test_truncated_svd_rank_out_of_range():
    m = np.eye(3)
    with pytest.raises(ValidationError):
        truncated_svd(m, 0)
    with pytest.raises(ValidationError):
        truncated_svd(m, 4)


def test_truncated_svd_rejects_non_finite():
    m = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        truncated_svd(m, 1)


# whiten


def test_whiten_fixed_point_on_orthonormal_input():
    rng = np.random.default_rng(6)
    q = random_orthonormal(rng, 7, 3)
    np.testing.assert_allclose(whiten(q), q, atol=1e-10)


def test_whiten_two_dyad_concatenation():
    m = np.array([[1.0, 0.1104], [0.0, 0.9939]])
    w = whiten(m)
    expected = np.array([[0.9985, 0.0553], [-0.0553, 0.9985]])
    np.testing.assert_allclose(w, expected, atol=5e-3)
    # orthonormal output
    np.testing.assert_allclose(w.T @ w, np.eye(2), atol=1e-12)


def test_whiten_maximizes_trace_against_random_bases():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((8, 4))
    best = np.trace(whiten(m).T @ m)
    for _ in range(1000):
        q = random_orthonormal(rng, 8, 4)
        assert np.trace(q.T @ m) <= best + 1e-10


def test_whiten_recovers_orthonormal_factor_under_spd_right_factor():
    # any X = W @ SPD has polar factor exactly W
    rng = np.random.default_rng(8)
    for _ in range(10):
        w = random_orthonormal(rng, 9, 4)
        g = rng.standard_normal((4, 4))
        spd = g.T @ g + np.eye(4)
        np.testing.assert_allclose(whiten(w @ spd), w, atol=1e-8)


def test_whiten_invariant_under_positive_scaling():
    rng = np.random.default_rng(80)
    m = rng.standard_normal((9, 4))
    np.testing.assert_allclose(whiten(3.7 * m), whiten(m), atol=1e-10)


def test_whiten_rejects_wide_input():
    with pytest.raises(ValidationError):
        whiten(np.ones((2, 3)))


# matrix_exp_skew


def test_matrix_exp_skew_zero_is_identity():
    np.testing.assert_allclose(matrix_exp_skew(np.zeros((4, 4))), np.eye(4))


def test_matrix_exp_skew_plane_rotation():
    theta = np.pi / 6
    a = np.array([[0.0, theta], [0.0, 0.0]])  # a - a.T is the plane generator
    expected = np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    )
    np.testing.assert_allclose(matrix_exp_skew(a), expected, atol=1e-12)


def test_matrix_exp_skew_matches_taylor_series():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((8, 8)) * 0.1
    s = a - a.T
    series = np.zeros((8, 8))
    term = np.eye(8)
    for k in range(30):
        series = series + term
        term = term @ s / (k + 1)
    np.testing.assert_allclose(matrix_exp_skew(a), series, atol=1e-10)


def test_matrix_exp_skew_orthogonal_unit_determinant():
    rng = np.random.default_rng(10)
    for d in (2, 5, 16):
        w = matrix_exp_skew(rng.standard_normal((d, d)))
        np.testing.assert_allclose(w.T @ w, np.eye(d), atol=1e-8)
        np.testing.assert_allclose(np.linalg.det(w), 1.0, atol=1e-8)


def test_matrix_exp_skew_rejects_non_square():
    with pytest.raises(ValidationError):
        matrix_exp_skew(np.ones((2, 3)))


# orthogonal_complement_sample


def test_complement_of_first_basis_vector():
    u = np.array([[1.0], [0.0], [0.0]])
    g = orthogonal_complement_sample(u, 1, seed=0)
    assert abs(g[0, 0]) <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(g), 1.0, atol=1e-12)


def test_complement_orthonormal_over_many_draws():
    rng = np.random.default_rng(11)
    for trial in range(100):
        d = int(rng.integers(4, 12))
        r = int(rng.integers(1, d // 2 + 1))
        count = int(rng.integers(1, d - r + 1))
        u = random_orthonormal(rng, d, r)
        g = orthogonal_complement_sample(u, count, seed=trial)
        np.testing.assert_allclose(g.T @ g, np.eye(count), atol=1e-10)
        assert np.abs(u.T @ g).max() <= 1e-8


def test_complement_deterministic_per_seed():
    rng = np.random.default_rng(12)
    u = random_orthonormal(rng, 6, 2)
    a = orthogonal_complement_sample(u, 3, seed=99)
    b = orthogonal_complement_sample(u, 3, seed=99)
    assert np.array_equal(a, b)
    c = orthogonal_complement_sample(u, 3, seed=100)
    assert not np.array_equal(a, c)


def test_complement_needs_ambient_room():
    rng = np.random.default_rng(13)
    u = random_orthonormal(rng, 4, 2)
    with pytest.raises(ValidationError):
        orthogonal_complement_sample(u, 3, seed=0)


# SvdTriplet invariants


def test_svd_triplet_rejects_non_orthonormal_factor():
    with pytest.raises(ValidationError):
        SvdTriplet(U=np.ones((3, 2)), sigma=np.array([2.0, 1.0]), V=np.eye(3)[:, :2])


def test_svd_triplet_rejects_increasing_sigma():
    with pytest.raises(ValidationError):
        SvdTriplet(U=np.eye(3)[:, :2], sigma=np.array([1.0, 2.0]), V=np.eye(3)[:, :2])


def test_svd_triplet_rejects_negative_sigma():
    with pytest.raises(ValidationError):
        SvdTriplet(U=np.eye(3)[:, :2], sigma=np.array([1.0, -0.5]), V=np.eye(3)[:, :2])


def test_svd_triplet_normalizes_column_signs():
    u = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    v = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
    t = SvdTriplet(U=u, sigma=np.array([2.0, 1.0]), V=v)
    # first column pair flips jointly, second keeps U's sign and flips nothing
    np.testing.assert_allclose(t.U[:, 0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(t.V[:, 0], [-1.0, 0.0, 0.0])
    np.testing.assert_allclose(t.U[:, 1], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(t.V[:, 1], [0.0, -1.0, 0.0])


@pytest.mark.parametrize(
    "sigma", [[1.0, 2.0], [1.0, -0.5], [np.nan, 1.0], [1.0], [[2.0, 1.0]]]
)
def test_svd_triplet_trusted_rebuild_still_checks_sigma(sigma):
    t = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    with pytest.raises(ValidationError):
        t._with_sigma(np.array(sigma))


def test_svd_triplet_trusted_rebuild_shares_singular_vectors():
    t = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    new = t._with_sigma([1.5, 1.5])
    assert new.U is t.U and new.V is t.V
    np.testing.assert_array_equal(new.sigma, [1.5, 1.5])
    assert not new.sigma.flags.writeable


def test_svd_triplet_arrays_are_frozen():
    t = truncated_svd(np.eye(3), 2)
    with pytest.raises(ValueError):
        t.U[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.sigma[0] = 5.0
