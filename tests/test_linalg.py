import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmerge.cover import frame
from dcmerge.errors import NumericalError, ValidationError
from dcmerge.linalg import (
    _SVD_GRAM_GAP,
    SvdTriplet,
    _skew_eigh,
    _skew_exp_adjoint,
    as_matrix,
    matrix_exp_skew,
    orthogonal_complement_sample,
    truncated_svd,
    whiten,
)
from dcmerge.task_vector import (
    SmoothingStrategy,
    TaskVector,
    decompose,
    from_lora_factors,
    smooth_energy,
)

from helpers import random_orthonormal


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


def svd_polar(M):
    """Reference: whiten's SVD path, P_j Q_j^T over the singular values above 1e-8 * S[0]."""
    P, S, Qt = np.linalg.svd(M, full_matrices=False)
    j = np.count_nonzero(S > 1e-8 * S.max(initial=0.0))
    return P[:, :j] @ Qt[:j]


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of the ``np.linalg.eigh`` and ``np.linalg.svd`` calls made from here on."""
    counts = Counter()
    for name in ("eigh", "svd"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-162, 1e-14, 1e78, 1e200, 1e300])
def test_truncated_svd_is_scale_equivariant_over_the_float64_range(scale):
    # an unscaled Gram goes subnormal near 1e-162 and overflows past 1e154
    rng = np.random.default_rng(15)
    M = rng.standard_normal((24, 20))
    want = truncated_svd(M, 4)
    # a power of two moves no bit of the input, so none of the result
    e = int(np.frexp(scale)[1])
    got = truncated_svd(np.ldexp(M, e), 4)
    assert np.array_equal(got.U, want.U) and np.array_equal(got.V, want.V)
    assert np.array_equal(np.ldexp(got.sigma, -e), want.sigma)
    got = truncated_svd(scale * M, 4)
    np.testing.assert_allclose(got.sigma / scale, want.sigma, rtol=1e-14)
    for side in ("U", "V"):
        np.testing.assert_allclose(getattr(got, side), getattr(want, side), rtol=0, atol=1e-12)


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
    tall = rng.standard_normal((12, 4))  # whiten's Gram path takes it while eigh converges
    want = dense_truncated_svd(M, 3)
    want_tall = svd_polar(tall)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    t = truncated_svd(M, 3)
    assert np.array_equal(t.U, want.U)
    assert np.array_equal(t.sigma, want.sigma)
    assert np.array_equal(t.V, want.V)
    assert np.array_equal(whiten(tall), want_tall)
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalError):
        truncated_svd(M, 3)
    for arg in (M, tall):
        with pytest.raises(NumericalError):
            whiten(arg)


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


# as_matrix


def test_as_matrix_checks_finiteness_without_an_input_sized_temporary():
    big = np.ones((2048, 2048))
    tracemalloc.start()
    try:
        assert as_matrix(big) is big
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the boolean mask of the input would be 4 MiB


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_matrix_rejects_each_non_finite_value(bad):
    m = np.ones((3, 4))
    m[2, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        as_matrix(m)


def test_as_matrix_accepts_an_empty_matrix():
    assert as_matrix(np.zeros((0, 3))).shape == (0, 3)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_whiten_invariant_under_positive_scaling(lapack_calls):
    # tall stacks take the Gram path at every scale: a Gaussian 9 x 4, the U side of an
    # fft MLP stack (768 x 4*48) and a LoRA stack (192 x 4*16), all within 1e-12 of the SVD's
    rng = np.random.default_rng(80)
    stacks = [rng.standard_normal((9, 4))] + [
        np.hstack([random_orthonormal(rng, d, r) for _ in range(4)])
        for d, r in ((768, 48), (192, 16))
    ]
    for m in stacks:
        want = svd_polar(m)
        for scale in (1e-300, 1e-162, 1e-14, 1.0, 3.7, 1e78, 1e200, 1e300):
            lapack_calls.clear()
            w = whiten(scale * m)
            assert lapack_calls == {"eigh": 1}
            assert np.linalg.norm(w - want) <= 1e-12 * np.linalg.norm(want)
            assert np.abs(w.T @ w - np.eye(m.shape[1])).max() <= 1e-13


def test_whiten_of_a_rank_deficient_input_is_a_partial_isometry(lapack_calls):
    # a duplicate column, a zero column, and a column 1e-12 of the largest off the span;
    # the stack is tall, and its Gram is below the floor, so the SVD path cuts it
    rng = np.random.default_rng(81)
    q = random_orthonormal(rng, 10, 3)
    m = np.column_stack([q[:, 0], q[:, 1], q[:, 0], np.zeros(10), 2.0 * q[:, 1] + 1e-12 * q[:, 2]])
    lapack_calls.clear()
    w = whiten(m)
    assert lapack_calls == {"eigh": 1, "svd": 1}
    g = w.T @ w
    np.testing.assert_allclose(g, g.T, atol=1e-14)
    np.testing.assert_allclose(g @ g, g, atol=1e-14)
    np.testing.assert_allclose(np.trace(g), 2.0, atol=1e-12)  # rank 2: the 1e-12 direction is cut
    np.testing.assert_allclose(q[:, :2] @ (q[:, :2].T @ w), w, atol=1e-14)
    np.testing.assert_allclose(w[:, 3], 0.0, atol=1e-14)
    assert not whiten(np.zeros((4, 2))).any()


def test_whiten_takes_the_svd_for_a_square_or_near_duplicate_stack(lapack_calls):
    rng = np.random.default_rng(82)
    square = np.hstack([random_orthonormal(rng, 12, 3) for _ in range(4)])
    want = svd_polar(square)
    lapack_calls.clear()
    assert np.array_equal(whiten(square), want)
    assert lapack_calls == {"svd": 1}
    # two tasks 1e-10 apart: below the Gram floor, and each shared direction's second
    # singular value below the cut, so the result is a rank-4 partial isometry
    q = random_orthonormal(rng, 40, 4)
    m = np.hstack([q, q + 1e-10 * rng.standard_normal((40, 4))])
    want = svd_polar(m)
    lapack_calls.clear()
    w = whiten(m)
    assert lapack_calls == {"eigh": 1, "svd": 1}
    assert np.array_equal(w, want)
    g = w.T @ w
    np.testing.assert_allclose(g @ g, g, atol=1e-14)
    np.testing.assert_allclose(np.trace(g), 4.0, atol=1e-12)
    np.testing.assert_allclose(q @ (q.T @ w), w, atol=1e-9)


def test_a_duplicate_stack_takes_one_eigh_and_one_svd_per_side(lapack_calls):
    # below the Gram root's floor the coordinates come from the SVD, with no second eigh
    delta = np.random.default_rng(83).standard_normal((40, 30))
    kd = decompose(TaskVector(name="t", delta=delta), 5)
    lapack_calls.clear()
    frame([kd, kd], basis=False)
    assert lapack_calls == {"eigh": 2, "svd": 2}


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


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 64),
    log_norm=st.floats(-8.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_skew_kernels_agree_with_scipy(d, log_norm, seed):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    S = G - G.T
    norm = np.linalg.norm(S, 2)
    if norm > 0:  # a 1 x 1 skew matrix is zero
        S *= 10.0**log_norm / norm
    A = 0.5 * S  # A - A^T reproduces S exactly
    W = matrix_exp_skew(A)
    # scipy's scaling-and-squaring error grows with the norm: 1.3e-12 at
    # |S|_2 = 68, d = 2, where the eigendecomposition stays within 2e-15 of
    # a 40-digit reference
    tol = 1e-12 * max(1.0, 10.0**log_norm / 20.0)
    assert np.abs(W - scipy_linalg.expm(S)).max() <= tol
    assert np.abs(W.T @ W - np.eye(d)).max() <= 1e-13
    E = rng.standard_normal((d, d))
    got = _skew_exp_adjoint(*_skew_eigh(A), E)
    want = scipy_linalg.expm_frechet(S.T, E, compute_expm=False)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_matrix_exp_skew_non_convergence_is_numerical_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError):
        matrix_exp_skew(np.ones((3, 3)))


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


def test_complement_checks_its_count_and_seed():
    u = random_orthonormal(np.random.default_rng(14), 6, 2)
    with pytest.raises(ValidationError, match=r"^count must be an integer in \[1, 4\], got True$"):
        orthogonal_complement_sample(u, True, 0)
    with pytest.raises(ValidationError, match="^seed must be non-negative, got -1$"):
        orthogonal_complement_sample(u, 1, -1)
    # no direction to avoid: an orthonormal sample of the whole space
    g = orthogonal_complement_sample(np.zeros((4, 0)), 2, 0)
    np.testing.assert_allclose(g.T @ g, np.eye(2), atol=1e-12)


def test_svd_triplet_of_rank_zero_is_rejected_by_name():
    with pytest.raises(ValidationError, match=r"^rank must be an integer in \[1, 3\], got 0$"):
        SvdTriplet(np.zeros((4, 0)), np.zeros(0), np.zeros((3, 0)))


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
    # smooth_energy rebuilds the triplet from the input's U and V and the new
    # spectrum, and the rebuild checks that spectrum; interpolate(1) hands
    # the input's own spectrum on, so an unchecked input carries a bad one in
    t = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    bad = object.__new__(SvdTriplet)
    for field, value in (("U", t.U), ("sigma", np.array(sigma)), ("V", t.V)):
        object.__setattr__(bad, field, value)
    with pytest.raises(ValidationError):
        smooth_energy(bad, SmoothingStrategy("interpolate", tau=1.0))


def test_svd_triplet_trusted_rebuild_shares_singular_vectors():
    rng = np.random.default_rng(3)
    dense = decompose(TaskVector("d", delta=rng.standard_normal((7, 5))), 3)
    factor = decompose(
        from_lora_factors(rng.standard_normal((7, 4)), rng.standard_normal((4, 5))), 3
    )
    strategies = (SmoothingStrategy("averaging"), SmoothingStrategy("linear", rho=5.0),
                  SmoothingStrategy("interpolate", tau=0.5))
    for kd in (dense, factor):
        for s in strategies:
            new = smooth_energy(kd, s)
            assert new.U is kd.U and new.V is kd.V
            assert not new.sigma.flags.writeable
    np.testing.assert_array_equal(
        smooth_energy(dense, SmoothingStrategy("averaging")).sigma, [dense.sigma.mean()] * 3
    )


def test_svd_triplet_arrays_are_frozen():
    t = truncated_svd(np.eye(3), 2)
    with pytest.raises(ValueError):
        t.U[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.sigma[0] = 5.0
