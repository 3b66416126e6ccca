import numpy as np
import pytest

from dcmerge.cover import CoverBasis, build_cover_basis
from dcmerge.errors import NumericalError, ValidationError
from dcmerge.linalg import SvdTriplet, _skew_eigh, matrix_exp_skew, truncated_svd
from dcmerge.metrics import _alignment, alignment_score
from dcmerge.optimizer import (
    OptimizerConfig,
    optimize_cover_basis,
    _analytic_side_gradient,
    _iterate,
)
from dcmerge.task_vector import TaskVector, decompose, from_lora_factors, stack_bases

from helpers import random_decomp


def ta_init(decomps, k):
    from dcmerge.task_vector import reconstruct

    total = sum(reconstruct(kd) for kd in decomps)
    triplet = truncated_svd(total, k)
    return CoverBasis(U_tilde=triplet.U, V_tilde=triplet.V)


def test_config_validation():
    for rate in (0.0, np.inf, np.nan):
        with pytest.raises(ValidationError):
            OptimizerConfig(learning_rate=rate)
    with pytest.raises(ValidationError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(log_every=0)


def test_trace_records_log_every_and_final_point():
    rng = np.random.default_rng(0)
    decomps = [random_decomp(rng, 6, 6, 2) for _ in range(2)]
    init = ta_init(decomps, 4)
    cfg = OptimizerConfig(max_iters=12, log_every=5, learning_rate=1e-3)
    _, trace = optimize_cover_basis(decomps, init, cfg)
    assert trace.iterations == [0, 5, 10, 12]
    assert trace.final_score == trace.scores[-1]
    elapsed = [p[2] for p in trace.points]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


def central_difference(A, orient, other_gram, cat, h=1e-5):
    """Central-difference gradient of the score in each skew parameter of A."""
    d = A.shape[0]
    grad = np.zeros_like(A)
    for i in range(d):
        for j in range(i + 1, d):
            scores = []
            for step in (h, -h):
                probe = A.copy()
                probe[i, j] += step
                W = matrix_exp_skew(probe) @ orient
                scores.append(_alignment(W.T @ cat, other_gram))
            grad[i, j] = (scores[0] - scores[1]) / (2.0 * h)
            grad[j, i] = -grad[i, j]
    return grad


def test_analytic_gradient_matches_finite_difference():
    rng = np.random.default_rng(1)
    decomps = [random_decomp(rng, 8, 8, 2) for _ in range(2)]
    U_cat = np.hstack([kd.U for kd in decomps])
    V_cat = np.hstack([kd.V for kd in decomps])
    init = ta_init(decomps, 4)
    A = rng.standard_normal((8, 8)) * 0.1
    B = rng.standard_normal((8, 8)) * 0.1
    Wu = matrix_exp_skew(A) @ init.U_tilde
    Wv = matrix_exp_skew(B) @ init.V_tilde
    G = Wu.T @ U_cat
    H = Wv.T @ V_cat
    fd = central_difference(A, init.U_tilde, H, U_cat)
    exact = _analytic_side_gradient(init.U_tilde, G, H, U_cat, _skew_eigh(A))
    np.testing.assert_allclose(exact, fd, rtol=1e-5, atol=1e-10)
    fd_b = central_difference(B, init.V_tilde, G, V_cat)
    exact_b = _analytic_side_gradient(init.V_tilde, H, G, V_cat, _skew_eigh(B))
    np.testing.assert_allclose(exact_b, fd_b, rtol=1e-5, atol=1e-10)


def test_small_step_scores_non_decreasing():
    rng = np.random.default_rng(2)
    decomps = [random_decomp(rng, 7, 7, 2) for _ in range(2)]
    init = ta_init(decomps, 4)
    cfg = OptimizerConfig(max_iters=40, learning_rate=1e-3, log_every=1)
    _, trace = optimize_cover_basis(decomps, init, cfg)
    scores = trace.scores
    for a, b in zip(scores, scores[1:]):
        assert b >= a - 1e-8


def test_analytic_mode_also_ascends():
    rng = np.random.default_rng(3)
    decomps = [random_decomp(rng, 8, 6, 2) for _ in range(2)]
    init = ta_init(decomps, 4)
    cfg = OptimizerConfig(max_iters=40, learning_rate=1e-3, log_every=1)
    _, trace = optimize_cover_basis(decomps, init, cfg)
    assert trace.final_score > trace.scores[0]
    for a, b in zip(trace.scores, trace.scores[1:]):
        assert b >= a - 1e-8


def test_whitening_init_does_not_degrade():
    rng = np.random.default_rng(4)
    for eta in (1e-4, 1e-3):
        decomps = [random_decomp(rng, 6, 6, 2) for _ in range(2)]
        init = build_cover_basis(decomps)
        start = alignment_score(init.U_tilde, init.V_tilde, decomps)
        cfg = OptimizerConfig(max_iters=20, learning_rate=eta)
        _, trace = optimize_cover_basis(decomps, init, cfg)
        assert trace.final_score >= start - 1e-8


def test_returned_basis_is_orthonormal_and_scored():
    rng = np.random.default_rng(5)
    decomps = [random_decomp(rng, 8, 7, 2) for _ in range(3)]
    init = ta_init(decomps, 6)
    cfg = OptimizerConfig(max_iters=30, learning_rate=1e-2)
    basis, trace = optimize_cover_basis(decomps, init, cfg)
    np.testing.assert_allclose(
        basis.U_tilde.T @ basis.U_tilde, np.eye(6), atol=1e-10
    )
    np.testing.assert_allclose(
        basis.V_tilde.T @ basis.V_tilde, np.eye(6), atol=1e-10
    )
    np.testing.assert_allclose(
        alignment_score(basis.U_tilde, basis.V_tilde, decomps),
        trace.final_score,
        rtol=1e-10,
    )


def test_sides_above_64_ascend_to_a_cover_basis():
    rng = np.random.default_rng(6)
    decomps = [random_decomp(rng, 96, 80, 4) for _ in range(3)]
    cfg = OptimizerConfig(max_iters=10, learning_rate=1e-3)
    basis, trace = optimize_cover_basis(decomps, ta_init(decomps, 12), cfg)
    for a, b in zip(trace.scores, trace.scores[1:]):
        assert b >= a - 1e-8
    assert basis.shape == (96, 80) and basis.k == 12
    CoverBasis(U_tilde=basis.U_tilde, V_tilde=basis.V_tilde)


def ambient_ascent(decomps, init, cfg):
    """The ascent on m x m and n x n skew parameters: the reference for the span reduction.

    Returns the final basis and the score at every iteration and after the last.
    """
    U_cat, V_cat = stack_bases(decomps)
    U0, V0 = init.U_tilde, init.V_tilde
    A = np.zeros((U0.shape[0],) * 2)
    B = np.zeros((V0.shape[0],) * 2)
    scores = []
    for it in range(cfg.max_iters + 1):
        Wu, eig_a = _iterate(A, U0, it, "U")
        Wv, eig_b = _iterate(B, V0, it, "V")
        G, H = Wu.T @ U_cat, Wv.T @ V_cat
        scores.append(_alignment(G, H))
        A += cfg.learning_rate * _analytic_side_gradient(U0, G, H, U_cat, eig_a)
        B += cfg.learning_rate * _analytic_side_gradient(V0, H, G, V_cat, eig_b)
    return CoverBasis(U_tilde=Wu, V_tilde=Wv), scores


@pytest.mark.parametrize("m, n, n_tasks, r, lora", [
    (32, 32, 3, 10, False),
    (48, 40, 3, 4, False),
    (64, 64, 4, 16, True),
], ids=["fft-32x32", "fft-48x40", "lora-64x64"])
def test_the_span_ascent_matches_the_ambient_one(m, n, n_tasks, r, lora):
    rng = np.random.default_rng(10)
    if lora:
        tvs = [from_lora_factors(rng.standard_normal((m, r)), rng.standard_normal((r, n)))
               for _ in range(n_tasks)]
    else:
        tvs = [TaskVector(name="t", delta=rng.standard_normal((m, n))) for _ in range(n_tasks)]
    decomps = [decompose(tv, r) for tv in tvs]
    # as optimize-basis starts: an fft start reaches outside span([U_1..U_T])
    start = truncated_svd(sum(tv.delta for tv in tvs), n_tasks * r)
    init = CoverBasis(U_tilde=start.U, V_tilde=start.V)
    cfg = OptimizerConfig(max_iters=20, learning_rate=1e-2)
    basis, trace = optimize_cover_basis(decomps, init, cfg)
    want_basis, want_scores = ambient_ascent(decomps, init, cfg)
    np.testing.assert_allclose(trace.scores, want_scores, rtol=1e-10)
    assert trace.final_score > trace.scores[0]
    np.testing.assert_allclose(basis.U_tilde, want_basis.U_tilde, rtol=0, atol=1e-10)
    np.testing.assert_allclose(basis.V_tilde, want_basis.V_tilde, rtol=0, atol=1e-10)


def test_too_large_step_is_numerical_error():
    rng = np.random.default_rng(9)
    decomps = [random_decomp(rng, 6, 6, 2) for _ in range(2)]
    init = ta_init(decomps, 4)
    # four copies of one direction pull a start 45 degrees from it hard enough that
    # the largest finite step overflows A to inf
    e = np.eye(4)
    copies = [SvdTriplet(U=e[:, :1], sigma=np.ones(1), V=e[:, :1])] * 4
    tilted = e[:, :2].sum(axis=1, keepdims=True) / np.sqrt(2.0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="iteration 1: U parameters are non-finite"):
            optimize_cover_basis(copies, CoverBasis(U_tilde=tilted, V_tilde=tilted),
                                 OptimizerConfig(learning_rate=np.finfo(float).max))
        # A stays finite, but the iterate's phases are lost
        with pytest.raises(NumericalError, match=r"iteration \d+: U iterate columns are not"):
            optimize_cover_basis(decomps, init, OptimizerConfig(learning_rate=1e300))


def test_input_validation():
    rng = np.random.default_rng(7)
    decomps = [random_decomp(rng, 6, 6, 2)]
    init = ta_init(decomps, 2)
    with pytest.raises(ValidationError):
        optimize_cover_basis([], init, OptimizerConfig())
    mixed = decomps + [random_decomp(rng, 7, 6, 2)]
    with pytest.raises(ValidationError):
        optimize_cover_basis(mixed, init, OptimizerConfig())
    wrong_init = ta_init([random_decomp(rng, 8, 8, 2)], 2)
    with pytest.raises(ValidationError):
        optimize_cover_basis(decomps, wrong_init, OptimizerConfig())


def test_a_partial_isometry_start_is_refused():
    # two identical tasks whiten to a U~ whose U~^T U~ has diagonal 0.5, not I
    rng = np.random.default_rng(10)
    kd = random_decomp(rng, 12, 10, 3)
    init = build_cover_basis([kd, kd])
    with pytest.raises(ValidationError, match="partial-isometry start .* cannot be rotated"):
        optimize_cover_basis([kd, kd], init, OptimizerConfig(max_iters=2))


def test_default_config_used_when_omitted():
    rng = np.random.default_rng(8)
    decomps = [random_decomp(rng, 5, 5, 1)]
    init = ta_init(decomps, 1)
    basis, trace = optimize_cover_basis(
        decomps, init, OptimizerConfig(max_iters=2)
    )
    assert len(trace.points) == 3
    assert basis.k == 1
