from types import SimpleNamespace

import numpy as np
import pytest

from dcmerge.errors import NumericalError, ValidationError
from dcmerge.linalg import orthogonal_complement_sample, whiten
from dcmerge.metrics import (
    TaskAccuracy,
    accuracy_report,
    alignment_score,
    cos_sim,
    dir_sim,
    projected_dir_sim,
    r_matrix,
)
from dcmerge.task_vector import TaskVector, decompose, reconstruct


def random_decomp(rng, m, n, r):
    return decompose(TaskVector(name="t", delta=rng.standard_normal((m, n))), r)


def random_orthonormal(rng, d, k):
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.sign(np.diag(r))


# cos_sim


def test_cos_sim_self_and_antipodal():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 5))
    np.testing.assert_allclose(cos_sim(a, a), 1.0, atol=1e-14)
    np.testing.assert_allclose(cos_sim(a, -a), -1.0, atol=1e-14)


def test_cos_sim_two_dyad_example():
    u1 = v1 = np.array([1.0, 0.0])
    u2 = v2 = np.array([0.1104, 0.9939])
    value = cos_sim(np.outer(u1, v1), np.outer(u2, v2))
    np.testing.assert_allclose(value, 0.01219, atol=1e-4)


def test_cos_sim_zero_operand():
    with pytest.raises(NumericalError):
        cos_sim(np.zeros((2, 2)), np.ones((2, 2)))


def test_cos_sim_shape_mismatch():
    with pytest.raises(ValidationError):
        cos_sim(np.ones((2, 2)), np.ones((2, 3)))


# r_matrix


def test_r_matrix_self_is_identity():
    rng = np.random.default_rng(1)
    kd = random_decomp(rng, 6, 5, 3)
    np.testing.assert_allclose(r_matrix(kd, kd).values, np.eye(3), atol=1e-10)


def test_r_matrix_disjoint_dyads_is_zero():
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    b = np.zeros((4, 4))
    b[2, 2] = 1.0
    r = r_matrix(
        decompose(TaskVector(name="a", delta=a), 1),
        decompose(TaskVector(name="b", delta=b), 1),
    )
    np.testing.assert_allclose(r.values, np.zeros((1, 1)))


def test_r_matrix_spectrum_form_recovers_cos_sim():
    # full-rank decompositions make the bilinear form exact
    rng = np.random.default_rng(2)
    for _ in range(50):
        m, n = 10, 8
        da = rng.standard_normal((m, n))
        db = rng.standard_normal((m, n))
        ka = decompose(TaskVector(name="a", delta=da), n)
        kb = decompose(TaskVector(name="b", delta=db), n)
        r = r_matrix(ka, kb).values
        value = ka.sigma @ r @ kb.sigma
        value /= np.linalg.norm(ka.sigma) * np.linalg.norm(kb.sigma)
        np.testing.assert_allclose(value, cos_sim(da, db), atol=1e-10)


# dir_sim


def test_dir_sim_self_is_one():
    rng = np.random.default_rng(3)
    kd = random_decomp(rng, 7, 6, 4)
    np.testing.assert_allclose(dir_sim(kd, kd), 1.0, atol=1e-12)


def test_dir_sim_orthogonal_subspaces_is_zero():
    a = np.diag([3.0, 2.0, 0.0, 0.0])
    b = np.diag([0.0, 0.0, 3.0, 2.0])
    ka = decompose(TaskVector(name="a", delta=a), 2)
    kb = decompose(TaskVector(name="b", delta=b), 2)
    np.testing.assert_allclose(dir_sim(ka, kb), 0.0, atol=1e-14)


def test_dir_sim_two_dyad_example():
    u2 = np.array([0.1104, 0.9939])
    ka = decompose(TaskVector(name="a", delta=np.outer([1.0, 0.0], [1.0, 0.0])), 1)
    kb = decompose(TaskVector(name="b", delta=np.outer(u2, u2)), 1)
    np.testing.assert_allclose(dir_sim(ka, kb), 0.01219, atol=1e-4)


def test_dir_sim_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(10):
        ka = random_decomp(rng, 8, 6, 3)
        kb = random_decomp(rng, 8, 6, 5)
        assert abs(dir_sim(ka, kb) - dir_sim(kb, ka)) <= 1e-12


def test_dir_sim_scale_invariant():
    rng = np.random.default_rng(5)
    delta = rng.standard_normal((7, 7))
    other = random_decomp(rng, 7, 7, 3)
    a = dir_sim(decompose(TaskVector(name="a", delta=delta), 3), other)
    # power-of-two scaling is exact in floating point, so bitwise equal
    for c in (0.5, 2.0, 4.0):
        b = dir_sim(decompose(TaskVector(name="a", delta=c * delta), 3), other)
        assert a == b
    # arbitrary positive scales can perturb the factorization by an ulp
    for c in (2.5, 3.3, 0.7):
        b = dir_sim(decompose(TaskVector(name="a", delta=c * delta), 3), other)
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)


def flip_columns(kd, flips):
    # SvdTriplet re-normalizes column signs, so the flipped factors are
    # carried by a plain stand-in exposing what r_matrix and dir_sim read
    return SimpleNamespace(
        U=kd.U * flips, V=kd.V * flips, rank=kd.rank, source_shape=kd.source_shape
    )


def test_dir_sim_invariant_under_joint_column_sign_flips():
    # negating u_j and v_j together flips both factors of every affected
    # R entry, so the sign convention of the SVD cannot change the value
    rng = np.random.default_rng(6)
    for _ in range(20):
        ka = random_decomp(rng, 9, 7, 4)
        kb = random_decomp(rng, 9, 7, 3)
        reference = dir_sim(ka, kb)
        fa = rng.choice([-1.0, 1.0], size=ka.rank)
        fb = rng.choice([-1.0, 1.0], size=kb.rank)
        fa[0] = fb[0] = -1.0
        pairs = (
            (flip_columns(ka, fa), kb),
            (ka, flip_columns(kb, fb)),
            (flip_columns(ka, fa), flip_columns(kb, fb)),
        )
        for x, y in pairs:
            np.testing.assert_allclose(dir_sim(x, y), reference, rtol=0, atol=1e-12)


# projected_dir_sim


def test_projected_dir_sim_on_own_reconstruction():
    rng = np.random.default_rng(7)
    kd = random_decomp(rng, 8, 6, 3)
    np.testing.assert_allclose(projected_dir_sim(kd, reconstruct(kd)), 1.0, atol=1e-8)


def test_projected_dir_sim_orthogonal_merged_errors():
    kd = decompose(TaskVector(name="a", delta=np.diag([2.0, 1.0, 0.0, 0.0])), 2)
    merged = np.zeros((4, 4))
    merged[3, 3] = 5.0
    with pytest.raises(NumericalError):
        projected_dir_sim(kd, merged)


def test_projected_dir_sim_annihilates_foreign_component():
    rng = np.random.default_rng(8)
    kd = random_decomp(rng, 10, 8, 3)
    u_perp = orthogonal_complement_sample(kd.U, 3, seed=1)
    foreign = u_perp @ rng.standard_normal((3, 8))
    value = projected_dir_sim(kd, reconstruct(kd) + foreign)
    np.testing.assert_allclose(value, 1.0, atol=1e-8)


def test_projected_dir_sim_matches_the_dense_projection():
    # reference: dense SVD of the m x n projection U (U^T merged)
    rng = np.random.default_rng(16)
    for m, n, r in ((12, 9, 3), (9, 12, 4), (10, 10, 1)):
        kd = random_decomp(rng, m, n, r)
        merged = rng.standard_normal((m, n))
        P, _, Qt = np.linalg.svd(kd.U @ (kd.U.T @ merged), full_matrices=False)
        want = np.sum((kd.U.T @ P[:, :r]) * (kd.V.T @ Qt[:r].T)) / r
        value = projected_dir_sim(kd, merged)
        np.testing.assert_allclose(value, want, rtol=1e-10, atol=1e-12)


# alignment_score


def test_alignment_score_single_task_own_basis():
    rng = np.random.default_rng(9)
    kd = random_decomp(rng, 8, 7, 4)
    np.testing.assert_allclose(
        alignment_score(kd.U, kd.V, [kd]), 4.0, atol=1e-10
    )


def test_alignment_score_orthogonal_basis_is_zero():
    kd = decompose(TaskVector(name="a", delta=np.diag([2.0, 1.0, 0, 0, 0, 0])), 2)
    u = np.eye(6)[:, 3:5]
    score = alignment_score(u, u, [kd])
    np.testing.assert_allclose(score, 0.0, atol=1e-12)


def test_alignment_score_equals_double_sum():
    rng = np.random.default_rng(10)
    for _ in range(25):
        kds = [random_decomp(rng, 9, 7, 2) for _ in range(2)]
        u = random_orthonormal(rng, 9, 4)
        v = random_orthonormal(rng, 7, 4)
        # definitional form: per dyad, squared diagonal of its projection
        total = 0.0
        for kd in kds:
            for j in range(kd.rank):
                dyad = np.outer(kd.U[:, j], kd.V[:, j])
                total += np.sum(np.diag(u.T @ dyad @ v) ** 2)
        np.testing.assert_allclose(alignment_score(u, v, kds), total, atol=1e-10)


def test_alignment_score_rejects_non_orthonormal_basis():
    rng = np.random.default_rng(11)
    kd = random_decomp(rng, 6, 6, 2)
    with pytest.raises(ValidationError):
        alignment_score(np.ones((6, 2)), np.eye(6)[:, :2], [kd])


# coefficient identities for diagonal fitting


def test_min_residual_identity_and_trace_identity():
    rng = np.random.default_rng(12)
    for _ in range(30):
        m, n, k = 9, 7, 4
        delta = rng.standard_normal((m, n))
        u = random_orthonormal(rng, m, k)
        v = random_orthonormal(rng, n, k)
        d = np.diag(u.T @ delta @ v)

        # the diagonal coefficients minimize the fit residual
        best = np.linalg.norm(delta - u @ np.diag(d) @ v.T) ** 2
        expected = np.linalg.norm(delta) ** 2 - np.sum(d**2)
        np.testing.assert_allclose(best, expected, atol=1e-8)
        for trial in range(3):
            other = d + rng.standard_normal(k) * 0.1
            worse = np.linalg.norm(delta - u @ np.diag(other) @ v.T) ** 2
            assert worse >= best - 1e-10

        # inner product against the basis outer product is the diagonal sum
        np.testing.assert_allclose(np.sum(delta * (u @ v.T)), d.sum(), atol=1e-10)


# accuracy bookkeeping


def test_accuracy_report_perfect_merge():
    table = [
        TaskAccuracy(task="a", merged=0.9, finetuned=0.9, zeroshot=0.4),
        TaskAccuracy(task="b", merged=0.7, finetuned=0.7, zeroshot=0.2),
    ]
    rep = accuracy_report(table)
    np.testing.assert_allclose(rep.avg_normalized, 1.0)
    assert all(abs(v - 1.0) < 1e-15 for _, v in rep.per_task_nai)


def test_accuracy_report_zero_shot_merge():
    table = [TaskAccuracy(task="a", merged=0.4, finetuned=0.9, zeroshot=0.4)]
    rep = accuracy_report(table)
    assert rep.per_task_nai[0][1] == 0.0


def test_accuracy_report_single_row_arithmetic():
    rep = accuracy_report([TaskAccuracy(task="a", merged=0.8, finetuned=0.9, zeroshot=0.5)])
    np.testing.assert_allclose(rep.avg_normalized, 8.0 / 9.0, rtol=1e-15)
    np.testing.assert_allclose(rep.per_task_nai[0][1], 0.75, rtol=1e-15)


def test_accuracy_report_rejects_degenerate_rows():
    with pytest.raises(ValidationError):
        accuracy_report([TaskAccuracy(task="a", merged=0.5, finetuned=0.4, zeroshot=0.4)])
    with pytest.raises(ValidationError):
        accuracy_report([])
    with pytest.raises(ValidationError):
        TaskAccuracy(task="a", merged=1.5, finetuned=0.9, zeroshot=0.1)


def test_whitened_basis_beats_random_bases_on_alignment():
    rng = np.random.default_rng(13)
    kds = [random_decomp(rng, 8, 8, 2) for _ in range(3)]
    u = whiten(np.hstack([kd.U for kd in kds]))
    v = whiten(np.hstack([kd.V for kd in kds]))
    score = alignment_score(u, v, kds)
    for _ in range(200):
        qu = random_orthonormal(rng, 8, 6)
        qv = random_orthonormal(rng, 8, 6)
        assert alignment_score(qu, qv, kds) <= score
