import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from dcmerge.cover import (
    CoverBasis,
    back_project,
    build_cover_basis,
    make_mask,
    project,
)
from dcmerge.errors import ValidationError
from dcmerge.metrics import alignment_score
from dcmerge.task_vector import TaskVector, decompose, reconstruct


def random_decomp(rng, m, n, r):
    return decompose(TaskVector(name="t", delta=rng.standard_normal((m, n))), r)


def random_orthonormal(rng, d, k):
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.sign(np.diag(r))


# build_cover_basis


def test_single_task_basis_is_its_own():
    rng = np.random.default_rng(0)
    kd = random_decomp(rng, 8, 6, 3)
    basis = build_cover_basis([kd])
    np.testing.assert_allclose(basis.U_tilde, kd.U, atol=1e-10)
    np.testing.assert_allclose(basis.V_tilde, kd.V, atol=1e-10)
    assert basis.k == 3


def test_two_dyad_basis_matches_reported_columns():
    d1 = np.outer([1.0, 0.0], [1.0, 0.0])
    u2 = np.array([0.1104, 0.9939])
    d2 = np.outer(u2, u2)
    basis = build_cover_basis(
        [
            decompose(TaskVector(name="a", delta=d1), 1),
            decompose(TaskVector(name="b", delta=d2), 1),
        ]
    )
    expected = np.array([[0.9985, 0.0553], [-0.0553, 0.9985]])
    np.testing.assert_allclose(basis.U_tilde, expected, atol=5e-3)
    np.testing.assert_allclose(basis.V_tilde, expected, atol=5e-3)


def test_basis_beats_random_orthonormal_pairs():
    rng = np.random.default_rng(1)
    kds = [random_decomp(rng, 9, 8, 2) for _ in range(3)]
    basis = build_cover_basis(kds)
    score = alignment_score(basis.U_tilde, basis.V_tilde, kds)
    for _ in range(500):
        qu = random_orthonormal(rng, 9, 6)
        qv = random_orthonormal(rng, 8, 6)
        assert alignment_score(qu, qv, kds) <= score + 1e-12


def test_basis_shape_and_width_errors():
    rng = np.random.default_rng(2)
    with pytest.raises(ValidationError):
        build_cover_basis([])
    with pytest.raises(ValidationError):
        build_cover_basis([random_decomp(rng, 6, 6, 2), random_decomp(rng, 7, 6, 2)])
    # combined width 6 exceeds min(6, 5)
    with pytest.raises(ValidationError):
        build_cover_basis([random_decomp(rng, 6, 5, 3), random_decomp(rng, 6, 5, 3)])


def test_basis_equivariant_under_task_rescaling():
    rng = np.random.default_rng(3)
    deltas = [rng.standard_normal((7, 6)) for _ in range(2)]
    base = build_cover_basis(
        [decompose(TaskVector(name="t", delta=d), 2) for d in deltas]
    )
    scaled = build_cover_basis(
        [
            decompose(TaskVector(name="t", delta=4.0 * deltas[0]), 2),
            decompose(TaskVector(name="t", delta=deltas[1]), 2),
        ]
    )
    assert np.array_equal(base.U_tilde, scaled.U_tilde)
    assert np.array_equal(base.V_tilde, scaled.V_tilde)


# project / back_project


def test_project_of_basis_outer_product_is_identity():
    rng = np.random.default_rng(4)
    kds = [random_decomp(rng, 8, 7, 2) for _ in range(2)]
    basis = build_cover_basis(kds)
    delta = basis.U_tilde @ basis.V_tilde.T
    np.testing.assert_allclose(project(delta, basis), np.eye(4), atol=1e-10)


def test_project_zero():
    rng = np.random.default_rng(5)
    basis = build_cover_basis([random_decomp(rng, 6, 6, 2)])
    np.testing.assert_array_equal(project(np.zeros((6, 6)), basis), np.zeros((2, 2)))


def test_project_of_a_decomposition_matches_its_dense_product():
    rng = np.random.default_rng(8)
    kds = [random_decomp(rng, 9, 7, 2) for _ in range(3)]
    basis = build_cover_basis(kds)
    for kd in kds + [random_decomp(rng, 9, 7, 3)]:
        dense = project(reconstruct(kd), basis)
        np.testing.assert_allclose(project(kd, basis), dense, rtol=0, atol=1e-12)
    with pytest.raises(ValidationError):
        project(random_decomp(rng, 7, 9, 2), basis)


def test_contained_round_trip_and_isometry():
    rng = np.random.default_rng(6)
    kds = [random_decomp(rng, 9, 8, 2) for _ in range(2)]
    basis = build_cover_basis(kds)
    coeff = rng.standard_normal((4, 4))
    delta = basis.U_tilde @ coeff @ basis.V_tilde.T
    coords = project(delta, basis)
    np.testing.assert_allclose(basis.U_tilde @ coords @ basis.V_tilde.T, delta, atol=1e-8)
    np.testing.assert_allclose(
        np.linalg.norm(coords), np.linalg.norm(delta), atol=1e-8
    )


def test_back_project_all_ones_mask():
    rng = np.random.default_rng(7)
    basis = build_cover_basis([random_decomp(rng, 7, 6, 3)])
    coords = rng.standard_normal((3, 3))
    out = back_project(coords, 3, basis)
    np.testing.assert_allclose(
        out, basis.U_tilde @ coords @ basis.V_tilde.T, atol=1e-12
    )


def test_back_project_mask_annihilation():
    rng = np.random.default_rng(8)
    kds = [random_decomp(rng, 8, 8, 2) for _ in range(2)]
    basis = build_cover_basis(kds)
    coords = np.zeros((4, 4))
    coords[0, 3] = 5.0  # entirely off the block diagonal
    coords[3, 1] = -2.0
    np.testing.assert_array_equal(
        back_project(coords, 2, basis), np.zeros((8, 8))
    )


def test_back_project_size_checks():
    rng = np.random.default_rng(9)
    basis = build_cover_basis([random_decomp(rng, 6, 6, 2)])
    with pytest.raises(ValidationError):
        back_project(np.zeros((3, 3)), 1, basis)
    # the block must fit the basis width
    with pytest.raises(ValidationError):
        back_project(np.zeros((2, 2)), 3, basis)


@settings(max_examples=60)
@given(
    k=st.integers(1, 24),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_back_project_equals_the_dense_block_mask(k, data, seed):
    b = data.draw(st.integers(1, k), label="b")
    rng = np.random.default_rng(seed)
    m, n = k + int(rng.integers(0, 4)), k + int(rng.integers(0, 4))
    basis = CoverBasis(random_orthonormal(rng, m, k), random_orthonormal(rng, n, k))
    M = rng.standard_normal((k, k))
    groups = np.arange(k) // b
    ref = (groups[:, None] == groups[None, :]).astype(np.float64)
    want = basis.U_tilde @ (M * ref) @ basis.V_tilde.T
    assert np.array_equal(back_project(M, b, basis), want)


# make_mask


def test_mask_two_by_two_blocks():
    assert make_mask(4, 2) == (slice(0, 2), slice(2, 4))


def test_mask_full_block_is_all_ones():
    assert make_mask(3, 3) == (slice(0, 3),)


def test_mask_truncated_final_block():
    assert make_mask(5, 2) == (slice(0, 2), slice(2, 4), slice(4, 5))
    assert make_mask(7, 3)[-1] == slice(6, 7)


def test_mask_block_out_of_range():
    with pytest.raises(ValidationError):
        make_mask(4, 0)
    with pytest.raises(ValidationError):
        make_mask(4, 5)


# shared-geometry preservation (single instance; the sweep lives in acceptance)


def test_fixed_pair_tasks_preserve_generating_subspaces():
    from dcmerge.merge import MergeConfig, dc_merge

    rng = np.random.default_rng(10)
    m, n, t, r = 32, 24, 4, 3
    k = t * r
    u0 = random_orthonormal(rng, m, k)
    v0 = random_orthonormal(rng, n, k)
    tasks = []
    for i in range(t):
        sigma = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
        sl = slice(i * r, (i + 1) * r)
        delta = (u0[:, sl] * sigma) @ v0[:, sl].T
        tasks.append(TaskVector(name=f"t{i}", delta=delta))
    merged = dc_merge(tasks, MergeConfig(rank=r, mask_block=1))
    mu, ms, mv = np.linalg.svd(merged, full_matrices=False)
    rank = int(np.sum(ms > 1e-10 * ms[0]))
    assert subspace_angles(mu[:, :rank], u0).max() <= 1e-6
    assert subspace_angles(mv.T[:, :rank], v0).max() <= 1e-6


def test_cover_basis_validation():
    rng = np.random.default_rng(11)
    q = random_orthonormal(rng, 6, 2)
    with pytest.raises(ValidationError):
        CoverBasis(U_tilde=np.ones((6, 2)), V_tilde=q)
    with pytest.raises(ValidationError):
        CoverBasis(U_tilde=q, V_tilde=random_orthonormal(rng, 6, 3))
