import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmerge.cover import (
    CoverBasis,
    back_project,
    build_cover_basis,
    frame,
    make_mask,
    project,
)
from dcmerge.container import extract_task_vectors, read_container
from dcmerge.errors import ValidationError
from dcmerge.linalg import SvdTriplet, whiten
from dcmerge.merge import MergeConfig, resolve_rank
from dcmerge.metrics import alignment_score
from dcmerge.task_vector import TaskVector, decompose, reconstruct, stack_bases

from helpers import random_decomp, random_orthonormal, relative_gap, write_merge_set


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


# frame: the coordinates without a basis


def whitened_coordinates(decomps):
    """U~^T [U_1..U_T] and V~^T [V_1..V_T] through the whitened stacks themselves."""
    return tuple(whiten(M).T @ M for M in stack_bases(decomps))


@pytest.mark.parametrize("t", [2, 4, 8])
@pytest.mark.parametrize("shape", [(40, 40), (90, 40), (40, 90)])
def test_stack_coordinates_match_the_whitened_route(t, shape, monkeypatch):
    rng = np.random.default_rng(20 + t)
    decomps = [random_decomp(rng, *shape, 40 // (2 * t)) for _ in range(t)]
    want = whitened_coordinates(decomps)
    # the eigh route only: the SVD would raise here
    monkeypatch.setattr("dcmerge.linalg._dense_svd", None)
    for got, ref in zip(frame(decomps, basis=False)[1:], want):
        assert relative_gap(got, ref) <= 1e-12


@pytest.mark.parametrize("mode, n_tasks, layers, d",
                         [("fft", 4, 1, 192), ("lora", 4, 1, 192), ("fft", 8, 3, 96)])
def test_stack_coordinates_match_the_whitened_route_on_the_benchmark_sets(
        tmp_path, mode, n_tasks, layers, d):
    base_path, task_paths = write_merge_set(tmp_path, seed=31, mode=mode, n_tasks=n_tasks,
                                            layers=layers, d=d)
    base = read_container(base_path)
    tasks = [extract_task_vectors(base, read_container(p), mode).matrices for p in task_paths]
    worst = worst_polar = worst_ortho = 0.0
    for name in sorted(tasks[0]):
        tvs = [task[name] for task in tasks]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a clipped rank is still a rank
            r = resolve_rank(tvs, MergeConfig(mode=mode))
        decomps = [decompose(tv, r) for tv in tvs]
        for got, ref in zip(frame(decomps, basis=False)[1:], whitened_coordinates(decomps)):
            worst = max(worst, relative_gap(got, ref))
        # whiten's Gram path (the tall stacks) and its SVD path (the square ones) both
        # give the SVD's polar factor
        for M in stack_bases(decomps):
            P, _, Qt = np.linalg.svd(M, full_matrices=False)
            W = whiten(M)
            worst_polar = max(worst_polar, relative_gap(W, P @ Qt))
            worst_ortho = max(worst_ortho, np.abs(W.T @ W - np.eye(M.shape[1])).max())
    assert worst <= 1e-12
    assert worst_polar <= 1e-12 and worst_ortho <= 1e-13


@pytest.mark.parametrize("mode, n_tasks, layers, d",
                         [("fft", 4, 1, 192), ("lora", 4, 1, 192), ("fft", 8, 3, 96)])
def test_frame_coordinates_are_the_projection_on_its_basis_bit_for_bit(
        tmp_path, mode, n_tasks, layers, d):
    base_path, task_paths = write_merge_set(tmp_path, seed=31, mode=mode, n_tasks=n_tasks,
                                            layers=layers, d=d)
    base = read_container(base_path)
    tasks = [extract_task_vectors(base, read_container(p), mode).matrices for p in task_paths]
    for name in sorted(tasks[0]):
        tvs = [task[name] for task in tasks]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a clipped rank is still a rank
            r = resolve_rank(tvs, MergeConfig(mode=mode))
        decomps = [decompose(tv, r) for tv in tvs]
        basis, G, H = frame(decomps)
        for got, want in zip((G, H), project(decomps, basis)):
            assert np.array_equal(got, want), name


def test_a_duplicate_task_takes_the_whitened_route_bit_for_bit():
    rng = np.random.default_rng(21)
    kd = random_decomp(rng, 12, 10, 3)
    decomps = [kd, random_decomp(rng, 12, 10, 3), kd]
    got = frame(decomps, basis=False)[1:]
    for g, ref in zip(got, whitened_coordinates(decomps)):
        assert np.array_equal(g, ref)


def test_a_near_duplicate_task_takes_the_whitened_route_bit_for_bit():
    rng = np.random.default_rng(22)
    delta = rng.standard_normal((12, 10))
    near = delta + 1e-7 * rng.standard_normal((12, 10))
    decomps = [decompose(TaskVector(name=f"t{i}", delta=d), 3) for i, d in enumerate([delta, near])]
    for M in stack_bases(decomps):
        s = np.linalg.svd(M, compute_uv=False)
        assert 1e-8 < s[-1] / s[0] < 1e-6
    for g, ref in zip(frame(decomps, basis=False)[1:], whitened_coordinates(decomps)):
        assert np.array_equal(g, ref)


def test_stack_coordinates_check_the_total_width():
    rng = np.random.default_rng(23)
    with pytest.raises(ValidationError, match=r"total rank must be an integer in \[1, 5\], got 6"):
        frame([random_decomp(rng, 6, 5, 3), random_decomp(rng, 6, 5, 3)], basis=False)


@settings(max_examples=40)
@given(
    t=st.integers(1, 4),
    r=st.integers(1, 3),
    extra=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    duplicate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_coordinates_are_symmetric_and_agree_with_whitening(t, r, extra, duplicate, seed):
    rng = np.random.default_rng(seed)
    shape = (t * r + extra[0], t * r + extra[1])
    decomps = [random_decomp(rng, *shape, r) for _ in range(t)]
    if duplicate:
        decomps[-1] = decomps[0]
    for got, ref in zip(frame(decomps, basis=False)[1:], whitened_coordinates(decomps)):
        assert np.abs(got - got.T).max() <= 1e-12
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


# project / back_project


def test_project_of_basis_outer_product_is_identity():
    # tasks on disjoint axes are their own cover basis, so each side's coordinates are I
    eye = np.eye(8)
    kds = [SvdTriplet(eye[:, 2 * i:2 * i + 2], [2.0, 1.0], eye[:7, 2 * i:2 * i + 2])
           for i in range(2)]
    for coords in project(kds, build_cover_basis(kds)):
        np.testing.assert_allclose(coords, np.eye(4), rtol=0, atol=1e-10)
    # for any tasks the kernel's coordinates are the Gram roots of frame without a basis
    rng = np.random.default_rng(4)
    kds = [random_decomp(rng, 8, 7, 2) for _ in range(2)]
    for got, want in zip(project(kds, build_cover_basis(kds)), frame(kds, basis=False)[1:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_project_zero():
    rng = np.random.default_rng(5)
    kds = [random_decomp(rng, 6, 6, 2), decompose(TaskVector(name="z", delta=np.zeros((6, 6))), 2)]
    for coords in project(kds, build_cover_basis(kds)):
        assert coords.shape == (4, 4)
        np.testing.assert_array_equal(coords[:, 2:], np.zeros((4, 2)))


def test_project_of_a_decomposition_matches_its_dense_product():
    rng = np.random.default_rng(8)
    kds = [random_decomp(rng, 9, 7, 2) for _ in range(3)]
    basis = build_cover_basis(kds)
    G, H = project(kds, basis)
    blocks = [(kd, G[:, b], H[:, b]) for kd, b in zip(kds, make_mask(basis.k, 2))]
    outside = random_decomp(rng, 9, 7, 3)
    blocks.append((outside, *project([outside], basis)))
    for kd, G_i, H_i in blocks:
        dense = basis.U_tilde.T @ reconstruct(kd) @ basis.V_tilde
        np.testing.assert_allclose((G_i * kd.sigma) @ H_i.T, dense, rtol=0, atol=1e-12)
    with pytest.raises(ValidationError):
        project([random_decomp(rng, 7, 9, 2)], basis)


def test_contained_round_trip_and_isometry():
    rng = np.random.default_rng(6)
    kds = [random_decomp(rng, 9, 8, 2) for _ in range(2)]
    basis = build_cover_basis(kds)
    G, H = project(kds, basis)
    coords = (G * np.concatenate([kd.sigma for kd in kds])) @ H.T
    delta = sum(reconstruct(kd) for kd in kds)
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
    scipy_linalg = pytest.importorskip("scipy.linalg")

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
    assert scipy_linalg.subspace_angles(mu[:, :rank], u0).max() <= 1e-6
    assert scipy_linalg.subspace_angles(mv.T[:, :rank], v0).max() <= 1e-6


def test_cover_basis_validation():
    rng = np.random.default_rng(11)
    q = random_orthonormal(rng, 6, 2)
    with pytest.raises(ValidationError):
        CoverBasis(U_tilde=np.ones((6, 2)), V_tilde=q)
    with pytest.raises(ValidationError):
        CoverBasis(U_tilde=q, V_tilde=random_orthonormal(rng, 6, 3))
    with pytest.raises(ValidationError, match=r"^basis width must be an integer in \[1, 1\], got 2$"):
        CoverBasis(U_tilde=q, V_tilde=np.ones((1, 2)))


def test_a_cover_basis_of_width_zero_is_rejected_by_name():
    kd = random_decomp(np.random.default_rng(13), 4, 3, 1)
    message = r"^basis width must be an integer in \[1, 3\], got 0$"
    with pytest.raises(ValidationError, match=message):
        alignment_score(np.zeros((4, 0)), np.zeros((3, 0)), [kd])


def test_cover_basis_takes_a_partial_isometry_and_rejects_a_non_projection():
    rng = np.random.default_rng(12)
    q = random_orthonormal(rng, 6, 2)
    CoverBasis(U_tilde=np.column_stack([q[:, 0], np.zeros(6)]), V_tilde=q)  # W^T W = diag(1, 0)
    half = np.column_stack([q[:, 0], 0.5 * q[:, 1]])  # W^T W = diag(1, 1/4) is no projection
    with pytest.raises(ValidationError, match="U_tilde is not a partial isometry"):
        CoverBasis(U_tilde=half, V_tilde=q)
    with pytest.raises(ValidationError, match="V_tilde is not a partial isometry"):
        CoverBasis(U_tilde=q, V_tilde=half)
