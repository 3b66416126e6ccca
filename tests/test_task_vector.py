import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

import dcmerge.task_vector
from dcmerge.cover import build_cover_basis, project
from dcmerge.errors import NumericalError, ValidationError
from dcmerge.linalg import SvdTriplet, truncated_svd
from dcmerge.metrics import alignment_score, dir_sim, r_matrix
from dcmerge.optimizer import optimize_cover_basis
from dcmerge.perturb import direction_perturb
from dcmerge.task_vector import (
    SmoothingStrategy,
    TaskVector,
    decompose,
    from_fft_delta,
    from_lora_factors,
    reconstruct,
    smooth_energy,
    stack_bases,
)


def make_kd(sigma, m=4, n=4):
    """Decomposition with a prescribed spectrum on leading standard axes."""
    sigma = np.asarray(sigma, dtype=np.float64)
    delta = np.zeros((m, n))
    np.fill_diagonal(delta, 0.0)
    for j, s in enumerate(sigma):
        delta[j, j] = s
    return decompose(TaskVector(name="t", delta=delta), len(sigma))


# construction


def test_fft_delta_of_identical_checkpoints_is_zero():
    w = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(from_fft_delta(w, w).delta, np.zeros((2, 3)))


def test_fft_delta_recovers_additive_term():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((5, 4))
    e = rng.standard_normal((5, 4))
    np.testing.assert_allclose(from_fft_delta(w0 + e, w0).delta, e, atol=1e-14)


def test_fft_delta_small_numeric_case():
    ft = np.array([[2.0, 0.0], [0.0, 3.0]])
    base = np.eye(2)
    np.testing.assert_array_equal(
        from_fft_delta(ft, base).delta, np.array([[1.0, 0.0], [0.0, 2.0]])
    )


def test_fft_delta_shape_mismatch():
    with pytest.raises(ValidationError):
        from_fft_delta(np.ones((2, 2)), np.ones((2, 3)))


def test_lora_outer_product_of_basis_vectors():
    b = np.zeros((3, 1))
    b[0, 0] = 1.0
    a = np.zeros((1, 4))
    a[0, 0] = 1.0
    tv = from_lora_factors(b, a)
    expected = np.zeros((3, 4))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(tv.delta, expected)
    assert tv.lora_rank == 1


def test_lora_zero_b_gives_zero_delta():
    tv = from_lora_factors(np.zeros((4, 2)), np.ones((2, 3)))
    np.testing.assert_array_equal(tv.delta, np.zeros((4, 3)))


def test_lora_product_rank_is_bounded_by_inner_dim():
    rng = np.random.default_rng(1)
    tv = from_lora_factors(rng.standard_normal((4, 2)), rng.standard_normal((2, 3)))
    spectrum = np.linalg.svd(tv.delta, compute_uv=False)
    assert spectrum[2] <= 1e-10


def test_lora_inner_dimension_mismatch():
    with pytest.raises(ValidationError):
        from_lora_factors(np.ones((4, 2)), np.ones((3, 3)))


def test_fft_delta_of_float32_inputs_is_the_float64_difference():
    rng = np.random.default_rng(5)
    ft, base = (rng.standard_normal((6, 5)).astype(np.float32) for _ in range(2))
    expected = ft.astype(np.float64) - base.astype(np.float64)
    assert np.array_equal(from_fft_delta(ft, base).delta, expected)


@pytest.mark.parametrize(
    "labels, bad, message",
    [(None, 0, "W_ft contains"), (None, 1, "W_0 contains"),
     (("tensor 'w'", "base tensor 'w'"), 1, "base tensor 'w' contains")],
)
def test_fft_delta_names_the_non_finite_input(labels, bad, message):
    inputs = [np.ones((3, 2)), np.ones((3, 2))]
    inputs[bad][1, 1] = np.nan
    kwargs = {} if labels is None else {"labels": labels}
    with pytest.raises(ValidationError, match=message):
        from_fft_delta(*inputs, **kwargs)


def test_task_vector_copies_only_arrays_someone_else_can_write():
    writable = np.ones((3, 2))
    tv = TaskVector(name="t", delta=writable)
    assert tv.delta is not writable and not tv.delta.flags.writeable
    writable[0, 0] = 5.0
    assert tv.delta[0, 0] == 1.0
    view = writable[:]  # read-only, but its owner is writable
    view.setflags(write=False)
    assert TaskVector(name="t", delta=view).delta is not view
    # a frozen array the package built is kept as it is
    assert TaskVector(name="t", delta=tv.delta).delta is tv.delta


# decompose


def test_decompose_zero_matrix():
    kd = decompose(TaskVector(name="z", delta=np.zeros((3, 5))), 2)
    np.testing.assert_array_equal(kd.sigma, np.zeros(2))
    assert kd.source_shape == (3, 5)


def test_decompose_wraps_truncated_svd():
    rng = np.random.default_rng(2)
    delta = rng.standard_normal((6, 5))
    kd = decompose(TaskVector(name="t", delta=delta), 3)
    t = truncated_svd(delta, 3)
    np.testing.assert_array_equal(kd.U, t.U)
    np.testing.assert_array_equal(kd.sigma, t.sigma)
    np.testing.assert_array_equal(kd.V, t.V)


# decompose from LoRA factors


def dense_twin(tv):
    """The same task vector without its factors, so decompose takes the dense SVD."""
    return TaskVector(name=tv.name, delta=tv.delta, lora_rank=tv.lora_rank)


@settings(max_examples=60)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    p=st.integers(1, 8),
    data=st.data(),
)
def test_factor_decomposition_matches_dense_truncated_svd(m, n, p, data):
    r = data.draw(st.integers(1, min(m, n, p)), label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    tv = from_lora_factors(rng.standard_normal((m, p)), rng.standard_normal((p, n)))
    kd = decompose(tv, r)
    ref = decompose(dense_twin(tv), r)
    dense = reconstruct(ref)
    assert np.linalg.norm(reconstruct(kd) - dense) <= 1e-10 * np.linalg.norm(dense)
    assert np.abs(kd.sigma - ref.sigma).max() <= 1e-10 * ref.sigma[0]


def test_factor_decomposition_never_takes_the_dense_svd(monkeypatch):
    def refuse(M, r):
        raise AssertionError("dense SVD taken on the factor path")

    monkeypatch.setattr(dcmerge.task_vector, "truncated_svd", refuse)
    rng = np.random.default_rng(20)
    tv = from_lora_factors(rng.standard_normal((30, 4)), rng.standard_normal((4, 20)))
    kd = decompose(tv, 3)
    assert kd.rank == 3 and kd.source_shape == (30, 20)


def test_factor_core_svd_failure_is_reported_like_the_dense_one(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    tv = from_lora_factors(np.ones((6, 2)), np.ones((2, 5)))
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericalError):
        decompose(tv, 1)


@pytest.mark.parametrize("case", ["zero B", "rank-deficient B", "r above p"])
def test_degenerate_factors_give_the_dense_decomposition_exactly(case):
    rng = np.random.default_rng(21)
    B = rng.standard_normal((12, 4))
    A = rng.standard_normal((4, 10))
    r = 3
    if case == "zero B":
        B[:] = 0.0
    elif case == "rank-deficient B":
        B[:, 2:] = B[:, :2] @ rng.standard_normal((2, 2))  # rank 2 < r
    else:
        r = 6
    tv = from_lora_factors(B, A)
    kd = decompose(tv, r)
    ref = decompose(dense_twin(tv), r)
    assert np.array_equal(kd.U, ref.U)
    assert np.array_equal(kd.sigma, ref.sigma)
    assert np.array_equal(kd.V, ref.V)


def test_factors_must_match_delta_and_lora_rank():
    B, A = np.ones((4, 2)), np.ones((2, 3))
    with pytest.raises(ValidationError):
        TaskVector(name="t", delta=np.ones((4, 4)), lora_rank=2, factors=(B, A))
    with pytest.raises(ValidationError):
        TaskVector(name="t", delta=B @ A, lora_rank=None, factors=(B, A))
    tv = from_lora_factors(B, A)
    with pytest.raises(ValueError):
        tv.factors[0][0, 0] = 5.0


# smoothing


def test_averaging_replaces_spectrum_with_mean():
    kd = make_kd([3.0, 1.0])
    out = smooth_energy(kd, SmoothingStrategy.averaging())
    np.testing.assert_allclose(out.sigma, [2.0, 2.0])


def test_linear_smoothing_clamped_ratio():
    kd = make_kd([10.0, 1.0])
    out = smooth_energy(kd, SmoothingStrategy.linear(5.0))
    # ratio clamps to 5, weights [5/6, 1/6], total energy 11
    np.testing.assert_allclose(out.sigma, [55.0 / 6.0, 11.0 / 6.0], rtol=1e-12)
    np.testing.assert_allclose(out.sigma[0] / out.sigma[1], 5.0, rtol=1e-10)


def test_linear_smoothing_unclamped_uses_spectrum_ratio():
    kd = make_kd([3.0, 1.0])
    out = smooth_energy(kd, SmoothingStrategy.linear(5.0))
    np.testing.assert_allclose(out.sigma[0] / out.sigma[1], 3.0, rtol=1e-10)
    np.testing.assert_allclose(out.sigma.sum(), 4.0, rtol=1e-12)


def test_interpolate_endpoints():
    kd = make_kd([5.0, 2.0, 1.0])
    keep = smooth_energy(kd, SmoothingStrategy.interpolate(1.0))
    np.testing.assert_allclose(keep.sigma, kd.sigma, rtol=1e-15)
    flat = smooth_energy(kd, SmoothingStrategy.interpolate(0.0))
    avg = smooth_energy(kd, SmoothingStrategy.averaging())
    np.testing.assert_allclose(flat.sigma, avg.sigma, rtol=1e-15)


def test_interpolate_monotone_in_tau():
    kd = make_kd([7.0, 2.0, 0.5])
    taus = np.linspace(0.0, 1.0, 9)
    spectra = [smooth_energy(kd, SmoothingStrategy.interpolate(t)).sigma for t in taus]
    mean = kd.sigma.mean()
    for a, b in zip(spectra, spectra[1:]):
        # entries above the mean grow with tau, entries below shrink
        for j in range(3):
            if kd.sigma[j] >= mean:
                assert b[j] >= a[j] - 1e-12
            else:
                assert b[j] <= a[j] + 1e-12


def test_truncate_only_is_identity():
    kd = make_kd([4.0, 3.0])
    out = smooth_energy(kd, SmoothingStrategy.truncate_only())
    np.testing.assert_array_equal(out.sigma, kd.sigma)
    np.testing.assert_array_equal(out.U, kd.U)


def test_smoothing_preserves_total_energy_and_bases():
    rng = np.random.default_rng(3)
    strategies = [
        SmoothingStrategy.averaging(),
        SmoothingStrategy.linear(4.0),
        SmoothingStrategy.interpolate(0.3),
    ]
    for _ in range(10):
        kd = decompose(TaskVector(name="t", delta=rng.standard_normal((8, 6))), 4)
        for s in strategies:
            out = smooth_energy(kd, s)
            np.testing.assert_allclose(out.sigma.sum(), kd.sigma.sum(), rtol=1e-10)
            assert np.array_equal(out.U, kd.U)
            assert np.array_equal(out.V, kd.V)


def test_smoothing_reuses_the_validated_singular_vectors():
    rng = np.random.default_rng(4)
    kd = decompose(TaskVector(name="t", delta=rng.standard_normal((8, 6))), 4)
    out = smooth_energy(kd, SmoothingStrategy.averaging())
    assert out.U is kd.U and out.V is kd.V
    assert not out.sigma.flags.writeable


def test_averaging_is_idempotent():
    kd = make_kd([9.0, 4.0, 1.0])
    once = smooth_energy(kd, SmoothingStrategy.averaging())
    twice = smooth_energy(once, SmoothingStrategy.averaging())
    np.testing.assert_array_equal(once.sigma, twice.sigma)


def test_smoothing_preserves_row_and_column_spaces():
    rng = np.random.default_rng(4)
    kd = decompose(TaskVector(name="t", delta=rng.standard_normal((8, 6))), 3)
    for s in [SmoothingStrategy.averaging(), SmoothingStrategy.linear(3.0)]:
        out = reconstruct(smooth_energy(kd, s))
        orig = reconstruct(kd)
        u_angles = subspace_angles(
            np.linalg.svd(out, full_matrices=False)[0][:, :3],
            np.linalg.svd(orig, full_matrices=False)[0][:, :3],
        )
        assert u_angles.max() <= 1e-6


def test_strategy_parameter_validation():
    with pytest.raises(ValidationError):
        SmoothingStrategy.linear(1.0)
    with pytest.raises(ValidationError):
        SmoothingStrategy.interpolate(1.5)
    with pytest.raises(ValidationError):
        SmoothingStrategy(kind="bogus")


# reconstruct


def test_reconstruct_full_rank_round_trip():
    rng = np.random.default_rng(5)
    delta = rng.standard_normal((5, 7))
    kd = decompose(TaskVector(name="t", delta=delta), 5)
    np.testing.assert_allclose(reconstruct(kd), delta, atol=1e-8)


def test_averaging_reconstruction_matches_balanced_formula():
    rng = np.random.default_rng(6)
    delta = rng.standard_normal((7, 6))
    kd = decompose(TaskVector(name="t", delta=delta), 4)
    out = reconstruct(smooth_energy(kd, SmoothingStrategy.averaging()))
    # mean energy spread uniformly over the kept dyads
    dyads = sum(np.outer(kd.U[:, j], kd.V[:, j]) for j in range(4))
    expected = (kd.sigma.sum() / 4.0) * dyads
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_reconstruct_zero_spectrum():
    kd = decompose(TaskVector(name="z", delta=np.zeros((4, 4))), 2)
    np.testing.assert_array_equal(reconstruct(kd), np.zeros((4, 4)))


def test_task_vector_rejects_non_finite():
    with pytest.raises(ValidationError):
        TaskVector(name="bad", delta=np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_decomposition_rank_property():
    kd = make_kd([2.0, 1.0], m=5, n=6)
    assert kd.rank == 2
    assert kd.source_shape == (5, 6)


@pytest.mark.parametrize(
    "r, lora_rank",
    [(3, None), (2, 3), (3, 2)],
    ids=["fft", "lora factors", "lora dense fallback"],
)
def test_decompose_source_shape_is_the_task_shape(r, lora_rank):
    # with r above the LoRA rank the factor path gives way to the dense SVD
    rng = np.random.default_rng(8)
    m, n = 7, 5
    if lora_rank is None:
        tv = from_fft_delta(rng.standard_normal((m, n)), np.zeros((m, n)))
    else:
        tv = from_lora_factors(
            rng.standard_normal((m, lora_rank)), rng.standard_normal((lora_rank, n))
        )
    kd = decompose(tv, r)
    assert isinstance(kd, SvdTriplet)
    assert kd.rank == r and kd.source_shape == (m, n)


# stack_bases


def random_kd(seed, m, n, r):
    rng = np.random.default_rng(seed)
    return decompose(TaskVector(name="t", delta=rng.standard_normal((m, n))), r)


def test_stack_bases_concatenates_in_input_order():
    kds = [random_kd(0, 6, 5, 2), random_kd(1, 6, 5, 1)]
    Ucat, Vcat = stack_bases(iter(kds))
    np.testing.assert_array_equal(Ucat, np.hstack([kds[0].U, kds[1].U]))
    np.testing.assert_array_equal(Vcat, np.hstack([kds[0].V, kds[1].V]))


def _check_project(t):
    basis = build_cover_basis([t, random_kd(5, 8, 6, 2)])
    np.testing.assert_allclose(
        project(t, basis), project(reconstruct(t), basis), rtol=0, atol=1e-12
    )


def _check_stack_bases(t):
    Ucat, Vcat = stack_bases([t, t])
    np.testing.assert_array_equal(Ucat, np.hstack([t.U, t.U]))
    np.testing.assert_array_equal(Vcat, np.hstack([t.V, t.V]))


def _check_dir_sim(t):
    assert r_matrix(t, t).values.shape == (2, 2)
    assert dir_sim(t, t) == pytest.approx(1.0, abs=1e-12)


def _check_direction_perturb(t):
    out = direction_perturb(t, 0.25, seed=3)
    assert isinstance(out, SvdTriplet) and out.source_shape == t.source_shape
    assert dir_sim(t, out) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize(
    "check", [_check_project, _check_stack_bases, _check_dir_sim, _check_direction_perturb]
)
def test_a_truncated_svd_triplet_is_a_decomposition(check):
    # a plain SvdTriplet needs no wrapper to be projected, stacked, compared
    # or perturbed
    rng = np.random.default_rng(9)
    check(truncated_svd(rng.standard_normal((8, 6)), 2))


BAD_DECOMPS = {
    "empty": [],
    "not a decomposition": [TaskVector(name="t", delta=np.ones((6, 5)))],
    "mixed ambient shapes": [random_kd(2, 6, 5, 1), random_kd(3, 7, 5, 1)],
}


def _valid_basis():
    return build_cover_basis([random_kd(4, 6, 5, 2)])


def _alignment_score(decomps):
    basis = _valid_basis()
    return alignment_score(basis.U_tilde, basis.V_tilde, decomps)


STACKING_CALLERS = {
    "stack_bases": stack_bases,
    "build_cover_basis": build_cover_basis,
    "alignment_score": _alignment_score,
    "optimize_cover_basis": lambda d: optimize_cover_basis(d, _valid_basis()),
}


@pytest.mark.parametrize("caller", list(STACKING_CALLERS))
@pytest.mark.parametrize("bad", list(BAD_DECOMPS))
def test_stacking_callers_reject_bad_decompositions(caller, bad):
    with pytest.raises(ValidationError):
        STACKING_CALLERS[caller](BAD_DECOMPS[bad])
