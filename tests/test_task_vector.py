import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcmerge.task_vector
from dcmerge.cover import CoverBasis, build_cover_basis, frame, project
from dcmerge.errors import NumericalError, ValidationError
from dcmerge.linalg import SvdTriplet, truncated_svd
from dcmerge.metrics import _alignment, alignment_score, dir_sim, r_matrix
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


# the array each type stores; np.eye(3, 2) is an orthonormal, sign-normalized factor
STORES = {
    "TaskVector": lambda a: TaskVector(name="t", delta=a).delta,
    "SvdTriplet": lambda a: SvdTriplet(a, [2.0, 1.0], np.eye(2)).U,
    "CoverBasis": lambda a: CoverBasis(a, np.eye(3, 2)).U_tilde,
}


@pytest.mark.parametrize("store", STORES.values(), ids=STORES.keys())
def test_task_vector_copies_only_arrays_someone_else_can_write(store):
    writable = np.eye(3, 2)
    kept = store(writable)
    assert kept is not writable and not kept.flags.writeable
    writable[0, 0] = 5.0
    assert kept[0, 0] == 1.0
    view = np.eye(3, 2)[:]  # read-only, but its owner is writable
    view.setflags(write=False)
    assert store(view) is not view
    # a frozen array the package built is kept as it is
    assert store(kept) is kept


@pytest.mark.parametrize(
    "build, inputs",
    [(from_fft_delta, (np.ones((3, 2)), np.ones((2, 3)))),
     (from_lora_factors, (np.ones((4, 2)), np.ones((3, 3)))),
     (from_lora_factors, (np.ones(4), np.ones((1, 3))))],
    ids=["fft", "lora-inner", "lora-1d"],
)
def test_a_shape_error_names_both_inputs(build, inputs):
    with pytest.raises(ValidationError, match="first .* second "):
        build(*inputs, labels=("first", "second"))


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
    # the dense constructor takes no factors; lora_rank and delta come from them
    with pytest.raises(TypeError):
        TaskVector("t", B @ A, 2, factors=(B, A))
    with pytest.raises(ValidationError, match="not 2-D factors of one product"):
        from_lora_factors(B, np.ones((3, 3)))
    tv = from_lora_factors(B, A)
    assert tv.lora_rank == 2 and tv.shape == (4, 3) and np.array_equal(tv.delta, B @ A)
    with pytest.raises(ValueError):
        tv.factors[0][0, 0] = 5.0


def test_from_lora_factors_keeps_read_only_float64_factors_copied_at_most_once():
    B, A = np.ones((4, 2)), np.ones((2, 3))
    B.setflags(write=False)
    tv = from_lora_factors(B, A.astype(np.float32))
    assert tv.factors[0] is B
    assert tv.factors[1].dtype == np.float64 and tv.factors[1].flags.owndata


def test_factor_backed_delta_is_built_on_each_read_and_read_only():
    rng = np.random.default_rng(22)
    B, A = rng.standard_normal((9, 3)), rng.standard_normal((3, 7))
    tv = from_lora_factors(B, A)
    assert tv.shape == (9, 7)
    first = tv.delta
    assert np.array_equal(first, B @ A) and not first.flags.writeable
    assert tv.delta is not first  # not cached on the task vector


def test_from_lora_factors_does_not_form_the_product():
    rng = np.random.default_rng(23)
    B, A = rng.standard_normal((2048, 8)), rng.standard_normal((8, 2048))
    tracemalloc.start()
    try:
        tv = from_lora_factors(B, A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tv.shape == (2048, 2048)
    assert peak < 2 * 2**20  # the float64 product alone is 32 MiB


def test_factor_finiteness_comes_from_the_bound_and_else_from_the_product():
    # p max|B| max|A| = 1e308 is above the bound, but the product is finite
    big = from_lora_factors(np.full((2, 1), 1e154), np.full((1, 3), 1e154))
    assert np.array_equal(big.delta, np.full((2, 3), 1e308))
    with pytest.raises(ValidationError, match="delta of w contains non-finite entries"):
        from_lora_factors(np.full((2, 2), 1e200), np.full((2, 3), 1e200), "w")
    # float32 factors always pass the bound
    top = np.finfo(np.float32).max
    tv = from_lora_factors(np.full((2, 4), top, np.float32), np.full((4, 3), top, np.float32))
    assert np.isfinite(tv.delta).all()


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def test_fft_delta_is_built_on_each_read_from_the_inputs_in_their_dtype():
    rng = np.random.default_rng(24)
    W_0 = _read_only(rng.standard_normal((9, 7)).astype(np.float32))
    W_ft = _read_only((W_0 + 0.1 * rng.standard_normal((9, 7))).astype(np.float32))
    tv = from_fft_delta(W_ft, W_0)
    assert tv.shape == (9, 7) and tv.lora_rank is None and tv.factors is None
    first = tv.delta
    assert first.dtype == np.float64 and not first.flags.writeable
    assert first.tobytes() == np.subtract(W_ft, W_0, dtype=np.float64).tobytes()
    second = tv.delta
    assert second is not first  # not cached on the task vector
    assert second.tobytes() == first.tobytes()


def test_from_fft_delta_keeps_read_only_float32_inputs_without_a_float64_copy():
    rng = np.random.default_rng(25)
    W_0 = _read_only(rng.standard_normal((2048, 2048), dtype=np.float32))
    W_ft = _read_only(rng.standard_normal((2048, 2048), dtype=np.float32))
    tracemalloc.start()
    try:
        tv = from_fft_delta(W_ft, W_0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tv.shape == (2048, 2048)
    assert peak < 2 * 2**20  # the float64 difference alone is 32 MiB


def test_from_fft_delta_copies_writable_inputs():
    W_0, W_ft = np.zeros((3, 4), np.float32), np.ones((3, 4), np.float32)
    tv = from_fft_delta(W_ft, W_0)
    W_ft[0, 0] = 5.0
    assert np.array_equal(tv.delta, np.ones((3, 4)))


def test_fft_finiteness_comes_from_the_inputs_and_the_bound():
    ok = np.ones((2, 3))
    with pytest.raises(ValidationError, match="^W_ft contains non-finite entries"):
        from_fft_delta(np.full((2, 3), np.nan), np.full((2, 3), np.inf))
    with pytest.raises(ValidationError, match="^W_0 contains non-finite entries"):
        from_fft_delta(ok, np.full((2, 3), -np.inf))
    with pytest.raises(ValidationError, match="^W_ft must be 2-D"):
        from_fft_delta(np.ones(3), np.ones(3))
    # max|W_ft| + max|W_0| is above the bound, but the difference is finite
    big = from_fft_delta(np.full((2, 3), 1e308), np.full((2, 3), 1e308))
    assert np.array_equal(big.delta, np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="delta of w contains non-finite entries"):
        from_fft_delta(np.full((2, 3), 1e308), np.full((2, 3), -1e308), "w")
    # float32 inputs always pass the bound
    top = np.finfo(np.float32).max
    tv = from_fft_delta(np.full((2, 3), top, np.float32), np.full((2, 3), -top, np.float32))
    assert np.isfinite(tv.delta).all()


def test_task_vector_takes_delta_or_factors_and_a_matching_lora_rank():
    B, A = np.ones((4, 2)), np.ones((2, 3))
    with pytest.raises(TypeError):
        TaskVector(name="t")
    with pytest.raises(ValidationError, match="have inner dimension 0"):
        from_lora_factors(np.ones((4, 0)), np.ones((0, 3)))
    tv = from_lora_factors(B, A)
    assert tv.lora_rank == 2 and tv.factors[0] is not B and np.array_equal(tv.delta, B @ A)
    B[0, 0] = 5.0  # the writable factor was copied
    assert np.array_equal(tv.delta, np.ones((4, 3)) * 2)
    tv = TaskVector("t", B @ A, lora_rank=2)
    assert tv.lora_rank == 2 and tv.factors is None


# smoothing


def test_averaging_replaces_spectrum_with_mean():
    kd = make_kd([3.0, 1.0])
    out = smooth_energy(kd, SmoothingStrategy("averaging"))
    np.testing.assert_allclose(out.sigma, [2.0, 2.0])


def test_linear_smoothing_clamped_ratio():
    kd = make_kd([10.0, 1.0])
    out = smooth_energy(kd, SmoothingStrategy("linear", rho=5.0))
    # ratio clamps to 5, weights [5/6, 1/6], total energy 11
    np.testing.assert_allclose(out.sigma, [55.0 / 6.0, 11.0 / 6.0], rtol=1e-12)
    np.testing.assert_allclose(out.sigma[0] / out.sigma[1], 5.0, rtol=1e-10)


def test_linear_smoothing_unclamped_uses_spectrum_ratio():
    kd = make_kd([3.0, 1.0])
    out = smooth_energy(kd, SmoothingStrategy("linear", rho=5.0))
    np.testing.assert_allclose(out.sigma[0] / out.sigma[1], 3.0, rtol=1e-10)
    np.testing.assert_allclose(out.sigma.sum(), 4.0, rtol=1e-12)


def test_interpolate_endpoints():
    kd = make_kd([5.0, 2.0, 1.0])
    keep = smooth_energy(kd, SmoothingStrategy("interpolate", tau=1.0))
    np.testing.assert_allclose(keep.sigma, kd.sigma, rtol=1e-15)
    flat = smooth_energy(kd, SmoothingStrategy("interpolate", tau=0.0))
    avg = smooth_energy(kd, SmoothingStrategy("averaging"))
    np.testing.assert_allclose(flat.sigma, avg.sigma, rtol=1e-15)


def test_interpolate_monotone_in_tau():
    kd = make_kd([7.0, 2.0, 0.5])
    taus = np.linspace(0.0, 1.0, 9)
    spectra = [smooth_energy(kd, SmoothingStrategy("interpolate", tau=t)).sigma for t in taus]
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
    out = smooth_energy(kd, SmoothingStrategy("truncate_only"))
    np.testing.assert_array_equal(out.sigma, kd.sigma)
    np.testing.assert_array_equal(out.U, kd.U)


def test_smoothing_preserves_total_energy_and_bases():
    rng = np.random.default_rng(3)
    strategies = [
        SmoothingStrategy("averaging"),
        SmoothingStrategy("linear", rho=4.0),
        SmoothingStrategy("interpolate", tau=0.3),
    ]
    for _ in range(10):
        kd = decompose(TaskVector(name="t", delta=rng.standard_normal((8, 6))), 4)
        for s in strategies:
            out = smooth_energy(kd, s)
            np.testing.assert_allclose(out.sigma.sum(), kd.sigma.sum(), rtol=1e-10)
            assert np.array_equal(out.U, kd.U)
            assert np.array_equal(out.V, kd.V)


def test_smoothing_leaves_dead_entries_as_they_are():
    # 1e-17 is below stack_bases' rule, max(m, n) * eps * sigma_max: its directions are arbitrary
    kd, alive = make_kd([3.0, 1.0, 1e-17]), make_kd([3.0, 1.0])
    for s in (SmoothingStrategy("averaging"), SmoothingStrategy("linear", rho=5.0),
              SmoothingStrategy("interpolate", tau=0.3)):
        out = smooth_energy(kd, s)
        np.testing.assert_array_equal(out.sigma, [*smooth_energy(alive, s).sigma, 1e-17])
        np.testing.assert_allclose(out.sigma.sum(), kd.sigma.sum(), rtol=1e-15)
        Ucat, Vcat = stack_bases([out])
        assert not Ucat[:, 2].any() and not Vcat[:, 2].any()


def test_smoothing_reuses_the_validated_singular_vectors():
    rng = np.random.default_rng(4)
    kd = decompose(TaskVector(name="t", delta=rng.standard_normal((8, 6))), 4)
    out = smooth_energy(kd, SmoothingStrategy("averaging"))
    assert out.U is kd.U and out.V is kd.V
    assert not out.sigma.flags.writeable


def test_averaging_is_idempotent():
    kd = make_kd([9.0, 4.0, 1.0])
    once = smooth_energy(kd, SmoothingStrategy("averaging"))
    twice = smooth_energy(once, SmoothingStrategy("averaging"))
    np.testing.assert_array_equal(once.sigma, twice.sigma)


def test_smoothing_preserves_row_and_column_spaces():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(4)
    kd = decompose(TaskVector(name="t", delta=rng.standard_normal((8, 6))), 3)
    for s in [SmoothingStrategy("averaging"), SmoothingStrategy("linear", rho=3.0)]:
        out = reconstruct(smooth_energy(kd, s))
        orig = reconstruct(kd)
        u_angles = scipy_linalg.subspace_angles(
            np.linalg.svd(out, full_matrices=False)[0][:, :3],
            np.linalg.svd(orig, full_matrices=False)[0][:, :3],
        )
        assert u_angles.max() <= 1e-6


def test_strategy_parameter_validation():
    with pytest.raises(ValidationError):
        SmoothingStrategy("linear", rho=1.0)
    with pytest.raises(ValidationError):
        SmoothingStrategy("interpolate", tau=1.5)
    with pytest.raises(ValidationError):
        SmoothingStrategy(kind="bogus")


def test_strategy_parameters_default_with_their_own_kind():
    assert SmoothingStrategy("linear").rho == 5.0
    assert SmoothingStrategy("interpolate").tau == 0.5
    assert SmoothingStrategy("linear") == SmoothingStrategy("linear", rho=5.0)
    assert (SmoothingStrategy("averaging").rho, SmoothingStrategy("averaging").tau) == (None, None)


@pytest.mark.parametrize("kind, params, message", [
    ("averaging", {"tau": 0.7}, "tau applies only to smoothing kind 'interpolate', not 'averaging'"),
    ("linear", {"rho": 3.0, "tau": 0.2},
     "tau applies only to smoothing kind 'interpolate', not 'linear'"),
    ("interpolate", {"rho": 3.0}, "rho applies only to smoothing kind 'linear', not 'interpolate'"),
    ("truncate_only", {"rho": 5.0},
     "rho applies only to smoothing kind 'linear', not 'truncate_only'"),
], ids=["tau-averaging", "tau-linear", "rho-interpolate", "rho-truncate"])
def test_strategy_rejects_a_parameter_of_another_kind(kind, params, message):
    with pytest.raises(ValidationError) as exc:
        SmoothingStrategy(kind, **params)
    assert str(exc.value) == message


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
    out = reconstruct(smooth_energy(kd, SmoothingStrategy("averaging")))
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


def test_stack_bases_zeroes_dead_triplets_and_scores_agree():
    # rank 3 of a rank-1 delta leaves two rounding-level triplets; a zero task is all dead
    rng = np.random.default_rng(6)
    low = decompose(TaskVector(name="a", delta=np.outer(rng.standard_normal(8), np.ones(6))), 3)
    zero = decompose(TaskVector(name="z", delta=np.zeros((8, 6))), 2)
    live = random_kd(7, 8, 6, 1)
    decomps = [low, zero, live]
    Ucat, Vcat = stack_bases(decomps)
    kept = np.array([True, False, False, False, False, True])
    for cat, kds in ((Ucat, [kd.U for kd in decomps]), (Vcat, [kd.V for kd in decomps])):
        np.testing.assert_array_equal(cat[:, kept], np.hstack(kds)[:, kept])
        assert not cat[:, ~kept].any()
    # the report's score from Gram roots and the score of the whitened pair count the same columns
    basis = build_cover_basis(decomps)
    assert _alignment(*frame(decomps, basis=False)[1:]) == pytest.approx(
        alignment_score(basis.U_tilde, basis.V_tilde, decomps), rel=1e-12)


def _check_project(t):
    basis = build_cover_basis([t, random_kd(5, 8, 6, 2)])
    G, H = project([t], basis)
    np.testing.assert_allclose(
        (G * t.sigma) @ H.T, basis.U_tilde.T @ reconstruct(t) @ basis.V_tilde, rtol=0, atol=1e-12
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
