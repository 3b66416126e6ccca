import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmerge.container import TensorContainer
from dcmerge.errors import NumericalError, ValidationError
from dcmerge.linalg import truncated_svd
from dcmerge.merge import (
    MergeConfig,
    assemble_model,
    dc_merge,
    merge_ta,
    merge_ties,
)
from dcmerge.optimizer import OptimizerConfig
from dcmerge.task_vector import (
    SmoothingStrategy,
    TaskVector,
    decompose,
    from_lora_factors,
    reconstruct,
    smooth_energy,
)


def make_tasks(rng, m, n, t):
    return [
        TaskVector(name=f"t{i}", delta=rng.standard_normal((m, n)))
        for i in range(t)
    ]


# merge_ta


def test_ta_single_matrix_is_itself():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 5))
    assert np.array_equal(merge_ta([mat]), mat)


def test_ta_opposite_matrices_cancel():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(merge_ta([mat, -mat]), np.zeros((3, 3)))


def test_ta_matches_entrywise_sum():
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((6, 4)) for _ in range(5)]
    expected = np.zeros((6, 4))
    for mat in mats:
        for i in range(6):
            for j in range(4):
                expected[i, j] += mat[i, j]
    np.testing.assert_allclose(merge_ta(mats), expected, rtol=1e-12)


def test_ta_rejects_empty_and_mismatched():
    with pytest.raises(ValidationError):
        merge_ta([])
    with pytest.raises(ValidationError):
        merge_ta([np.zeros((2, 2)), np.zeros((3, 2))])


# merge_ties


def test_ties_agreeing_signs_average_kept():
    out = merge_ties([np.array([[2.0]]), np.array([[1.0]])], keep=1.0)
    np.testing.assert_array_equal(out, np.array([[1.5]]))


def test_ties_disagreeing_signs_resolve_by_total():
    out = merge_ties([np.array([[1.0]]), np.array([[-1.0]])], keep=1.0)
    np.testing.assert_array_equal(out, np.array([[0.0]]))


def test_ties_trim_keeps_largest_magnitudes():
    a = np.array([[4.0, 3.0], [2.0, 1.0]])
    out = merge_ties([a], keep=0.5)
    np.testing.assert_array_equal(out, np.array([[4.0, 3.0], [0.0, 0.0]]))


def test_ties_tie_break_prefers_earlier_flat_index():
    a = np.array([[1.0, 1.0, 1.0, 1.0]])
    out = merge_ties([a], keep=0.5)
    np.testing.assert_array_equal(out, np.array([[1.0, 1.0, 0.0, 0.0]]))


def test_ties_keep_fraction_counts():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((5, 5)) for _ in range(3)]
    for keep in (0.2, 0.5, 0.72):
        n_keep = int(np.ceil(keep * 25))
        for mat in mats:
            kept = np.count_nonzero(np.abs(mat) >= np.sort(np.abs(mat), axis=None)[-n_keep])
            assert kept >= n_keep
        out = merge_ties(mats, keep=keep)
        assert out.shape == (5, 5)


def test_ties_keep_one_same_signs_equals_mean():
    rng = np.random.default_rng(4)
    mats = [np.abs(rng.standard_normal((4, 4))) + 0.1 for _ in range(3)]
    out = merge_ties(mats, keep=1.0)
    np.testing.assert_array_equal(out, np.mean(mats, axis=0))


def test_ties_keep_validation():
    with pytest.raises(ValidationError):
        merge_ties([np.ones((2, 2))], keep=0.0)
    with pytest.raises(ValidationError):
        merge_ties([np.ones((2, 2))], keep=1.5)


def test_ties_of_empty_matrices_is_empty():
    out = merge_ties([np.zeros((0, 3)), np.zeros((0, 3))], keep=0.5)
    assert out.shape == (0, 3)


def argsort_ties(mats, keep):
    """Reference TIES: trim each matrix by a full stable argsort of -|x|."""
    total = mats[0].size
    n_keep = math.ceil(keep * total)
    trimmed = []
    for m in mats:
        flat = m.reshape(-1).astype(np.float64)
        idx = np.argsort(-np.abs(flat), kind="stable")[:n_keep]
        kept = np.zeros(total)
        kept[idx] = flat[idx]
        trimmed.append(kept)
    stack = np.stack(trimmed)
    gamma = np.sign(stack.sum(axis=0))
    match = (np.sign(stack) == gamma) & (stack != 0) & (gamma != 0)
    counts = match.sum(axis=0)
    sums = np.where(match, stack, 0.0).sum(axis=0)
    out = np.divide(sums, counts, out=np.zeros(total), where=counts > 0)
    return out.reshape(mats[0].shape)


@settings(max_examples=150)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    tasks=st.integers(1, 6),
    keep=st.floats(0.01, 1.0),
    levels=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ties_selection_matches_a_full_argsort(rows, cols, tasks, keep, levels, seed):
    # integer values in [-levels, levels] give many ties and zeros, -0.0 included
    rng = np.random.default_rng(seed)
    mats = [rng.integers(-levels, levels + 1, (rows, cols)) * 1.0 for _ in range(tasks)]
    mats[0] = mats[0] * -1.0
    out = merge_ties(mats, keep)
    want = argsort_ties(mats, keep)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))


# dc_merge


def test_merge_single_task_round_trips():
    rng = np.random.default_rng(5)
    delta = rng.standard_normal((10, 8))
    merged = dc_merge([TaskVector(name="t", delta=delta)], MergeConfig(rank=8))
    np.testing.assert_allclose(merged, delta, atol=1e-8)


def test_merge_stacks_the_task_bases_once(monkeypatch):
    import dcmerge.cover

    calls = []

    def counted(decomps, _real=dcmerge.cover.stack_bases):
        calls.append(len(decomps))
        return _real(decomps)

    monkeypatch.setattr(dcmerge.cover, "stack_bases", counted)
    rng = np.random.default_rng(4)
    tasks = [TaskVector(name=f"t{i}", delta=rng.standard_normal((12, 10))) for i in range(3)]
    for merger in ("ta", "ties"):
        calls.clear()
        dc_merge(tasks, MergeConfig(rank=3, merger=merger))
        assert calls == [3]


def test_merge_two_reported_dyads_keeps_whitened_directions():
    d1 = np.outer([1.0, 0.0], [1.0, 0.0])
    u2 = np.array([0.1104, 0.9939])
    d2 = np.outer(u2, u2)
    tasks = [TaskVector(name="a", delta=d1), TaskVector(name="b", delta=d2)]
    merged = dc_merge(tasks, MergeConfig(rank=1, mask_block=1))
    u_merged = np.linalg.svd(merged)[0]
    expected = np.array([[0.9985, 0.0533], [-0.0533, 0.9985]])
    # merged singular values are nearly tied, so match columns by overlap
    for col in range(2):
        overlaps = np.abs(expected.T @ u_merged[:, col])
        np.testing.assert_allclose(overlaps.max(), 1.0, atol=5e-3)


def test_merge_identical_tasks_scales_low_rank_approx():
    rng = np.random.default_rng(6)
    delta = rng.standard_normal((16, 14))
    r, t = 3, 4
    kd = decompose(TaskVector(name="t", delta=delta), r)
    approx = reconstruct(kd)
    tasks = [TaskVector(name=f"t{i}", delta=delta.copy()) for i in range(t)]
    merged = dc_merge(tasks, MergeConfig(rank=r, mask_block=t * r))
    np.testing.assert_allclose(merged, t * approx, atol=1e-6)


def test_merge_equivariant_under_row_and_column_permutation():
    rng = np.random.default_rng(7)
    tasks = make_tasks(rng, 9, 7, 3)
    cfg = MergeConfig(rank=2, mask_block=2)
    merged = dc_merge(tasks, cfg)
    pr = rng.permutation(9)
    pc = rng.permutation(7)
    permuted = [
        TaskVector(name=tv.name, delta=tv.delta[pr][:, pc]) for tv in tasks
    ]
    merged_p = dc_merge(permuted, cfg)
    np.testing.assert_allclose(merged_p, merged[pr][:, pc], atol=1e-8)


def test_merge_norm_bounded_by_smoothed_sum():
    rng = np.random.default_rng(8)
    for _ in range(10):
        tasks = make_tasks(rng, 8, 8, 3)
        cfg = MergeConfig(rank=2)
        merged = dc_merge(tasks, cfg)
        strategy = cfg.resolved_smoothing()
        bound = sum(
            np.linalg.norm(reconstruct(smooth_energy(decompose(tv, 2), strategy)))
            for tv in tasks
        )
        assert np.linalg.norm(merged) <= bound + 1e-8


# properties of dc_merge, on up to three tasks of at most 24 x 24


KINDS = ("gaussian", "low-rank", "zero", "duplicate", "multiple")


@st.composite
def task_sets(draw):
    """(deltas, r): 1 to 3 task deltas of one shape and a rank that leaves room for 3 tasks.

    The first delta is a Gaussian; each later one is a Gaussian, a
    low-rank product, a zero matrix, an exact duplicate or a positive
    multiple of an earlier task. Gaussians and products take any scale
    from 1e-300 to 1e300, so one task can be dead next to another.
    """
    m, n = draw(st.integers(3, 24)), draw(st.integers(3, 24))
    r = draw(st.integers(1, min(m, n) // 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    deltas = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS)) if deltas else "gaussian"
        if kind == "gaussian":
            d = rng.standard_normal((m, n)) * 10.0 ** draw(st.integers(-300, 300))
        elif kind == "low-rank":
            p = draw(st.integers(1, min(m, n) - 1))
            d = rng.standard_normal((m, p)) @ rng.standard_normal((p, n))
            d *= 10.0 ** draw(st.integers(-300, 300))
        elif kind == "zero":
            d = np.zeros((m, n))
        else:
            d = deltas[draw(st.integers(0, len(deltas) - 1))].copy()
            if kind == "multiple":
                d *= draw(st.floats(0.1, 10.0))
        deltas.append(d)
    return deltas, r


def merge_deltas(deltas, r):
    return dc_merge([TaskVector(name=f"t{i}", delta=d) for i, d in enumerate(deltas)],
                    MergeConfig(rank=r))


def relative_gap(got, want):
    # both norms at one power-of-two scale, since the norm squares every entry
    e = np.frexp(np.abs(want).max())[1]
    return np.linalg.norm(np.ldexp(got - want, -e)) / np.linalg.norm(np.ldexp(want, -e))


@settings(max_examples=40)
@given(task_sets())
def test_a_single_task_merges_to_its_rank_r_part(case):
    deltas, r = case
    part = reconstruct(decompose(TaskVector(name="t", delta=deltas[0]), r))
    assert relative_gap(merge_deltas(deltas[:1], r), part) <= 1e-10


@settings(max_examples=40)
@given(task_sets(), st.data())
def test_a_zero_task_changes_nothing(case, data):
    deltas, r = case
    deltas = deltas[:2]
    at = data.draw(st.integers(0, len(deltas)))
    with_zero = deltas[:at] + [np.zeros_like(deltas[0])] + deltas[at:]
    want = merge_deltas(deltas, r)
    assert relative_gap(merge_deltas(with_zero, r), want) <= 1e-10


@settings(max_examples=40)
@given(task_sets(), st.permutations(range(3)))
def test_task_order_does_not_matter(case, order):
    deltas, r = case
    shuffled = [deltas[i] for i in order if i < len(deltas)]
    want = merge_deltas(deltas, r)
    assert relative_gap(merge_deltas(shuffled, r), want) <= 1e-10


@settings(max_examples=40)
@given(task_sets(), st.floats(1e-3, 1e3))
def test_scaling_every_task_scales_the_merge(case, c):
    deltas, r = case
    want = c * merge_deltas(deltas, r)
    assert relative_gap(merge_deltas([c * d for d in deltas], r), want) <= 1e-10


@settings(max_examples=60)
@given(task_sets())
def test_finite_tasks_merge_to_a_finite_delta(case):
    deltas, r = case
    assert np.isfinite(merge_deltas(deltas, r)).all()


@settings(max_examples=40)
@given(task_sets(), st.booleans())
def test_an_exact_duplicate_is_stable_under_a_tiny_rescale(case, first):
    deltas, r = case
    deltas = deltas[:2]
    twin = deltas[0] if first else deltas[-1]
    want = merge_deltas(deltas + [twin], r)
    got = merge_deltas(deltas + [twin * (1 + 1e-15)], r)
    assert relative_gap(got, want) <= 1e-12


# tasks that share directions (README "Kernels"): the cover basis is Löwdin's
# symmetric orthogonalization of the stacked bases


def _near_parallel_ta_merge(eps):
    """The rank-5 TA merge of a 30 x 24 task A and B = A + eps ||A|| E / ||E||."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 24)) * 0.8 ** np.arange(24)
    e = rng.standard_normal((30, 24))
    b = a + eps * np.linalg.norm(a) * e / np.linalg.norm(e)
    return dc_merge([TaskVector(name="a", delta=a), TaskVector(name="b", delta=b)],
                    MergeConfig(mode="fft", rank=5))


@pytest.mark.xfail(strict=True, reason=(
    "two tasks that share a direction each sit 45 degrees from their bisector, so the "
    "merge gains a full-energy term along their difference, until whiten's 1e-8 cut "
    "joins them: cos 0.707 for eps from 1e-6 to 1e-1, 1.000 for eps <= 1e-8"))
def test_near_parallel_tasks_merge_the_same_way_on_both_sides_of_the_whiten_cut():
    above, below = _near_parallel_ta_merge(1e-6), _near_parallel_ta_merge(1e-9)
    cos = np.sum(above * below) / (np.linalg.norm(above) * np.linalg.norm(below))
    assert cos > 0.99


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ta_keeps_one_tth_of_a_part_every_task_shares_and_ties_less(seed):
    rng = np.random.default_rng(seed)
    t, d = 4, 96

    def orthonormal(width):
        return np.linalg.qr(rng.standard_normal((d, width)))[0]

    left, right = orthonormal(8), orthonormal(8)
    shared = (left * np.linspace(2.0, 1.0, 8)) @ right.T
    deltas = [shared + (orthonormal(16) * np.linspace(1.5, 0.5, 16)) @ orthonormal(16).T
              for _ in range(t)]
    tasks = [TaskVector(name=f"t{i}", delta=delta) for i, delta in enumerate(deltas)]

    def kept(merged):
        """The share of the plain sum's norm the merge keeps in the shared part's subspace."""
        return np.linalg.norm(left.T @ merged @ right) / np.linalg.norm(
            left.T @ sum(deltas) @ right)

    assert abs(kept(dc_merge(tasks, MergeConfig(mode="fft", rank=24))) - 1 / t) <= 1e-12
    assert kept(dc_merge(tasks, MergeConfig(mode="fft", rank=24, merger="ties"))) < 1 / t


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["fft", "lora"])
@pytest.mark.parametrize("merger", ["ta", "ties"])
@pytest.mark.parametrize("scale", [1e-300, 1e-162, 1e-14, 1e100, 1e200, 1e300])
def test_merge_is_scale_equivariant_over_the_float64_range(scale, merger, mode):
    rng = np.random.default_rng(17)
    # full-rank deltas take the Gram fast path, LoRA ones the factors' QR path
    deltas = [rng.standard_normal((24, 20)) for _ in range(3)]
    parts = [(rng.standard_normal((24, 4)), rng.standard_normal((4, 20))) for _ in range(3)]

    def tasks(c):
        if mode == "lora":
            return [TaskVector(name=f"t{i}", factors=(c * B, A), lora_rank=4)
                    for i, (B, A) in enumerate(parts)]
        return [TaskVector(name=f"t{i}", delta=c * d) for i, d in enumerate(deltas)]

    cfg = MergeConfig(mode=mode, rank=4, merger=merger)
    assert relative_gap(dc_merge(tasks(scale), cfg) / scale, dc_merge(tasks(1.0), cfg)) <= 1e-12


def test_merge_rank_clip_warns():
    rng = np.random.default_rng(9)
    tasks = make_tasks(rng, 6, 6, 4)
    with pytest.warns(UserWarning):
        merged = dc_merge(tasks, MergeConfig(rank=3))
    assert merged.shape == (6, 6)


@pytest.mark.parametrize("rank", [None, 2], ids=["auto", "rank2"])
def test_merge_rejects_more_tasks_than_min_dim_without_a_clip_warning(rank):
    tasks = make_tasks(np.random.default_rng(12), 4, 3, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^5 tasks exceed min\(m, n\) = 3 "):
            dc_merge(tasks, MergeConfig(rank=rank))


def test_merge_auto_rank_lora_mode():
    rng = np.random.default_rng(10)
    b = rng.standard_normal((8, 2))
    a = rng.standard_normal((2, 6))
    tv = TaskVector(name="t", delta=b @ a, lora_rank=2)
    cfg = MergeConfig(mode="lora", smoothing=SmoothingStrategy.truncate_only())
    merged = dc_merge([tv], cfg)
    np.testing.assert_allclose(merged, b @ a, atol=1e-8)


def test_merge_ties_path_runs():
    rng = np.random.default_rng(11)
    tasks = make_tasks(rng, 8, 8, 3)
    merged = dc_merge(tasks, MergeConfig(rank=2, merger="ties", ties_keep=0.4))
    assert merged.shape == (8, 8)
    assert np.isfinite(merged).all()


def test_merge_config_validation():
    with pytest.raises(ValidationError):
        MergeConfig(mode="other")
    with pytest.raises(ValidationError):
        MergeConfig(rank=0)
    with pytest.raises(ValidationError):
        MergeConfig(merger="mean")
    with pytest.raises(ValidationError):
        MergeConfig(ties_keep=0.0)
    with pytest.raises(ValidationError):
        MergeConfig(mask_block=0)
    with pytest.raises(ValidationError):
        dc_merge([], MergeConfig())


@pytest.mark.parametrize("make, value", [
    (lambda v: MergeConfig(rank=v), True),
    (lambda v: MergeConfig(mask_block=v), True),
    (lambda v: OptimizerConfig(max_iters=v), True),
    (lambda v: OptimizerConfig(log_every=v), True),
    (lambda v: truncated_svd(np.eye(3), v), True),
], ids=["rank", "mask_block", "max_iters", "log_every", "truncated_svd"])
def test_integer_parameters_reject_bool(make, value):
    with pytest.raises(ValidationError, match="must be"):
        make(value)


@pytest.mark.parametrize("smoothing", [None, SmoothingStrategy.linear(5.0),
                                       SmoothingStrategy.interpolate(0.3)],
                         ids=["averaging", "linear", "interpolate"])
def test_unused_lora_rank_adds_nothing_to_the_merge(smoothing):
    # rank-16 LoRA tasks whose B has 8 zero columns: the dead tail of each
    # decomposition must not be smoothed up to the live energy
    rng = np.random.default_rng(3)
    factors = []
    for _ in range(2):
        B = rng.standard_normal((64, 16))
        B[:, 8:] = 0.0
        factors.append((B, rng.standard_normal((16, 48))))
    cfg = MergeConfig(mode="lora", smoothing=smoothing)
    merged = dc_merge([from_lora_factors(B, A) for B, A in factors], cfg)
    want = dc_merge([from_lora_factors(B[:, :8], A[:8]) for B, A in factors], cfg)
    cols = np.linalg.qr(np.hstack([B[:, :8] for B, _ in factors]))[0]
    rows = np.linalg.qr(np.hstack([A[:8].T for _, A in factors]))[0]
    outside = merged - cols @ (cols.T @ merged @ rows) @ rows.T
    assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(merged)
    assert relative_gap(merged, want) <= 1e-12


def test_merge_resolved_smoothing_defaults():
    assert MergeConfig(mode="lora").resolved_smoothing().kind == "averaging"
    assert MergeConfig(mode="fft").resolved_smoothing().kind == "truncate_only"
    explicit = MergeConfig(smoothing=SmoothingStrategy.interpolate(0.3))
    assert explicit.resolved_smoothing().kind == "interpolate"


# assemble_model


def test_assemble_alpha_zero_returns_base_bitwise():
    rng = np.random.default_rng(12)
    base = TensorContainer(
        tensors={
            "w": rng.standard_normal((4, 4)).astype(np.float32),
            "b": rng.standard_normal(4).astype(np.float32),
        }
    )
    out = assemble_model(base, {"w": np.ones((4, 4))}, alpha=0.0)
    assert np.array_equal(out.tensors["w"], base.tensors["w"])
    assert out.tensors["w"].dtype == np.float32
    assert np.array_equal(out.tensors["b"], base.tensors["b"])


def test_assemble_applies_scaled_delta():
    base = TensorContainer(tensors={"w": np.zeros((2, 2))})
    delta = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = assemble_model(base, {"w": delta}, alpha=0.5)
    np.testing.assert_allclose(out.tensors["w"], 0.5 * delta, rtol=1e-12)


@pytest.mark.parametrize("alpha", [1e300, np.inf])
def test_assemble_rejects_a_tensor_that_turns_non_finite(alpha):
    base = TensorContainer(tensors={"w": np.ones((2, 2), dtype=np.float32)})
    with pytest.raises(NumericalError, match="tensor 'w' is not finite"):
        assemble_model(base, {"w": np.ones((2, 2))}, alpha=alpha)


def test_assemble_vector_deltas_use_mean():
    base = TensorContainer(tensors={"v": np.zeros(2)})
    out = assemble_model(
        base,
        {},
        vector_deltas={"v": [np.array([2.0, 0.0]), np.array([0.0, 2.0])]},
        alpha=1.0,
    )
    np.testing.assert_allclose(out.tensors["v"], np.array([1.0, 1.0]), rtol=1e-12)


@pytest.mark.parametrize("shape", [(), (2, 1, 2)], ids=["0d", "3d"])
def test_assemble_averages_deltas_of_any_ndim_into_arrays(shape):
    base = TensorContainer(tensors={"v": np.zeros(shape, dtype=np.float32)})
    deltas = [np.full(shape, 1.0), np.full(shape, 4.0)]
    out = assemble_model(base, {}, vector_deltas={"v": deltas}, alpha=2.0)
    got = out.tensors["v"]
    assert isinstance(got, np.ndarray) and got.dtype == np.float32 and got.shape == shape
    assert np.array_equal(got, np.full(shape, 5.0))


def test_assemble_untouched_tensors_pass_through():
    rng = np.random.default_rng(13)
    extra = rng.standard_normal((3, 3)).astype(np.float32)
    base = TensorContainer(tensors={"w": np.zeros((2, 2)), "extra": extra})
    out = assemble_model(base, {"w": np.ones((2, 2))})
    assert np.array_equal(out.tensors["extra"], extra)


def test_assemble_preserves_base_dtype():
    base = TensorContainer(tensors={"w": np.zeros((2, 2), dtype=np.float32)})
    out = assemble_model(base, {"w": np.full((2, 2), 0.25)})
    assert out.tensors["w"].dtype == np.float32


def test_assemble_errors():
    base = TensorContainer(tensors={"w": np.zeros((2, 2))})
    with pytest.raises(ValidationError):
        assemble_model(base, {"missing": np.zeros((2, 2))})
    with pytest.raises(ValidationError):
        assemble_model(base, {"w": np.zeros((3, 3))})
    with pytest.raises(ValidationError):
        assemble_model(base, {"w": np.zeros((2, 2))}, alpha=-1.0)
