import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcmerge.container import TensorContainer
from dcmerge.errors import ValidationError
from dcmerge.merge import (
    MergeConfig,
    assemble_model,
    assemble_sweep,
    dc_merge,
    merge_ta,
    merge_ties,
)
from dcmerge.task_vector import (
    SmoothingStrategy,
    TaskVector,
    decompose,
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


def test_merge_rank_clip_warns():
    rng = np.random.default_rng(9)
    tasks = make_tasks(rng, 6, 6, 4)
    with pytest.warns(UserWarning):
        merged = dc_merge(tasks, MergeConfig(rank=3))
    assert merged.shape == (6, 6)


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


def test_assemble_vector_deltas_use_mean():
    base = TensorContainer(tensors={"v": np.zeros(2)})
    out = assemble_model(
        base,
        {},
        vector_deltas={"v": [np.array([2.0, 0.0]), np.array([0.0, 2.0])]},
        alpha=1.0,
    )
    np.testing.assert_allclose(out.tensors["v"], np.array([1.0, 1.0]), rtol=1e-12)


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


def test_assemble_sweep_matches_individual_calls():
    rng = np.random.default_rng(14)
    base = TensorContainer(tensors={"w": rng.standard_normal((3, 3))})
    deltas = {"w": rng.standard_normal((3, 3))}
    sweep = assemble_sweep(base, deltas, None, alphas=[0.0, 0.5, 1.0])
    assert set(sweep) == {0.0, 0.5, 1.0}
    for alpha, out in sweep.items():
        single = assemble_model(base, deltas, alpha=alpha)
        assert np.array_equal(out.tensors["w"], single.tensors["w"])
