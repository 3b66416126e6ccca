import numpy as np
import pytest

from dcmerge.errors import NumericalError, ValidationError
from dcmerge.metrics import cos_sim, dir_sim
from dcmerge.container import PairedMatrix
from dcmerge.perturb import direction_perturb, energy_perturb, perturb_rank, perturb_task_vector
from dcmerge.task_vector import TaskVector, decompose, from_lora_factors, reconstruct

from helpers import random_decomp


# energy_perturb


def test_energy_p_one_is_identity():
    sigma = np.array([5.0, 3.0, 1.0])
    out = energy_perturb(sigma, 1.0)
    np.testing.assert_allclose(out, sigma, rtol=1e-12)


def test_energy_of_a_one_entry_spectrum_is_unchanged_at_p_one_and_rejected_below():
    sigma = np.array([3.0])
    assert np.array_equal(energy_perturb(sigma, 1.0, fallback_seed=0), sigma)
    with pytest.raises(ValidationError, match="one-entry spectrum"):
        energy_perturb(sigma, 0.5, fallback_seed=0)


def test_energy_p_zero_lands_in_orthogonal_direction():
    sigma = np.array([4.0, 2.0, 1.0])
    out = energy_perturb(sigma, 0.0)
    assert abs(np.dot(out, sigma)) <= 1e-10 * np.linalg.norm(sigma) ** 2
    np.testing.assert_allclose(np.linalg.norm(out), np.linalg.norm(sigma), rtol=1e-12)


def test_energy_worked_example():
    # sigma [3,4] against its flat reference [3.5,3.5] at p = 0.6: the unit
    # residual of the reference is [1,-1]/sqrt(2) flipped toward +cos, giving
    # sigma_hat = 5 * (0.6*[0.6,0.8] + 0.8*[0.8,-0.6]) = [5.0, 0.0]
    out = energy_perturb(np.array([3.0, 4.0]), 0.6)
    np.testing.assert_allclose(out, np.array([5.0, 0.0]), atol=1e-12)


def test_energy_cosine_and_norm_hit_target_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sigma = np.abs(rng.standard_normal(6)) + 0.1
        p = rng.uniform(0.0, 1.0)
        out = energy_perturb(sigma, p)
        cos = np.dot(out, sigma) / (np.linalg.norm(out) * np.linalg.norm(sigma))
        np.testing.assert_allclose(cos, p, atol=1e-10)
        np.testing.assert_allclose(
            np.linalg.norm(out), np.linalg.norm(sigma), rtol=1e-12
        )


def test_energy_is_scale_equivariant_at_any_magnitude():
    # flatness is judged relative to the spectrum, so a small one is not flat
    sigma = np.array([4.0, 2.0, 1.0])
    for c in (1e-170, 1e-12, 1e-3, 1e5, 1e170):
        np.testing.assert_allclose(
            energy_perturb(c * sigma, 0.3), c * energy_perturb(sigma, 0.3), rtol=1e-12
        )


def test_energy_parallel_reference_needs_fallback():
    sigma = np.array([2.0, 2.0, 2.0])
    # flat sigma makes the default flat reference parallel
    with pytest.raises(NumericalError):
        energy_perturb(sigma, 0.5)
    out = energy_perturb(sigma, 0.5, fallback_seed=7)
    cos = np.dot(out, sigma) / (np.linalg.norm(out) * np.linalg.norm(sigma))
    np.testing.assert_allclose(cos, 0.5, atol=1e-10)


def test_energy_fallback_is_deterministic():
    sigma = np.full(4, 3.0)
    a = energy_perturb(sigma, 0.4, fallback_seed=11)
    b = energy_perturb(sigma, 0.4, fallback_seed=11)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("fallback_seed", [None, 3])
def test_energy_rejects_a_negative_entry(p, fallback_seed):
    # [1, -1] has a zero flat reference, which would pass for a flat spectrum
    for sigma in ([1.0, -1.0], [3.0, 2.0, -0.5]):
        with pytest.raises(ValidationError, match="non-negative"):
            energy_perturb(np.array(sigma), p, fallback_seed=fallback_seed)


def test_energy_validation():
    with pytest.raises(ValidationError):
        energy_perturb(np.ones((2, 2)), 0.5)
    with pytest.raises(ValidationError):
        energy_perturb(np.array([1.0, np.nan]), 0.5)
    with pytest.raises(ValidationError):
        energy_perturb(np.array([1.0, 2.0]), 1.5)
    with pytest.raises(ValidationError):
        energy_perturb(np.array([1.0, 2.0]), -0.1)
    with pytest.raises(NumericalError):
        energy_perturb(np.zeros(3), 0.5)


# direction_perturb


def test_direction_p_one_is_identity():
    rng = np.random.default_rng(1)
    kd = random_decomp(rng, 12, 10, 3)
    out = direction_perturb(kd, 1.0, seed=0)
    np.testing.assert_allclose(out.U, kd.U, atol=1e-12)
    np.testing.assert_allclose(out.V, kd.V, atol=1e-12)


def test_direction_p_zero_is_orthogonal():
    rng = np.random.default_rng(2)
    kd = random_decomp(rng, 14, 12, 3)
    out = direction_perturb(kd, 0.0, seed=1)
    np.testing.assert_allclose(dir_sim(kd, out), 0.0, atol=1e-8)
    np.testing.assert_allclose(
        cos_sim(reconstruct(kd), reconstruct(out)), 0.0, atol=1e-8
    )


def test_direction_hits_target_dir_sim():
    rng = np.random.default_rng(3)
    kd = random_decomp(rng, 32, 32, 4)
    for p in (0.25, 0.5, 0.75):
        out = direction_perturb(kd, p, seed=42)
        assert abs(dir_sim(kd, out) - p) <= 1e-8


def test_direction_trace_formula_oracle():
    # dir_sim of the perturbed copy against the original reduces to
    # (1/r) tr((U'U)^T . (V'V)) computed by hand from the mixing weights
    rng = np.random.default_rng(4)
    kd = random_decomp(rng, 20, 18, 3)
    p = 0.37
    out = direction_perturb(kd, p, seed=9)
    r = kd.sigma.size
    by_hand = np.trace((out.U.T @ kd.U) * (out.V.T @ kd.V)) / r
    np.testing.assert_allclose(dir_sim(kd, out), by_hand, atol=1e-8)


def test_direction_preserves_sigma_bitwise():
    rng = np.random.default_rng(5)
    kd = random_decomp(rng, 16, 12, 4)
    out = direction_perturb(kd, 0.5, seed=3)
    assert np.array_equal(out.sigma, kd.sigma)


def test_direction_output_orthonormal():
    rng = np.random.default_rng(6)
    kd = random_decomp(rng, 24, 20, 5)
    out = direction_perturb(kd, 0.3, seed=8)
    np.testing.assert_allclose(out.U.T @ out.U, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(out.V.T @ out.V, np.eye(5), atol=1e-10)


def test_direction_deterministic_per_seed():
    rng = np.random.default_rng(7)
    kd = random_decomp(rng, 12, 12, 2)
    a = direction_perturb(kd, 0.6, seed=5)
    b = direction_perturb(kd, 0.6, seed=5)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.V, b.V)
    c = direction_perturb(kd, 0.6, seed=6)
    assert not np.array_equal(a.U, c.U)


def test_direction_needs_room_for_complement():
    rng = np.random.default_rng(8)
    kd = random_decomp(rng, 6, 6, 4)  # 2r = 8 > 6
    with pytest.raises(ValidationError):
        direction_perturb(kd, 0.5, seed=0)


def test_direction_p_validation():
    rng = np.random.default_rng(9)
    kd = random_decomp(rng, 10, 10, 2)
    with pytest.raises(ValidationError):
        direction_perturb(kd, 1.2, seed=0)
    with pytest.raises(ValidationError):
        direction_perturb(kd, -0.5, seed=0)


def test_a_negative_seed_is_rejected_by_both_perturbations():
    kd = random_decomp(np.random.default_rng(9), 10, 10, 2)
    with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
        direction_perturb(kd, 0.5, -1)
    with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
        energy_perturb(np.array([3.0, 1.0]), 0.5, fallback_seed=-1)


def test_degradation_is_monotone_in_p():
    # the cosine between original and perturbed deltas equals p itself, so
    # sweeping p traces a strictly increasing similarity curve
    rng = np.random.default_rng(10)
    kd = random_decomp(rng, 28, 24, 3)
    orig = reconstruct(kd)
    sims = []
    for p in np.linspace(0.0, 1.0, 9):
        out = direction_perturb(kd, float(p), seed=13)
        sims.append(cos_sim(orig, reconstruct(out)))
    diffs = np.diff(sims)
    assert (diffs > 0).all()
    np.testing.assert_allclose(sims, np.linspace(0.0, 1.0, 9), atol=1e-8)


# perturb_rank and perturb_task_vector: the rules of `dcmerge perturb`, for a Python caller


def test_perturb_rank_rule_from_a_task_vector_or_its_header():
    rng = np.random.default_rng(11)
    dense = TaskVector("d", rng.standard_normal((12, 9)))
    lora = from_lora_factors(rng.standard_normal((12, 3)), rng.standard_normal((3, 9)), "l")
    assert perturb_rank(dense, "energy") == 2  # min(m, n) // 4
    assert perturb_rank(TaskVector("s", np.ones((3, 2))), "energy") == 1  # at least 1
    assert perturb_rank(lora, "energy") == 3  # the LoRA rank
    assert perturb_rank(lora, "energy", 20) == 9  # clipped to min(m, n)
    assert perturb_rank(PairedMatrix("l", (12, 9), ("l.lora_B", "l.lora_A"), 3), "direction") == 3
    with pytest.raises(ValidationError, match="rank must be a positive int or None, got True"):
        perturb_rank(dense, "energy", True)
    with pytest.raises(ValidationError, match="kind must be 'energy' or 'direction', got 'flat'"):
        perturb_rank(dense, "flat")


@pytest.mark.parametrize("rank, clip", [(5, ""), (40, " (rank 40 clipped to min(m, n))")])
def test_perturb_rank_states_the_room_rule_of_direction_perturb(rank, clip):
    tv = TaskVector("w", np.random.default_rng(12).standard_normal((12, 9)))
    working = min(rank, 9)
    with pytest.raises(ValidationError) as header:
        perturb_rank(tv, "direction", rank)
    assert str(header.value) == (
        f"tensor 'w' (12, 9): kind 'direction' at working rank {working}{clip} needs "
        f"2 x rank <= min(m, n); the largest rank that fits is 4")
    with pytest.raises(ValidationError, match=r"needs 2 x rank <= min\(m, n\); the largest rank "
                                              r"that fits is 4"):
        direction_perturb(decompose(tv, working), 0.5, 0)
    assert perturb_rank(tv, "direction", 4) == 4


def test_perturb_task_vector_moves_energy_only_between_live_entries():
    # a rank-2 LoRA pair decomposed at rank 4 has two round-off entries, whose directions
    # LAPACK picks from the null spaces; the dead entries keep their values
    rng = np.random.default_rng(12)
    tv = from_lora_factors(rng.standard_normal((8, 2)), rng.standard_normal((2, 6)), "q")
    kd = decompose(tv, 4)
    (U, sigma, V), achieved = perturb_task_vector(tv, "energy", 0.9, 5, rank=4)
    assert np.array_equal(U, kd.U) and np.array_equal(V, kd.V)
    assert np.array_equal(sigma[2:], kd.sigma[2:])
    assert not np.array_equal(sigma[:2], kd.sigma[:2])
    assert abs(cos_sim(tv.delta, (U * sigma) @ V.T) - 0.9) <= 1e-12
    assert abs(achieved - 0.9) <= 1e-12
    # energy_perturb on the whole spectrum, dead entries included, would move energy into them
    assert not np.allclose(energy_perturb(kd.sigma, 0.9, 5)[2:], kd.sigma[2:])


def test_perturb_task_vector_direction_and_its_degenerate_cases():
    rng = np.random.default_rng(13)
    tv = TaskVector("w", rng.standard_normal((16, 12)))
    (U, sigma, V), achieved = perturb_task_vector(tv, "direction", 0.3, 7)
    want = direction_perturb(decompose(tv, 3), 0.3, 7)
    assert np.array_equal(U, want.U) and np.array_equal(V, want.V)
    assert np.array_equal(sigma, want.sigma) and abs(achieved - 0.3) <= 1e-10
    assert perturb_task_vector(TaskVector("z", np.zeros((16, 12))), "energy", 0.3, 7) is None
    with pytest.raises(ValidationError, match="^w: a one-entry spectrum has no direction to "
                                              "rotate toward below p = 1; pass rank 2 or more$"):
        perturb_task_vector(tv, "energy", 0.3, 7, rank=1)
    rank_one = from_lora_factors(rng.standard_normal((16, 1)), rng.standard_normal((1, 12)), "r")
    with pytest.raises(ValidationError, match="; its delta has rank 1$"):
        perturb_task_vector(rank_one, "energy", 0.3, 7, rank=2)
    with pytest.raises(ValidationError, match="p must be in"):
        perturb_task_vector(tv, "energy", float("nan"), 7)
