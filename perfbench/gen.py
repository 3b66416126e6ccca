"""Seeded float32 checkpoint sets for the benchmark workloads.

Every file is written with the package's own canonical container writer, so
one seed always gives byte-identical files. Each model has, per layer, four
d x d attention matrices, a 4d x d up-projection and a d x 4d down-projection,
plus a norm vector and an up-projection bias. No task delta is all zero.
"""

from __future__ import annotations

import numpy as np

from dcmerge.container import TensorContainer, write_container

# rank and decay of the structured part of each full fine-tuning delta; the
# rest of the delta is a full-rank noise tail
FFT_SIGNAL_RANK = 32
FFT_DECAY = 0.9
FFT_SCALE = 0.05
NOISE_SCALE = 0.005
VECTOR_SCALE = 1e-3


def matrix_shapes(layers: int, d: int) -> dict[str, tuple[int, int]]:
    shapes = {}
    for layer in range(layers):
        p = f"layers.{layer}"
        for proj in ("q", "k", "v", "o"):
            shapes[f"{p}.attn.{proj}.weight"] = (d, d)
        shapes[f"{p}.mlp.up.weight"] = (4 * d, d)
        shapes[f"{p}.mlp.down.weight"] = (d, 4 * d)
    return shapes


def vector_shapes(layers: int, d: int) -> dict[str, int]:
    shapes = {}
    for layer in range(layers):
        shapes[f"layers.{layer}.norm.weight"] = d
        shapes[f"layers.{layer}.mlp.up.bias"] = 4 * d
    return shapes


def _base(rng, mats, vecs) -> dict[str, np.ndarray]:
    tensors = {}
    for name, (m, n) in mats.items():
        tensors[name] = (rng.standard_normal((m, n)) / np.sqrt(n)).astype(np.float32)
    for name, size in vecs.items():
        start = 1.0 if name.endswith("norm.weight") else 0.0
        tensors[name] = (start + 0.02 * rng.standard_normal(size)).astype(np.float32)
    return tensors


def _fft_delta(rng, m: int, n: int) -> np.ndarray:
    k = min(FFT_SIGNAL_RANK, m, n)
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    sigma = FFT_SCALE * FFT_DECAY ** np.arange(k)
    tail = NOISE_SCALE / np.sqrt(max(m, n)) * rng.standard_normal((m, n))
    return (U * sigma) @ V.T + tail


def _vector_deltas(rng, base, vecs) -> dict[str, np.ndarray]:
    return {
        name: (base[name] + VECTOR_SCALE * rng.standard_normal(size)).astype(np.float32)
        for name, size in vecs.items()
    }


def write_merge_set(
    out_dir, seed: int, mode: str, n_tasks: int, layers: int, d: int, lora_rank: int = 16
) -> tuple[str, list[str]]:
    """Write ``base.dcm`` and ``task<i>.dcm`` files; return their paths.

    ``fft`` task files hold full fine-tuned weights (base + delta). ``lora``
    task files hold ``<p>.lora_B`` (m x r) and ``<p>.lora_A`` (r x n) factors
    for every matrix ``<p>.weight`` of the base, plus the 1-D tensors.
    """
    mats = matrix_shapes(layers, d)
    vecs = vector_shapes(layers, d)
    base_seq, *task_seqs = np.random.SeedSequence(seed).spawn(1 + n_tasks)
    base = _base(np.random.default_rng(base_seq), mats, vecs)
    base_path = f"{out_dir}/base.dcm"
    write_container(TensorContainer(base), base_path)
    task_paths = []
    for i, seq in enumerate(task_seqs):
        rng = np.random.default_rng(seq)
        tensors = _vector_deltas(rng, base, vecs)
        for name, (m, n) in mats.items():
            if mode == "fft":
                full = base[name].astype(np.float64) + _fft_delta(rng, m, n)
                tensors[name] = full.astype(np.float32)
            else:
                prefix = name[: -len(".weight")]
                B = rng.standard_normal((m, lora_rank)) * (FFT_SCALE / np.sqrt(lora_rank))
                A = rng.standard_normal((lora_rank, n)) / np.sqrt(n)
                tensors[prefix + ".lora_B"] = B.astype(np.float32)
                tensors[prefix + ".lora_A"] = A.astype(np.float32)
        path = f"{out_dir}/task{i}.dcm"
        write_container(TensorContainer(tensors), path)
        task_paths.append(path)
    return base_path, task_paths
