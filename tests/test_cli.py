import csv
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from dcmerge.cli import main
from dcmerge.container import TensorContainer, extract_task_vectors, read_container, write_container
from dcmerge.merge import MergeConfig, assemble_model, assemble_tensor, dc_merge, resolve_rank
from dcmerge.perturb import perturb_task_vector
from dcmerge.cover import build_cover_basis, frame
from dcmerge.metrics import _alignment, alignment_score, cos_sim
from dcmerge.task_vector import SmoothingStrategy, TaskVector, decompose

from helpers import (merge_args, optimize_args, perturb_args, poison, python, recast,
                     relative_gap, report_args, write_fft_set, write_lora_set, write_merge_set)

# the tensors of the small fft sets most tests here merge
ENC = {"enc.weight": (8, 6), "enc.bias": (8,)}


def test_merge_matches_programmatic_pipeline(tmp_path):
    base_path, task_paths = write_fft_set(tmp_path, ENC)
    out_path = tmp_path / "merged.dcm"
    rc = main(merge_args(base_path, task_paths, out_path, "--rank", "2"))
    assert rc == 0

    base = read_container(base_path)
    extracted = [
        extract_task_vectors(base, read_container(p), mode="fft")
        for p in task_paths
    ]
    cfg = MergeConfig(mode="fft", rank=2)
    merged = {
        "enc.weight": dc_merge(
            [ex.matrices["enc.weight"] for ex in extracted], cfg
        )
    }
    vectors = {"enc.bias": [ex.vectors["enc.bias"] for ex in extracted]}
    want = assemble_model(base, merged, vector_deltas=vectors, alpha=1.0)

    got = read_container(out_path)
    assert np.array_equal(got.tensors["enc.weight"], want.tensors["enc.weight"])
    assert np.array_equal(got.tensors["enc.bias"], want.tensors["enc.bias"])


def test_merge_double_run_is_bitwise_identical(tmp_path):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=1)
    out1 = tmp_path / "m1.dcm"
    out2 = tmp_path / "m2.dcm"
    assert main(merge_args(base_path, task_paths, out1)) == 0
    assert main(merge_args(base_path, task_paths, out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_merge_has_no_seed_option(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=1)
    with pytest.raises(SystemExit) as exc:
        main(merge_args(base_path, task_paths, tmp_path / "m.dcm", "--seed", "7"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (tmp_path / "m.dcm").exists()


def test_merge_lora_checkpoints(tmp_path):
    base_path, task_paths = write_lora_set(tmp_path, ranks=[2, 2], seed=3)
    out_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, out_path, mode="lora")) == 0
    got = read_container(out_path).tensors["q.weight"]
    assert got.shape == (8, 6)
    assert not np.array_equal(got, read_container(base_path).tensors["q.weight"])


def test_merge_alpha_zero_rejected(tmp_path):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=4)
    assert main(merge_args(base_path, task_paths, tmp_path / "m.dcm", "--alpha", "0.0")) == 2


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_merge_non_finite_alpha_exits_2(tmp_path, alpha):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=4)
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, out_path, "--alpha", alpha)) == 2
    assert not out_path.exists()


def test_merge_alpha_that_overflows_the_base_dtype_exits_3(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=4)
    recast([base_path, *task_paths], np.float32)  # a float32 cast of base + 1e300 * delta is Inf
    out_path = tmp_path / "m.dcm"
    rc = main(merge_args(base_path, task_paths, out_path, "--alpha", "1e300"))
    assert rc == 3
    assert "tensor 'enc.bias' is not finite" in capsys.readouterr().err  # first by name
    assert not out_path.exists()


@pytest.mark.parametrize("written, asked", [("fft", "lora"), ("lora", "fft")])
def test_merge_in_a_mode_the_checkpoints_do_not_hold_exits_2(tmp_path, capsys, written, asked):
    if written == "fft":
        base_path, task_paths = write_fft_set(tmp_path, ENC)
    else:
        base_path, task_paths = write_lora_set(tmp_path, ranks=[2, 2])
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, out_path, mode=asked)) == 2
    assert f"{task_paths[0]}: holds {written} checkpoint tensors" in capsys.readouterr().err
    assert not out_path.exists()


def test_merge_of_checkpoints_without_a_shared_matrix_exits_2(tmp_path, capsys):
    base = TensorContainer(tensors={"enc.weight": np.ones((4, 3)), "enc.bias": np.ones(4)})
    write_container(base, tmp_path / "base.dcm")
    task = TensorContainer(tensors={"dec.weight": np.ones((4, 3)), "enc.bias": np.zeros(4)})
    write_container(task, tmp_path / "task.dcm")
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(tmp_path / "base.dcm", [tmp_path / "task.dcm"], out_path)) == 2
    assert "share no matrix tensor" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("lacking", [0, 1])
def test_merge_of_a_1d_tensor_missing_from_a_task_exits_2(tmp_path, capsys, lacking):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=23)
    merged_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, merged_path)) == 0
    tensors = dict(read_container(task_paths[lacking]).tensors)
    del tensors["enc.bias"]
    write_container(TensorContainer(tensors), task_paths[lacking])
    capsys.readouterr()

    out_path = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, out_path)) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {task_paths[lacking]}: lacks 1-D tensor 'enc.bias', "
                   "which another task has\n")
    assert not out_path.exists()
    # report and optimize-basis read matrix tensors alone and still take the set
    assert main(report_args(base_path, merged_path, task_paths, tmp_path / "r.csv")) == 0
    assert main(optimize_args(base_path, task_paths, tmp_path / "t.csv", "enc.weight")) == 0


def test_mask_block_zero_names_its_flag(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC)
    with pytest.raises(SystemExit) as exit_info:
        main(merge_args(base_path, task_paths, tmp_path / "m.dcm", "--mask-block", "0"))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --mask-block: expected 'auto' or a positive integer, got 0" in err
    assert "rank" not in err.splitlines()[-1]


def test_missing_input_file_exits_2(tmp_path):
    assert main(merge_args(tmp_path / "nope.dcm", [tmp_path / "also-nope.dcm"],
                           tmp_path / "m.dcm")) == 2


@pytest.mark.parametrize("kind", ["energy", "direction"])
@pytest.mark.parametrize("mode", ["fft", "lora"])
def test_perturb_leaves_a_zero_delta_unchanged(tmp_path, capsys, mode, kind):
    # w is a frozen layer (fft) or a LoRA pair with B = 0; v carries a delta
    rng = np.random.default_rng(5)
    base = {name: rng.standard_normal((16, 12)) for name in ("v.weight", "w.weight")}
    if mode == "fft":
        task = {"v.weight": base["v.weight"] + rng.standard_normal((16, 12)),
                "w.weight": base["w.weight"].copy()}
        zero, moved = ["w.weight"], "v.weight"
    else:
        task = {"v.lora_B": rng.standard_normal((16, 2)), "v.lora_A": rng.standard_normal((2, 12)),
                "w.lora_B": np.zeros((16, 2)), "w.lora_A": rng.standard_normal((2, 12))}
        zero, moved = ["w.lora_B", "w.lora_A"], "v.lora_B"
    write_container(TensorContainer(tensors=base), tmp_path / "base.dcm")
    write_container(TensorContainer(tensors=task), tmp_path / "task.dcm")
    out_path = tmp_path / "out.dcm"
    assert main(perturb_args(tmp_path / "base.dcm", tmp_path / "task.dcm", out_path,
                             kind=kind, seed=0)) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("v.weight: rank ")
    assert printed[1:] == ["w.weight: zero delta, left unchanged",
                           f"perturbed 1 tensors -> {out_path}"]
    got = read_container(out_path).tensors
    for name in zero:
        assert np.array_equal(got[name], task[name])
    assert not np.allclose(got[moved], task[moved])


def test_perturb_writes_a_zero_lora_delta_at_another_rank_as_zero_factors(tmp_path):
    rng = np.random.default_rng(5)
    base = {name: rng.standard_normal((16, 12)) for name in ("v.weight", "w.weight")}
    task = {"v.lora_B": rng.standard_normal((16, 2)), "v.lora_A": rng.standard_normal((2, 12)),
            "w.lora_B": np.zeros((16, 2)), "w.lora_A": rng.standard_normal((2, 12))}
    write_container(TensorContainer(tensors=base), tmp_path / "base.dcm")
    write_container(TensorContainer(tensors=task), tmp_path / "task.dcm")
    out_path = tmp_path / "out.dcm"
    assert main(perturb_args(tmp_path / "base.dcm", tmp_path / "task.dcm", out_path,
                             "--rank", 3, seed=0)) == 0
    got = read_container(out_path).tensors
    assert got["v.lora_B"].shape == got["w.lora_B"].shape == (16, 3)
    assert got["w.lora_A"].shape == (3, 12)
    assert not got["w.lora_B"].any() and not got["w.lora_A"].any()


def test_perturb_writes_a_1d_tensor_named_like_a_lora_pairs_matrix_through(tmp_path, capsys):
    # w.weight, 1-D, is not read as a delta, since the w.lora_* pair stands for that matrix
    rng = np.random.default_rng(6)
    task = {"w.lora_B": rng.standard_normal((8, 2)), "w.lora_A": rng.standard_normal((2, 6)),
            "w.weight": rng.standard_normal(5)}
    write_container(TensorContainer(tensors={"w.weight": rng.standard_normal((8, 6))}),
                    tmp_path / "base.dcm")
    write_container(TensorContainer(tensors=task), tmp_path / "task.dcm")
    out_path = tmp_path / "out.dcm"
    assert main(perturb_args(tmp_path / "base.dcm", tmp_path / "task.dcm", out_path, seed=0)) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("w.weight: rank 2, achieved similarity ")
    assert printed[1:] == [f"perturbed 1 tensors -> {out_path}"]
    got = read_container(out_path).tensors
    assert sorted(got) == ["w.lora_A", "w.lora_B", "w.weight"]
    assert got["w.weight"].tobytes() == task["w.weight"].tobytes()
    assert not np.allclose(got["w.lora_B"] @ got["w.lora_A"], task["w.lora_B"] @ task["w.lora_A"])


@pytest.mark.parametrize("kind", ["energy", "direction"])
@pytest.mark.parametrize("mode", ["fft", "lora"])
def test_perturb_writes_the_library_perturbation_of_each_tensor(tmp_path, mode, kind):
    # dcmerge perturb adds only I/O to perturb_task_vector, at each tensor's seed
    if mode == "fft":
        shapes = {"a.weight": (16, 12), "b.weight": (12, 10), "a.bias": (16,)}
        base_path, (task_path,) = write_fft_set(tmp_path, shapes, 1, 3, np.float32)
    else:
        base_path, (task_path,) = write_lora_set(tmp_path, [3], shape=(16, 12))
    out = tmp_path / "p.dcm"
    assert main(perturb_args(base_path, task_path, out, kind=kind, p=0.4, seed=9)) == 0
    base, task = read_container(base_path), read_container(task_path)
    matrices = extract_task_vectors(base, task, mode).matrices
    children = np.random.SeedSequence(9).spawn(len(matrices))
    want = dict(task.tensors)
    for (name, tv), child in zip(sorted(matrices.items()), children):
        seed = int(child.generate_state(1, dtype=np.uint64)[0])
        (U, sigma, V), _ = perturb_task_vector(tv, kind, 0.4, seed)
        if mode == "fft":
            want[name] = assemble_tensor(name, base.tensors[name], (U * sigma) @ V.T, 1.0)
        else:
            B, A = name.replace("weight", "lora_B"), name.replace("weight", "lora_A")
            want[B], want[A] = ((U * sigma).astype(task.tensors[B].dtype),
                              V.T.astype(task.tensors[A].dtype))
    got = read_container(out).tensors
    assert sorted(got) == sorted(want)
    assert [name for name in got if got[name].tobytes() != want[name].tobytes()] == []


def test_perturb_energy_at_working_rank_one(tmp_path, capsys):
    # the auto rank of an 8 x 6 fft task is max(1, 6 // 4) = 1
    base_path, task_paths = write_fft_set(tmp_path, ENC, 1, 8)
    out_path = tmp_path / "out.dcm"
    perturb = perturb_args(base_path, task_paths[0], out_path, kind="energy", seed=0)
    assert main([*perturb, "--p", "1"]) == 0
    assert capsys.readouterr().out.startswith("enc.weight: rank 1, achieved similarity 1.000000\n")
    out_path.unlink()
    assert main(perturb) == 2
    err = capsys.readouterr().err
    assert err == ("error: enc.weight: a one-entry spectrum has no direction to rotate toward "
                   "below p = 1; pass rank 2 or more\n")
    assert not out_path.exists()
    assert main([*perturb, "--rank", "2"]) == 0


def test_perturb_energy_moves_energy_only_between_the_directions_the_task_determines(tmp_path):
    # a rank-2 LoRA pair decomposes at working rank 4 with two round-off entries, whose
    # directions LAPACK picks from the null spaces; they keep their values
    base_path, (task_path,) = write_lora_set(tmp_path, [2])
    out_path = tmp_path / "p.dcm"
    assert main(perturb_args(base_path, task_path, out_path, "--rank", 4, kind="energy",
                             p=0.9)) == 0
    task, got = read_container(task_path).tensors, read_container(out_path).tensors
    B, A = task["q.lora_B"], task["q.lora_A"]
    delta = got["q.lora_B"] @ got["q.lora_A"]
    cols, rows = np.linalg.qr(B)[0], np.linalg.qr(A.T)[0]
    outside = delta - cols @ (cols.T @ delta @ rows) @ rows.T
    assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(delta)
    assert abs(cos_sim(B @ A, delta) - 0.9) <= 1e-12


def test_perturb_energy_of_a_rank_one_delta_at_a_higher_rank_exits_2(tmp_path, capsys):
    base_path, (task_path,) = write_lora_set(tmp_path, [1])
    out_path = tmp_path / "p.dcm"
    assert main(perturb_args(base_path, task_path, out_path, "--rank", 2, kind="energy")) == 2
    assert capsys.readouterr().err == (
        "error: q.weight: a one-entry spectrum has no direction to rotate toward below p = 1; "
        "its delta has rank 1\n")
    assert not out_path.exists()


def test_perturb_of_a_file_without_a_matrix_tensor_exits_2(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, {"enc.bias": (8,)})
    out_path = tmp_path / "p.dcm"
    assert main(perturb_args(base_path, task_paths[0], out_path)) == 2
    assert capsys.readouterr().err == "error: no matrix tensors found to perturb\n"
    assert not out_path.exists()


def test_perturb_energy_that_overflows_the_task_dtype_exits_3(tmp_path, capsys):
    # a float32 weight near the largest float32, whose perturbed spectrum pushes it over
    rng = np.random.default_rng(0)
    base = np.full((8, 8), 3e38, dtype=np.float32)
    task = (base.astype(np.float64) - 3e37 * rng.random((8, 8))).astype(np.float32)
    write_container(TensorContainer(tensors={"w.weight": base}), tmp_path / "base.dcm")
    write_container(TensorContainer(tensors={"w.weight": task}), tmp_path / "task.dcm")
    out_path = tmp_path / "out.dcm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning in place of the error
        rc = main(perturb_args(tmp_path / "base.dcm", tmp_path / "task.dcm", out_path,
                               kind="energy", p=0))
    assert rc == 3
    assert "numerical error: tensor 'w.weight' is not finite" in capsys.readouterr().err
    assert not out_path.exists()

    # a finite float32 LoRA pair whose perturbed B = U diag(sigma) exceeds float32
    lora = {"w.lora_B": (1e30 * rng.standard_normal((8, 2))).astype(np.float32),
            "w.lora_A": (1e10 * rng.standard_normal((2, 6))).astype(np.float32)}
    write_container(TensorContainer(tensors={"w.weight": np.zeros((8, 6), np.float32)}),
                    tmp_path / "base.dcm")
    write_container(TensorContainer(tensors=lora), tmp_path / "task.dcm")
    out_path.write_bytes(b"an earlier output")
    before = sorted(os.listdir(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(perturb_args(tmp_path / "base.dcm", tmp_path / "task.dcm", out_path))
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical error: tensor 'w.lora_B' is not finite after perturbation\n")
    assert out_path.read_bytes() == b"an earlier output"
    assert sorted(os.listdir(tmp_path)) == before


def test_perturb_direction_records_metadata(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC, 1, 6)
    out_path = tmp_path / "pert.dcm"
    assert main(perturb_args(base_path, task_paths[0], out_path, "--rank", 2, p=0.49, seed=11)) == 0
    printed = capsys.readouterr().out
    assert "0.49" in printed
    got = read_container(out_path)
    assert got.metadata["dcmerge.perturb.kind"] == "direction"
    assert got.metadata["dcmerge.perturb.p"] == "0.49"
    assert got.metadata["dcmerge.perturb.seed"] == "11"
    # perturbed checkpoint still deviates from base by a same-rank delta
    delta = got.tensors["enc.weight"] - read_container(base_path).tensors["enc.weight"]
    assert np.linalg.matrix_rank(delta, tol=1e-8) == 2


def test_perturb_deterministic_per_seed(tmp_path):
    base_path, task_paths = write_fft_set(tmp_path, ENC, 1, 7)
    outs = [tmp_path / "p1.dcm", tmp_path / "p2.dcm"]
    for out in outs:
        assert main(perturb_args(base_path, task_paths[0], out, "--rank", 2, p=0.3, seed=21)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_report_csv_structure(tmp_path):
    base_path, task_paths = write_fft_set(tmp_path, ENC, 2, 8)
    merged_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, merged_path, "--rank", "2")) == 0
    report_path = tmp_path / "report.csv"
    report = report_args(base_path, merged_path, task_paths, report_path)
    assert main(report) == 0
    with open(report_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tensor", "task", "metric", "value"]
    metrics = {row[2] for row in rows[1:]}
    assert "cos_sim" in metrics
    assert "projected_dir_sim" in metrics
    assert "alignment_score" in metrics
    for row in rows[1:]:
        float(row[3])  # every value parses

    # run again over the CSV at mode 640: the mode and the bytes stay, no temporary file does
    first = report_path.read_bytes()
    report_path.chmod(0o640)
    assert main(report) == 0
    assert report_path.stat().st_mode & 0o777 == 0o640
    assert report_path.read_bytes() == first
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["base.dcm", "merged.dcm", "report.csv", "task0.dcm", "task1.dcm"])


def test_report_writes_nan_for_a_frozen_layer(tmp_path):
    rng = np.random.default_rng(4)
    weight = rng.standard_normal((16, 12))
    paths = [tmp_path / name for name in ("base.dcm", "frozen.dcm", "tuned.dcm")]
    tuned_weight = weight + 0.1 * rng.standard_normal((16, 12))
    for path, w in zip(paths, [weight, weight, tuned_weight]):
        write_container(TensorContainer(tensors={"w": w}), path)
    base_path, frozen, tuned = map(str, paths)
    merged = str(tmp_path / "merged.dcm")
    report = tmp_path / "report.csv"
    assert main(merge_args(base_path, [frozen, tuned], merged)) == 0
    assert main(report_args(base_path, merged, [frozen, tuned], report)) == 0
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for tensor in ("w", "ALL"):
        for metric in ("cos_sim", "projected_dir_sim"):
            values = {task: v for t, task, m, v in rows if (t, m) == (tensor, metric)}
            assert values[frozen] == "nan"
            assert np.isfinite(float(values[tuned]))


def test_optimize_basis_trace_is_non_decreasing(tmp_path):
    base_path, task_paths = write_fft_set(tmp_path, ENC, 2, 9)
    trace_path = tmp_path / "trace.csv"
    assert main(optimize_args(base_path, task_paths, trace_path, "enc.weight",
                              "--rank", 2, "--log-every", 5, iters=25)) == 0
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "score"]
    iters = [int(r[0]) for r in rows[1:]]
    scores = [float(r[1]) for r in rows[1:]]
    assert iters == [0, 5, 10, 15, 20, 25]
    for a, b in zip(scores, scores[1:]):
        assert b >= a - 1e-8


def test_accuracy_report_table(tmp_path, capsys):
    table = tmp_path / "acc.csv"
    table.write_text(
        "task,merged,finetuned,zeroshot\n"
        "taskA,0.8,0.9,0.5\n"
        "taskB,0.8,0.8,0.4\n"
    )
    rc = main(["accuracy-report", "--table", str(table)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "taskA" in out and "taskB" in out
    assert "0.750000" in out  # taskA NAI: (0.8-0.5)/(0.9-0.5)
    assert "average" in out.lower()


def test_accuracy_report_reads_a_table_saved_with_a_byte_order_mark(tmp_path, capsys):
    # spreadsheet exports often start UTF-8 text with one
    table = tmp_path / "acc.csv"
    table.write_bytes(b"\xef\xbb\xbfcifar,0.8,0.9,0.5\n")
    assert main(["accuracy-report", "--table", str(table)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row == f"{'cifar':<24} {0.8 / 0.9:>12.6f} {0.75:>12.6f}"


def test_inspect_lists_tensors(tmp_path, capsys):
    base_path, _ = write_fft_set(tmp_path, ENC, seed=10)
    rc = main(["inspect", str(base_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "enc.weight" in out
    assert "enc.bias" in out
    assert "(8, 6)" in out


def test_inspect_missing_file_exits_2(tmp_path):
    assert main(["inspect", str(tmp_path / "ghost.dcm")]) == 2


def test_inspect_reports_non_finite_tensor_and_goes_on(tmp_path, capsys):
    bad = np.random.default_rng(18).standard_normal((16, 12)).astype(np.float32)
    bad[3, 4] = np.nan
    path = tmp_path / "nan.dcm"
    tensors = {"q.weight": bad, "k.weight": np.eye(4, dtype=np.float32)}
    write_container(TensorContainer(tensors=tensors), path)
    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "q.weight  F32  (16, 12)\n    spectrum: non-finite entries\n" in out
    assert "k.weight  F32  (4, 4)\n    top-r energy fraction: " in out


def test_inspect_svd_non_convergence_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "w.dcm"
    write_container(TensorContainer(tensors={"w": np.eye(4)}), path)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["inspect", str(path)]) == 3
    assert "SVD did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    (b"[" * 100_000, "error: header is not valid UTF-8 JSON: maximum recursion depth exceeded"),
    (b'{"a":{"dtype":"F32","shape":[2,1],"data_offsets":[0,8]},'
     b'"a":{"dtype":"F32","shape":[1,2],"data_offsets":[0,8]}}', "error: header repeats key 'a'"),
], ids=["nested", "repeated"])
def test_inspect_of_a_malformed_header_exits_2_without_a_traceback(tmp_path, payload, message):
    path = tmp_path / "bad.dcm"
    path.write_bytes(len(payload).to_bytes(8, "little") + payload + b"\x00" * 8)
    proc = python("-m", "dcmerge.cli", "inspect", path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr


def test_report_to_unwritable_path_exits_2(tmp_path):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=11)
    merged_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, merged_path)) == 0
    out = tmp_path / "no-such-dir" / "report.csv"
    assert main(report_args(base_path, merged_path, task_paths[:1], out)) == 2


@pytest.mark.parametrize(
    "write_fixture, mode, tensor",
    [
        (lambda tmp_path: write_fft_set(tmp_path, ENC), "fft", "enc.weight"),
        (lambda tmp_path: write_lora_set(tmp_path, ranks=[2, 2]), "lora", "q.lora_A"),
    ],
    ids=["fft", "lora"],
)
def test_merge_names_the_file_and_tensor_that_is_non_finite(
    tmp_path, capsys, write_fixture, mode, tensor
):
    base_path, task_paths = write_fixture(tmp_path)
    poison(task_paths[1], tensor, np.inf, index=8)  # entry (1, 2)
    assert main(merge_args(base_path, task_paths, tmp_path / "m.dcm", mode=mode)) == 2
    err = capsys.readouterr().err
    assert f"error: {task_paths[1]}: tensor {tensor!r} contains non-finite entries" in err


def test_merge_names_the_file_and_tensor_whose_lora_product_overflows(tmp_path, capsys):
    base_path, task_paths = write_lora_set(tmp_path, ranks=[2, 2])
    huge = {"q.lora_B": np.full((8, 2), 1e200), "q.lora_A": np.full((2, 6), 1e200)}
    write_container(TensorContainer(tensors=huge), task_paths[1])
    assert main(merge_args(base_path, task_paths, tmp_path / "m.dcm", mode="lora")) == 2
    err = capsys.readouterr().err
    assert f"error: {task_paths[1]}: delta of q.weight contains non-finite entries" in err
    assert not (tmp_path / "m.dcm").exists()


def test_merge_rejects_zero_width_lora_factors_by_file_and_tensor(tmp_path, capsys):
    base_path, task_paths = write_lora_set(tmp_path, ranks=[2, 2])
    empty = {"q.lora_B": np.zeros((8, 0)), "q.lora_A": np.zeros((0, 6))}
    write_container(TensorContainer(tensors=empty), task_paths[0])
    assert main(merge_args(base_path, task_paths, tmp_path / "m.dcm", mode="lora")) == 2
    err = capsys.readouterr().err
    assert (
        f"error: {task_paths[0]}: tensor 'q.lora_B' (8, 0) and tensor 'q.lora_A' (0, 6) "
        "have inner dimension 0"
    ) in err


def test_merge_names_the_file_and_1d_tensor_that_is_non_finite(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC)
    poison(task_paths[1], "enc.bias", index=3)
    assert main(merge_args(base_path, task_paths, tmp_path / "m.dcm")) == 2
    err = capsys.readouterr().err
    assert f"error: {task_paths[1]}: 1-D tensor 'enc.bias' or its base is not finite" in err


def test_report_names_the_file_and_tensor_that_is_non_finite(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=19)
    merged_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, merged_path)) == 0
    poison(merged_path, "enc.weight", index=8)
    rc = main(report_args(base_path, merged_path, task_paths, tmp_path / "r.csv"))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {merged_path}: tensor 'enc.weight' contains non-finite entries" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("shape", [(1, 6), (6, 8)])
def test_report_rejects_a_merged_tensor_of_another_shape(tmp_path, capsys, shape):
    base_path, task_paths = write_fft_set(tmp_path, {"q.weight": (8, 6)}, seed=32)
    merged = tmp_path / "merged.dcm"
    write_container(TensorContainer(tensors={"q.weight": np.ones(shape)}), merged)
    assert main(report_args(base_path, merged, task_paths, tmp_path / "r.csv")) == 2
    err = capsys.readouterr().err
    assert f"error: {merged}: tensor 'q.weight' has shape {shape}, base is (8, 6)" in err
    assert not (tmp_path / "r.csv").exists()


def test_report_rejects_a_merged_matrix_stored_1d(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=34)
    merged = tmp_path / "merged.dcm"
    write_container(TensorContainer(tensors={"enc.weight": np.ones(6)}), merged)
    assert main(report_args(base_path, merged, task_paths, tmp_path / "r.csv")) == 2
    err = capsys.readouterr().err
    assert err == f"error: {merged}: tensor 'enc.weight' must be 2-D, got shape (6,)\n"
    assert not (tmp_path / "r.csv").exists()


def test_merge_of_more_tasks_than_min_dim_exits_2_without_a_clip_warning(tmp_path, capsys):
    rng = np.random.default_rng(13)
    base = rng.standard_normal((4, 3))
    write_container(TensorContainer(tensors={"enc.weight": base}), tmp_path / "base.dcm")
    task_paths = []
    for i in range(5):
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(
            TensorContainer(tensors={"enc.weight": base + rng.standard_normal((4, 3))}),
            task_paths[-1],
        )
    for rank in ("auto", "2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(merge_args(tmp_path / "base.dcm", task_paths, tmp_path / "m.dcm",
                                 "--rank", rank))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: 5 tasks exceed min(m, n) = 3 for shape (4, 3)" in err
        assert not (tmp_path / "m.dcm").exists()


def test_report_measures_at_the_merge_rank_rule(tmp_path):
    # LoRA rank 3 with three tasks overflows min(8, 6) = 6 and clips to 2
    base_path, task_paths = write_lora_set(tmp_path, ranks=[3, 3, 3])
    merged_path = tmp_path / "merged.dcm"
    with pytest.warns(UserWarning, match="clipping to rank 2"):
        assert main(merge_args(base_path, task_paths, merged_path, mode="lora")) == 0
    report_path = tmp_path / "report.csv"
    with pytest.warns(UserWarning, match="clipping to rank 2"):
        assert main(report_args(base_path, merged_path, task_paths, report_path)) == 0
    with open(report_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]

    base = read_container(base_path)
    tvs = [
        extract_task_vectors(base, read_container(p), mode="lora").matrices["q.weight"]
        for p in task_paths
    ]
    with pytest.warns(UserWarning):
        r = resolve_rank(tvs, MergeConfig(mode="lora"))
    assert r == 2
    decomps = [decompose(tv, r) for tv in tvs]
    basis = build_cover_basis(decomps)
    expected = _alignment(*frame(decomps, basis=False)[1:])
    align = [float(row[3]) for row in rows if row[2] == "alignment_score"]
    assert align == [expected, expected]  # the tensor row and the ALL row
    assert expected == pytest.approx(
        alignment_score(basis.U_tilde, basis.V_tilde, decomps), rel=1e-12)
    blocks = [row for row in rows if row[2].startswith("block_mean_abs")]
    assert len(blocks) == len(task_paths) ** 2


def test_report_on_a_duplicated_task_writes_finite_alignment_scores(tmp_path):
    base_path, task_paths = write_merge_set(tmp_path, seed=18, mode="fft", n_tasks=2, layers=1,
                                            d=32)
    tasks = [task_paths[0], task_paths[0], task_paths[1]]
    merged_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, tasks, merged_path)) == 0
    report_path = tmp_path / "report.csv"
    assert main(report_args(base_path, merged_path, tasks, report_path)) == 0
    with open(report_path, newline="") as fh:
        align = {row[0]: float(row[3]) for row in csv.reader(fh) if row[2] == "alignment_score"}
    assert len(align) == 7 and np.isfinite(list(align.values())).all()  # six matrices and ALL

    # each score, from the Gram square roots, is the one on the whitened basis
    base = read_container(base_path)
    matrices = [extract_task_vectors(base, read_container(p), "fft").matrices for p in tasks]
    for name in matrices[0]:
        tvs = [m[name] for m in matrices]
        decomps = [decompose(tv, resolve_rank(tvs, MergeConfig(mode="fft"))) for tv in tvs]
        basis = build_cover_basis(decomps)
        want = alignment_score(basis.U_tilde, basis.V_tilde, decomps)
        assert align[name] == pytest.approx(want, rel=1e-12), name


def write_scaled_set(folder, scale):
    """An F64 zero base and three F64 24 x 20 tasks, each a standard Gaussian times ``scale``."""
    folder.mkdir()
    rng = np.random.default_rng(11)
    write_container(TensorContainer({"w": np.zeros((24, 20))}), folder / "base.dcm")
    tasks = [folder / f"task{i}.dcm" for i in range(3)]
    for path in tasks:
        write_container(TensorContainer({"w": scale * rng.standard_normal((24, 20))}), path)
    return folder / "base.dcm", tasks


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_merge_of_tasks_at_1e_minus_162_is_the_rescaled_unit_merge(tmp_path):
    # an unscaled Gram goes subnormal here, which moves the merge 0.6 relative
    merged = {}
    for scale in (1.0, 1e-162):
        base, tasks = write_scaled_set(tmp_path / f"{scale:g}", scale)
        out = base.parent / "merged.dcm"
        assert main(merge_args(base, tasks, out, "--rank", "4")) == 0
        merged[scale] = read_container(out).tensors["w"] / scale
    assert relative_gap(merged[1e-162], merged[1.0]) <= 1e-12


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_perturb_energy_of_tasks_far_from_unit_scale_is_the_rescaled_unit_one(tmp_path, scale):
    # the norm of an unscaled spectrum under- or overflows here
    perturbed = {}
    for s in (1.0, scale):
        base, tasks = write_scaled_set(tmp_path / f"{s:g}", s)
        out = base.parent / "p.dcm"
        assert main(perturb_args(base, tasks[0], out, kind="energy")) == 0
        perturbed[s] = read_container(out).tensors["w"] / s
    assert relative_gap(perturbed[scale], perturbed[1.0]) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-14, 1e200])
def test_report_is_scale_invariant(tmp_path, scale):
    rows = {}
    for s in (1.0, scale):
        base, tasks = write_scaled_set(tmp_path / f"{s:g}", s)
        merged, report = base.parent / "merged.dcm", base.parent / "report.csv"
        assert main(merge_args(base, tasks, merged)) == 0
        assert main(report_args(base, merged, tasks, report)) == 0
        with open(report, newline="") as fh:
            rows[s] = [(t, Path(task).name, m, float(v))
                       for t, task, m, v in list(csv.reader(fh))[1:]]
    assert len(rows[scale]) == len(rows[1.0])
    for (*key, unit), (*got_key, got) in zip(rows[1.0], rows[scale]):
        assert got_key == key
        if key[2].startswith("block_mean_abs"):  # coordinates scale with the tasks
            got /= scale
        assert got == pytest.approx(unit, rel=1e-12, abs=1e-12), key


def test_optimize_basis_rank_above_min_dim_exits_2(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=13)
    trace = tmp_path / "trace.csv"
    assert main(optimize_args(base_path, task_paths, trace, "enc.weight", "--rank", 7)) == 2
    assert "rank 7 exceeds min(m, n) = 6" in capsys.readouterr().err
    assert not trace.exists()


def test_report_on_mixed_lora_ranks_exits_2_like_merge(tmp_path, capsys):
    base_path, task_paths = write_lora_set(tmp_path, ranks=[1, 2])
    merged_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, merged_path, mode="lora")) == 2
    merge_err = capsys.readouterr().err
    assert "same LoRA rank" in merge_err
    # the report needs a merged file; any checkpoint of the base layout serves
    report = report_args(base_path, base_path, task_paths, tmp_path / "report.csv")
    assert main(report) == 2
    assert capsys.readouterr().err == merge_err


@pytest.mark.parametrize("merger", ["ta", "ties"])
def test_merge_lora_from_factors_matches_the_dense_pipeline(tmp_path, merger):
    base_path, task_paths = write_lora_set(tmp_path, [3, 3, 3], seed=14, shape=(24, 20))
    out_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, out_path, "--merger", merger, mode="lora")) == 0
    base = read_container(base_path)

    tvs = [
        extract_task_vectors(base, read_container(p), mode="lora").matrices["q.weight"]
        for p in task_paths
    ]
    assert all(tv.factors is not None for tv in tvs)
    dense = [TaskVector(name=tv.name, delta=tv.delta, lora_rank=tv.lora_rank) for tv in tvs]
    expected = dc_merge(dense, MergeConfig(mode="lora", merger=merger))
    got = read_container(out_path).tensors["q.weight"] - base.tensors["q.weight"]
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_the_readme_cli_examples_parse():
    import shlex

    from dcmerge import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("dcmerge ")]
    for argv in examples:
        args = cli._build_parser().parse_args(argv)
        assert args.command == argv[0]
        if args.command == "merge":
            cli._merge_config(args)
    assert {argv[0] for argv in examples} == {
        "merge", "report", "inspect", "perturb", "optimize-basis", "accuracy-report"}


def test_cli_start_up_does_not_import_scipy(tmp_path):
    # nor, for --help and merge, the modules only the other subcommands use,
    # nor the ones concurrent.futures would bring in: the tensor pool is threading
    base_path, task_paths = write_fft_set(tmp_path, ENC)
    merge = merge_args(base_path, task_paths, tmp_path / "m.dcm")
    code = (
        "import contextlib, io, sys\n"
        "import dcmerge.cli\n"
        "LAZY = ('dcmerge.metrics', 'dcmerge.optimizer', 'dcmerge.perturb',\n"
        "        'concurrent.futures', 'logging')\n"
        "def check(after):\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in LAZY)\n"
        "    assert not loaded, (after, loaded[:5])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        dcmerge.cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    check('--help')\n"
        f"    assert dcmerge.cli.main({merge!r}) == 0\n"
        "check('merge')\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("code", [0, 2, 3])
def test_run_freezes_the_heap_before_main_and_exits_with_its_code(monkeypatch, code):
    from dcmerge import cli

    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert calls == ["freeze", "main"]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["merge"], 2)],
                         ids=["help", "usage-error"])
def test_the_module_entry_keeps_exit_codes_output_and_atexit(argv, code):
    # runs cli.py as __main__, like python -m dcmerge.cli; the handler runs at exit
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.argv = ['dcmerge', *{argv!r}]\n"
        "runpy.run_module('dcmerge.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = python("-c", script)
    assert proc.returncode == code
    usage = proc.stdout if code == 0 else proc.stderr
    assert usage.startswith("usage: dcmerge"), (proc.stdout, proc.stderr)
    frozen = proc.stderr.splitlines()[-1].split()
    assert frozen[0] == "frozen" and int(frozen[1]) > 0, proc.stderr


def test_optimize_basis_above_64_rows_runs(tmp_path, capsys):
    base_path, task_paths = write_merge_set(
        tmp_path, seed=15, mode="fft", n_tasks=2, layers=1, d=96
    )
    trace_path = tmp_path / "trace.csv"
    rc = main(optimize_args(base_path, task_paths, trace_path, "layers.0.mlp.up.weight"))
    assert rc == 0, capsys.readouterr().err
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "score"]
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2]
    assert float(rows[-1][1]) >= float(rows[1][1])  # 384 x 96: the ascent does not lower it


def test_optimize_basis_starts_a_lora_tensor_from_its_factors(tmp_path, monkeypatch):
    from dcmerge import optimizer, task_vector
    from dcmerge.linalg import truncated_svd

    base_path, task_paths = write_merge_set(
        tmp_path, seed=18, mode="lora", n_tasks=3, layers=1, d=64
    )
    tensor = "layers.0.mlp.up.weight"
    base = read_container(base_path)
    tvs = [extract_task_vectors(base, read_container(p), "lora").matrices[tensor]
           for p in task_paths]
    k = len(tvs) * tvs[0].lora_rank
    dense = truncated_svd(sum(tv.delta for tv in tvs), k)

    def no_dense_path(*args):
        raise AssertionError("the LoRA start took a dense SVD")

    starts = []
    real_optimize = optimizer.optimize_cover_basis

    def recording_optimize(decomps, init, cfg):
        starts.append(init)
        return real_optimize(decomps, init, cfg)

    monkeypatch.setattr(task_vector, "truncated_svd", no_dense_path)
    monkeypatch.setattr(optimizer, "optimize_cover_basis", recording_optimize)
    assert main(optimize_args(base_path, task_paths, tmp_path / "t.csv", tensor, eta="1e-2")) == 0
    (start,) = starts
    signs = np.sign(np.sum(start.U_tilde * dense.U, axis=0))
    np.testing.assert_allclose(start.U_tilde * signs, dense.U, rtol=0, atol=1e-12)
    np.testing.assert_allclose(start.V_tilde * signs, dense.V, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tensor, eta, iters, message", [
    ("s.weight", "1e-3", "0", "max_iters must be a positive int, got 0"),
    ("s.weight", "0", "2", "learning_rate must be positive and finite, got 0.0"),
    ("s.weight", "inf", "2", "learning_rate must be positive and finite, got inf"),
], ids=["iters", "eta", "eta-inf"])
def test_optimize_basis_checks_its_arguments_before_reading_a_tensor(
        tmp_path, capsys, tensor, eta, iters, message):
    # every tensor of task1 is NaN, so reading any tensor would be the error instead
    rng = np.random.default_rng(17)
    base = {"s.weight": rng.standard_normal((16, 12)), "w.weight": rng.standard_normal((96, 8))}
    write_container(TensorContainer(base), tmp_path / "base.dcm")
    tasks = [{k: v + 0.1 * rng.standard_normal(v.shape) for k, v in base.items()},
             {k: np.full(v.shape, np.nan) for k, v in base.items()}]
    for i, task in enumerate(tasks):
        write_container(TensorContainer(task), tmp_path / f"task{i}.dcm")
    tasks = [tmp_path / "task0.dcm", tmp_path / "task1.dcm"]
    trace = tmp_path / "trace.csv"
    assert main(optimize_args(tmp_path / "base.dcm", tasks, trace, tensor, eta=eta,
                              iters=iters)) == 2
    err = capsys.readouterr().err
    assert message in err and "non-finite" not in err
    assert not trace.exists()


def test_optimize_basis_runs_without_scipy(tmp_path):
    base_path, task_paths = write_merge_set(
        tmp_path, seed=16, mode="fft", n_tasks=3, layers=1, d=32
    )
    trace_path = tmp_path / "trace.csv"
    argv = optimize_args(base_path, task_paths, trace_path, "layers.0.attn.q.weight",
                         eta="1e-2", iters=4)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from dcmerge.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "score"]
    assert [int(r[0]) for r in rows[1:]] == [0, 1, 2, 3, 4]


def test_optimize_basis_too_large_step_exits_3(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, {"q.weight": (16, 12)}, 1, 17)
    trace_path = tmp_path / "trace.csv"
    assert main(optimize_args(base_path, task_paths, trace_path, "q.weight", eta="1e20",
                              iters=3)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: iteration ")
    assert "lower the learning rate (--eta)" in err
    assert not trace_path.exists()


# a task tensor the merge reads must have a base tensor to add to


@pytest.mark.parametrize("extra, name", [
    ({"w.bias": (8,), "x.weight": (4, 4)}, "w.bias"),
    ({"x.weight": (4, 4)}, "x.weight"),
], ids=["1d", "matrix"])
def test_merge_of_a_task_tensor_the_base_lacks_exits_2(tmp_path, capsys, extra, name):
    rng = np.random.default_rng(29)
    weight = rng.standard_normal((8, 6))
    write_container(TensorContainer(tensors={"w.weight": weight}), tmp_path / "base.dcm")
    task_paths = []
    for i in range(2):
        tensors = {"w.weight": weight + rng.standard_normal((8, 6))}
        tensors.update({n: rng.standard_normal(shape) for n, shape in extra.items()})
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(TensorContainer(tensors=tensors), task_paths[-1])
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(tmp_path / "base.dcm", task_paths, out_path)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {task_paths[0]}: holds tensor {name!r}, which the base lacks\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["merge", "report"])
def test_a_lora_factor_whose_target_the_base_lacks_exits_2(tmp_path, capsys, command):
    base_path, task_paths = write_lora_set(tmp_path, ranks=[2, 2])
    rng = np.random.default_rng(30)
    for path in task_paths:
        tensors = dict(read_container(path).tensors)
        tensors.update({"k.lora_B": rng.standard_normal((8, 2)),
                        "k.lora_A": rng.standard_normal((2, 6))})
        write_container(TensorContainer(tensors=tensors), path)
    out_path = tmp_path / "out"
    if command == "merge":
        args = merge_args(base_path, task_paths, out_path, mode="lora")
    else:  # the base serves as the merged checkpoint
        args = report_args(base_path, base_path, task_paths, out_path)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: {task_paths[0]}: holds tensor 'k.weight', which the base lacks\n"
    assert not out_path.exists()


def test_the_process_entry_prints_a_clip_warning_without_its_source_line(tmp_path):
    base_path, task_paths = write_fft_set(tmp_path, ENC)
    out_path = tmp_path / "m.dcm"
    proc = python("-m", "dcmerge.cli", *merge_args(base_path, task_paths, out_path, "--rank", 4))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("warning: rank 4 with 2 tasks exceeds the cover-basis bound "
                           "min(m, n) = 6 of 'enc.weight'; clipping to rank 3\n")
    assert out_path.exists()


@pytest.mark.parametrize("flags, strategy", [
    (["--smoothing", "none"], SmoothingStrategy("truncate_only")),
    (["--smoothing", "avg"], SmoothingStrategy("averaging")),
    (["--smoothing", "linear", "--rho", "3"], SmoothingStrategy("linear", rho=3.0)),
    (["--smoothing", "interp", "--tau", "0.25"], SmoothingStrategy("interpolate", tau=0.25)),
    (["--smoothing", "linear"], SmoothingStrategy("linear", rho=5.0)),
    (["--smoothing", "interp"], SmoothingStrategy("interpolate", tau=0.5)),
], ids=["none", "avg", "linear", "interp", "linear-default", "interp-default"])
def test_merge_smoothing_flags_apply_their_strategy(tmp_path, flags, strategy):
    rng = np.random.default_rng(31)
    weight = rng.standard_normal((8, 6)).astype(np.float32)
    write_container(TensorContainer(tensors={"enc.weight": weight}), tmp_path / "base.dcm")
    task_paths = []
    for i in range(3):
        tuned = weight + rng.standard_normal((8, 6)).astype(np.float32)
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(TensorContainer(tensors={"enc.weight": tuned}), task_paths[-1])
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(tmp_path / "base.dcm", task_paths, out_path, "--rank", "2",
                           *flags)) == 0

    base = read_container(tmp_path / "base.dcm")
    tasks = [extract_task_vectors(base, read_container(p), mode="fft").matrices["enc.weight"]
             for p in task_paths]
    delta = dc_merge(tasks, MergeConfig(mode="fft", rank=2, smoothing=strategy))
    want = (weight.astype(np.float64) + delta).astype(np.float32)
    assert np.array_equal(read_container(out_path).tensors["enc.weight"], want)


@pytest.mark.parametrize("flags, message", [
    (["--smoothing", "avg", "--rho", "3"],
     "rho applies only to smoothing kind 'linear', not 'averaging'"),
    (["--smoothing", "linear", "--tau", "0.9"],
     "tau applies only to smoothing kind 'interpolate', not 'linear'"),
    (["--tau", "0.9"], "tau applies only to smoothing kind 'interpolate', not 'truncate_only'"),
    (["--merger", "ta", "--ties-keep", "0.9"], "ties_keep applies only to merger 'ties', not 'ta'"),
], ids=["rho-avg", "tau-linear", "tau-default", "ties-keep-ta"])
def test_merge_smoothing_parameter_of_another_kind_exits_2(tmp_path, capsys, flags, message):
    base_path, task_paths = write_fft_set(tmp_path, ENC)
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, out_path, *flags)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_perturb_p_outside_the_unit_interval_exits_2_before_reading_a_file(tmp_path, capsys):
    assert main(perturb_args(tmp_path / "no-base.dcm", tmp_path / "no-task.dcm",
                             tmp_path / "p.dcm", kind="energy", p=1.5, seed=0)) == 2
    assert capsys.readouterr().err == "error: p must be in [0, 1], got 1.5\n"
    assert not (tmp_path / "p.dcm").exists()


def test_perturb_negative_seed_exits_2_before_reading_a_file(tmp_path, capsys):
    assert main(perturb_args(tmp_path / "no-base.dcm", tmp_path / "no-task.dcm",
                             tmp_path / "p.dcm", seed=-1)) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "p.dcm").exists()


@pytest.mark.parametrize("data, message", [
    (b"\n", "accuracy table {table!r} is empty"),
    (b"taskA,0.8,0.9\n", "accuracy rows need 4 columns (task, merged, finetuned, zeroshot), "
                          "got 3: ['taskA', '0.8', '0.9']"),
    (b"task,merged,finetuned,zeroshot\n", "accuracy table has a header but no data rows"),
    (b"taskA,0.8,high,0.5\n", "bad number in accuracy table: could not convert string to "
                              "float: 'high'"),
    # a number among its cells makes the first row data, not a header
    (b"taskA,high,0.9,0.5\ntaskB,0.8,0.9,0.5\n",
     "bad number in accuracy table: could not convert string to float: 'high'"),
    (b"taskA,1.5,0.9,0.5\n", "merged accuracy for task 'taskA' must be in [0, 1]"),
    (b"task\xe9,0.8,0.9,0.5\n", "accuracy table {table!r} is not UTF-8 text"),
], ids=["empty", "three-columns", "header-only", "bad-number", "first-row-bad-number",
        "out-of-range", "not-utf-8"])
def test_accuracy_report_of_a_malformed_table_exits_2(tmp_path, capsys, data, message):
    table = tmp_path / "acc.csv"
    table.write_bytes(data)
    assert main(["accuracy-report", "--table", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(table=str(table))}\n"


def test_inspect_prints_the_metadata_and_an_all_zero_spectrum(tmp_path, capsys):
    path = tmp_path / "z.dcm"
    write_container(TensorContainer(tensors={"w": np.zeros((3, 2))},
                                    metadata={"b": "2", "a": "1"}), path)
    assert main(["inspect", str(path)]) == 0
    assert capsys.readouterr().out == (
        "w  F64  (3, 2)\n    spectrum: all zero\nmetadata:\n    a = 1\n    b = 2\n"
    )


def test_report_on_a_merged_checkpoint_without_a_tensor_exits_2(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=33)
    merged_path = tmp_path / "merged.dcm"
    write_container(TensorContainer(tensors={"enc.bias": np.zeros(8)}), merged_path)
    report_path = tmp_path / "r.csv"
    assert main(report_args(base_path, merged_path, task_paths, report_path)) == 2
    assert capsys.readouterr().err == "error: merged checkpoint is missing tensor 'enc.weight'\n"
    assert not report_path.exists()


def test_merge_of_tasks_with_different_matrix_tensors_exits_2(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, ENC, seed=41)
    tensors = dict(read_container(base_path).tensors)
    tensors["dec.weight"] = np.ones((4, 3))
    write_container(TensorContainer(tensors=tensors), base_path)
    task = dict(read_container(task_paths[1]).tensors)
    task["dec.weight"] = np.full((4, 3), 2.0)
    write_container(TensorContainer(tensors=task), task_paths[1])
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, out_path)) == 2
    assert capsys.readouterr().err == (
        "error: task checkpoints expose different matrix tensors; "
        "they must share one architecture\n"
    )
    assert not out_path.exists()


# every tensor a merge reads that is not 2-D is averaged, whatever its ndim

ND_SHAPES = {0: (), 1: (5,), 3: (2, 3, 4), 4: (4, 3, 2, 2)}


def _write_nd_set(tmp_path, mode, shape, task_shape=None, base_has_x=True, seed=43):
    """A base with ``w.weight`` (8, 6) and a float32 tensor ``x`` of ``shape``, and two
    tasks of ``mode`` that change both; task 0's ``x`` has ``task_shape`` if given."""
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((8, 6)).astype(np.float32)
    x = np.asarray(rng.standard_normal(shape), dtype=np.float32)
    base = {"w.weight": weight, "x": x} if base_has_x else {"w.weight": weight}
    write_container(TensorContainer(tensors=base), tmp_path / "base.dcm")
    task_paths = []
    for i in range(2):
        x_shape = task_shape if i == 0 and task_shape is not None else shape
        tensors = {"x": np.asarray(rng.standard_normal(x_shape), dtype=np.float32)}
        if x_shape == shape:
            tensors["x"] = np.asarray(x + 0.1 * tensors["x"], dtype=np.float32)
        if mode == "fft":
            tensors["w.weight"] = weight + 0.1 * rng.standard_normal((8, 6)).astype(np.float32)
        else:
            tensors["w.lora_B"] = rng.standard_normal((8, 2))
            tensors["w.lora_A"] = rng.standard_normal((2, 6))
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(TensorContainer(tensors=tensors), task_paths[-1])
    return tmp_path / "base.dcm", task_paths


@pytest.mark.parametrize("mode", ["fft", "lora"])
@pytest.mark.parametrize("ndim", sorted(ND_SHAPES))
def test_merge_averages_a_tensor_of_any_ndim_in_the_base_dtype(tmp_path, ndim, mode):
    base_path, task_paths = _write_nd_set(tmp_path, mode, ND_SHAPES[ndim])
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, out_path, mode=mode)) == 0
    x = read_container(base_path).tensors["x"]
    deltas = [read_container(p).tensors["x"].astype(np.float64) - x for p in task_paths]
    want = (x.astype(np.float64) + np.mean(deltas, axis=0)).astype(np.float32)
    got = read_container(out_path).tensors["x"]
    assert got.dtype == np.float32 and got.shape == x.shape
    assert np.array_equal(got, want) and not np.array_equal(got, x)


@pytest.mark.parametrize("mode", ["fft", "lora"])
@pytest.mark.parametrize("ndim", sorted(ND_SHAPES))
def test_merge_of_a_tensor_of_another_shape_than_the_base_exits_2(tmp_path, capsys, ndim, mode):
    shape = ND_SHAPES[ndim]
    bad = (shape[0] + 1, *shape[1:]) if shape else (1,)
    base_path, task_paths = _write_nd_set(tmp_path, mode, shape, task_shape=bad)
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, out_path, mode=mode)) == 2
    assert capsys.readouterr().err == (
        f"error: {task_paths[0]}: {len(bad)}-D tensor 'x' has shape {bad} vs base {shape}\n"
    )
    assert not out_path.exists()


@pytest.mark.parametrize("mode", ["fft", "lora"])
@pytest.mark.parametrize("ndim", sorted(ND_SHAPES))
def test_merge_of_a_task_only_tensor_of_any_ndim_exits_2(tmp_path, capsys, ndim, mode):
    base_path, task_paths = _write_nd_set(tmp_path, mode, ND_SHAPES[ndim], base_has_x=False)
    out_path = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, out_path, mode=mode)) == 2
    assert capsys.readouterr().err == (
        f"error: {task_paths[0]}: holds tensor 'x', which the base lacks\n"
    )
    assert not out_path.exists()


@pytest.mark.parametrize("mode", ["fft", "lora"])
@pytest.mark.parametrize("ndim", sorted(ND_SHAPES))
def test_report_and_optimize_basis_ignore_averaged_tensors(tmp_path, ndim, mode):
    base_path, task_paths = _write_nd_set(tmp_path, mode, ND_SHAPES[ndim])
    merged = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, merged, mode=mode)) == 0
    outputs = []
    for drop in (None, 0, "all"):
        for i, path in enumerate(task_paths):
            if drop == i or drop == "all":
                tensors = dict(read_container(path).tensors)
                tensors.pop("x", None)
                write_container(TensorContainer(tensors=tensors), path)
        report, trace = tmp_path / f"r{drop}.csv", tmp_path / f"t{drop}.csv"
        assert main(report_args(base_path, merged, task_paths, report)) == 0
        assert main(optimize_args(base_path, task_paths, trace, "w.weight", "--rank", 2)) == 0
        outputs.append((report.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("command", ["merge", "report"])
def test_a_lora_product_of_another_shape_than_the_base_exits_2_before_decomposing(
    tmp_path, capsys, monkeypatch, command
):
    base_path, task_paths = write_lora_set(tmp_path, ranks=[2, 2])
    rng = np.random.default_rng(47)
    write_container(TensorContainer(tensors={"q.lora_B": rng.standard_normal((10, 2)),
                                             "q.lora_A": rng.standard_normal((2, 6))}),
                    task_paths[1])
    decomposed = []
    monkeypatch.setattr("dcmerge.merge.decompose", lambda *a: decomposed.append(a))
    out_path = tmp_path / "out"
    if command == "merge":
        args = merge_args(base_path, task_paths, out_path, mode="lora")
    else:  # the base serves as the merged checkpoint
        args = report_args(base_path, base_path, task_paths, out_path)
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: {task_paths[1]}: tensor 'q.lora_B' (10, 2) times tensor 'q.lora_A' (2, 6) "
        "has shape (10, 6) vs base tensor 'q.weight' (8, 6)\n"
    )
    assert decomposed == [] and not out_path.exists()
