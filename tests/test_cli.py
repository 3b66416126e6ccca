import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcmerge
from dcmerge.cli import main
from dcmerge.container import (
    TensorContainer,
    extract_task_vectors,
    read_container,
    write_container,
)
from dcmerge.merge import (
    MergeConfig,
    assemble_model,
    cover_space,
    dc_merge,
    resolve_rank,
)
from dcmerge.metrics import alignment_score
from dcmerge.task_vector import SmoothingStrategy, TaskVector


def write_fft_fixture(tmp_path, n_tasks=2, seed=0):
    rng = np.random.default_rng(seed)
    base = TensorContainer(
        tensors={
            "enc.weight": rng.standard_normal((8, 6)),
            "enc.bias": rng.standard_normal(8),
        }
    )
    base_path = tmp_path / "base.dcm"
    write_container(base, base_path)
    task_paths = []
    for i in range(n_tasks):
        task = TensorContainer(
            tensors={
                "enc.weight": base.tensors["enc.weight"]
                + 0.1 * rng.standard_normal((8, 6)),
                "enc.bias": base.tensors["enc.bias"]
                + 0.1 * rng.standard_normal(8),
            }
        )
        path = tmp_path / f"task{i}.dcm"
        write_container(task, path)
        task_paths.append(path)
    return base_path, task_paths


def merge_args(base, tasks, out, *extra):
    args = ["merge", "--base", str(base), "--task"]
    args += [str(t) for t in tasks]
    args += ["--out", str(out), "--mode", "fft"]
    args += list(extra)
    return args


def test_merge_matches_programmatic_pipeline(tmp_path):
    base_path, task_paths = write_fft_fixture(tmp_path)
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
    base_path, task_paths = write_fft_fixture(tmp_path, seed=1)
    out1 = tmp_path / "m1.dcm"
    out2 = tmp_path / "m2.dcm"
    assert main(merge_args(base_path, task_paths, out1, "--seed", "7")) == 0
    assert main(merge_args(base_path, task_paths, out2, "--seed", "7")) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_merge_output_independent_of_thread_count(tmp_path, monkeypatch):
    base_path, task_paths = write_fft_fixture(tmp_path, n_tasks=3, seed=2)
    out1 = tmp_path / "m1.dcm"
    out2 = tmp_path / "m2.dcm"
    out3 = tmp_path / "m3.dcm"
    assert main(merge_args(base_path, task_paths, out1, "--threads", "1")) == 0
    assert main(merge_args(base_path, task_paths, out2, "--threads", "4")) == 0
    monkeypatch.setenv("DCMERGE_THREADS", "2")
    assert main(merge_args(base_path, task_paths, out3)) == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_merge_lora_checkpoints(tmp_path):
    rng = np.random.default_rng(3)
    base = TensorContainer(tensors={"q.weight": rng.standard_normal((8, 6))})
    base_path = tmp_path / "base.dcm"
    write_container(base, base_path)
    task_paths = []
    for i in range(2):
        task = TensorContainer(
            tensors={
                "q.lora_B": rng.standard_normal((8, 2)),
                "q.lora_A": rng.standard_normal((2, 6)),
            }
        )
        path = tmp_path / f"task{i}.dcm"
        write_container(task, path)
        task_paths.append(path)
    out_path = tmp_path / "merged.dcm"
    rc = main(
        [
            "merge",
            "--base",
            str(base_path),
            "--task",
            str(task_paths[0]),
            str(task_paths[1]),
            "--out",
            str(out_path),
            "--mode",
            "lora",
        ]
    )
    assert rc == 0
    got = read_container(out_path)
    assert got.tensors["q.weight"].shape == (8, 6)
    assert not np.array_equal(got.tensors["q.weight"], base.tensors["q.weight"])


def test_merge_alpha_zero_rejected(tmp_path):
    base_path, task_paths = write_fft_fixture(tmp_path, seed=4)
    rc = main(
        merge_args(base_path, task_paths, tmp_path / "m.dcm", "--alpha", "0.0")
    )
    assert rc == 2


def test_missing_input_file_exits_2(tmp_path):
    rc = main(
        merge_args(tmp_path / "nope.dcm", [tmp_path / "also-nope.dcm"], tmp_path / "m.dcm")
    )
    assert rc == 2


def test_perturb_zero_delta_exits_3(tmp_path):
    rng = np.random.default_rng(5)
    base = TensorContainer(tensors={"w.weight": rng.standard_normal((6, 6))})
    base_path = tmp_path / "base.dcm"
    write_container(base, base_path)
    task_path = tmp_path / "task.dcm"
    write_container(
        TensorContainer(tensors={"w.weight": base.tensors["w.weight"].copy()}),
        task_path,
    )
    rc = main(
        [
            "perturb",
            "--task",
            str(task_path),
            "--base",
            str(base_path),
            "--kind",
            "energy",
            "--p",
            "0.5",
            "--seed",
            "0",
            "--out",
            str(tmp_path / "out.dcm"),
        ]
    )
    assert rc == 3


def test_perturb_direction_records_metadata(tmp_path, capsys):
    base_path, task_paths = write_fft_fixture(tmp_path, n_tasks=1, seed=6)
    out_path = tmp_path / "pert.dcm"
    rc = main(
        [
            "perturb",
            "--task",
            str(task_paths[0]),
            "--base",
            str(base_path),
            "--kind",
            "direction",
            "--p",
            "0.49",
            "--seed",
            "11",
            "--out",
            str(out_path),
            "--rank",
            "2",
        ]
    )
    assert rc == 0
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
    base_path, task_paths = write_fft_fixture(tmp_path, n_tasks=1, seed=7)
    out1 = tmp_path / "p1.dcm"
    out2 = tmp_path / "p2.dcm"
    args = [
        "perturb",
        "--task",
        str(task_paths[0]),
        "--base",
        str(base_path),
        "--kind",
        "direction",
        "--p",
        "0.3",
        "--seed",
        "21",
        "--rank",
        "2",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_csv_structure(tmp_path):
    base_path, task_paths = write_fft_fixture(tmp_path, n_tasks=2, seed=8)
    merged_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, merged_path, "--rank", "2")) == 0
    report_path = tmp_path / "report.csv"
    rc = main(
        [
            "report",
            "--base",
            str(base_path),
            "--merged",
            str(merged_path),
            "--task",
            str(task_paths[0]),
            str(task_paths[1]),
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    with open(report_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tensor", "task", "metric", "value"]
    metrics = {row[2] for row in rows[1:]}
    assert "cos_sim" in metrics
    assert "projected_dir_sim" in metrics
    assert "alignment_score" in metrics
    for row in rows[1:]:
        float(row[3])  # every value parses


def test_optimize_basis_trace_is_non_decreasing(tmp_path):
    base_path, task_paths = write_fft_fixture(tmp_path, n_tasks=2, seed=9)
    trace_path = tmp_path / "trace.csv"
    rc = main(
        [
            "optimize-basis",
            "--base",
            str(base_path),
            "--task",
            str(task_paths[0]),
            str(task_paths[1]),
            "--tensor",
            "enc.weight",
            "--eta",
            "1e-3",
            "--iters",
            "25",
            "--out",
            str(trace_path),
            "--rank",
            "2",
            "--log-every",
            "5",
        ]
    )
    assert rc == 0
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


def test_inspect_lists_tensors(tmp_path, capsys):
    base_path, _ = write_fft_fixture(tmp_path, seed=10)
    rc = main(["inspect", str(base_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "enc.weight" in out
    assert "enc.bias" in out
    assert "(8, 6)" in out


def test_inspect_missing_file_exits_2(tmp_path):
    assert main(["inspect", str(tmp_path / "ghost.dcm")]) == 2


def test_report_to_unwritable_path_exits_2(tmp_path):
    base_path, task_paths = write_fft_fixture(tmp_path, seed=11)
    merged_path = tmp_path / "merged.dcm"
    assert main(merge_args(base_path, task_paths, merged_path)) == 0
    rc = main(
        [
            "report",
            "--base",
            str(base_path),
            "--merged",
            str(merged_path),
            "--task",
            str(task_paths[0]),
            "--out",
            str(tmp_path / "no-such-dir" / "report.csv"),
        ]
    )
    assert rc == 2


def write_lora_fixture(tmp_path, ranks, seed=12):
    rng = np.random.default_rng(seed)
    base = TensorContainer(tensors={"q.weight": rng.standard_normal((8, 6))})
    base_path = tmp_path / "base.dcm"
    write_container(base, base_path)
    task_paths = []
    for i, r in enumerate(ranks):
        task = TensorContainer(
            tensors={
                "q.lora_B": rng.standard_normal((8, r)),
                "q.lora_A": rng.standard_normal((r, 6)),
            }
        )
        path = tmp_path / f"task{i}.dcm"
        write_container(task, path)
        task_paths.append(path)
    return base_path, task_paths


def report_args(base, merged, tasks, out):
    return ["report", "--base", str(base), "--merged", str(merged),
            "--task", *map(str, tasks), "--out", str(out)]


def test_report_measures_at_the_merge_rank_rule(tmp_path):
    # LoRA rank 3 with three tasks overflows min(8, 6) = 6 and clips to 2
    base_path, task_paths = write_lora_fixture(tmp_path, ranks=[3, 3, 3])
    merged_path = tmp_path / "merged.dcm"
    merge = ["merge", "--base", str(base_path), "--task", *map(str, task_paths),
             "--out", str(merged_path), "--mode", "lora"]
    with pytest.warns(UserWarning, match="clipping to rank 2"):
        assert main(merge) == 0
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
    decomps, basis = cover_space(tvs, r, SmoothingStrategy.truncate_only())
    expected = alignment_score(basis.U_tilde, basis.V_tilde, decomps)
    align = [float(row[3]) for row in rows if row[2] == "alignment_score"]
    assert align == [expected, expected]  # the tensor row and the ALL row
    blocks = [row for row in rows if row[2].startswith("block_mean_abs")]
    assert len(blocks) == len(task_paths) ** 2


def test_optimize_basis_rank_above_min_dim_exits_2(tmp_path, capsys):
    base_path, task_paths = write_fft_fixture(tmp_path, seed=13)
    rc = main(
        ["optimize-basis", "--base", str(base_path),
         "--task", *map(str, task_paths), "--tensor", "enc.weight",
         "--eta", "1e-3", "--iters", "2", "--out", str(tmp_path / "trace.csv"),
         "--rank", "7"]
    )
    assert rc == 2
    assert "rank 7 exceeds min(m, n) = 6" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_report_on_mixed_lora_ranks_exits_2_like_merge(tmp_path, capsys):
    base_path, task_paths = write_lora_fixture(tmp_path, ranks=[1, 2])
    merged_path = tmp_path / "merged.dcm"
    merge = ["merge", "--base", str(base_path), "--task", *map(str, task_paths),
             "--out", str(merged_path), "--mode", "lora"]
    assert main(merge) == 2
    merge_err = capsys.readouterr().err
    assert "same LoRA rank" in merge_err
    # the report needs a merged file; any checkpoint of the base layout serves
    report = report_args(base_path, base_path, task_paths, tmp_path / "report.csv")
    assert main(report) == 2
    assert capsys.readouterr().err == merge_err


@pytest.mark.parametrize("merger", ["ta", "ties"])
def test_merge_lora_from_factors_matches_the_dense_pipeline(tmp_path, merger):
    rng = np.random.default_rng(14)
    base = TensorContainer(tensors={"q.weight": rng.standard_normal((24, 20))})
    base_path = tmp_path / "base.dcm"
    write_container(base, base_path)
    task_paths = []
    for i in range(3):
        task = TensorContainer(
            tensors={
                "q.lora_B": rng.standard_normal((24, 3)),
                "q.lora_A": rng.standard_normal((3, 20)),
            }
        )
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(task, task_paths[-1])
    out_path = tmp_path / "merged.dcm"
    rc = main(["merge", "--base", str(base_path), "--task", *map(str, task_paths),
               "--out", str(out_path), "--mode", "lora", "--merger", merger])
    assert rc == 0

    tvs = [
        extract_task_vectors(base, read_container(p), mode="lora").matrices["q.weight"]
        for p in task_paths
    ]
    assert all(tv.factors is not None for tv in tvs)
    dense = [TaskVector(name=tv.name, delta=tv.delta, lora_rank=tv.lora_rank) for tv in tvs]
    expected = dc_merge(dense, MergeConfig(mode="lora", merger=merger))
    got = read_container(out_path).tensors["q.weight"] - base.tensors["q.weight"]
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_cli_start_up_does_not_import_scipy():
    code = (
        "import contextlib, io, sys\n"
        "import dcmerge.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        dcmerge.cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    src = str(Path(dcmerge.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
