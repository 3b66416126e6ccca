"""Reading one tensor at a time (``ContainerReader``), the two halves of the
pairing rule, and every output written through the one writer that checks
``--out`` first and replaces it only on success."""

import os
import stat

import numpy as np
import pytest

from dcmerge import cli, container
from dcmerge.cli import main
from dcmerge.container import (
    ContainerReader,
    TensorContainer,
    container_writer,
    extract_task_vectors,
    pair_tensors,
    read_container,
    write_container,
)
from dcmerge.errors import ContainerError, ValidationError

from helpers import (merge_args, optimize_args, perturb_args, poison, report_args, write_fft_set,
                     write_lora_set)

has_fd_dir = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")

# the tensors of a float32 base and three fft tasks
SET = {"a.weight": (8, 6), "b.bias": (6,), "c.weight": (8, 6)}


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def test_the_reader_gives_the_arrays_read_container_gives(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"w": rng.standard_normal((5, 3)), "s": np.array(2.5),
               "e": np.zeros((0, 4), np.float32), "k": rng.standard_normal((2, 3, 2))}
    write_container(TensorContainer(tensors=tensors, metadata={"m": "v"}), tmp_path / "c.dcm")
    whole = read_container(tmp_path / "c.dcm")
    with ContainerReader(tmp_path / "c.dcm") as reader:
        assert list(reader.specs) == list(whole.tensors)
        assert reader.metadata == {"m": "v"}
        for name, arr in whole.tensors.items():
            spec = reader.specs[name]
            assert (spec.dtype, spec.shape, spec.ndim) == (arr.dtype, arr.shape, arr.ndim)
            got = reader.read(name)
            assert got.dtype == arr.dtype and np.array_equal(got, arr)
            assert not got.flags.writeable and got.flags.owndata
            assert got is not reader.read(name)  # a fresh array on every read


def test_the_reader_reads_only_the_range_it_is_asked_for(tmp_path):
    write_container(TensorContainer(tensors={"a": np.ones(4), "b": np.full(4, np.nan)}),
                    tmp_path / "c.dcm")
    with ContainerReader(tmp_path / "c.dcm") as reader:
        assert np.array_equal(reader.read("a"), np.ones(4))


@has_fd_dir
def test_the_reader_closes_its_file_on_a_rejected_header(tmp_path):
    path = tmp_path / "bad.dcm"
    path.write_bytes((4).to_bytes(8, "little") + b"[1] ")
    before = _open_fds()
    with pytest.raises(ValidationError, match="header must be a JSON object"):
        ContainerReader(path)
    assert _open_fds() == before


def test_the_streamed_writer_gives_write_containers_bytes_in_any_order(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {"w": rng.standard_normal((5, 3)).astype(np.float32), "s": np.array(2.5),
               "e": np.zeros((0, 4)), "b": rng.standard_normal(7)}
    container = TensorContainer(tensors=tensors, metadata={"k": "v", "a": "b"})
    write_container(container, tmp_path / "whole.dcm")
    with container_writer(tmp_path / "streamed.dcm", tensors, container.metadata) as put:
        for name in ["w", "b", "s", "e"]:
            put(name, tensors[name])
    assert (tmp_path / "streamed.dcm").read_bytes() == (tmp_path / "whole.dcm").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["streamed.dcm", "whole.dcm"]


def test_the_streamed_writer_leaves_an_existing_file_alone_on_failure(tmp_path):
    out = tmp_path / "out.dcm"
    out.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with container_writer(out, {"w": np.ones(3)}, {}) as put:
            put("w", np.ones(3))
            raise RuntimeError("stop")
    assert out.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.dcm"]


def test_the_streamed_writer_refuses_a_file_with_a_tensor_never_put(tmp_path):
    out = tmp_path / "out.dcm"
    out.write_bytes(b"old")
    with pytest.raises(ContainerError, match="tensor 'z' was laid out but never written"):
        with container_writer(out, {"w": np.ones(3), "z": np.ones(2)}, {}) as put:
            put("w", np.ones(3))
    assert out.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.dcm"]


def test_the_streamed_writer_keeps_the_permissions_open_gives(tmp_path):
    tensors = {"w": np.ones(3)}
    fresh, plain = tmp_path / "fresh.dcm", tmp_path / "plain.dcm"
    with container_writer(fresh, tensors, {}) as put:
        put("w", tensors["w"])
    with open(plain, "wb"):
        pass
    assert stat.S_IMODE(fresh.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    os.chmod(fresh, 0o640)
    with container_writer(fresh, tensors, {}) as put:
        put("w", tensors["w"])
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640


def test_the_streamed_writer_refuses_an_out_that_is_not_a_regular_file(tmp_path):
    with pytest.raises(ValidationError, match="exists and is not a regular file"):
        with container_writer(tmp_path, {"w": np.ones(3)}, {}):
            pass
    with pytest.raises(ValidationError, match="exists and is not a regular file"):
        write_container(TensorContainer(tensors={"w": np.ones(3)}), tmp_path)
    assert os.listdir(tmp_path) == []


def test_write_container_failing_part_way_leaves_an_existing_file_alone(tmp_path, monkeypatch):
    out = tmp_path / "out.dcm"
    write_container(TensorContainer(tensors={"a": np.ones(3), "b": np.zeros(2)}), out)
    before = out.read_bytes()
    calls = []
    real_raw = container._raw

    def failing_raw(arr):
        calls.append(arr)
        if len(calls) == 2:
            raise RuntimeError("stop")
        return real_raw(arr)

    monkeypatch.setattr(container, "_raw", failing_raw)
    with pytest.raises(RuntimeError, match="stop"):
        write_container(TensorContainer(tensors={"a": np.full(3, 2.0), "b": np.ones(2)}), out)
    assert len(calls) == 2
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.dcm"]


@pytest.mark.parametrize("command", ["merge", "perturb", "report", "optimize-basis"])
def test_an_out_in_a_missing_directory_exits_2_before_any_decomposition(
        tmp_path, monkeypatch, capsys, command):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    merged = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, merged)) == 0
    reads = []
    real_read = ContainerReader.read

    def counting_read(self, name):
        reads.append(name)
        return real_read(self, name)

    monkeypatch.setattr(ContainerReader, "read", counting_read)
    out = tmp_path / "missing" / "out.csv"
    argv = {"merge": merge_args(base_path, task_paths, out),
            "perturb": perturb_args(base_path, task_paths[0], out),
            "report": report_args(base_path, merged, task_paths, out),
            "optimize-basis": optimize_args(base_path, task_paths, out, "a.weight")}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and ".tmp" not in err
    assert reads == []  # so no tensor was decomposed either
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command, flag, link", [
    ("merge", "task", "symlink"),
    ("report", "merged", None),
    ("perturb", "task", None),
    ("optimize-basis", "base", "hardlink"),
])
def test_an_out_that_is_an_input_exits_2_naming_its_flag_before_any_read(
        tmp_path, monkeypatch, capsys, command, flag, link):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    merged = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, merged)) == 0
    target = {"task": task_paths[1], "merged": merged, "base": base_path}[flag]
    out = target
    if link is not None:
        out = tmp_path / "out.dcm"
        (out.symlink_to if link == "symlink" else out.hardlink_to)(target)
    before = target.read_bytes()
    reads = []
    real_read = ContainerReader.read
    monkeypatch.setattr(ContainerReader, "read",
                        lambda self, name: reads.append(name) or real_read(self, name))
    argv = {"merge": merge_args(base_path, task_paths, out),
            "perturb": perturb_args(base_path, task_paths[1], out),
            "report": report_args(base_path, merged, task_paths, out),
            "optimize-basis": optimize_args(base_path, task_paths, out, "a.weight")}[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --out {out} is the --{flag} file {target}; " \
                                      "write elsewhere\n"
    assert reads == []
    assert target.read_bytes() == before


def test_a_report_failing_part_way_through_its_rows_leaves_an_existing_csv_alone(
        tmp_path, monkeypatch):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    merged, out = tmp_path / "m.dcm", tmp_path / "r.csv"
    assert main(merge_args(base_path, task_paths, merged)) == 0
    out.write_bytes(b"an earlier report\n")
    before = sorted(os.listdir(tmp_path))
    formatted = []
    real_fmt = cli._fmt

    def failing_fmt(value):
        formatted.append(value)
        if len(formatted) == 5:
            raise RuntimeError("stop")
        return real_fmt(value)

    monkeypatch.setattr(cli, "_fmt", failing_fmt)
    with pytest.raises(RuntimeError, match="stop"):
        main(report_args(base_path, merged, task_paths, out))
    assert len(formatted) == 5
    assert out.read_bytes() == b"an earlier report\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_pairing_from_headers_agrees_with_extraction(tmp_path):
    base_path, (task_path, *_) = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    base, task = read_container(base_path), read_container(task_path)
    with ContainerReader(base_path) as b, ContainerReader(task_path) as t:
        pairing = pair_tensors(b.specs, t.specs, "fft")
    extracted = extract_task_vectors(base, task, "fft")
    assert set(pairing.matrices) == set(extracted.matrices) == {"a.weight", "c.weight"}
    assert pairing.vectors == tuple(extracted.vectors) == ("b.bias",)
    for name, pm in pairing.matrices.items():
        assert pm.shape == extracted.matrices[name].shape and pm.sources == (name,)


def test_a_lora_files_2d_tensor_that_is_no_factor_is_unpaired():
    base = {"q.weight": np.zeros((8, 6)), "head.weight": np.zeros((3, 8))}
    task = {"q.lora_B": np.ones((8, 2)), "q.lora_A": np.ones((2, 6)),
            "head.weight": np.ones((3, 8)), "n": np.ones(4)}
    pairing = pair_tensors(base, task, "lora")
    assert pairing.unpaired == ("head.weight",)
    assert set(pairing.matrices) == {"q.weight"}
    assert pairing.matrices["q.weight"].lora_rank == 2
    assert pair_tensors(base, task, "fft").unpaired == ()


def test_a_lora_files_1d_tensor_named_like_a_pairs_matrix_is_unpaired():
    base = {"w.weight": np.zeros((8, 6))}
    task = {"w.lora_B": np.ones((8, 2)), "w.lora_A": np.ones((2, 6)), "w.weight": np.ones(5)}
    pairing = pair_tensors(base, task, "lora")
    assert pairing.unpaired == ("w.weight",)
    assert pairing.vectors == () and pairing.unmatched == ()
    assert pairing.matrices["w.weight"].sources == ("w.lora_B", "w.lora_A")


@pytest.mark.parametrize("command", ["merge", "report", "optimize-basis"])
def test_a_1d_tensor_named_like_a_lora_pairs_matrix_exits_2_naming_file_and_tensor(
        tmp_path, capsys, command):
    rng = np.random.default_rng(4)
    write_container(TensorContainer(tensors={"w.weight": rng.standard_normal((8, 6))}),
                    tmp_path / "base.dcm")
    task_paths = []
    for i in range(2):
        task = {"w.lora_B": rng.standard_normal((8, 2)), "w.lora_A": rng.standard_normal((2, 6)),
                "w.weight": np.full(5, np.nan)}
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(TensorContainer(tensors=task), task_paths[-1])
    base, tasks, out = str(tmp_path / "base.dcm"), list(map(str, task_paths)), tmp_path / "out"
    argv = {"merge": merge_args(base, tasks, out, mode="lora"),
            "report": report_args(base, base, tasks, out),
            "optimize-basis": optimize_args(base, tasks, out, "w.weight", iters=1)}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {task_paths[0]}: holds 1-D tensor 'w.weight', ")
    assert "2-D" not in err
    assert not out.exists()


def test_a_lora_merge_with_a_full_2d_tensor_exits_2_naming_file_and_tensor(tmp_path, capsys):
    rng = np.random.default_rng(3)
    base = {"q.weight": rng.standard_normal((8, 6)), "head.weight": rng.standard_normal((3, 8))}
    write_container(TensorContainer(tensors=base), tmp_path / "base.dcm")
    task_paths = []
    for i in range(2):
        task = {"q.lora_B": rng.standard_normal((8, 2)), "q.lora_A": rng.standard_normal((2, 6)),
                "head.weight": base["head.weight"] + 1.0}
        task_paths.append(tmp_path / f"task{i}.dcm")
        write_container(TensorContainer(tensors=task), task_paths[-1])
    out = tmp_path / "m.dcm"
    assert main(merge_args(tmp_path / "base.dcm", task_paths, out, mode="lora")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {task_paths[0]}: holds 2-D tensor 'head.weight', "
                          "which is no LoRA factor")
    assert not out.exists()
    # perturb reads one file and writes such a tensor through from the task
    assert main(perturb_args(tmp_path / "base.dcm", task_paths[0], out)) == 0
    assert np.array_equal(read_container(out).tensors["head.weight"], base["head.weight"] + 1.0)


def test_a_merge_failing_on_its_last_tensor_leaves_an_existing_out_untouched(tmp_path, capsys):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    poison(task_paths[2], "c.weight")  # the last tensor by name
    out = tmp_path / "m.dcm"
    out.write_bytes(b"an earlier merge")
    before = sorted(os.listdir(tmp_path))
    for argv in [merge_args(base_path, task_paths, out),
                 perturb_args(base_path, task_paths[2], out)]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {task_paths[2]}: tensor 'c.weight' contains non-finite entries" in err
        assert out.read_bytes() == b"an earlier merge"
        assert sorted(os.listdir(tmp_path)) == before


def test_the_first_non_finite_tensor_by_name_is_reported_then_the_first_file(
    tmp_path, monkeypatch, capsys
):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    poison(task_paths[0], "c.weight")
    poison(task_paths[2], "a.weight")
    poison(task_paths[1], "a.weight", index=5)
    out = tmp_path / "m.dcm"
    for width in (1, 2):
        monkeypatch.setattr(cli, "_pool_width", width)
        assert main(merge_args(base_path, task_paths, out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {task_paths[1]}: tensor 'a.weight' contains non-finite entries\n"
        assert not out.exists()


def test_perturb_reports_the_first_failing_tensor_by_name_whatever_the_fault(
    tmp_path, monkeypatch, capsys
):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    poison(task_paths[0], "c.weight")
    poison(task_paths[0], "b.bias")
    out = tmp_path / "m.dcm"
    for width in (1, 2):
        monkeypatch.setattr(cli, "_pool_width", width)
        # the 1-D b.bias sorts before the matrix c.weight
        assert main(perturb_args(base_path, task_paths[0], out)) == 2
        assert capsys.readouterr().err == (
            f"error: {task_paths[0]}: 1-D tensor 'b.bias' or its base is not finite\n")
        assert not out.exists()


def test_optimize_basis_reads_only_its_tensor(tmp_path, monkeypatch, capsys):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    poison(task_paths[0], "c.weight")
    poison(base_path, "b.bias")
    read = []
    real_read = ContainerReader.read

    def recording_read(self, name):
        read.append((os.path.basename(self.path), name))
        return real_read(self, name)

    monkeypatch.setattr(ContainerReader, "read", recording_read)
    argv = optimize_args(base_path, task_paths, tmp_path / "t.csv", "a.weight")
    # the rule: a NaN in a tensor it does not read does not stop it
    assert main(argv) == 0
    assert sorted(read) == sorted(
        (name, "a.weight") for name in ["base.dcm", "task0.dcm", "task1.dcm", "task2.dcm"])
    capsys.readouterr()
    assert main([*argv, "--tensor", "c.weight"]) == 2
    assert (f"error: {task_paths[0]}: tensor 'c.weight' contains non-finite entries"
            in capsys.readouterr().err)


def test_optimize_basis_reads_no_base_tensor_for_a_lora_pair(tmp_path, monkeypatch):
    base_path, task_paths = write_lora_set(tmp_path, [2, 2], seed=3)
    read = []
    real_read = ContainerReader.read

    def recording_read(self, name):
        read.append((os.path.basename(self.path), name))
        return real_read(self, name)

    monkeypatch.setattr(ContainerReader, "read", recording_read)
    assert main(optimize_args(base_path, task_paths, tmp_path / "t.csv", "q.weight")) == 0
    assert sorted(read) == [(f"task{i}.dcm", f"q.lora_{ab}") for i in range(2) for ab in "AB"]


def test_merge_and_report_read_each_tensor_of_each_file_once(tmp_path, monkeypatch):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    read = []
    real_read = ContainerReader.read

    def recording_read(self, name):
        read.append((os.path.basename(self.path), name))
        return real_read(self, name)

    monkeypatch.setattr(ContainerReader, "read", recording_read)
    assert not hasattr(cli, "read_container")  # no command reads a file whole
    merged = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, merged)) == 0
    files = ["base.dcm", "task0.dcm", "task1.dcm", "task2.dcm"]
    names = ["a.weight", "b.bias", "c.weight"]
    assert sorted(read) == sorted((f, n) for f in files for n in names)
    read.clear()
    assert main(report_args(base_path, merged, task_paths, tmp_path / "r.csv")) == 0
    matrices = ["a.weight", "c.weight"]
    assert sorted(read) == sorted((f, n) for f in [*files, "m.dcm"] for n in matrices)


@has_fd_dir
@pytest.mark.parametrize("fault", ["none", "header", "non-finite", "rank"])
def test_every_file_a_command_opens_is_closed(tmp_path, fault, capsys):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    merged = tmp_path / "m.dcm"
    assert main(merge_args(base_path, task_paths, merged)) == 0
    extra = []
    if fault == "header":
        task_paths[2].write_bytes(b"short")
    elif fault == "non-finite":
        poison(task_paths[1], "c.weight")
    elif fault == "rank":
        extra = ["--rank", "7"]
    perturbed = task_paths[2 if fault == "header" else 1]
    commands = [
        merge_args(base_path, task_paths, tmp_path / "m2.dcm", *extra),
        report_args(base_path, merged, task_paths, tmp_path / "r.csv"),
        optimize_args(base_path, task_paths, tmp_path / "t.csv", "c.weight", *extra, iters=1),
        ["inspect", str(task_paths[2])],
        perturb_args(base_path, perturbed, tmp_path / "p.dcm", *extra),
    ]
    before = _open_fds()
    codes = [main(argv) for argv in commands]
    capsys.readouterr()
    assert _open_fds() == before
    assert codes == {"none": [0, 0, 0, 0, 0], "header": [2, 2, 2, 2, 2],
                     "non-finite": [2, 2, 2, 0, 2], "rank": [2, 0, 2, 0, 2]}[fault]


@pytest.mark.parametrize("rank, clipped, working", [("4", False, 4), ("7", True, 6)])
def test_perturb_direction_without_room_for_the_complement_exits_2_before_reading(
        tmp_path, monkeypatch, capsys, rank, clipped, working):
    base_path, task_paths = write_fft_set(tmp_path, SET, 3, 0, np.float32)
    read = []
    real_read = ContainerReader.read

    def recording_read(self, name):
        read.append(name)
        return real_read(self, name)

    monkeypatch.setattr(ContainerReader, "read", recording_read)
    out = tmp_path / "p.dcm"
    assert main(perturb_args(base_path, task_paths[0], out, "--rank", rank)) == 2
    clip = f" (rank {rank} clipped to min(m, n))" if clipped else ""
    assert capsys.readouterr().err == (
        f"error: tensor 'a.weight' (8, 6): kind 'direction' at working rank {working}{clip} "
        f"needs 2 x rank <= min(m, n); the largest rank that fits is 3\n")
    assert read == [] and not out.exists()
