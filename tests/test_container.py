import json

import numpy as np
import pytest

from dcmerge.container import (
    TensorContainer,
    detect_mode,
    extract_task_vectors,
    read_container,
    vector_delta,
    write_container,
)
from dcmerge.errors import ContainerError, ValidationError


def craft(path, entries, data):
    """Write a container file from a raw header dict and payload bytes."""
    payload = json.dumps(entries).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(payload).to_bytes(8, "little"))
        fh.write(payload)
        fh.write(data)


# round trips


def test_empty_container_round_trip(tmp_path):
    path = tmp_path / "empty.dcm"
    write_container(TensorContainer(), path)
    out = read_container(path)
    assert out.tensors == {}
    assert out.metadata == {}


def test_single_tensor_bitwise_round_trip(tmp_path):
    arr = np.array([[1.5, -2.25], [0.0, 3.0]], dtype=np.float32)
    path = tmp_path / "one.dcm"
    write_container(TensorContainer(tensors={"w": arr}), path)
    out = read_container(path)
    assert out.tensors["w"].dtype == np.float32
    assert np.array_equal(
        out.tensors["w"].view(np.uint32), arr.view(np.uint32)
    )


def test_many_mixed_tensors_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {}
    for i in range(100):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        dtype = np.float32 if i % 2 else np.float64
        tensors[f"layer.{i}.w"] = rng.standard_normal(shape).astype(dtype)
    path = tmp_path / "many.dcm"
    write_container(TensorContainer(tensors=tensors), path)
    out = read_container(path)
    assert set(out.tensors) == set(tensors)
    for name, arr in tensors.items():
        got = out.tensors[name]
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        assert np.array_equal(got, arr)


def test_metadata_round_trip(tmp_path):
    path = tmp_path / "meta.dcm"
    meta = {"alpha": "0.5", "producer": "test"}
    write_container(
        TensorContainer(tensors={"w": np.zeros(2)}, metadata=meta), path
    )
    assert read_container(path).metadata == meta


def test_zero_size_tensor_round_trip(tmp_path):
    path = tmp_path / "zero.dcm"
    arr = np.zeros((0, 3), dtype=np.float64)
    write_container(TensorContainer(tensors={"w": arr}), path)
    out = read_container(path)
    assert out.tensors["w"].shape == (0, 3)


def test_writer_is_canonical(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal(4).astype(np.float32)
    p1 = tmp_path / "one.dcm"
    p2 = tmp_path / "two.dcm"
    write_container(TensorContainer(tensors={"a": a, "b": b}), p1)
    # same content, different insertion order
    write_container(TensorContainer(tensors={"b": b, "a": a}), p2)
    assert p1.read_bytes() == p2.read_bytes()


# construction validation


def test_container_rejects_bad_names_and_dtypes():
    with pytest.raises(ValidationError):
        TensorContainer(tensors={"": np.zeros(2)})
    with pytest.raises(ValidationError):
        TensorContainer(tensors={"__metadata__": np.zeros(2)})
    with pytest.raises(ValidationError):
        TensorContainer(tensors={"w": np.zeros(2, dtype=np.int64)})
    with pytest.raises(ValidationError):
        TensorContainer(tensors={"w": np.zeros(2)}, metadata={"k": 1})


# malformed files


def test_read_rejects_truncated_length_field(tmp_path):
    path = tmp_path / "bad.dcm"
    path.write_bytes(b"\x01\x02\x03")
    with pytest.raises(ContainerError):
        read_container(path)


def test_read_rejects_header_past_eof(tmp_path):
    path = tmp_path / "bad.dcm"
    path.write_bytes((1000).to_bytes(8, "little") + b"{}")
    with pytest.raises(ContainerError):
        read_container(path)


def test_read_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.dcm"
    payload = b"not json"
    path.write_bytes(len(payload).to_bytes(8, "little") + payload)
    with pytest.raises(ContainerError):
        read_container(path)


def _write_header(path, payload: bytes, data: bytes = b""):
    path.write_bytes(len(payload).to_bytes(8, "little") + payload + data)


def test_read_rejects_a_header_nested_past_the_recursion_limit(tmp_path):
    path = tmp_path / "bad.dcm"
    _write_header(path, b"[" * 100_000)
    with pytest.raises(ContainerError, match="header is not valid UTF-8 JSON: maximum recursion"):
        read_container(path)


@pytest.mark.parametrize("payload, key", [
    # the same 8 bytes as (2, 1), then as (1, 2): json.loads alone keeps the second
    (b'{"a":{"dtype":"F32","shape":[2,1],"data_offsets":[0,8]},'
     b'"a":{"dtype":"F32","shape":[1,2],"data_offsets":[0,8]}}', "a"),
    (b'{"a":{"dtype":"F32","shape":[2],"shape":[2],"data_offsets":[0,8]}}', "shape"),
    (b'{"__metadata__":{"k":"x","k":"y"},'
     b'"a":{"dtype":"F32","shape":[2],"data_offsets":[0,8]}}', "k"),
], ids=["tensor", "entry", "metadata"])
def test_read_rejects_a_repeated_key_and_names_it(tmp_path, payload, key):
    path = tmp_path / "bad.dcm"
    _write_header(path, payload, b"\x00" * 8)
    with pytest.raises(ContainerError, match=f"header repeats key '{key}'"):
        read_container(path)


def test_read_rejects_unknown_dtype(tmp_path):
    path = tmp_path / "bad.dcm"
    craft(
        path,
        {"w": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}},
        b"\x00" * 8,
    )
    with pytest.raises(ContainerError):
        read_container(path)


def test_read_rejects_shape_byte_mismatch(tmp_path):
    path = tmp_path / "bad.dcm"
    craft(
        path,
        {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}},
        b"\x00" * 8,
    )
    with pytest.raises(ContainerError):
        read_container(path)


def test_read_rejects_overlapping_ranges(tmp_path):
    path = tmp_path / "bad.dcm"
    craft(
        path,
        {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        },
        b"\x00" * 12,
    )
    with pytest.raises(ContainerError):
        read_container(path)


def test_read_rejects_gap_between_ranges(tmp_path):
    path = tmp_path / "bad.dcm"
    craft(
        path,
        {
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
        },
        b"\x00" * 12,
    )
    with pytest.raises(ContainerError):
        read_container(path)


def test_read_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "bad.dcm"
    craft(
        path,
        {"w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}},
        b"\x00" * 8,
    )
    with pytest.raises(ContainerError):
        read_container(path)


def test_read_rejects_missing_entry_fields(tmp_path):
    path = tmp_path / "bad.dcm"
    craft(path, {"w": {"dtype": "F32", "shape": [1]}}, b"\x00" * 4)
    with pytest.raises(ContainerError):
        read_container(path)


@pytest.mark.parametrize("field, value, message", [
    ("shape", [-1], "bad shape [-1]"),
    ("shape", [True], "bad shape [True]"),
    ("shape", 2, "bad shape 2"),
    ("data_offsets", [0, 4, 8], "bad data_offsets [0, 4, 8]"),
    ("data_offsets", [False, 8], "bad data_offsets [False, 8]"),
    ("data_offsets", [4, 12], "offsets outside data region"),
], ids=["negative-shape", "bool-shape", "shape-not-a-list", "three-offsets", "bool-offset",
        "offsets-past-the-data"])
def test_read_rejects_a_malformed_entry_and_names_it(tmp_path, field, value, message):
    entry = {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}
    entry[field] = value
    path = tmp_path / "bad.dcm"
    craft(path, {"w": entry}, b"\x00" * 8)
    with pytest.raises(ContainerError) as exc:
        read_container(path)
    assert str(exc.value) == f"tensor 'w': {message}"


@pytest.mark.parametrize("header, message", [
    ([], "header must be a JSON object"),
    ({"__metadata__": {"k": 1}}, "__metadata__ must map strings to strings"),
    ({"__metadata__": "k"}, "__metadata__ must map strings to strings"),
], ids=["array", "metadata-value", "metadata-not-an-object"])
def test_read_rejects_a_malformed_header(tmp_path, header, message):
    path = tmp_path / "bad.dcm"
    craft(path, header, b"")
    with pytest.raises(ContainerError) as exc:
        read_container(path)
    assert str(exc.value) == message


def test_read_accepts_metadata_block(tmp_path):
    path = tmp_path / "ok.dcm"
    craft(
        path,
        {
            "__metadata__": {"note": "hello"},
            "w": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]},
        },
        np.array([2.5]).tobytes(),
    )
    out = read_container(path)
    assert out.metadata == {"note": "hello"}
    assert out.tensors["w"][0] == 2.5


def test_read_tensors_are_read_only_and_own_their_data(tmp_path):
    path = tmp_path / "ro.dcm"
    tensors = {"w": np.ones((3, 2), np.float32), "b": np.arange(4.0)}
    write_container(TensorContainer(tensors=tensors), path)
    out = read_container(path)
    for arr in out.tensors.values():
        assert not arr.flags.writeable and arr.base is None
        with pytest.raises(ValueError):
            arr[0] = 7.0


# task-vector extraction


def base_pair(rng):
    base = TensorContainer(
        tensors={
            "enc.weight": rng.standard_normal((6, 4)),
            "enc.bias": rng.standard_normal(6),
        }
    )
    task = TensorContainer(
        tensors={
            "enc.weight": base.tensors["enc.weight"] + rng.standard_normal((6, 4)),
            "enc.bias": base.tensors["enc.bias"] + rng.standard_normal(6),
        }
    )
    return base, task


def test_extract_fft_identical_checkpoints_give_zero():
    rng = np.random.default_rng(2)
    base, _ = base_pair(rng)
    same = TensorContainer(
        tensors={k: v.copy() for k, v in base.tensors.items()}
    )
    out = extract_task_vectors(base, same, mode="fft")
    assert np.array_equal(
        out.matrices["enc.weight"].delta, np.zeros((6, 4))
    )
    assert np.array_equal(out.vectors["enc.bias"], np.zeros(6))


def test_extract_fft_recovers_difference():
    rng = np.random.default_rng(3)
    base, task = base_pair(rng)
    out = extract_task_vectors(base, task, mode="fft")
    np.testing.assert_allclose(
        out.matrices["enc.weight"].delta,
        task.tensors["enc.weight"] - base.tensors["enc.weight"],
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        out.vectors["enc.bias"],
        task.tensors["enc.bias"] - base.tensors["enc.bias"],
        rtol=1e-12,
    )


def test_extract_lora_zero_b_gives_zero_delta():
    rng = np.random.default_rng(4)
    base = TensorContainer(tensors={"q.weight": rng.standard_normal((8, 6))})
    task = TensorContainer(
        tensors={
            "q.lora_B": np.zeros((8, 2)),
            "q.lora_A": rng.standard_normal((2, 6)),
        }
    )
    out = extract_task_vectors(base, task, mode="lora")
    assert np.array_equal(out.matrices["q.weight"].delta, np.zeros((8, 6)))
    assert out.matrices["q.weight"].lora_rank == 2


def test_extract_lora_products_match_hand_multiplication():
    rng = np.random.default_rng(5)
    tensors = {}
    expected = {}
    for layer in ("l0", "l1", "l2"):
        b = rng.standard_normal((5, 2))
        a = rng.standard_normal((2, 4))
        tensors[f"{layer}.lora_B"] = b
        tensors[f"{layer}.lora_A"] = a
        expected[f"{layer}.weight"] = b @ a
    base = TensorContainer()
    out = extract_task_vectors(base, TensorContainer(tensors=tensors), mode="lora")
    assert set(out.matrices) == set(expected)
    for name, want in expected.items():
        np.testing.assert_allclose(out.matrices[name].delta, want, rtol=1e-12)


def test_extract_lora_orphan_and_rank_mismatch():
    rng = np.random.default_rng(6)
    base = TensorContainer()
    orphan = TensorContainer(tensors={"q.lora_B": rng.standard_normal((4, 2))})
    with pytest.raises(ValidationError):
        extract_task_vectors(base, orphan, mode="lora")
    mismatch = TensorContainer(
        tensors={
            "q.lora_B": rng.standard_normal((4, 2)),
            "q.lora_A": rng.standard_normal((3, 5)),
        }
    )
    with pytest.raises(ValidationError):
        extract_task_vectors(base, mismatch, mode="lora")


def test_extract_fft_shape_mismatch_rejected():
    base = TensorContainer(tensors={"w": np.zeros((2, 2))})
    task = TensorContainer(tensors={"w": np.zeros((3, 2))})
    with pytest.raises(ValidationError):
        extract_task_vectors(base, task, mode="fft")


def test_detect_mode():
    assert detect_mode(TensorContainer(tensors={"q.lora_A": np.zeros((2, 2))})) == "lora"
    assert detect_mode(TensorContainer(tensors={"q.weight": np.zeros((2, 2))})) == "fft"


def test_extract_pairs_every_fft_tensor_and_lists_what_the_base_lacks():
    rng = np.random.default_rng(7)
    base = TensorContainer(tensors={"w": rng.standard_normal((3, 2)),
                                    "s": np.array(2.0),
                                    "k": rng.standard_normal((4, 3, 2, 2))})
    task = {name: np.asarray(arr + 1.0) for name, arr in base.tensors.items()}
    task.update({"z": np.zeros((2, 2)), "b": np.zeros(3)})
    out = extract_task_vectors(base, TensorContainer(tensors=task), mode="fft")
    assert set(out.matrices) == {"w"}
    assert set(out.vectors) == {"s", "k"}
    for name, delta in out.vectors.items():
        assert isinstance(delta, np.ndarray) and delta.shape == base.tensors[name].shape
        assert np.array_equal(delta, task[name] - base.tensors[name])
    assert out.unmatched == ("b", "z")


def test_extract_lora_reads_pairs_and_tensors_that_are_not_2d():
    rng = np.random.default_rng(8)
    base = TensorContainer(tensors={"q.weight": np.zeros((5, 4)), "n": np.zeros(5),
                                    "other": np.zeros((2, 2))})
    task = TensorContainer(tensors={"q.lora_B": rng.standard_normal((5, 2)),
                                    "q.lora_A": rng.standard_normal((2, 4)),
                                    "n": np.ones(5), "other": np.ones((2, 2)),
                                    "k.lora_B": rng.standard_normal((3, 1)),
                                    "k.lora_A": rng.standard_normal((1, 3))})
    out = extract_task_vectors(base, task, mode="lora")
    assert set(out.matrices) == {"k.weight", "q.weight"}
    assert set(out.vectors) == {"n"}
    assert out.unmatched == ("k.weight",)


def test_extract_lora_names_the_tensors_it_does_not_read():
    # a head trained in full beside the adapters is 2-D, so the pairing rule reads it in
    # neither mode's matrices nor vectors; the result names it instead of dropping it
    rng = np.random.default_rng(9)
    base = TensorContainer(tensors={"q.weight": np.zeros((5, 4)), "head.weight": np.zeros((3, 5))})
    task = TensorContainer(tensors={"q.lora_B": rng.standard_normal((5, 2)),
                                    "q.lora_A": rng.standard_normal((2, 4)),
                                    "head.weight": np.ones((3, 5))})
    out = extract_task_vectors(base, task, mode="lora")
    assert set(out.matrices) == {"q.weight"} and out.vectors == {}
    assert (out.unmatched, out.unpaired) == ((), ("head.weight",))


def test_extract_lora_product_of_another_shape_than_the_base_rejected():
    base = TensorContainer(tensors={"w.weight": np.zeros((8, 6))})
    task = TensorContainer(tensors={"w.lora_B": np.ones((10, 2)), "w.lora_A": np.ones((2, 6))})
    with pytest.raises(ValidationError) as exc:
        extract_task_vectors(base, task, mode="lora")
    assert str(exc.value) == ("tensor 'w.lora_B' (10, 2) times tensor 'w.lora_A' (2, 6) "
                              "has shape (10, 6) vs base tensor 'w.weight' (8, 6)")


def test_vector_delta_refuses_arrays_of_two_shapes_even_where_numpy_would_broadcast():
    for task, base in ((np.zeros(3), np.zeros(2)), (np.zeros(3), np.zeros(1))):
        with pytest.raises(ValidationError,
                           match=rf"^1-D tensor 'b' has shape \(3,\) vs base \({len(base)},\)$"):
            vector_delta("b", task, base)
