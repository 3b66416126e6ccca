"""Binary tensor container and checkpoint-to-task-vector extraction.

File layout, from offset zero:

1. an 8-byte little-endian unsigned header length ``n``;
2. ``n`` bytes of UTF-8 JSON: an object mapping each tensor name to
   ``{"dtype": "F32"|"F64", "shape": [...], "data_offsets": [start, end]}``,
   plus an optional ``"__metadata__"`` object of string pairs;
3. the raw little-endian row-major tensor bytes. Offsets are relative to
   the end of the header, and the declared ranges must tile the data region
   exactly: readers reject both overlaps and gaps.

Writers lay tensors out back to back in sorted-name order with compact
JSON, so a given container value always serializes to the same bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContainerError, ValidationError
from .task_vector import TaskVector, from_fft_delta, from_lora_factors

__all__ = [
    "TensorContainer",
    "ExtractedVectors",
    "read_container",
    "write_container",
    "extract_task_vectors",
    "detect_mode",
]

_DTYPES = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_DTYPE_NAMES = {np.dtype("float32"): "F32", np.dtype("float64"): "F64"}
_METADATA_KEY = "__metadata__"


@dataclass
class TensorContainer:
    """Named float tensors plus optional string metadata."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name, arr in self.tensors.items():
            self._check_entry(name, arr)
        for key, value in self.metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValidationError("metadata must map strings to strings")

    @staticmethod
    def _check_entry(name: str, arr: np.ndarray):
        if not isinstance(name, str) or not name or name == _METADATA_KEY:
            raise ValidationError(f"invalid tensor name {name!r}")
        if not isinstance(arr, np.ndarray) or arr.dtype not in _DTYPE_NAMES:
            raise ValidationError(
                f"tensor {name!r} must be a float32 or float64 array"
            )

    def names(self) -> list[str]:
        return sorted(self.tensors)


def write_container(container: TensorContainer, path):
    """Serialize a container to ``path`` with the canonical byte layout."""
    header: dict = {}
    buffers: list[np.ndarray] = []
    offset = 0
    for name in container.names():
        arr = container.tensors[name]
        TensorContainer._check_entry(name, arr)
        dtype_name = _DTYPE_NAMES[arr.dtype]
        # no copy for a C-contiguous array on a little-endian machine
        raw = np.ascontiguousarray(arr).astype(_DTYPES[dtype_name], copy=False)
        header[name] = {
            "dtype": dtype_name,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + raw.nbytes],
        }
        buffers.append(raw)
        offset += raw.nbytes
    if container.metadata:
        header[_METADATA_KEY] = dict(sorted(container.metadata.items()))
    payload = json.dumps(
        header, separators=(",", ":"), sort_keys=True, ensure_ascii=False
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(payload).to_bytes(8, "little"))
        fh.write(payload)
        for raw in buffers:
            fh.write(raw.data)


def _parse_entry(name, entry, data_len) -> tuple[np.dtype, tuple, int, int]:
    if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "data_offsets"}:
        raise ContainerError(f"tensor {name!r}: malformed header entry")
    dtype_name = entry["dtype"]
    if dtype_name not in _DTYPES:
        raise ContainerError(f"tensor {name!r}: unknown dtype {dtype_name!r}")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
    ):
        raise ContainerError(f"tensor {name!r}: bad shape {shape!r}")
    offsets = entry["data_offsets"]
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
    ):
        raise ContainerError(f"tensor {name!r}: bad data_offsets {offsets!r}")
    start, end = offsets
    if not 0 <= start <= end <= data_len:
        raise ContainerError(f"tensor {name!r}: offsets outside data region")
    expected = math.prod(shape) * _DTYPES[dtype_name].itemsize
    if end - start != expected:
        raise ContainerError(
            f"tensor {name!r}: byte range {end - start} does not match "
            f"shape {shape} ({expected} bytes)"
        )
    return _DTYPES[dtype_name], tuple(shape), start, end


def _parse_header(payload: bytes, data_len: int) -> tuple[dict, dict]:
    """Validated (tensor entries, metadata) of a header over ``data_len`` data bytes."""
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"header is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ContainerError("header must be a JSON object")

    metadata = header.pop(_METADATA_KEY, {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ContainerError("__metadata__ must map strings to strings")

    parsed = {}
    for name, entry in header.items():
        parsed[name] = _parse_entry(name, entry, data_len)

    # declared ranges must tile the data region: no overlap, no gap
    spans = sorted((s, e, name) for name, (_, _, s, e) in parsed.items() if e > s)
    cursor = 0
    for start, end, name in spans:
        if start < cursor:
            raise ContainerError(f"tensor {name!r}: byte range overlaps a neighbor")
        if start > cursor:
            raise ContainerError(f"gap of {start - cursor} bytes before tensor {name!r}")
        cursor = end
    if cursor != data_len:
        raise ContainerError(
            f"data region has {data_len - cursor} trailing bytes not claimed "
            "by any tensor"
        )
    return parsed, metadata


def read_container(path) -> TensorContainer:
    """Parse a container file, validating layout before touching tensor bytes.

    Each tensor is read from the file straight into its own array, so the
    returned tensors are the only in-memory copy of the data.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8:
            raise ContainerError("file too short for header length field")
        header_len = int.from_bytes(head, "little")
        if 8 + header_len > size:
            raise ContainerError("header extends past end of file")
        data_start = 8 + header_len
        parsed, metadata = _parse_header(fh.read(header_len), size - data_start)

        tensors = {}
        for name, (dtype, shape, start, end) in parsed.items():
            arr = np.empty(shape, dtype=dtype)
            fh.seek(data_start + start)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != end - start:
                raise ContainerError(f"tensor {name!r}: file ended while reading it")
            tensors[name] = arr.astype(dtype.newbyteorder("="), copy=False)
    return TensorContainer(tensors=tensors, metadata=dict(metadata))


_LORA_B = ".lora_B"
_LORA_A = ".lora_A"


@dataclass(frozen=True)
class ExtractedVectors:
    """Matrix task vectors plus 1-D deltas kept aside for plain averaging."""

    matrices: dict[str, TaskVector]
    vectors: dict[str, np.ndarray]


def detect_mode(task: TensorContainer) -> str:
    """Guess the checkpoint flavor from tensor names."""
    if any(name.endswith((_LORA_A, _LORA_B)) for name in task.tensors):
        return "lora"
    return "fft"


def _vector_deltas(base: TensorContainer, task: TensorContainer) -> dict:
    out = {}
    for name in sorted(set(base.tensors) & set(task.tensors)):
        b, t = base.tensors[name], task.tensors[name]
        if b.ndim == 1 and t.ndim == 1:
            if b.shape != t.shape:
                raise ValidationError(
                    f"1-D tensor {name!r} has shape {t.shape} vs base {b.shape}"
                )
            out[name] = np.subtract(t, b, dtype=np.float64)
    return out


def extract_task_vectors(
    base: TensorContainer, task: TensorContainer, mode: str
) -> ExtractedVectors:
    """Build task vectors from a base checkpoint and one task checkpoint.

    In ``fft`` mode every 2-D tensor present in both containers yields the
    dense difference task - base. In ``lora`` mode every factor pair
    ``<p>.lora_B`` (m x r) and ``<p>.lora_A`` (r x n) yields the product
    delta under the target name ``<p>.weight``. A non-finite matrix is a
    ValidationError that names the tensor. Either way, 1-D tensors
    present in both containers are returned separately as plain deltas for
    the averaging path of model assembly.
    """
    if mode not in ("fft", "lora"):
        raise ValidationError(f"mode must be 'fft' or 'lora', got {mode!r}")
    matrices: dict[str, TaskVector] = {}
    if mode == "fft":
        for name in sorted(set(base.tensors) & set(task.tensors)):
            b, t = base.tensors[name], task.tensors[name]
            if b.ndim == 2 or t.ndim == 2:
                if b.shape != t.shape:
                    raise ValidationError(
                        f"tensor {name!r} has shape {t.shape} vs base {b.shape}"
                    )
                matrices[name] = from_fft_delta(
                    t, b, name, labels=(f"tensor {name!r}", f"base tensor {name!r}")
                )
    else:
        prefixes = set()
        for name in task.tensors:
            if name.endswith(_LORA_B):
                prefixes.add(name[: -len(_LORA_B)])
            elif name.endswith(_LORA_A):
                prefixes.add(name[: -len(_LORA_A)])
        for prefix in sorted(prefixes):
            b_name, a_name = prefix + _LORA_B, prefix + _LORA_A
            if b_name not in task.tensors or a_name not in task.tensors:
                missing = a_name if a_name not in task.tensors else b_name
                raise ValidationError(f"orphan LoRA factor: {missing!r} missing")
            B = task.tensors[b_name]
            A = task.tensors[a_name]
            if B.ndim != 2 or A.ndim != 2:
                raise ValidationError(f"LoRA factors for {prefix!r} must be 2-D")
            if B.shape[1] != A.shape[0]:
                raise ValidationError(
                    f"LoRA rank mismatch for {prefix!r}: B is {B.shape}, "
                    f"A is {A.shape}"
                )
            matrices[prefix + ".weight"] = from_lora_factors(
                B, A, prefix + ".weight", labels=(f"tensor {b_name!r}", f"tensor {a_name!r}")
            )
    return ExtractedVectors(matrices, _vector_deltas(base, task))
