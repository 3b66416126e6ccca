"""Binary tensor container and checkpoint-to-task-vector extraction.

File layout, from offset zero:

1. an 8-byte little-endian unsigned header length ``n``;
2. ``n`` bytes of UTF-8 JSON: an object mapping each tensor name to
   ``{"dtype": "F32"|"F64", "shape": [...], "data_offsets": [start, end]}``,
   plus an optional ``"__metadata__"`` object of string pairs; no key repeats;
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
from .linalg import _all_finite
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


def _unique_keys(pairs) -> dict:
    """A header object as a dict; json.loads alone would keep a repeated key's last value."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ContainerError(f"header repeats key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def _parse_header(payload: bytes, data_len: int) -> tuple[dict, dict]:
    """Validated (tensor entries, metadata) of a header over ``data_len`` data bytes."""
    try:
        header = json.loads(payload.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ContainerError(f"header is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ContainerError("header must be a JSON object")

    metadata = header.pop(_METADATA_KEY, {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ContainerError("__metadata__ must map strings to strings")

    parsed = {name: _parse_entry(name, entry, data_len) for name, entry in header.items()}

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
    returned tensors are the only in-memory copy of the data. They are
    read-only, so task vectors can keep them without a copy.
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
            arr = arr.astype(dtype.newbyteorder("="), copy=False)
            arr.setflags(write=False)
            tensors[name] = arr
    return TensorContainer(tensors=tensors, metadata=dict(metadata))


_LORA_B = ".lora_B"
_LORA_A = ".lora_A"
_WEIGHT = ".weight"


def _factor_names(target: str) -> tuple[str, str]:
    """Names (``<p>.lora_B``, ``<p>.lora_A``) of the factors behind ``<p>.weight``."""
    prefix = target[: -len(_WEIGHT)]
    return prefix + _LORA_B, prefix + _LORA_A


@dataclass(frozen=True)
class ExtractedVectors:
    """A task file paired with the base (``extract_task_vectors``).

    ``matrices`` holds a task vector per 2-D tensor read, ``vectors`` the
    float64 delta of each other one, to average, and ``unmatched`` the sorted
    names the base lacks (a LoRA pair, needing no base, stays in ``matrices``).
    """

    matrices: dict[str, TaskVector]
    vectors: dict[str, np.ndarray]
    unmatched: tuple[str, ...] = ()


def detect_mode(task: TensorContainer) -> str:
    """Guess the checkpoint flavor from tensor names."""
    if any(name.endswith((_LORA_A, _LORA_B)) for name in task.tensors):
        return "lora"
    return "fft"


def extract_task_vectors(
    base: TensorContainer, task: TensorContainer, mode: str
) -> ExtractedVectors:
    """Pair the tensors of one task checkpoint with the base's tensors.

    It reads, in ``fft`` mode, every tensor; in ``lora`` mode, each factor
    pair ``<p>.lora_B`` (m x r), ``<p>.lora_A`` (r x n), r >= 1, as
    ``<p>.weight``, and every tensor that is not 2-D. A 2-D tensor becomes a
    matrix task vector (a pair keeps its factors, not their product), any
    other a float64 delta task - base. Each must have the base tensor's
    shape (a pair: rows of B by columns of A); one the base lacks goes to
    ``unmatched``. A non-finite tensor, or a product that overflows, is a
    ValidationError that names it.
    """
    if mode not in ("fft", "lora"):
        raise ValidationError(f"mode must be 'fft' or 'lora', got {mode!r}")
    matrices: dict[str, TaskVector] = {}
    factors = [name for name in task.tensors if name.endswith((_LORA_A, _LORA_B))]
    if mode == "lora":
        for prefix in sorted({name.rsplit(".", 1)[0] for name in factors}):
            target = prefix + _WEIGHT
            b_name, a_name = _factor_names(target)
            if b_name not in task.tensors or a_name not in task.tensors:
                missing = a_name if a_name not in task.tensors else b_name
                raise ValidationError(f"orphan LoRA factor: {missing!r} missing")
            matrices[target] = from_lora_factors(
                task.tensors[b_name], task.tensors[a_name], target,
                labels=(f"tensor {b_name!r}", f"tensor {a_name!r}"),
            )
    plain = [name for name, t in task.tensors.items()
             if mode == "fft" or t.ndim != 2 and name not in factors]
    vectors, unmatched = {}, []
    for name in sorted({*matrices, *plain}):
        b = base.tensors.get(name)
        if b is None:
            unmatched.append(name)
        elif name in matrices:  # a factor pair
            if matrices[name].shape != b.shape:
                B, A = matrices[name].factors
                b_name, a_name = _factor_names(name)
                raise ValidationError(
                    f"tensor {b_name!r} {B.shape} times tensor {a_name!r} {A.shape} has "
                    f"shape {matrices[name].shape} vs base tensor {name!r} {b.shape}"
                )
        elif (t := task.tensors[name]).ndim == 2:
            matrices[name] = from_fft_delta(
                t, b, name, labels=(f"tensor {name!r}", f"base tensor {name!r}")
            )
        else:
            if t.shape != b.shape:
                raise ValidationError(
                    f"{t.ndim}-D tensor {name!r} has shape {t.shape} vs base {b.shape}"
                )
            vectors[name] = np.asarray(np.subtract(t, b, dtype=np.float64))
            if not _all_finite(vectors[name]):
                raise ValidationError(f"{t.ndim}-D tensor {name!r} or its base is not finite")
    return ExtractedVectors(matrices, vectors, tuple(unmatched))
