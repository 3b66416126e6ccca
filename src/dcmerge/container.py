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
Every file the package writes, CSVs included, goes through ``_replacing``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContainerError, ValidationError
from .linalg import _all_finite
from .task_vector import TaskVector, _product_shape, from_fft_delta, from_lora_factors

__all__ = [
    "TensorContainer",
    "TensorSpec",
    "ContainerReader",
    "container_writer",
    "PairedMatrix",
    "Pairing",
    "pair_tensors",
    "vector_delta",
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
            raise ValidationError(f"tensor {name!r} must be a float32 or float64 array")

    def names(self) -> list[str]:
        return sorted(self.tensors)


class TensorSpec(NamedTuple):
    """A tensor's header entry: dtype, shape and byte range in the data region."""

    dtype: np.dtype
    shape: tuple[int, ...]
    start: int
    end: int

    @property
    def ndim(self) -> int:
        return len(self.shape)


def _layout(specs, metadata) -> tuple[bytes, dict[str, int]]:
    """The canonical header of ``specs`` and ``metadata``, length field included,
    and each tensor's offset in the file.

    ``specs`` maps names to anything with a float32 or float64 ``dtype`` and
    a ``shape``: arrays or TensorSpecs. Tensors lie back to back in
    sorted-name order.
    """
    header: dict = {}
    offsets = {}
    offset = 0
    for name in sorted(specs):
        dtype, shape = specs[name].dtype, specs[name].shape
        nbytes = math.prod(shape) * dtype.itemsize
        header[name] = {
            "dtype": _DTYPE_NAMES[dtype],
            "shape": list(shape),
            "data_offsets": [offset, offset + nbytes],
        }
        offsets[name] = offset
        offset += nbytes
    if metadata:
        header[_METADATA_KEY] = dict(sorted(metadata.items()))
    payload = json.dumps(
        header, separators=(",", ":"), sort_keys=True, ensure_ascii=False
    ).encode("utf-8")
    head = len(payload).to_bytes(8, "little") + payload
    return head, {name: len(head) + offset for name, offset in offsets.items()}


def _raw(arr: np.ndarray) -> np.ndarray:
    """The stored bytes of ``arr``: no copy for a C-contiguous array on a little-endian machine."""
    return np.ascontiguousarray(arr).astype(_DTYPES[_DTYPE_NAMES[arr.dtype]], copy=False)


def write_container(container: TensorContainer, path):
    """Serialize a container to ``path`` with the canonical byte layout (``container_writer``)."""
    for name in container.names():
        TensorContainer._check_entry(name, container.tensors[name])
    with container_writer(path, container.tensors, container.metadata) as put:
        for name in container.names():
            put(name, container.tensors[name])


@contextlib.contextmanager
def _replacing(path):
    """The descriptor of a new file ``.<name>.<random>.tmp`` next to ``path``
    (next to the file a symlink names) with the permissions ``open(path, "wb")``
    gives, which replaces ``path`` when the block ends and is removed if it
    raises. A ``path`` that exists and is not a regular file, or that
    ``open(path, "wb")`` could not open, is refused before the file is made.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None:
        if not stat.S_ISREG(mode):
            raise ValidationError(f"{path} exists and is not a regular file")
        os.close(os.open(target, os.O_WRONLY))  # raises where open(path, "wb") would
    directory, name = os.path.split(target)
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        with contextlib.suppress(FileExistsError):
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
    try:
        try:
            yield fd
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
        finally:
            os.close(fd)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


@contextlib.contextmanager
def container_writer(path, specs, metadata):
    """``put(name, arr)``, which writes tensor ``name`` of a new container at ``path``.

    ``put`` writes each array at its offset in the canonical layout of
    ``specs`` and ``metadata``, in any order and from any thread. The file
    replaces ``path`` (``_replacing``) only if every tensor was put.
    """
    with _replacing(path) as fd:
        head, offsets = _layout(specs, metadata)
        _write_at(fd, memoryview(head), 0)
        written = set()

        def put(name, arr):
            _write_at(fd, memoryview(_raw(arr).reshape(-1).view(np.uint8)), offsets[name])
            written.add(name)

        yield put
        if missing := sorted(offsets.keys() - written):
            raise ContainerError(f"tensor {missing[0]!r} was laid out but never written")


def _write_at(fd: int, data: memoryview, offset: int) -> None:
    while data:
        written = os.pwrite(fd, data, offset)
        data, offset = data[written:], offset + written


def _parse_entry(name, entry, data_len) -> TensorSpec:
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
    return TensorSpec(_DTYPES[dtype_name], tuple(shape), start, end)


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


class ContainerReader:
    """A container file whose header is validated on opening and whose tensors
    are read one at a time.

    ``specs`` maps each tensor name, in header order, to its TensorSpec, and
    ``metadata`` holds the header's string pairs. ``read(name)`` reads that
    tensor's byte range with a positioned read, so threads may read at once,
    into a fresh read-only array: the only in-memory copy of the tensor,
    which task vectors keep without a copy. Nothing is mapped, so a tensor
    leaves memory with its last array. A reader keeps the file open until
    ``close``, or the end of a ``with`` block.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb")
        try:
            size = os.fstat(self._file.fileno()).st_size
            head = self._file.read(8)
            if len(head) < 8:
                raise ContainerError("file too short for header length field")
            header_len = int.from_bytes(head, "little")
            if 8 + header_len > size:
                raise ContainerError("header extends past end of file")
            self._data_start = 8 + header_len
            self.specs, self.metadata = _parse_header(
                self._file.read(header_len), size - self._data_start
            )
        except BaseException:
            self._file.close()
            raise

    def names(self) -> list[str]:
        return sorted(self.specs)

    def read(self, name: str) -> np.ndarray:
        dtype, shape, start, end = self.specs[name]
        arr = np.empty(shape, dtype=dtype)
        buf = memoryview(arr.reshape(-1).view(np.uint8))
        done = 0
        while done < end - start:
            got = os.preadv(self._file.fileno(), [buf[done:]], self._data_start + start + done)
            if got == 0:
                raise ContainerError(f"tensor {name!r}: file ended while reading it")
            done += got
        arr = arr.astype(dtype.newbyteorder("="), copy=False)
        arr.setflags(write=False)
        return arr

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_container(path) -> TensorContainer:
    """Parse a container file, validating layout before touching tensor bytes.

    The file is opened as a ContainerReader and every tensor read, so the
    returned tensors are read-only and the only in-memory copy of the data.
    """
    with ContainerReader(path) as reader:
        tensors = {name: reader.read(name) for name in reader.specs}
        return TensorContainer(tensors=tensors, metadata=dict(reader.metadata))


_LORA_B = ".lora_B"
_LORA_A = ".lora_A"
_WEIGHT = ".weight"


@dataclass(frozen=True)
class PairedMatrix:
    """A matrix tensor of a task file, as its header gives it (``pair_tensors``).

    ``sources`` names the task tensors it is read from: ``(name,)``, or a
    factor pair ``(<p>.lora_B, <p>.lora_A)`` with inner dimension
    ``lora_rank`` (None for a full weight). ``shape`` is the matrix's shape.
    """

    name: str
    shape: tuple[int, int]
    sources: tuple[str, ...]
    lora_rank: int | None = None

    def task_vector(self, read, base) -> TaskVector:
        """The task vector, from ``read(source)`` arrays and the base's array
        (unused for a factor pair): the per-tensor half of the pairing rule,
        which rejects a non-finite tensor, or an overflowing product, by name.
        """
        if self.lora_rank is not None:
            b_name, a_name = self.sources
            return from_lora_factors(
                read(b_name), read(a_name), self.name,
                labels=(f"tensor {b_name!r}", f"tensor {a_name!r}"),
            )
        return from_fft_delta(
            read(self.name), base, self.name,
            labels=(f"tensor {self.name!r}", f"base tensor {self.name!r}"),
        )


def vector_delta(name: str, task: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Float64 ``task - base`` of a tensor that is not a matrix; ValidationError if not finite."""
    delta = np.asarray(np.subtract(task, base, dtype=np.float64))
    if not _all_finite(delta):
        raise ValidationError(f"{task.ndim}-D tensor {name!r} or its base is not finite")
    return delta


@dataclass(frozen=True)
class Pairing:
    """A task file's tensors paired with the base's from the headers (``pair_tensors``).

    ``matrices`` maps each matrix tensor to its PairedMatrix; ``vectors``
    names the other tensors read that the base holds, ``unmatched`` those
    the base lacks, and ``unpaired`` the tensors of a lora file that are not
    read (2-D non-factors, names a pair takes). All three are sorted.
    """

    matrices: dict[str, PairedMatrix]
    vectors: tuple[str, ...]
    unmatched: tuple[str, ...]
    unpaired: tuple[str, ...]


def pair_tensors(base, task, mode: str) -> Pairing:
    """The header-level half of the pairing rule of a task file and the base.

    It reads, in ``fft`` mode, every tensor; in ``lora`` mode, each factor
    pair ``<p>.lora_B`` (m x r), ``<p>.lora_A`` (r x n), r >= 1, as
    ``<p>.weight``, and every other tensor not 2-D. A 2-D tensor becomes a
    matrix (a pair keeps its factors, not their product), any other a delta
    to average. Each must have the base tensor's shape (a pair: rows of B by
    columns of A); one the base lacks goes to ``unmatched``. ``base`` and
    ``task`` map tensor names to anything with a ``shape`` and an ``ndim``:
    arrays, or a ContainerReader's TensorSpecs. Every shape check is made
    here, so a file's tensors can be checked before any is read; the other
    half, ``PairedMatrix.task_vector`` and ``vector_delta``, reads one
    tensor's arrays and rejects a non-finite one, or an overflowing product,
    by name.
    """
    if mode not in ("fft", "lora"):
        raise ValidationError(f"mode must be 'fft' or 'lora', got {mode!r}")
    matrices: dict[str, PairedMatrix] = {}
    factors = [name for name in task if name.endswith((_LORA_A, _LORA_B))]
    if mode == "lora":
        for prefix in sorted({name.rsplit(".", 1)[0] for name in factors}):
            target, b_name, a_name = prefix + _WEIGHT, prefix + _LORA_B, prefix + _LORA_A
            if b_name not in task or a_name not in task:
                missing = a_name if a_name not in task else b_name
                raise ValidationError(f"orphan LoRA factor: {missing!r} missing")
            B, A = task[b_name].shape, task[a_name].shape
            shape = _product_shape(B, A, (f"tensor {b_name!r}", f"tensor {a_name!r}"))
            matrices[target] = PairedMatrix(target, shape, (b_name, a_name), B[1])
    unpaired = sorted(name for name, t in task.items() if mode == "lora"
                      and name not in factors and (t.ndim == 2 or name in matrices))
    plain = [name for name in task
             if mode == "fft" or name not in factors and name not in unpaired]
    vectors, unmatched = [], []
    for name in sorted({*matrices, *plain}):
        b = base.get(name)
        if b is None:
            unmatched.append(name)
        elif name in matrices:  # a factor pair
            if matrices[name].shape != b.shape:
                b_name, a_name = matrices[name].sources
                raise ValidationError(
                    f"tensor {b_name!r} {task[b_name].shape} times tensor {a_name!r} "
                    f"{task[a_name].shape} has shape {matrices[name].shape} vs base "
                    f"tensor {name!r} {b.shape}"
                )
        elif (t := task[name]).ndim == 2:
            if t.shape != b.shape:
                raise ValidationError(
                    f"tensor {name!r} has shape {t.shape} vs base tensor {name!r} {b.shape}"
                )
            matrices[name] = PairedMatrix(name, t.shape, (name,))
        else:
            if t.shape != b.shape:
                raise ValidationError(
                    f"{t.ndim}-D tensor {name!r} has shape {t.shape} vs base {b.shape}"
                )
            vectors.append(name)
    return Pairing(matrices, tuple(vectors), tuple(unmatched), tuple(unpaired))


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


def detect_mode(task) -> str:
    """Guess the checkpoint flavor of a TensorContainer or ContainerReader from tensor names."""
    if any(name.endswith((_LORA_A, _LORA_B)) for name in task.names()):
        return "lora"
    return "fft"


def extract_task_vectors(
    base: TensorContainer, task: TensorContainer, mode: str
) -> ExtractedVectors:
    """The pairing rule (``pair_tensors``) applied to two whole checkpoints.

    Each matrix becomes a task vector (``PairedMatrix.task_vector``) and
    each other tensor the base has a float64 delta task - base
    (``vector_delta``). A non-finite tensor, or a product that overflows, is
    a ValidationError that names it.
    """
    pairing = pair_tensors(base.tensors, task.tensors, mode)
    read = task.tensors.__getitem__
    matrices = {name: pm.task_vector(read, base.tensors.get(name))
                for name, pm in pairing.matrices.items()}
    vectors = {name: vector_delta(name, task.tensors[name], base.tensors[name])
               for name in pairing.vectors}
    return ExtractedVectors(matrices, vectors, pairing.unmatched)
