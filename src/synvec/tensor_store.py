"""Bit-exact reading and writing of single-file tensor checkpoint containers.

File layout: bytes 0-7 hold a little-endian u64 header length H; bytes
8..8+H hold a UTF-8 JSON object mapping tensor name ->
``{"dtype": "F16"|"F32"|"F64", "shape": [...], "data_offsets": [begin, end]}``
plus an optional ``"__metadata__"`` string map; the remainder is raw
little-endian tensor data addressed by ``data_offsets`` relative to byte 8+H.

Canonical writing (what :func:`write_checkpoint` produces, byte-identical for
identical inputs): ``__metadata__`` first with sorted keys, then tensors in
lexicographic name order with entry keys in the order dtype, shape,
data_offsets; compact JSON with no insignificant whitespace; tensor data laid
out contiguously from offset 0 in the same lexicographic order. Reading
accepts any valid file (arbitrary range order, whitespace-padded headers),
not just canonical ones.

Reads are memory-mapped: tensor values are read-only views into the mapped
file, so peak transient allocation stays O(one tensor) rather than O(file).
"""

from __future__ import annotations

import enum
import hashlib
import json
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    ByteRangeError,
    InvalidHeaderError,
    NonFiniteValueError,
    TruncatedDataError,
    UnknownDtypeError,
    ValidationError,
)


class Dtype(enum.Enum):
    """Element types supported by the container."""

    F16 = "F16"
    F32 = "F32"
    F64 = "F64"

    @property
    def itemsize(self) -> int:
        return _ITEMSIZE[self]

    @property
    def numpy_dtype(self) -> np.dtype:
        return _NUMPY_DTYPE[self]

    @classmethod
    def from_numpy(cls, dt: np.dtype) -> "Dtype":
        try:
            return _FROM_NUMPY[np.dtype(dt).str.lstrip("<=|>")]
        except KeyError:
            raise ValidationError(f"unsupported array dtype {np.dtype(dt)}; expected float16/32/64")


_ITEMSIZE = {Dtype.F16: 2, Dtype.F32: 4, Dtype.F64: 8}
_NUMPY_DTYPE = {Dtype.F16: np.dtype("<f2"), Dtype.F32: np.dtype("<f4"), Dtype.F64: np.dtype("<f8")}
_FROM_NUMPY = {"f2": Dtype.F16, "f4": Dtype.F32, "f8": Dtype.F64}
_DTYPE_BY_NAME = {d.value: d for d in Dtype}


@dataclass(frozen=True)
class TensorMeta:
    """Parsed header entry for one tensor."""

    name: str
    dtype: Dtype
    shape: tuple[int, ...]
    byte_range: tuple[int, int]

    @property
    def num_elements(self) -> int:
        n = 1
        for dim in self.shape:
            n *= dim
        return n

    @property
    def nbytes(self) -> int:
        return self.num_elements * self.dtype.itemsize


def _first_non_finite_index(arr: np.ndarray) -> int:
    finite = np.isfinite(arr.reshape(-1))
    return int(np.argmin(finite))


class TensorMap:
    """An ordered collection of named float tensors plus string metadata.

    Canonical iteration order is lexicographic by name. Values are read-only
    numpy arrays in their storage dtype (float16/32/64, little-endian); maps
    returned by :func:`read_checkpoint` keep their values as views into the
    memory-mapped file. Instances are immutable after construction and safe
    to share across threads.

    Non-finite values are legal in a map (they are accepted on read and
    reported by :meth:`non_finite_tensors`); arithmetic operations reject
    them unless explicitly told not to.
    """

    __slots__ = ("_entries", "_metadata", "_buffer")

    def __init__(
        self,
        entries: Mapping[str, np.ndarray],
        metadata: Mapping[str, str] | None = None,
        *,
        _buffer: object = None,
    ):
        normalized: dict[str, np.ndarray] = {}
        for name in sorted(entries):
            if not isinstance(name, str) or not name:
                raise ValidationError(f"tensor names must be non-empty strings, got {name!r}")
            arr = np.asarray(entries[name])
            if arr.dtype.kind != "f" or arr.dtype.itemsize not in (2, 4, 8):
                raise ValidationError(
                    f"unsupported dtype {arr.dtype} for tensor {name!r}; expected float16/32/64"
                )
            target = _NUMPY_DTYPE[Dtype.from_numpy(arr.dtype)]
            if arr.dtype != target:  # byteswap to little-endian
                arr = arr.astype(target)
            view = arr.view()
            view.flags.writeable = False
            normalized[name] = view
        self._entries = normalized
        self._metadata = dict(metadata) if metadata else {}
        for key, value in self._metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValidationError("metadata must map strings to strings")
        self._buffer = _buffer

    @property
    def metadata(self) -> dict[str, str]:
        return dict(self._metadata)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._entries.items())

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def dtype_of(self, name: str) -> Dtype:
        return Dtype.from_numpy(self._entries[name].dtype)

    @property
    def num_elements(self) -> int:
        return sum(arr.size for arr in self._entries.values())

    @property
    def data_nbytes(self) -> int:
        return sum(arr.nbytes for arr in self._entries.values())

    def non_finite_tensors(self) -> dict[str, int]:
        """Names of tensors containing NaN/inf, mapped to the first bad index."""
        out = {}
        for name, arr in self._entries.items():
            if arr.size and not np.isfinite(arr).all():
                out[name] = _first_non_finite_index(arr)
        return out

    def has_non_finite(self) -> bool:
        return bool(self.non_finite_tensors())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorMap):
            return NotImplemented
        if self._metadata != other._metadata or self.names() != other.names():
            return False
        for name, arr in self._entries.items():
            theirs = other._entries[name]
            if arr.dtype != theirs.dtype or arr.shape != theirs.shape:
                return False
            if arr.tobytes() != theirs.tobytes():  # bitwise, NaN-safe
                return False
        return True

    def __repr__(self) -> str:
        return f"TensorMap({len(self)} tensors, {self.data_nbytes} data bytes)"


@dataclass(frozen=True)
class ModelSchema:
    """Sorted (name, dtype, shape) listing of a checkpoint."""

    entries: tuple[tuple[str, Dtype, tuple[int, ...]], ...]

    def canonical_json(self) -> str:
        return json.dumps(
            [[name, dtype.value, list(shape)] for name, dtype, shape in self.entries],
            ensure_ascii=False,
            separators=(",", ":"),
        )

    @property
    def schema_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def names(self) -> list[str]:
        return [name for name, _, _ in self.entries]


@dataclass(frozen=True)
class Fingerprint:
    """Schema digest plus an optional digest of the raw data section."""

    schema_hash: str
    content_hash: str | None = None


@dataclass(frozen=True)
class CompatReport:
    """Outcome of a schema comparison; incompatibility is data, not an error."""

    missing_in_a: tuple[str, ...]
    missing_in_b: tuple[str, ...]
    mismatched: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not (self.missing_in_a or self.missing_in_b or self.mismatched)

    def describe(self) -> str:
        parts = []
        if self.missing_in_a:
            parts.append(f"missing_in_a={list(self.missing_in_a)}")
        if self.missing_in_b:
            parts.append(f"missing_in_b={list(self.missing_in_b)}")
        if self.mismatched:
            parts.append(f"mismatched={list(self.mismatched)}")
        return ", ".join(parts) if parts else "ok"


def schema_of(tmap: TensorMap) -> ModelSchema:
    """Extract the sorted (name, dtype, shape) schema of a map."""
    return ModelSchema(
        tuple((name, Dtype.from_numpy(arr.dtype), tuple(arr.shape)) for name, arr in tmap.items())
    )


def _as_schema(obj: TensorMap | ModelSchema) -> ModelSchema:
    return obj if isinstance(obj, ModelSchema) else schema_of(obj)


def schema_compatible(a: TensorMap | ModelSchema, b: TensorMap | ModelSchema) -> CompatReport:
    """Compare two schemas; ``ok`` iff same names with equal dtype and shape."""
    sa = {name: (dtype, shape) for name, dtype, shape in _as_schema(a).entries}
    sb = {name: (dtype, shape) for name, dtype, shape in _as_schema(b).entries}
    missing_in_b = tuple(sorted(set(sa) - set(sb)))
    missing_in_a = tuple(sorted(set(sb) - set(sa)))
    mismatched = tuple(sorted(name for name in set(sa) & set(sb) if sa[name] != sb[name]))
    return CompatReport(missing_in_a, missing_in_b, mismatched)


def fingerprint(tmap: TensorMap, *, include_content: bool = False) -> Fingerprint:
    """Fingerprint a map. Content hashing is off by default (it reads all data)."""
    content = None
    if include_content:
        digest = hashlib.sha256()
        for _, arr in tmap.items():
            digest.update(arr.tobytes())
        content = digest.hexdigest()
    return Fingerprint(schema_hash=schema_of(tmap).schema_hash, content_hash=content)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    # json.loads would otherwise keep the last of two entries with one name.
    out: dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise InvalidHeaderError(f"header has duplicate key {key!r}")
        out[key] = value
    return out


def _parse_header_entry(name: str, entry: object, data_size: int) -> TensorMeta:
    if not isinstance(entry, dict):
        raise InvalidHeaderError(f"header entry for {name!r} is not an object")
    dtype_str = entry.get("dtype")
    if dtype_str not in _DTYPE_BY_NAME:
        raise UnknownDtypeError(f"tensor {name!r} declares unknown dtype {dtype_str!r}")
    dtype = _DTYPE_BY_NAME[dtype_str]
    shape = entry.get("shape")
    if (
        not isinstance(shape, list)
        or any(not isinstance(d, int) or isinstance(d, bool) or d < 0 for d in shape)
    ):
        raise InvalidHeaderError(f"tensor {name!r} has invalid shape {shape!r}")
    offsets = entry.get("data_offsets")
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or any(not isinstance(o, int) or isinstance(o, bool) for o in offsets)
    ):
        raise InvalidHeaderError(f"tensor {name!r} has invalid data_offsets {offsets!r}")
    begin, end = offsets
    if begin < 0 or end < begin:
        raise ByteRangeError(f"tensor {name!r} has invalid byte range [{begin}, {end})")
    if end > data_size:
        raise TruncatedDataError(
            f"tensor {name!r} needs data bytes up to offset {end} "
            f"but the data section has only {data_size} bytes"
        )
    meta = TensorMeta(name=name, dtype=dtype, shape=tuple(shape), byte_range=(begin, end))
    if end - begin != meta.nbytes:
        raise ByteRangeError(
            f"tensor {name!r} byte range [{begin}, {end}) holds {end - begin} bytes "
            f"but shape {list(meta.shape)} with dtype {dtype.value} needs {meta.nbytes}"
        )
    return meta


def _check_coverage(metas: list[TensorMeta], data_size: int) -> None:
    # Non-empty ranges must tile [0, data_size) exactly, with no overlap.
    occupied = sorted((m for m in metas if m.byte_range[0] != m.byte_range[1]),
                      key=lambda m: m.byte_range)
    cursor = 0
    previous: TensorMeta | None = None
    for meta in occupied:
        begin, end = meta.byte_range
        if previous is not None and begin < cursor:
            raise ByteRangeError(
                f"tensors {previous.name!r} and {meta.name!r} have overlapping byte ranges "
                f"{list(previous.byte_range)} and {list(meta.byte_range)}"
            )
        if begin > cursor:
            raise ByteRangeError(
                f"data section has a gap at offset {cursor} before tensor {meta.name!r}"
            )
        cursor = end
        previous = meta
    if cursor != data_size:
        raise ByteRangeError(
            f"data section has {data_size - cursor} unaddressed trailing bytes at offset {cursor}"
        )


def read_checkpoint(path: str | Path) -> TensorMap:
    """Read a checkpoint container into a TensorMap backed by a memory map.

    Raises a distinct :class:`~synvec.errors.ContainerError` subclass for each
    malformation: invalid header JSON/structure, unknown dtype, overlapping or
    gapped byte ranges, and truncated data.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        prefix = handle.read(8)
        if len(prefix) < 8:
            raise TruncatedDataError(
                f"{path}: file has {len(prefix)} bytes, too short for the 8-byte header length"
            )
        header_len = int.from_bytes(prefix, "little")
        file_size = os.fstat(handle.fileno()).st_size
        if 8 + header_len > file_size:
            raise TruncatedDataError(
                f"{path}: header length {header_len} exceeds file size {file_size}"
            )
        header_bytes = handle.read(header_len)
        try:
            header = json.loads(header_bytes.decode("utf-8"), object_pairs_hook=_unique_keys)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidHeaderError(f"{path}: header is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise InvalidHeaderError(f"{path}: header JSON is not an object")

        raw_metadata = header.pop("__metadata__", {})
        if not isinstance(raw_metadata, dict) or any(
            not isinstance(k, str) or not isinstance(v, str) for k, v in raw_metadata.items()
        ):
            raise InvalidHeaderError(f"{path}: __metadata__ must map strings to strings")

        data_start = 8 + header_len
        data_size = file_size - data_start
        metas = []
        for name, entry in header.items():
            if not name:
                raise InvalidHeaderError(f"{path}: empty tensor name in header")
            metas.append(_parse_header_entry(name, entry, data_size))
        _check_coverage(metas, data_size)

        buffer = None
        if data_size > 0:
            buffer = mmap.mmap(handle.fileno(), length=file_size, access=mmap.ACCESS_READ)

        entries: dict[str, np.ndarray] = {}
        for meta in metas:
            if meta.num_elements == 0:
                entries[meta.name] = np.empty(meta.shape, dtype=meta.dtype.numpy_dtype)
            else:
                flat = np.frombuffer(
                    buffer,
                    dtype=meta.dtype.numpy_dtype,
                    count=meta.num_elements,
                    offset=data_start + meta.byte_range[0],
                )
                entries[meta.name] = flat.reshape(meta.shape)
        return TensorMap(entries, raw_metadata, _buffer=buffer)


def write_checkpoint(tmap: TensorMap, path: str | Path, *, allow_non_finite: bool = False) -> None:
    """Write a map in canonical form; byte-identical output for equal inputs."""
    if not allow_non_finite:
        bad = tmap.non_finite_tensors()
        if bad:
            name, index = next(iter(bad.items()))
            raise NonFiniteValueError(
                f"tensor {name!r} has a non-finite value at flat index {index}; "
                "pass allow_non_finite=True to write anyway",
                tensor=name,
                index=index,
            )
    header: dict[str, object] = {}
    if tmap.metadata:
        header["__metadata__"] = {key: tmap.metadata[key] for key in sorted(tmap.metadata)}
    offset = 0
    for name, arr in tmap.items():
        nbytes = arr.nbytes
        header[name] = {
            "dtype": Dtype.from_numpy(arr.dtype).value,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    blob = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(len(blob).to_bytes(8, "little"))
        handle.write(blob)
        for _, arr in tmap.items():
            if arr.size:
                handle.write(arr.tobytes())
