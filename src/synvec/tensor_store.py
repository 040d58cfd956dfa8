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

A map read from a file keeps the open file, and its values have one reader:
each window of the file is read with ``os.preadv`` into one buffer
(:func:`_reader`), so a shrunk file is a ``TruncatedDataError``. There is one
pass (:func:`_aligned`), and the finite scan, the content hash, the writing
of a map and ``vector_ops``' kernel and reductions all run on it. It walks
the leaves of numpy's pairwise-sum split that first fit in
:data:`BLOCK_ELEMENTS` (:func:`leaves`), in windows of about
:data:`RELEASE_BYTES` (:func:`windows`), and gives each window the aligned
block of every operand, maps and :class:`TensorStream` items alike. So a pass
holds a window of each operand (``==`` compares two maps on it). ``tmap[name]``
reads its whole tensor over the same windows into a new array, and
:meth:`TensorStream.collect` fills one array per tensor from a stream.
Writes are header first: :func:`write_checkpoint` builds the header from the
names, dtypes and shapes alone, then writes the data a window at a time. A
:class:`TensorStream` (a kernel's output, window by window) is written as it
is produced, so the output is never held whole, and :func:`write_and_map`
then reads the written file back in place of the output. Writes go to a new
file beside the target that then replaces it (:func:`open_replacing`), so a
file that is still open as an input can be overwritten safely, and a write
that fails part way leaves the target as it was.

Finite values: reading accepts NaN and infinity, and
:meth:`TensorMap.non_finite_tensors` reports them; :func:`write_checkpoint`
refuses them, so synvec never writes one. A float is NaN or infinite exactly
when its exponent bits are all ones, for F16, F32 and F64 alike.
:func:`first_non_finite` tests those bits through an unsigned view, one block
of :data:`BLOCK_ELEMENTS` at a time; it is the only finite check in the
toolkit. ``vector_ops``'s kernel calls it on each output leaf, and
:meth:`TensorMap.non_finite_tensors` is the only caller that scans a whole
map. It memoises its answer on maps whose values cannot change: maps
:func:`read_checkpoint` returns (read from a file opened read-only), and
maps of kernel output, collected or written and read back, which are
known finite without a scan. A map built from a caller's arrays is scanned
on every call, because the caller may still write to them.
"""

from __future__ import annotations

import contextlib
import enum
import errno
import functools
import hashlib
import json
import os
import secrets
import stat
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping, Sequence

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


BLOCK_ELEMENTS = 1 << 15  # per leaf of a pass: a leaf and its scratch stay in cache
RELEASE_BYTES = 1 << 19  # per window of a pass: the bytes one read of a file map fills


def _half(size: int) -> int:
    """Where numpy's pairwise sum splits ``size`` elements: ``size // 2``
    rounded down to a multiple of 8."""
    half = size // 2
    return half - half % 8


@functools.lru_cache(maxsize=4096)  # sizes of tensors and of the nodes of their splits
def leaves(size: int) -> tuple[tuple[int, int], ...]:
    """(start, stop) of each leaf of a tensor of ``size`` elements, in order.

    The leaves are the nodes of numpy's pairwise-sum split of a contiguous
    array that first hold at most :data:`BLOCK_ELEMENTS` elements. ``np.sum``
    of one leaf is that node's sum, so :func:`add_up` of the leaves' sums has
    the bits of ``np.sum`` over the whole tensor.
    """
    if size <= BLOCK_ELEMENTS:
        return ((0, size),) if size else ()
    half = _half(size)
    return leaves(half) + tuple((start + half, stop + half) for start, stop in leaves(size - half))


def add_up(size: int, sums: Sequence[float]) -> float:
    """The sums of the :func:`leaves` of ``size`` elements, in order, added
    up the split tree as numpy's pairwise sum adds them; 0.0 for no leaves."""
    remaining = iter(sums)

    def node(size: int) -> float:
        if size <= BLOCK_ELEMENTS:
            return next(remaining, 0.0)
        half = _half(size)
        return node(half) + node(size - half)

    return node(size)


Window = tuple[int, int, tuple[tuple[int, int], ...]]  # begin, end, leaves


@functools.lru_cache(maxsize=1024)
def windows(size: int, itemsize: int) -> tuple[Window, ...]:
    """The :func:`leaves` of a tensor of ``size`` elements of ``itemsize``
    bytes, grouped in order into windows of at most :data:`RELEASE_BYTES`:
    ``(begin, end, leaves)`` per window."""
    limit = RELEASE_BYTES // itemsize
    groups: list[list[tuple[int, int]]] = []
    for leaf in leaves(size):
        if not groups or leaf[1] - groups[-1][0][0] > limit:
            groups.append([])
        groups[-1].append(leaf)
    return tuple((group[0][0], group[-1][1], tuple(group)) for group in groups)


_EXPONENT_BITS = {2: np.uint16(0x7C00), 4: np.uint32(0x7F800000),
                  8: np.uint64(0x7FF0000000000000)}


def first_non_finite(values: np.ndarray, scratch: np.ndarray) -> int | None:
    """Flat index of the first NaN or infinity in ``values``, or None.

    Reads the exponent bits through an unsigned view of the same width, one
    block at a time; ``scratch`` is a uint64 array of at least
    ``min(values.size, BLOCK_ELEMENTS)`` elements.
    """
    exponent = _EXPONENT_BITS[values.itemsize]
    bits = values.reshape(-1).view(exponent.dtype)
    work = scratch.view(exponent.dtype)
    for start in range(0, bits.size, BLOCK_ELEMENTS):
        block = bits[start : start + BLOCK_ELEMENTS]
        masked = np.bitwise_and(block, exponent, out=work[: block.size])
        if masked.max() == exponent:
            return start + int(np.argmax(masked == exponent))
    return None


def require_finite(tmap: "TensorMap", message: str) -> None:
    """Raise for the first tensor of ``tmap``, in name order, that is not finite.

    ``message`` is formatted with the tensor's ``name`` and the flat ``index``.
    """
    bad = tmap.non_finite_tensors()
    if bad:
        name, index = next(iter(bad.items()))
        raise non_finite_error(message, name, index)


def non_finite_error(message: str, name: str, index: int) -> NonFiniteValueError:
    return NonFiniteValueError(message.format(name=name, index=index), tensor=name, index=index)


class TensorMap:
    """An ordered collection of named float tensors plus string metadata.

    Canonical iteration order is lexicographic by name. Values are read-only
    numpy arrays in their storage dtype (float16/32/64, little-endian); on a
    map read from a file, ``tmap[name]`` reads its whole tensor into a new
    array. Instances are immutable after construction and safe to share
    across threads (each read makes its own buffer).

    Non-finite values are legal in a map (they are accepted on read and
    reported by :meth:`non_finite_tensors`); arithmetic and writing reject
    them.

    ``_buffer`` is the open file every value is read from, ``_offsets`` each
    tensor's byte offset in it (``_entries`` then hold only stand-ins of the
    right dtype and shape, never read), and ``_non_finite`` the known answer
    of :meth:`non_finite_tensors`. A file or a known answer marks the values
    as unchangeable, so that the answer is kept once computed (threads that
    ask before that may each scan, and get the same answer).
    """

    __slots__ = ("_entries", "_metadata", "_buffer", "_offsets", "_non_finite")

    def __init__(
        self,
        entries: Mapping[str, np.ndarray],
        metadata: Mapping[str, str] | None = None,
        *,
        _buffer: object = None,
        _offsets: dict[str, int] | None = None,
        _non_finite: dict[str, int] | None = None,
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
        self._offsets = _offsets or {}
        self._non_finite = _non_finite

    def with_metadata(self, metadata: Mapping[str, str] | None) -> "TensorMap":
        """The same tensors under other metadata, sharing values and scan memo."""
        return TensorMap(self._entries, metadata, _buffer=self._buffer, _offsets=self._offsets,
                         _non_finite=self._non_finite)

    @property
    def metadata(self) -> dict[str, str]:
        return dict(self._metadata)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        """(name, values) pairs in name order, each value what ``tmap[name]``
        gives (:meth:`__getitem__`), read as it is reached."""
        for name in self._entries:
            yield name, self[name]

    def _copy(self, name: str) -> np.ndarray:
        """A read-only copy of tensor ``name``, read (:func:`_reader`) window by
        window (:func:`windows`)."""
        arr, read = self._entries[name], _reader(self)
        copy = np.empty(arr.shape, arr.dtype)
        for begin, end, _ in windows(arr.size, arr.itemsize):
            copy.reshape(-1)[begin:end] = read(name, begin, end)
        copy.flags.writeable = False
        return copy

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> np.ndarray:
        """Read-only values; with a file, a new array (:meth:`_copy`)."""
        arr = self._entries[name]
        return arr if self._buffer is None else self._copy(name)

    @property
    def num_elements(self) -> int:
        return sum(arr.size for arr in self._entries.values())

    @property
    def data_nbytes(self) -> int:
        return sum(arr.nbytes for arr in self._entries.values())

    def non_finite_tensors(self) -> dict[str, int]:
        """Names of tensors containing NaN/inf, mapped to the first bad index."""
        return dict(self._scan() if self._non_finite is None else self._non_finite)

    def _scan(self, digest: hashlib._Hash | None = None) -> dict[str, int]:
        scratch = np.empty(BLOCK_ELEMENTS, dtype=np.uint64)
        out = {}
        for name, _, tensor_windows in _aligned([self]):
            for begin, _, _, (values,) in tensor_windows:
                if digest is not None:
                    digest.update(values.data)
                if name not in out:
                    index = first_non_finite(values, scratch)
                    if index is not None:
                        out[name] = begin + index
        if self._buffer is not None:
            self._non_finite = out
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorMap):
            return NotImplemented
        return (self._metadata == other._metadata and schema_of(self) == schema_of(other)
                and all(mine.tobytes() == theirs.tobytes()  # bitwise, NaN-safe
                        for _, _, tensor_windows in _aligned([self, other])
                        for _, _, _, (mine, theirs) in tensor_windows))

    def __repr__(self) -> str:
        return f"TensorMap({len(self)} tensors, {self.data_nbytes} data bytes)"


def _reader(tmap: TensorMap):
    """``read(name, begin, end)`` for one pass: the flat values ``[begin, end)``
    of tensor ``name`` of ``tmap``, valid until the next call, read from its
    file into one window buffer (a short read: the file shrank) or viewed."""
    if tmap._buffer is None:  # a strided tensor is flattened once, not per window
        flat = functools.lru_cache(maxsize=1)(lambda name: tmap._entries[name].reshape(-1))
        return lambda name, begin, end: flat(name)[begin:end]
    window = np.empty(min(tmap.data_nbytes, RELEASE_BYTES), dtype=np.uint8)

    def read(name: str, begin: int, end: int) -> np.ndarray:
        dtype = tmap._entries[name].dtype
        out = window[: (end - begin) * dtype.itemsize]
        start = tmap._offsets[name] + begin * dtype.itemsize
        try:
            count = os.preadv(tmap._buffer.fileno(), [out], start)
        except OSError as exc:  # named, so that a write it feeds does not take it as its own
            raise OSError(exc.errno, exc.strerror, tmap._buffer.name) from None
        if count < out.nbytes:
            raise TruncatedDataError(f"{tmap._buffer.name}: tensor {name!r} needs bytes up to "
                                     f"offset {start + out.nbytes}, but the file has shrunk")
        return out.view(dtype)

    return read


def _aligned(operands: Sequence[TensorMap | TensorStream]):
    """One pass over schema-compatible operands, the first a map: per tensor
    of the first map in name order, ``(name, entry, windows)``. ``entry`` is
    the tensor's layout entry, and ``windows`` yields ``(begin, end, leaves,
    blocks)`` per window of :func:`windows` of the entry, where ``blocks``
    holds each operand's flat values ``[begin, end)``: a map's read by
    :func:`_reader`, a stream's its next item. A block is valid until the next
    window is asked for, and a tensor's windows are taken before the next
    tensor."""
    reads = [_reader(operand) if isinstance(operand, TensorMap)
             else lambda name, begin, end, items=operand.tensors: next(items)[1]
             for operand in operands]
    for name, entry in operands[0]._entries.items():
        yield name, entry, ((begin, end, leaves, [read(name, begin, end) for read in reads])
                            for begin, end, leaves in windows(entry.size, entry.itemsize))


@dataclass(frozen=True)
class TensorStream:
    """A map whose values are still being produced.

    ``layout`` gives the names, dtypes, shapes and metadata; ``tensors``
    yields the values, once, in name order, a window at a time: each item is
    ``(name, values)``, the flat values of the tensor's next window
    (:func:`windows`), valid until the next item is asked for. The values
    are known to be finite (a kernel checks each leaf it produces), so
    neither a write nor :meth:`collect` scans them again.
    """

    layout: TensorMap
    tensors: Iterator[tuple[str, np.ndarray]]

    @classmethod
    def of(cls, tmap: TensorMap) -> "TensorStream":
        """The values of ``tmap``, known to be finite, a window at a time."""
        return cls(tmap, ((name, blocks[0]) for name, _, tensor_windows in _aligned([tmap])
                          for _, _, _, blocks in tensor_windows))

    @property
    def data_nbytes(self) -> int:
        return self.layout.data_nbytes

    def collect(self) -> TensorMap:
        """All the values, held in one map."""
        entries = {name: np.empty(arr.shape, arr.dtype)
                   for name, arr in self.layout._entries.items()}
        filled = dict.fromkeys(entries, 0)
        for name, values in self.tensors:
            begin = filled[name]
            entries[name].reshape(-1)[begin : begin + values.size] = values
            filled[name] = begin + values.size
        return TensorMap(entries, self.layout.metadata, _non_finite={})


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
    return ModelSchema(tuple((name, Dtype.from_numpy(arr.dtype), tuple(arr.shape))
                             for name, arr in tmap._entries.items()))


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
    """Fingerprint a map. Content hashing is off by default (it reads all data).
    The pass that hashes also scans: the scan memo of a map read from a file."""
    content = None
    if include_content:
        digest = hashlib.sha256()
        tmap._scan(digest)
        content = digest.hexdigest()
    return Fingerprint(schema_hash=schema_of(tmap).schema_hash, content_hash=content)


def _unique_keys(path: Path, pairs: list[tuple[str, object]]) -> dict[str, object]:
    # json.loads would otherwise keep the last of two entries with one name.
    out: dict[str, object] = {}
    for key, value in pairs:
        if key in out:
            raise InvalidHeaderError(f"{path}: header has duplicate key {key!r}")
        out[key] = value
    return out


def _parse_header_entry(path: Path, name: str, entry: object, data_size: int) -> TensorMeta:
    if not isinstance(entry, dict):
        raise InvalidHeaderError(f"{path}: header entry for {name!r} is not an object")
    dtype_str = entry.get("dtype")
    dtype = _DTYPE_BY_NAME.get(dtype_str) if isinstance(dtype_str, str) else None
    if dtype is None:
        raise UnknownDtypeError(f"{path}: tensor {name!r} declares unknown dtype {dtype_str!r}")
    shape = entry.get("shape")
    if (
        not isinstance(shape, list)
        or any(not isinstance(d, int) or isinstance(d, bool) or d < 0 for d in shape)
    ):
        raise InvalidHeaderError(f"{path}: tensor {name!r} has invalid shape {shape!r}")
    offsets = entry.get("data_offsets")
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or any(not isinstance(o, int) or isinstance(o, bool) for o in offsets)
    ):
        raise InvalidHeaderError(f"{path}: tensor {name!r} has invalid data_offsets {offsets!r}")
    begin, end = offsets
    if begin < 0 or end < begin:
        raise ByteRangeError(f"{path}: tensor {name!r} has invalid byte range [{begin}, {end})")
    if end > data_size:
        raise TruncatedDataError(
            f"{path}: tensor {name!r} needs data bytes up to offset {end} "
            f"but the data section has only {data_size} bytes"
        )
    meta = TensorMeta(name=name, dtype=dtype, shape=tuple(shape), byte_range=(begin, end))
    if end - begin != meta.nbytes:
        raise ByteRangeError(
            f"{path}: tensor {name!r} byte range [{begin}, {end}) holds {end - begin} bytes "
            f"but shape {list(meta.shape)} with dtype {dtype.value} needs {meta.nbytes}"
        )
    return meta


def _check_coverage(path: Path, metas: list[TensorMeta], data_size: int) -> None:
    # Non-empty ranges must tile [0, data_size) exactly, with no overlap.
    occupied = sorted((m for m in metas if m.byte_range[0] != m.byte_range[1]),
                      key=lambda m: m.byte_range)
    cursor = 0
    previous: TensorMeta | None = None
    for meta in occupied:
        begin, end = meta.byte_range
        if previous is not None and begin < cursor:
            raise ByteRangeError(
                f"{path}: tensors {previous.name!r} and {meta.name!r} have overlapping "
                f"byte ranges {list(previous.byte_range)} and {list(meta.byte_range)}"
            )
        if begin > cursor:
            raise ByteRangeError(
                f"{path}: data section has a gap at offset {cursor} before tensor {meta.name!r}"
            )
        cursor = end
        previous = meta
    if cursor != data_size:
        raise ByteRangeError(
            f"{path}: data section has {data_size - cursor} unaddressed trailing bytes "
            f"at offset {cursor}"
        )


def read_checkpoint(path: str | Path) -> TensorMap:
    """Read a checkpoint container into a TensorMap of the open file.

    Raises a distinct :class:`~synvec.errors.ContainerError` subclass for each
    malformation: invalid header JSON/structure, unknown dtype, overlapping or
    gapped byte ranges, and truncated data. Only the header is read here;
    every value is read from the open file when it is used, so a file that
    has shrunk by then is a TruncatedDataError. The file is closed when the
    last map that holds it goes.
    """
    path = Path(path)
    with open(path, "rb") as opened:  # whose errors (a directory, no such file) name the path
        fd = os.dup(opened.fileno())
    handle = open(fd, "rb", closefd=False)  # fd closes when the last map holding handle goes
    handle.raw.name = str(path)  # read errors name the file, not the descriptor
    close = weakref.finalize(handle, os.close, fd)
    try:
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
            header = json.loads(header_bytes.decode("utf-8"),
                                object_pairs_hook=functools.partial(_unique_keys, path))
        # ValueError: not UTF-8, not JSON, or an integer too long to convert;
        # RecursionError: nested too deep to decode.
        except (ValueError, RecursionError) as exc:
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
            metas.append(_parse_header_entry(path, name, entry, data_size))
        _check_coverage(path, metas, data_size)

        entries: dict[str, np.ndarray] = {}  # layout only: stand-ins of no bytes
        for meta in metas:
            try:
                entries[meta.name] = np.broadcast_to(np.zeros((), meta.dtype.numpy_dtype),
                                                     meta.shape)
            except ValueError as exc:  # more dimensions, or larger ones, than numpy holds
                raise InvalidHeaderError(f"{path}: tensor {meta.name!r} has shape "
                                         f"{list(meta.shape)}, which numpy cannot hold: {exc}"
                                         ) from None
    except BaseException:
        close()
        raise
    offsets = {meta.name: data_start + meta.byte_range[0] for meta in metas}
    return TensorMap(entries, raw_metadata, _buffer=handle, _offsets=offsets)


def _is_std_stream(info: os.stat_result) -> bool:
    for fd in (1, 2):
        try:
            if os.path.samestat(info, os.fstat(fd)):
                return True
        except OSError:  # the descriptor is closed
            pass
    return False


def _stat_or_none(path: str | Path) -> os.stat_result | None:
    try:
        return os.stat(path)
    except FileNotFoundError:
        return None


def _in_place(info: os.stat_result | None) -> bool:
    """Whether :func:`open_replacing` writes a target with this status
    (None: no such file) in place instead of replacing it."""
    return info is not None and (not stat.S_ISREG(info.st_mode) or _is_std_stream(info))


@contextlib.contextmanager
def open_replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that replaces ``path`` once the ``with`` block completes.

    When ``path`` is a regular file or does not exist, the data goes to a new
    file in the same directory, which ``os.replace`` then moves over ``path``:
    an existing ``path`` is never truncated (its old contents stay valid for
    anyone who still maps them), and a failed write leaves it as it was. The
    file gets the mode ``open(path, "wb")`` would give it. It is not fsynced.
    A symlink is written through, as ``open`` would: its target is replaced,
    not the link.

    Anything else (a FIFO, a terminal, ``/dev/null``), and a file that is this
    process's stdout or stderr (``/dev/stdout`` redirected to a file), is
    opened with ``open(path, "wb")`` and written in place.

    A failed write (an ``OSError`` of the block that names no file) is raised
    naming ``path`` as given, and a missing directory by name, never the new
    file beside it.
    """
    info, temp = _stat_or_none(path), None
    try:
        if _in_place(info):
            with open(path, "wb") as handle:
                yield handle
            return
        real = Path(os.path.realpath(path))
        # 0o666 less the umask for a new file, as open() creates it
        mode = None if info is None else stat.S_IMODE(info.st_mode)
        temp = real.with_name(f".{real.name}.{secrets.token_hex(6)}.tmp")
        handle = os.fdopen(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
        with handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            yield handle
        os.replace(temp, real)
    except BaseException as exc:
        if temp is not None:
            temp.unlink(missing_ok=True)
        if not isinstance(exc, OSError) or exc.filename not in (None, str(temp)):
            raise
        if temp is not None and not temp.parent.is_dir():
            raise OSError(errno.ENOENT, f"No such directory {str(temp.parent)!r} to write "
                                        f"{str(path)!r} in") from None
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def write_checkpoint(tmap: TensorMap | TensorStream, path: str | Path) -> None:
    """Write a map in canonical form; byte-identical output for equal inputs.

    The header goes first, built from the names, dtypes and shapes alone;
    then the data, a window at a time. So a :class:`TensorStream` is written
    as its kernel produces it, and a read map is read a window at a time. A
    failed write leaves ``path`` as it was (:func:`open_replacing`).

    A map holding a NaN or infinity is refused: synvec writes finite values only.
    """
    if not isinstance(tmap, TensorStream):
        require_finite(tmap, "tensor {name!r} has a non-finite value at flat index {index}")
        tmap = TensorStream.of(tmap)
    layout = tmap.layout
    header: dict[str, object] = {}
    if layout.metadata:
        header["__metadata__"] = {key: layout.metadata[key] for key in sorted(layout.metadata)}
    offset = 0
    for name, arr in layout._entries.items():
        header[name] = {
            "dtype": Dtype.from_numpy(arr.dtype).value,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + arr.nbytes],
        }
        offset += arr.nbytes
    blob = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    with open_replacing(path) as handle:
        handle.write(len(blob).to_bytes(8, "little"))
        handle.write(blob)
        for _, values in tmap.tensors:
            handle.write(values.data)


def write_and_map(stream: TensorStream, path: str | Path | None) -> TensorMap:
    """:func:`write_checkpoint` of ``stream``, then :func:`read_checkpoint` of
    ``path``, known to be finite. Neither the write nor the map holds more of
    the output than the window being written.

    With no ``path``, or a target that is written in place (a FIFO, a
    device, this process's stdout or stderr; see :func:`open_replacing`) and
    so cannot be read back, the stream is collected, written whole if it has
    a target, and returned as collected.
    """
    if path is None or _in_place(_stat_or_none(path)):
        collected = stream.collect()
        if path is not None:
            write_checkpoint(collected, path)
        return collected
    write_checkpoint(stream, path)
    written = read_checkpoint(path)
    written._non_finite = {}
    return written
